"""Descendant generation: push image sets of one site into a seed inequality.

A substitution plan declares, for every setting on the target site, which
logical letter it plays and which image terms replace it:

* ``all`` / an index subset — every occurrence of the setting becomes the
  SUM of the selected (signed) images.  This is the move behind every
  worked derivation chain in the fixture catalogue: using the full image
  set turns a two-site correlation witness into the three-party Mermin
  form, and a singleton subset yields e.g. the Das-Datta-Agrawal shape.
* an explicit per-occurrence list — the k-th occurrence of the setting
  (in canonical term order) gets its own single image, injectively.

One kernel substitutes, the contribution table (``_Table``).  For one
seed, target site and block width it pairs every seed term, in the
linear part and in each square part, with every image of its target
setting, each image a (coefficient, monomial) pair.  Each pair gives a
column, the shifted image monomial's place in a universe sorted by
canonical monomial order, and an exact coefficient, an integer over one
common denominator.  A plan picks table entries for every seed term, so
a descendant is one integer row over the universe.  ``substitute``
applies the table to one plan, its images the signed members of image
sets (``_image_pairs``); ``lift_coherence_witness`` substitutes a whole
image set into a one-term seed; ``substitute_symbolic`` gives each target
setting one image, its mapped product of symbolic settings.

``enumerate_descendants`` indexes plans instead of building them: plan p
of the selection product (``itertools.product`` order) takes selection
(p // inner) % count of each setting, so only the first
``max_assignments`` plans and the selections they reach are ever made.
Their rows come in chunks of integer arrays and are deduplicated on row
bytes, the first plan winning.  Bounds and values are then computed for
all kept rows at once, by the kernels that also serve one expression:
deterministic bounds of linear rows through ``bounds``' strategy
evaluator, one stack per setting set, and quantum values through
``bounds``' quantum-value kernel, which takes each present universe
monomial with its coefficient column; ``quantum_value`` is its one-row
call, so each row's value is its own expression's, and a lifted state
narrower than the descendants is refused there.  Only the emitted rows
become Python objects, each with its AST, plan and one printed text.

Bounds of descendants are never inherited: the caller re-derives them
from scratch (``enumerate_descendants`` does this automatically).  The
search takes every target setting, squared-only ones too, and builds no
amplitudes, so without a state descendants may pass 12 qubits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .bounds import (
    BoundError,
    _folded_values,
    _quantum_values,
    _Stack,
    lhv_bound,
    lhv_bound_nonlinear,
)
from .codespace import LogicalEncoding, image_set, lift_state
from .config import LIMITS, TOL
from .dsl import Inequality, InequalityAST, LinearTerms, Monomial, Setting, _mono_key, pretty_print
from .pauli import PauliString
from .states import StateVector
from . import bounds as _bounds


class SubstitutionError(ValueError):
    pass


@dataclass(frozen=True)
class PlanEntry:
    """How one target-site setting maps into the code space."""

    letter: str                      # logical letter X, Y or Z
    sign: int = 1                    # observable identified with +-letter
    selection: tuple = ("all",)      # ("all",) | ("subset", idx...) | ("occ", idx...)

    def __post_init__(self):
        if self.letter not in ("X", "Y", "Z"):
            raise SubstitutionError(f"logical letter must be X/Y/Z, got {self.letter!r}")
        if self.sign not in (1, -1):
            raise SubstitutionError("sign must be +-1")
        mode = self.selection[0]
        if mode not in ("all", "subset", "occ"):
            raise SubstitutionError(f"unknown selection mode {mode!r}")
        if mode == "occ" and len(set(self.selection[1:])) != len(self.selection) - 1:
            raise SubstitutionError("occurrence assignment must be injective")


@dataclass(frozen=True)
class SubstitutionPlan:
    target_site: int
    encoding: LogicalEncoding
    entries: Mapping[Setting, PlanEntry]


def _shift_setting(s: Setting, target: int, block: int) -> Setting:
    if s.site < target:
        return s
    return Setting(s.site + block - 1, s.base, s.primes)


_Image = tuple[Fraction, Monomial]  # a signed image as (coefficient, monomial)


def _image_pairs(members: Sequence[PauliString], target: int, sign: int) -> tuple[_Image, ...]:
    """Each member as ``sign`` times its phase and its non-I letters from site ``target`` on."""
    return tuple(
        (Fraction(sign * (1 - m.phase_exp)),  # phase_exp 0 or 2 gives sign +1 or -1
         tuple(Setting(target + i, letter)
               for i, letter in enumerate(m.letters) if letter != "I"))
        for m in members
    )


_ROW_CHUNK = 1 << 20  # integer entries built per chunk of plans


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """Ascending index of the first occurrence of each distinct row (by its bytes)."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return np.sort(np.unique(keys.ravel(), return_index=True)[1])


class _Table:
    """Contribution table of one seed under one target site, block width and image map.

    ``images`` gives each target setting its images as (coefficient,
    monomial) pairs, the monomials on the block's sites.  Every seed term
    is paired with every image of its target setting (a term without a
    target setting stands alone); each pair is a column of the universe,
    the distinct result monomials sorted by ``_mono_key``, and an exact
    coefficient, stored as an integer over one common denominator.  A row
    is one integer vector per part (the linear part, then each square
    part), laid end to end.

    For a target setting s, ``cols[s]`` and ``nums[s]`` have shape
    (occurrences, images): its linear-part terms in canonical order, then
    its square-part terms.  Every (occurrence, image) pair of one setting
    lands in its own column, because a monomial splits uniquely into its
    block part and the rest, so a selection writes its entries without
    collisions; entries of different settings may share a column.
    """

    def __init__(self, ast: InequalityAST, target: int, block: int,
                 images: Mapping[Setting, Sequence[_Image]]):
        self.parts = 1 + len(ast.squares)
        raw = []  # (part, setting or None, occurrence, image, monomial, value)
        occurrences: dict[Setting, int] = {}
        self.n_linear: dict[Setting, int] = {}
        for part, terms in enumerate([ast.linear] + [sub for _, sub in ast.squares]):
            for coeff, mono in terms:
                rest = tuple(_shift_setting(s, target, block) for s in mono if s.site != target)
                on_target = [s for s in mono if s.site == target]
                if not on_target:
                    raw.append((part, None, 0, 0, tuple(sorted(rest)), coeff))
                    continue
                s = on_target[0]
                if s not in images:
                    raise SubstitutionError(f"no plan entry for target setting {s.text()}")
                o = occurrences[s] = occurrences.get(s, 0) + 1
                if part == 0:
                    self.n_linear[s] = o
                for j, (c, img_mono) in enumerate(images[s]):
                    raw.append((part, s, o - 1, j, tuple(sorted(rest + img_mono)), coeff * c))
        self.universe = sorted({r[4] for r in raw}, key=_mono_key)
        column = {mono: u for u, mono in enumerate(self.universe)}
        self.denominator = math.lcm(*(r[5].denominator for r in raw))
        nums = [r[5].numerator * (self.denominator // r[5].denominator) for r in raw]
        if sum(abs(n) for n in nums) >= 2**63:
            raise SubstitutionError("descendant coefficients overflow 64-bit integers")
        self.width = self.parts * len(self.universe)
        self.const = np.zeros(self.width, dtype=np.int64)
        self.settings = sorted(occurrences)
        self.cols = {s: np.zeros((o, len(images[s])), dtype=np.int64)
                     for s, o in occurrences.items()}
        self.nums = {s: np.zeros_like(c) for s, c in self.cols.items()}
        for (part, s, o, j, mono, _), n in zip(raw, nums):
            w = part * len(self.universe) + column[mono]
            if s is None:
                self.const[w] = n
            else:
                self.cols[s][o, j], self.nums[s][o, j] = w, n
        self._terms: list[dict[int, tuple[Fraction, Monomial]]] = [{} for _ in range(self.width)]

    def picks(self, s: Setting, selections: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """0/1 (occurrence, image) picks of each selection of s, and whether it is usable.

        A per-occurrence selection is unusable when s also sits in a square part.
        """
        n_occ, n_img = self.cols[s].shape
        n_lin = self.n_linear.get(s, 0)
        out = np.zeros((len(selections), n_occ, n_img), dtype=bool)
        usable = np.ones(len(selections), dtype=bool)
        for q, sel in enumerate(selections):
            if sel[0] == "occ":
                usable[q] = n_occ == n_lin
                out[q, np.arange(n_lin), list(sel[1:1 + n_lin])] = True
            elif sel[0] == "subset":
                out[q][:, list(sel[1:])] = True
            else:
                out[q] = True
        return out.reshape(len(selections), -1), usable

    def rows(self, picks: Sequence[np.ndarray], chosen: Sequence[np.ndarray]) -> np.ndarray:
        """Integer rows of the plans that take selection chosen[i][r] of setting i."""
        out = np.tile(self.const, (len(chosen[0]) if chosen else 1, 1))
        for s, p, q in zip(self.settings, picks, chosen):
            out[:, self.cols[s].ravel()] += p[q] * self.nums[s].ravel()
        return out

    def distinct_rows(self, picks, usable, counts, inner, n_plans):
        """Rows of the first n_plans usable, pairwise distinct plans, and their selections.

        Plan p takes selection (p // inner[i]) % counts[i] of setting i, the
        ``itertools.product`` order; of equal rows the first plan's is kept.
        """
        kept_rows, kept_plans = [], []
        step = max(1, _ROW_CHUNK // max(1, self.width))
        for start in range(0, n_plans, step):
            p = np.arange(start, min(start + step, n_plans), dtype=np.int64)
            chosen = [(p // d) % min(c, n_plans) if d < n_plans else np.zeros_like(p)
                      for c, d in zip(counts, inner)]
            ok = np.flatnonzero(np.logical_and.reduce([u[q] for u, q in zip(usable, chosen)]))
            chosen = [q[ok] for q in chosen]
            rows = self.rows(picks, chosen)
            first = _first_distinct(rows)
            kept_rows.append(rows[first])
            kept_plans.append(np.stack([q[first] for q in chosen], axis=1))
        rows, plans = np.concatenate(kept_rows), np.concatenate(kept_plans)
        first = _first_distinct(rows)
        return rows[first], plans[first]

    def floats(self, rows: np.ndarray) -> np.ndarray:
        """``float`` of every entry's Fraction, through its distinct values."""
        values, inverse = np.unique(rows, return_inverse=True)
        exact = np.array([float(Fraction(v, self.denominator)) for v in values.tolist()])
        return exact[inverse.ravel()].reshape(rows.shape)

    def terms(self, row: np.ndarray) -> list[LinearTerms]:
        """Canonical linear terms of each part of a row; equal terms are one object."""
        u_count = len(self.universe)
        parts: list[list] = [[] for _ in range(self.parts)]
        for w in np.flatnonzero(row).tolist():
            n = int(row[w])
            term = self._terms[w].get(n)
            if term is None:
                term = self._terms[w][n] = (Fraction(n, self.denominator),
                                            self.universe[w % u_count])
            parts[w // u_count].append(term)
        return [tuple(p) for p in parts]


def _one_plan(table: _Table, ast: InequalityAST,
              selections: Mapping[Setting, tuple]) -> InequalityAST:
    """The one plan that takes ``selections[s]`` for each target setting s, with bound 0."""
    picks = []
    for s in table.settings:
        selection = selections[s]
        if len(selection) == 1 and selection[0] == "subset":
            raise SubstitutionError(f"empty image selection for {s.text()}")
        p, usable = table.picks(s, [selection])
        if not usable[0]:
            raise SubstitutionError("per-occurrence selection is only supported in the linear part")
        picks.append(p)
    chosen = [np.zeros(1, dtype=np.int64)] * len(picks)
    linear, *subs = table.terms(table.rows(picks, chosen)[0])
    squares = tuple((c, sub) for (c, _), sub in zip(ast.squares, subs))
    return InequalityAST(linear, squares, ast.relation, Fraction(0))


def substitute(seed: Inequality | InequalityAST, plan: SubstitutionPlan) -> InequalityAST:
    """Replace the target site's settings by code-space image monomials.

    Sites above the target shift by the encoding width minus one; the
    result is expanded, like-term collected, and carries bound 0 (the
    caller re-derives the bound).  The plan is one row of the seed's
    contribution table, the kernel the descendant search also uses.
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    images: dict[Setting, tuple[_Image, ...]] = {}
    for setting, entry in plan.entries.items():
        if setting.site != plan.target_site:
            raise SubstitutionError(
                f"plan entry {setting.text()} is not on site {plan.target_site}"
            )
        members = image_set(plan.encoding, entry.letter)
        oc = sum(1 for _, mono in ast.linear for s in mono if s == setting)
        if entry.selection[0] == "occ" and len(entry.selection) - 1 != oc:
            raise SubstitutionError(
                f"{setting.text()} occurs {oc} times, plan covers {len(entry.selection) - 1}"
            )
        for i in entry.selection[1:]:
            if not 0 <= i < len(members):
                raise SubstitutionError("image index out of range")
        images[setting] = _image_pairs(members, plan.target_site, entry.sign)
    table = _Table(ast, plan.target_site, plan.encoding.width, images)
    return _one_plan(table, ast, {s: e.selection for s, e in plan.entries.items()})


def substitute_symbolic(
    seed: Inequality | InequalityAST,
    target_site: int,
    block_width: int,
    mapping: Mapping[Setting, Sequence[Setting]],
) -> InequalityAST:
    """Replace target-site settings by products of fresh symbolic settings.

    Used for grouping-style descendants where a setting is replicated
    across the new sites (e.g. a third party splitting into three parties
    measuring the same labelled setting each).  Each target setting has
    one image, its mapped product, so this is a one-plan call of the
    contribution table.
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    for _, mono in ast.linear:
        for s in mono:
            if s.site == target_site and mapping.get(s) is None:
                raise SubstitutionError(f"no mapping for {s.text()}")
    if ast.squares:
        raise SubstitutionError("symbolic substitution supports linear seeds only")
    images = {s: ((Fraction(1), tuple(repl)),) for s, repl in mapping.items()}
    table = _Table(ast, target_site, block_width, images)
    return _one_plan(table, ast, dict.fromkeys(table.settings, ("all",)))


# ---------------------------------------------------------------------------

def _plan_selections(n_images: int, occurrences: int):
    """All selections for one setting: subset broadcasts, then injective."""
    idx = range(n_images)
    for r in range(1, n_images + 1):
        for combo in itertools.combinations(idx, r):
            if combo == tuple(idx):
                yield ("all",)
            else:
                yield ("subset", *combo)
    if occurrences >= 2:
        for perm in itertools.permutations(idx, occurrences):
            yield ("occ", *perm)


def _selection_count(n_images: int, occurrences: int) -> int:
    """Length of ``_plan_selections(n_images, occurrences)``."""
    return 2**n_images - 1 + (math.perm(n_images, occurrences) if occurrences >= 2 else 0)


def _lhv_bounds(table: _Table, rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Deterministic bound of every linear row, one strategy stack per setting set.

    Rows that use the same settings share a setting index, the one their
    own expression would get, so each value equals ``lhv_bound`` of the row.
    """
    settings = sorted({s for mono in table.universe for s in mono})
    at = {s: k for k, s in enumerate(settings)}
    incidence = np.zeros((len(table.universe), len(settings)), dtype=np.int64)
    for u, mono in enumerate(table.universe):
        incidence[u, [at[s] for s in mono]] = 1
    present = rows != 0
    used = (present.astype(np.int64) @ incidence) > 0
    counts = used.sum(axis=1)
    over = np.flatnonzero(counts > LIMITS.max_settings)
    if over.size:
        raise BoundError(f"{counts[over[0]]} settings exceed cap {LIMITS.max_settings}")
    patterns, group = np.unique(used, axis=0, return_inverse=True)
    group = group.ravel()
    order = np.argsort(group, kind="stable")
    bounds = np.empty(len(rows))
    for pattern, members in zip(patterns, np.split(order, np.cumsum(np.bincount(group))[:-1])):
        index = {settings[k]: i for i, k in enumerate(np.flatnonzero(pattern))}
        cols = np.flatnonzero(present[members].any(axis=0))
        masks = [sum(1 << index[s] for s in table.universe[u]) for u in cols]
        stack = _Stack(coeffs[np.ix_(members, cols)], masks)
        bounds[members] = _folded_values(stack, len(index), 0)[:, 0]
    return bounds


@dataclass
class DescendantResult:
    descendant: Inequality
    lhv_bound: float
    quantum_value: Optional[float]
    accepted: bool
    plan: Optional[SubstitutionPlan] = None
    truncated: bool = False
    derived_bound: Optional[float] = None  # image-count * threshold for witness lifts

    @cached_property
    def expression(self) -> str:
        """The descendant's text, printed once and shared by sorting and output."""
        return pretty_print(self.descendant.ast)

    @property
    def violation_ratio(self) -> float:
        if self.quantum_value is None or self.lhv_bound <= 0:
            return 0.0
        return self.quantum_value / self.lhv_bound

    def to_json(self) -> dict:
        return {
            "expression": self.expression,
            "lhv_bound": self.lhv_bound,
            "quantum_value": self.quantum_value,
            "accepted": self.accepted,
            "violation_ratio": self.violation_ratio,
            "truncated": self.truncated,
        }


def enumerate_descendants(
    seed: Inequality | InequalityAST,
    target_site: int,
    encoding: LogicalEncoding,
    letter_map: Mapping,
    seed_state: Optional[StateVector] = None,
    seed_assignment: Optional[Mapping] = None,
    max_assignments: int = LIMITS.max_assignments,
) -> list[DescendantResult]:
    """Search plan selections, re-derive every bound, keep violation order.

    ``letter_map`` sends each target-site setting (or its text), squared-
    only ones too, to a logical letter, optionally signed ("-Y").  The
    first ``max_assignments`` plans of the selection product are searched;
    a plan that substitution would refuse counts toward that cap.  The
    quantum value of each candidate is evaluated on the lifted seed state
    (target qubit replaced by the encoding) under the seed assignment for
    the untouched sites; candidates whose value beats their own
    re-derived bound are accepted.  Without a state, widths past 12 need
    no amplitudes.  Deterministic: canonical plan order, the first plan
    of each distinct descendant kept, stable sort by descending violation
    ratio.
    """
    if max_assignments < 1:
        raise SubstitutionError(f"max_assignments must be at least 1, got {max_assignments}")
    ast = seed.ast if isinstance(seed, Inequality) else seed
    target_settings = [s for s in ast.settings if s.site == target_site]
    if not target_settings:
        raise SubstitutionError(f"seed has no settings on site {target_site}")
    if not isinstance(letter_map, Mapping):
        raise SubstitutionError(f"letter map must be a JSON object, got {letter_map!r}")
    entries_base: dict[Setting, tuple[str, int]] = {}
    for s in target_settings:
        raw = letter_map.get(s, letter_map.get(s.text()))
        if raw is None:
            raise SubstitutionError(f"letter map misses {s.text()}")
        if isinstance(raw, str):
            raw = (-1 if raw.startswith("-") else 1, raw.lstrip("+-"))
        if not (isinstance(raw, (tuple, list)) and len(raw) == 2 and raw[1] in ("X", "Y", "Z")):
            raise SubstitutionError(f"letter map entry {s.text()}: {raw!r} is not a signed letter")
        entries_base[s] = (raw[1], raw[0])
    members = {s: image_set(encoding, letter) for s, (letter, _) in entries_base.items()}
    occurrences = [sum(1 for _, m in ast.linear for x in m if x == s) for s in target_settings]
    counts = [_selection_count(len(members[s]), k) for s, k in zip(target_settings, occurrences)]
    total = math.prod(counts)
    n_plans = min(total, max_assignments)
    truncated = total > max_assignments
    inner = [math.prod(counts[i + 1:]) for i in range(len(counts))]
    if n_plans == 0:
        return []
    selections = [
        list(itertools.islice(_plan_selections(len(members[s]), k), min(c, (n_plans - 1) // d + 1)))
        for s, k, c, d in zip(target_settings, occurrences, counts, inner)
    ]
    # built before substitution, as each plan is, so a bad letter or sign raises
    entries = [[PlanEntry(*entries_base[s], sel) for sel in sels]
               for s, sels in zip(target_settings, selections)]
    images = {s: _image_pairs(members[s], target_site, sign)
              for s, (_, sign) in entries_base.items()}
    table = _Table(ast, target_site, encoding.width, images)
    picks, usable = zip(*(table.picks(s, sel) for s, sel in zip(target_settings, selections)))
    rows, plans = table.distinct_rows(picks, usable, counts, inner, n_plans)
    square_coeffs = [c for c, _ in ast.squares]
    coeffs = table.floats(rows)
    lifted = (
        lift_state(seed_state, target_site, encoding) if seed_state is not None else None
    )
    qvs = None
    if lifted is not None:  # before the bounds, so a refused state costs no enumeration
        u_count = len(table.universe)
        present = (coeffs != 0).reshape(len(coeffs), table.parts, u_count).any(axis=0)
        parts = [[(coeffs[:, part * u_count + u], table.universe[u])
                  for u in np.flatnonzero(present[part])] for part in range(table.parts)]
        qvs = _quantum_values(parts, [float(c) for c in square_coeffs],
                              seed_assignment, lifted, len(coeffs)).tolist()
        del parts  # its columns are views of coeffs, freed below
    bounds = _lhv_bounds(table, rows, coeffs) if table.parts == 1 else None
    del coeffs
    results = []
    for i, (row, plan_row) in enumerate(zip(rows, plans.tolist())):
        linear, *subs = table.terms(row)
        squares = tuple(zip(square_coeffs, subs))
        if bounds is None:
            bound = lhv_bound_nonlinear(InequalityAST(linear, squares, "<=", Fraction(0)))
        else:
            bound = float(bounds[i])
        derived = Fraction(int(round(bound))) if bound.is_integer() else bound
        plan = SubstitutionPlan(target_site, encoding, {
            s: column[q] for s, column, q in zip(target_settings, entries, plan_row)
        })
        qv = None if qvs is None else qvs[i]
        results.append(DescendantResult(
            descendant=Inequality(InequalityAST(linear, squares, "<=", derived)),
            lhv_bound=bound,
            quantum_value=qv,
            accepted=qv is not None and qv > bound + TOL.violation,
            plan=plan,
            truncated=truncated,
        ))
    results.sort(key=lambda r: (-r.violation_ratio, r.expression))
    return results


def lift_coherence_witness(
    threshold: float, letter: str, encoding: LogicalEncoding
) -> DescendantResult:
    """Image-sum lift of the single-site witness  k*<letter> <= k*threshold.

    The left side becomes the sum of every image of the letter: ``substitute``
    puts the whole image set into the one-term seed ``letter1``.  The right
    side scales as (image count) * threshold.  The returned result also
    re-derives the deterministic bound and evaluates the lifted maximal
    coherence state.
    """
    if letter not in ("X", "Y"):
        raise SubstitutionError("coherence witnesses use X or Y")
    if not 0 < threshold <= 1:
        raise SubstitutionError("threshold must lie in (0, 1]")
    members = image_set(encoding, letter)
    if not members:
        raise SubstitutionError("empty image set")
    seed = Setting(1, letter)
    linear = substitute(
        InequalityAST(((Fraction(1), (seed,)),), (), "<=", Fraction(0)),
        SubstitutionPlan(1, encoding, {seed: PlanEntry(letter)}),
    ).linear
    derived = len(members) * threshold
    bound = Fraction(derived) if float(derived).is_integer() else float(derived)
    ast = InequalityAST(linear, (), "<=", bound)
    bound = lhv_bound(ast)
    amp = 1 / np.sqrt(2)
    phase = 1.0 if letter == "X" else 1.0j
    plus = StateVector(
        encoding.width,
        amp * encoding.zero_l.amplitudes + amp * phase * encoding.one_l.amplitudes,
    )
    qv = _bounds.quantum_value(ast, None, plus)
    return DescendantResult(
        descendant=Inequality(ast, name=f"lift-{letter.lower()}-{threshold:g}"),
        lhv_bound=bound,
        quantum_value=qv,
        accepted=qv > bound + TOL.violation,
        derived_bound=derived,
    )
