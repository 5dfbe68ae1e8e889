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

Bounds of descendants are never inherited: the caller re-derives them
from scratch (``enumerate_descendants`` does this automatically).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .bounds import lhv_bound, lhv_bound_nonlinear
from .codespace import LogicalEncoding, image_set, lift_state
from .config import LIMITS, TOL
from .dsl import (
    Inequality,
    InequalityAST,
    LinearTerms,
    Monomial,
    Setting,
    _canon_linear,
    _merge,
    pretty_print,
)
from .pauli import SignedPauliTerm
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
        if self.letter not in "XYZ":
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


def _image_monomial(term: SignedPauliTerm, target: int) -> tuple[float, Monomial]:
    mono = tuple(
        Setting(target + i, letter)
        for i, letter in enumerate(term.string.letters)
        if letter != "I"
    )
    return term.coefficient, mono


def _substitute_terms(
    terms: LinearTerms,
    plan: SubstitutionPlan,
    images: Mapping[Setting, tuple[SignedPauliTerm, ...]],
    occurrence_counter: Optional[dict] = None,
) -> dict[Monomial, Fraction]:
    t, m = plan.target_site, plan.encoding.width
    out: dict[Monomial, Fraction] = {}
    for coeff, mono in terms:
        on_target = [s for s in mono if s.site == t]
        rest = tuple(_shift_setting(s, t, m) for s in mono if s.site != t)
        if not on_target:
            _merge(out, tuple(sorted(rest)), coeff)
            continue
        setting = on_target[0]
        entry = plan.entries.get(setting)
        if entry is None:
            raise SubstitutionError(f"no plan entry for target setting {setting.text()}")
        members = images[setting]
        if entry.selection[0] == "occ":
            if occurrence_counter is None:
                raise SubstitutionError(
                    "per-occurrence selection is only supported in the linear part"
                )
            k = occurrence_counter.get(setting, 0)
            occurrence_counter[setting] = k + 1
            idxs = entry.selection[1:]
            if k >= len(idxs):
                raise SubstitutionError(
                    f"setting {setting.text()} occurs more often than planned"
                )
            chosen = [members[idxs[k]]]
        elif entry.selection[0] == "subset":
            chosen = [members[i] for i in entry.selection[1:]]
        else:
            chosen = list(members)
        if not chosen:
            raise SubstitutionError(f"empty image selection for {setting.text()}")
        for img in chosen:
            c, img_mono = _image_monomial(img, t)
            merged = tuple(sorted(rest + img_mono))
            _merge(out, merged, coeff * Fraction(entry.sign) * Fraction(c).limit_denominator(10**9))
    return out


def substitute(seed: Inequality | InequalityAST, plan: SubstitutionPlan) -> InequalityAST:
    """Replace the target site's settings by code-space image monomials.

    Sites above the target shift by the encoding width minus one; the
    result is expanded, like-term collected, and carries bound 0 (the
    caller re-derives the bound).
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    images: dict[Setting, tuple[SignedPauliTerm, ...]] = {}
    for setting, entry in plan.entries.items():
        if setting.site != plan.target_site:
            raise SubstitutionError(
                f"plan entry {setting.text()} is not on site {plan.target_site}"
            )
        members = image_set(plan.encoding, entry.letter).members
        oc = sum(1 for _, mono in ast.linear for s in mono if s == setting)
        if entry.selection[0] == "occ" and len(entry.selection) - 1 != oc:
            raise SubstitutionError(
                f"{setting.text()} occurs {oc} times, plan covers {len(entry.selection) - 1}"
            )
        for i in entry.selection[1:]:
            if not 0 <= i < len(members):
                raise SubstitutionError("image index out of range")
        images[setting] = members
    width = ast.width - 1 + plan.encoding.width
    if width > LIMITS.max_width:
        raise SubstitutionError("substituted width exceeds cap")
    counter: dict = {}
    linear = _canon_linear(_substitute_terms(ast.linear, plan, images, counter))
    squares = tuple(
        (c, _canon_linear(_substitute_terms(sub, plan, images, None)))
        for c, sub in ast.squares
    )
    return InequalityAST(linear, squares, ast.relation, Fraction(0))


def substitute_symbolic(
    seed: Inequality | InequalityAST,
    target_site: int,
    block_width: int,
    mapping: Mapping[Setting, Sequence[Setting]],
) -> InequalityAST:
    """Replace target-site settings by products of fresh symbolic settings.

    Used for grouping-style descendants where a setting is replicated
    across the new sites (e.g. a third party splitting into three parties
    measuring the same labelled setting each).
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    out: dict[Monomial, Fraction] = {}
    for coeff, mono in ast.linear:
        new_mono: list[Setting] = []
        for s in mono:
            if s.site == target_site:
                repl = mapping.get(s)
                if repl is None:
                    raise SubstitutionError(f"no mapping for {s.text()}")
                new_mono.extend(repl)
            else:
                new_mono.append(_shift_setting(s, target_site, block_width))
        _merge(out, tuple(sorted(new_mono)), coeff)
    if ast.squares:
        raise SubstitutionError("symbolic substitution supports linear seeds only")
    return InequalityAST(_canon_linear(out), (), ast.relation, Fraction(0))


# ---------------------------------------------------------------------------

@dataclass
class DescendantResult:
    descendant: Inequality
    lhv_bound: float
    quantum_state: Optional[StateVector]
    quantum_value: Optional[float]
    accepted: bool
    plan: Optional[SubstitutionPlan] = None
    truncated: bool = False
    derived_bound: Optional[float] = None  # image-count * threshold for witness lifts

    @property
    def violation_ratio(self) -> float:
        if self.quantum_value is None or self.lhv_bound <= 0:
            return 0.0
        return self.quantum_value / self.lhv_bound

    def to_json(self) -> dict:
        return {
            "expression": pretty_print(self.descendant.ast),
            "lhv_bound": self.lhv_bound,
            "quantum_value": self.quantum_value,
            "accepted": self.accepted,
            "violation_ratio": self.violation_ratio,
            "truncated": self.truncated,
        }


def _route_bound(ast: InequalityAST) -> float:
    return lhv_bound(ast) if ast.is_linear else lhv_bound_nonlinear(ast)


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

    ``letter_map`` sends each target-site setting (or its text) to a
    logical letter, optionally signed ("-Y").  The quantum value of each
    candidate is evaluated on the lifted seed state (target qubit replaced
    by the encoding) under the seed assignment for the untouched sites;
    candidates whose value beats their own re-derived bound are accepted.
    Deterministic: canonical plan order, canonical dedup, stable sort by
    descending violation ratio.
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    target_settings = sorted({s for _, m in ast.linear for s in m if s.site == target_site})
    if not target_settings:
        raise SubstitutionError(f"seed has no settings on site {target_site}")
    entries_base: dict[Setting, tuple[str, int]] = {}
    for s in target_settings:
        raw = letter_map.get(s, letter_map.get(s.text()))
        if raw is None:
            raise SubstitutionError(f"letter map misses {s.text()}")
        if isinstance(raw, str):
            sign = -1 if raw.startswith("-") else 1
            letter = raw.lstrip("+-")
        else:
            sign, letter = raw
        entries_base[s] = (letter, sign)
    image_counts = {
        s: len(image_set(encoding, entries_base[s][0]))
        for s in target_settings
    }
    occurrences = {
        s: sum(1 for _, m in ast.linear for x in m if x == s) for s in target_settings
    }
    per_setting = [
        list(_plan_selections(image_counts[s], occurrences[s])) for s in target_settings
    ]
    lifted = (
        lift_state(seed_state, target_site, encoding) if seed_state is not None else None
    )
    results: dict[str, DescendantResult] = {}
    truncated = False
    count = 0
    for combo in itertools.product(*per_setting):
        count += 1
        if count > max_assignments:
            truncated = True
            break
        plan = SubstitutionPlan(
            target_site,
            encoding,
            {
                s: PlanEntry(entries_base[s][0], entries_base[s][1], sel)
                for s, sel in zip(target_settings, combo)
            },
        )
        try:
            descendant = substitute(ast, plan)
        except SubstitutionError:
            continue
        key = pretty_print(descendant)
        if key in results:
            continue
        bound = _route_bound(descendant)
        qv = None
        accepted = False
        if lifted is not None:
            qv = _bounds.quantum_value(descendant, seed_assignment, lifted)
            accepted = qv > bound + TOL.violation
        derived_bound = Fraction(int(round(bound))) if float(bound).is_integer() else float(bound)
        ineq = Inequality(descendant.with_bound(derived_bound))
        results[key] = DescendantResult(
            descendant=ineq,
            lhv_bound=bound,
            quantum_state=lifted,
            quantum_value=qv,
            accepted=accepted,
            plan=plan,
        )
    ordered = sorted(
        results.values(),
        key=lambda r: (-r.violation_ratio, pretty_print(r.descendant.ast)),
    )
    for r in ordered:
        r.truncated = truncated
    return ordered


def lift_coherence_witness(
    threshold: float, letter: str, encoding: LogicalEncoding
) -> DescendantResult:
    """Image-sum lift of the single-site witness  k*<letter> <= k*threshold.

    The left side becomes the sum of every image of the letter; the right
    side scales as (image count) * threshold.  The returned result also
    re-derives the deterministic bound and evaluates the lifted maximal
    coherence state.
    """
    if letter not in ("X", "Y"):
        raise SubstitutionError("coherence witnesses use X or Y")
    if not 0 < threshold <= 1:
        raise SubstitutionError("threshold must lie in (0, 1]")
    members = image_set(encoding, letter).members
    if not members:
        raise SubstitutionError("empty image set")
    terms: dict[Monomial, Fraction] = {}
    for img in members:
        c, mono = _image_monomial(img, 1)
        _merge(terms, mono, Fraction(c).limit_denominator(10**9))
    derived = len(members) * threshold
    bound = Fraction(derived) if float(derived).is_integer() else float(derived)
    ast = InequalityAST(_canon_linear(terms), (), "<=", bound)
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
        quantum_state=plus,
        quantum_value=qv,
        accepted=qv > bound + TOL.violation,
        derived_bound=derived,
    )
