"""Shared fixtures and independent oracles for the test-suite.

The oracles here deliberately avoid the package's own fast paths: dense
matrices are built with plain ``np.kron`` chains, deterministic bounds
are enumerated with ``itertools.product`` term by term or from explicit
+-1 setting columns, eigenvalues can be cross-checked against the
characteristic polynomial, image sets are enumerated by restricting
every Pauli string's dense matrix to the code space, nonlinear
envelopes are bounded from below by sampled strategy mixtures, and
random classical-quantum states and their discord correlators are built
one state at a time with ``np.kron``, and descendants are substituted
with Fractions term by term and searched one plan object at a time.
Expected values asserted in the tests were computed with these oracles.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np
import pytest

from stabhom import bounds
from stabhom.codespace import LogicalEncoding, image_set, lift_state
from stabhom.config import LIMITS, TOL
from stabhom.descend import (
    DescendantResult,
    PlanEntry,
    SubstitutionError,
    SubstitutionPlan,
    _image_monomial,
    _plan_selections,
    _shift_setting,
    substitute,
)
from stabhom.dsl import Inequality, InequalityAST, _canon_linear, _merge, pretty_print
from stabhom.pauli import PauliString, SignedPauliTerm
from stabhom.states import DensityOperator, StateVector

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(letters: str) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for ch in letters:
        out = np.kron(out, SIGMA[ch])
    return out


def brute_force_images(enc: LogicalEncoding, tol: float = 1e-9) -> dict[str, list[str]]:
    """Image-set texts per letter from all 4^N dense strings, one at a time.

    A string belongs to image(L) with sign s when both code-space columns
    keep unit norm and its 2x2 restriction equals s*L entrywise within tol.
    """
    code = (enc.zero_l.amplitudes, enc.one_l.amplitudes)
    found = {letter: [] for letter in "IXYZ"}
    for letters in itertools.product("IXYZ", repeat=enc.width):
        op = kron_chain("".join(letters))
        r = np.array([[np.vdot(u, op @ v) for v in code] for u in code])
        if any(abs(np.linalg.norm(r[:, j]) - 1.0) > tol for j in (0, 1)):
            continue
        for letter, sign in itertools.product("IXYZ", (1, -1)):
            if np.abs(r - sign * SIGMA[letter]).max() < tol:
                found[letter].append(
                    SignedPauliTerm(float(sign), PauliString.from_letters("".join(letters)))
                )
                break
    return {
        letter: [str(t) for t in sorted(terms, key=SignedPauliTerm.sort_key)]
        for letter, terms in found.items()
    }


def per_image_transport_check(
    seed: Inequality | InequalityAST,
    plan: SubstitutionPlan,
    seed_state: StateVector,
    seed_assignment: Optional[Mapping] = None,
) -> float:
    """Max deviation |<seed>_seed - <single-image descendant>_lifted|.

    Every single-image slice of a broadcast plan must transport the seed
    expectation exactly; this is the homomorphism's identical-action
    property at the inequality level.
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    lifted = lift_state(seed_state, plan.target_site, plan.encoding)
    seed_val = bounds.quantum_value(ast, seed_assignment, seed_state)
    worst = 0.0
    counts = {
        s: len(image_set(plan.encoding, e.letter).members)
        for s, e in plan.entries.items()
    }
    index_lists = [range(counts[s]) for s in plan.entries]
    for combo in itertools.product(*index_lists):
        single = SubstitutionPlan(
            plan.target_site,
            plan.encoding,
            {
                s: PlanEntry(e.letter, e.sign, ("subset", i))
                for (s, e), i in zip(plan.entries.items(), combo)
            },
        )
        desc = substitute(ast, single)
        val = bounds.quantum_value(desc, seed_assignment, lifted)
        worst = max(worst, abs(val - seed_val))
    return worst


def naive_lhv(expr: Inequality | InequalityAST) -> float:
    """Term-by-term deterministic maximum, no bit tricks."""
    ast = expr.ast if isinstance(expr, Inequality) else expr
    settings = ast.settings
    best = -np.inf
    for values in itertools.product((1, -1), repeat=len(settings)):
        table = dict(zip(settings, values))
        total = 0.0
        for coeff, mono in ast.linear:
            v = float(coeff)
            for s in mono:
                v *= table[s]
            total += v
        for coeff, sub in ast.squares:
            m = 0.0
            for c2, mono in sub:
                v = float(c2)
                for s in mono:
                    v *= table[s]
                m += v
            total += float(coeff) * m * m
        best = max(best, total)
    return best


def column_chunked_values(term_lists, n_settings: int):
    """Strategy values chunk by chunk from explicit +-1 setting columns.

    Column j holds (-1)^(bit j of k) for every strategy k of the chunk, and
    each term is its coefficient times the product of its columns, summed
    term by term.  Chunks follow ``bounds._CHUNK_BITS``, so the yields line
    up with ``bounds._chunked_values``.
    """
    total = 1 << n_settings
    step = min(total, 1 << bounds._CHUNK_BITS)
    for start in range(0, total, step):
        idx = np.arange(start, start + step, dtype=np.int64)
        cols = [1 - 2 * ((idx >> k) & 1) for k in range(n_settings)]
        outs = []
        for terms in term_lists:
            out = np.zeros(step, dtype=float)
            for c, sel in terms:
                prod = np.full(step, c)
                for k in sel:
                    prod = prod * cols[k]
                out += prod
            outs.append(out)
        yield start, outs


def naive_strategy_points(expr: Inequality | InequalityAST) -> list:
    """(rounded square-term moments, best linear value) per distinct moment key.

    One Python dict over every deterministic strategy, term by term.
    """
    ast = expr.ast if isinstance(expr, Inequality) else expr
    settings = ast.settings

    def total(terms, table) -> float:
        out = 0.0
        for coeff, mono in terms:
            v = float(coeff)
            for s in mono:
                v *= table[s]
            out += v
        return out

    best: dict[tuple, float] = {}
    for values in itertools.product((1, -1), repeat=len(settings)):
        table = dict(zip(settings, values))
        key = tuple(float(np.round(total(sub, table), 12)) for _, sub in ast.squares)
        best[key] = max(best.get(key, -np.inf), total(ast.linear, table))
    return sorted(best.items())


def nonlinear_sampling_lower_bound(
    expr: Inequality | InequalityAST, samples: int = 10_000, seed: int = 0
) -> float:
    """Lower bound from directly maximising over sampled strategy mixtures.

    Random Dirichlet mixtures plus every two-point mixture (refined by
    ternary search; the objective is concave along a segment).  Any value
    returned is attainable, so the concave envelope must dominate it.
    """
    ast = expr.ast if isinstance(expr, Inequality) else expr
    coeffs = [float(c) for c, _ in ast.squares]
    points = bounds._strategy_points(ast)
    arr = np.array([[*k, v] for k, v in points])

    def value(mom) -> float:
        return mom[-1] + sum(c * mm * mm for c, mm in zip(coeffs, mom[:-1]))

    best = max(value(row) for row in arr)
    rng = np.random.default_rng(seed)
    n_pairs = len(arr) * (len(arr) - 1) // 2
    n_random = max(samples - 30 * n_pairs, samples // 2)
    for _ in range(n_random):
        w = rng.dirichlet(np.ones(len(arr)))
        best = max(best, value(w @ arr))
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            lo, hi = 0.0, 1.0
            for _ in range(60):  # ternary search on the concave section
                t1 = lo + (hi - lo) / 3
                t2 = hi - (hi - lo) / 3
                v1 = value(arr[i] + t1 * (arr[j] - arr[i]))
                v2 = value(arr[i] + t2 * (arr[j] - arr[i]))
                if v1 < v2:
                    lo = t1
                else:
                    hi = t2
            best = max(best, value(arr[i] + 0.5 * (lo + hi) * (arr[j] - arr[i])))
    return float(best)


def char_poly_max_eig(op: np.ndarray) -> float:
    """Largest real root of det(op - x I), dimensions <= 4."""
    coeffs = np.poly(op)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8].real
    return float(real.max())


def separable_grid_max(terms, steps: int = 60) -> float:
    """Dense Bloch-sphere grid over both qubits of a two-qubit operator."""
    thetas = np.linspace(0, np.pi, steps)
    phis = np.linspace(0, 2 * np.pi, 2 * steps, endpoint=False)

    def bloch_states():
        for t in thetas:
            for p in phis:
                yield np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])

    states = list(bloch_states())
    mats = [(c.coefficient if hasattr(c, "coefficient") else c[0], m1, m2)
            for c, m1, m2 in terms]
    best = -np.inf
    lefts = np.array([[np.vdot(a, m1 @ a).real for _, m1, _ in mats] for a in states])
    rights = np.array([[np.vdot(b, m2 @ b).real for _, _, m2 in mats] for b in states])
    coeffs = np.array([c for c, _, _ in mats])
    vals = (lefts * coeffs) @ rights.T
    return float(vals.max())


def loop_cq_states(rng, n: int) -> np.ndarray:
    """(n, 4, 4) random classical-quantum states, drawn and built one at a time.

    Each state is sum_k p_k |q_k><q_k| (x) rho_k from a QR basis, a
    Dirichlet(2, 2) split and two normalised a a^dagger factors, summed
    as explicit ``np.kron`` products; the factors are validated one by
    one as ``DensityOperator``.
    """
    out = []
    for _ in range(n):
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(v)
        p = rng.dirichlet((2.0, 2.0))
        rhos = []
        for _ in range(2):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a @ a.conj().T
            rhos.append(DensityOperator(1, m / np.trace(m).real))
        rho = np.zeros((4, 4), dtype=complex)
        for pk, ket, r in zip(p, (q[:, 0], q[:, 1]), rhos):
            rho += pk * np.kron(np.outer(ket, ket.conj()), r.matrix)
        out.append(rho)
    return np.array(out).reshape(n, 4, 4)


def loop_discord_correlators(rho: np.ndarray) -> tuple[float, float, bool]:
    """(x, y, degenerate) of the adapted-basis test on one 4x4 matrix.

    Eigenbasis of the first qubit's reduced state (computational basis
    when degenerate), each vector's largest entry made real positive,
    then tr(rho (A (x) X)) and tr(rho (B (x) Y)) with dense matrices.
    """
    vals, vecs = np.linalg.eigh(np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3))
    degenerate = bool(abs(vals[1] - vals[0]) < 1e-10)
    if degenerate:
        e0, e1 = I2[:, 0], I2[:, 1]
    else:
        e0, e1 = vecs[:, 1].copy(), vecs[:, 0].copy()
        for v in (e0, e1):
            k = np.argmax(np.abs(v))
            v *= (v[k] / abs(v[k])).conjugate()
    ketbra = np.outer(e0, e1.conj())
    x_adapted = ketbra + ketbra.conj().T
    y_adapted = -1j * ketbra + 1j * ketbra.conj().T
    x = float(np.trace(rho @ np.kron(x_adapted, SX)).real)
    y = float(np.trace(rho @ np.kron(y_adapted, SY)).real)
    return x, y, degenerate


def _loop_substitute_terms(terms, plan, images, occurrence_counter=None):
    """Expanded, like-term collected Fraction dict of one part, term by term."""
    t, m = plan.target_site, plan.encoding.width
    out: dict = {}
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


def loop_substitute(seed: Inequality | InequalityAST, plan: SubstitutionPlan) -> InequalityAST:
    """``descend.substitute`` as a Fraction loop over terms and chosen images."""
    ast = seed.ast if isinstance(seed, Inequality) else seed
    images = {}
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
    if ast.width - 1 + plan.encoding.width > LIMITS.max_width:
        raise SubstitutionError("substituted width exceeds cap")
    counter: dict = {}
    linear = _canon_linear(_loop_substitute_terms(ast.linear, plan, images, counter))
    squares = tuple(
        (c, _canon_linear(_loop_substitute_terms(sub, plan, images, None)))
        for c, sub in ast.squares
    )
    return InequalityAST(linear, squares, ast.relation, Fraction(0))


def loop_enumerate_descendants(
    seed: Inequality | InequalityAST,
    target_site: int,
    encoding: LogicalEncoding,
    letter_map: Mapping,
    seed_state: Optional[StateVector] = None,
    seed_assignment: Optional[Mapping] = None,
    max_assignments: int = LIMITS.max_assignments,
) -> list[DescendantResult]:
    """``descend.enumerate_descendants`` as one object loop over the plan product.

    Every plan is built, substituted by ``loop_substitute``, deduplicated
    on its printed text and bounded with ``lhv_bound`` (or
    ``lhv_bound_nonlinear``) and ``quantum_value`` on its own.
    """
    ast = seed.ast if isinstance(seed, Inequality) else seed
    target_settings = sorted({s for _, m in ast.linear for s in m if s.site == target_site})
    entries_base = {}
    for s in target_settings:
        raw = letter_map.get(s, letter_map.get(s.text()))
        if isinstance(raw, str):
            entries_base[s] = (raw.lstrip("+-"), -1 if raw.startswith("-") else 1)
        else:
            entries_base[s] = (raw[1], raw[0])
    per_setting = [
        list(_plan_selections(
            len(image_set(encoding, entries_base[s][0])),
            sum(1 for _, m in ast.linear for x in m if x == s),
        ))
        for s in target_settings
    ]
    lifted = lift_state(seed_state, target_site, encoding) if seed_state is not None else None
    results = {}
    truncated = False
    for count, combo in enumerate(itertools.product(*per_setting), start=1):
        if count > max_assignments:
            truncated = True
            break
        plan = SubstitutionPlan(target_site, encoding, {
            s: PlanEntry(*entries_base[s], sel) for s, sel in zip(target_settings, combo)
        })
        try:
            descendant = loop_substitute(ast, plan)
        except SubstitutionError:
            continue
        key = pretty_print(descendant)
        if key in results:
            continue
        if descendant.is_linear:
            bound = bounds.lhv_bound(descendant)
        else:
            bound = bounds.lhv_bound_nonlinear(descendant)
        qv = None
        accepted = False
        if lifted is not None:
            qv = bounds.quantum_value(descendant, seed_assignment, lifted)
            accepted = qv > bound + TOL.violation
        derived = Fraction(int(round(bound))) if float(bound).is_integer() else float(bound)
        results[key] = DescendantResult(
            descendant=Inequality(descendant.with_bound(derived)),
            lhv_bound=bound,
            quantum_state=lifted,
            quantum_value=qv,
            accepted=accepted,
            plan=plan,
        )
    ordered = sorted(
        results.values(), key=lambda r: (-r.violation_ratio, pretty_print(r.descendant.ast))
    )
    for r in ordered:
        r.truncated = truncated
    return ordered


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
