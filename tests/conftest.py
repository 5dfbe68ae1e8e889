"""Shared fixtures and independent oracles for the test-suite.

The oracles here deliberately avoid the package's own fast paths: dense
matrices are built with plain ``np.kron`` chains, deterministic bounds
are enumerated with ``itertools.product`` term by term or from explicit
+-1 setting columns, eigenvalues can be cross-checked against the
characteristic polynomial, image sets are enumerated by restricting
every Pauli string's dense matrix to the code space, nonlinear
envelopes are bounded from below by sampled strategy mixtures and
maximised point by point over hull segments or over every single, pair
and triple of strategy points in Python loops, each face's stationarity
system is solved by ``np.linalg.solve``, the separable optimiser
re-sums dense per-term factors on every iteration, random
classical-quantum states and their discord correlators are built one
state at a time with ``np.kron``, the homomorphism check multiplies one
member pair at a time, and descendants, from image sets or
symbolic maps, are substituted with Fractions term by term and searched
one plan object at a time,
each quantum value summed one expectation per assigned term.
Expected values asserted in the tests were computed with these oracles.
"""
from __future__ import annotations

import itertools
import random
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
    _plan_selections,
    _shift_setting,
    substitute,
)
from stabhom.dsl import (
    Inequality,
    InequalityAST,
    Setting,
    _canon_linear,
    _merge,
    assign_paulis,
    pretty_print,
)
from stabhom.pauli import PauliString, multiply
from stabhom.states import DensityOperator, StateVector, expectation, max_eigenpair

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
                found[letter].append(PauliString.from_letters("".join(letters), 1 - sign))
                break
    return {
        letter: [str(p) for p in sorted(strings, key=PauliString.sort_key)]
        for letter, strings in found.items()
    }


def loop_verify_homomorphism(enc: LogicalEncoding) -> tuple[bool, list]:
    """Homomorphism check with one ``multiply`` per member pair.

    For P in image(a) and Q in image(b), with a*b = i^k c, the product
    i^-k PQ must be listed in image(c) with its phase; the member table
    keeps the last listing of each string.
    """
    sets = enc._image_sets
    entry = {(m.x_mask, m.z_mask): (letter, m.phase_exp)
             for letter, members in sets.items() for m in members}
    violations = []
    for a in "IXYZ":
        for b in "IXYZ":
            ab = multiply(PauliString.from_letters(a), PauliString.from_letters(b))
            for p in sets[a]:
                for q in sets[b]:
                    pq = multiply(p, q)
                    want = (ab.letters, (pq.phase_exp - ab.phase_exp) % 4)  # i^-k PQ
                    if entry.get((pq.x_mask, pq.z_mask)) != want:
                        violations.append((p, q, a, b))
    return not violations, violations


def loop_quantum_value(
    expr: Inequality | InequalityAST, assignment: Optional[Mapping], state: StateVector
) -> float:
    """Quantum value as a sum of per-term expectations, one term at a time.

    Each assigned string is padded with identities to the state's width;
    square terms contribute coefficient * (sub-expression expectation)^2.
    """
    opex = assign_paulis(expr, assignment)
    pad = "I" * (state.width - opex.width)

    def total(terms):
        return sum(
            c * expectation(state, PauliString.from_letters(s.letters + pad))
            for c, s in terms
        )

    val = total(opex.linear)
    for c, sub in opex.squares:
        s = total(sub)
        val += c * s * s
    return float(val)


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
    seed_val = loop_quantum_value(ast, seed_assignment, seed_state)
    worst = 0.0
    counts = {
        s: len(image_set(plan.encoding, e.letter))
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
        val = loop_quantum_value(desc, seed_assignment, lifted)
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


def xy_chain(sites: int) -> str:
    """Nearest-neighbour X and Y chain over ``sites`` sites, minus 1/2*sq(X1 + ... + Xn).

    It has 2 * sites settings and an envelope bound of 2 * (sites - 1):
    every linear term is at most 1, and the even mixture of all settings +1
    and all -1 keeps every term at 1 while it zeroes the square's moment.
    """
    chain = "+".join(f"X{i}*X{i + 1}+Y{i}*Y{i + 1}" for i in range(1, sites))
    square = "+".join(f"X{i}" for i in range(1, sites + 1))
    return f"{chain} - 1/2*sq({square}) <= {2 * (sites - 1)}"


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


def _loop_upper_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain upper hull of (m, L) points sorted by m."""
    pts = sorted(points)
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _loop_segment_max(c, p, q):
    """max of L(w) + c*m(w)^2 for a mixture w in [0,1] of points p=(m,L), q."""
    (m1, l1), (m2, l2) = p, q
    cands = [0.0, 1.0]
    dm = m2 - m1
    # f(t) = l1 + t(l2-l1) + c(m1 + t dm)^2 ; f'(t) = (l2-l1) + 2c(m1 + t dm) dm
    if c != 0 and dm != 0:
        t = (-(l2 - l1) / (2 * c) - m1 * dm) / (dm * dm)
        if 0 < t < 1:
            cands.append(t)
    best = -np.inf
    for t in cands:
        m = m1 + t * dm
        l = l1 + t * (l2 - l1)
        best = max(best, l + c * m * m)
    return best


def _loop_triple_interior(p, q, r, c1, c2):
    """Interior stationary point of f over the simplex spanned by p, q, r."""
    a1, a2 = p[0] - r[0], q[0] - r[0]
    b1, b2 = p[1] - r[1], q[1] - r[1]
    l1, l2 = p[2] - r[2], q[2] - r[2]
    # grad in (w1, w2):  l_i + 2 c1 u a_i + 2 c2 v b_i = 0  with u = m1(w), v = m2(w)
    A = np.array([[2 * c1 * a1, 2 * c2 * b1], [2 * c1 * a2, 2 * c2 * b2]])
    if abs(np.linalg.det(A)) < 1e-12:
        return None
    u, v = np.linalg.solve(A, [-l1, -l2])
    B = np.array([[a1, a2], [b1, b2]])
    if abs(np.linalg.det(B)) < 1e-12:
        return None
    w1, w2 = np.linalg.solve(B, [u - r[0], v - r[1]])
    if w1 < -1e-12 or w2 < -1e-12 or w1 + w2 > 1 + 1e-12:
        return None
    l = r[2] + w1 * l1 + w2 * l2
    return l + c1 * u * u + c2 * v * v


def _loop_two_squares(points, coeffs) -> float:
    """Closed-form maximisation over singles, pairs, and triples of points."""
    c1, c2 = coeffs
    pts = [(k[0], k[1], v) for k, v in points]
    best = max(l + c1 * m1 * m1 + c2 * m2 * m2 for m1, m2, l in pts)

    def seg(p, q):
        out = -np.inf
        # mixture of two points: f(t) concave quadratic in t
        dm1, dm2, dl = q[0] - p[0], q[1] - p[1], q[2] - p[2]
        a = c1 * dm1 * dm1 + c2 * dm2 * dm2
        b = dl + 2 * c1 * p[0] * dm1 + 2 * c2 * p[1] * dm2
        cands = [0.0, 1.0]
        if a < 0:
            t = -b / (2 * a)
            if 0 < t < 1:
                cands.append(t)
        for t in cands:
            m1 = p[0] + t * dm1
            m2 = p[1] + t * dm2
            l = p[2] + t * dl
            out = max(out, l + c1 * m1 * m1 + c2 * m2 * m2)
        return out

    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, seg(pts[i], pts[j]))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                got = _loop_triple_interior(pts[i], pts[j], pts[k], c1, c2)
                if got is not None:
                    best = max(best, got)
    return float(best)


def loop_mixture_max(points, coeffs) -> float:
    """Largest L + sum_j c_j m_j^2 over mixtures of (moments, L) strategy points.

    One square: every upper-hull vertex in (m, L), then each hull segment
    in closed form.  Two squares: every single, pair and triple of points
    in nested Python loops, each triple's interior stationary point
    solved as two 2x2 systems.
    """
    if len(coeffs) == 2:
        return _loop_two_squares(points, coeffs)
    (c,) = coeffs
    hull = _loop_upper_hull([(k[0], v) for k, v in points])
    best = max(l + c * m * m for m, l in hull)
    for p, q in zip(hull, hull[1:]):
        best = max(best, _loop_segment_max(c, p, q))
    return float(best)


def solve_face_max(pts: np.ndarray, c: np.ndarray, faces: np.ndarray) -> list[float]:
    """Each face's interior stationary value, -inf where it is skipped.

    One face at a time: the (s-1)x(s-1) system H w = b of
    ``bounds._face_max`` built with explicit loops over the face's points
    and solved by ``np.linalg.solve``; |det H| <= 1e-12 (``np.linalg.det``)
    or a stationary point outside the simplex skips the face.
    """
    out = []
    for face in faces:
        r, others = pts[face[-1]], [pts[i] - pts[face[-1]] for i in face[:-1]]
        h = np.array([[2 * np.sum(c * di[:-1] * dj[:-1]) for dj in others] for di in others])
        b = np.array([-(di[-1] + 2 * np.sum(di[:-1] * c * r[:-1])) for di in others])
        if abs(np.linalg.det(h)) <= 1e-12:
            out.append(-np.inf)
            continue
        w = np.linalg.solve(h, b)
        if (w < -1e-12).any() or w.sum() > 1 + 1e-12:
            out.append(-np.inf)
            continue
        x = r + sum(wi * di for wi, di in zip(w, others))
        out.append(float(x[-1] + np.sum(c * x[:-1] ** 2)))
    return out


def char_poly_max_eig(op: np.ndarray) -> float:
    """Largest real root of det(op - x I), dimensions <= 4."""
    coeffs = np.poly(op)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8].real
    return float(real.max())


def separable_grid_max(terms, steps: int = 60) -> float:
    """Dense Bloch-sphere grid over both qubits of a two-qubit operator.

    ``terms`` are (coefficient, qubit-1 matrix, qubit-2 matrix) triples.
    """
    thetas = np.linspace(0, np.pi, steps)
    phis = np.linspace(0, 2 * np.pi, 2 * steps, endpoint=False)

    def bloch_states():
        for t in thetas:
            for p in phis:
                yield np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])

    states = list(bloch_states())
    lefts = np.array([[np.vdot(a, m1 @ a).real for _, m1, _ in terms] for a in states])
    rights = np.array([[np.vdot(b, m2 @ b).real for _, _, m2 in terms] for b in states])
    coeffs = np.array([c for c, _, _ in terms])
    vals = (lefts * coeffs) @ rights.T
    return float(vals.max())


def loop_separable_bound(terms) -> bounds.SeparableResult:
    """Alternating 1 | rest product-state maximisation, term by term.

    Every term is split into a dense qubit-1 factor and a dense rest factor
    (``kron_chain``), and both one-side operators are re-summed over all
    terms on every iteration, from the library's Fibonacci-sphere starts.
    """
    if not terms:
        raise bounds.BoundError("empty operator")
    width = terms[0][1].width
    if width < 2:
        raise bounds.BoundError("the 1 | rest split needs at least two qubits")
    parts = [
        (c * s.phase, kron_chain(s.letters[:1]), kron_chain(s.letters[1:]))
        for c, s in terms
    ]
    dim_r = 2 ** (width - 1)

    seeds = []
    for v in bounds._fibonacci_bloch(bounds._SEPARABLE_RESTARTS):
        theta = np.arccos(np.clip(v[2], -1, 1))
        phi = np.arctan2(v[1], v[0])
        seeds.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))

    best = bounds.SeparableResult(-np.inf, None, None)
    for alpha in seeds:
        value = -np.inf
        beta = None
        for _ in range(500):
            o_right = np.zeros((dim_r, dim_r), dtype=complex)
            for c, pl, pr in parts:
                o_right += c * np.vdot(alpha, pl @ alpha).real * pr
            _, beta = max_eigenpair(o_right)
            o_left = np.zeros((2, 2), dtype=complex)
            for c, pl, pr in parts:
                o_left += c * np.vdot(beta, pr @ beta).real * pl
            new_value, alpha = max_eigenpair(o_left)
            if new_value <= value + TOL.converge:
                value = new_value
                break
            value = new_value
        if value > best.value:
            best = bounds.SeparableResult(float(value), alpha, beta)
    return best


def loop_cq_states(draws: random.Random, n: int) -> np.ndarray:
    """(n, 4, 4) random classical-quantum states, drawn and built one at a time.

    Each state is sum_k p_k |q_k><q_k| (x) rho_k from a QR basis, a
    Dirichlet(2, 2) split (``betavariate(2, 2)`` and its complement) and
    two normalised a a^dagger factors, summed as explicit ``np.kron``
    products; the factors are validated one by one as ``DensityOperator``.
    Every 2x2 matrix is four ``gauss`` draws of the stdlib generator, row
    by row, real part first.
    """
    def normal():
        return np.array([[draws.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)])

    out = []
    for _ in range(n):
        v = normal() + 1j * normal()
        q, _ = np.linalg.qr(v)
        w = draws.betavariate(2.0, 2.0)
        p = (w, 1.0 - w)
        rhos = []
        for _ in range(2):
            a = normal() + 1j * normal()
            m = a @ a.conj().T
            rhos.append(DensityOperator(1, m / np.trace(m).real))
        rho = np.zeros((4, 4), dtype=complex)
        for pk, ket, r in zip(p, (q[:, 0], q[:, 1]), rhos):
            rho += pk * np.kron(np.outer(ket, ket.conj()), r.matrix)
        out.append(rho)
    return np.array(out).reshape(n, 4, 4)


def loop_discord_correlators(rho: np.ndarray) -> tuple[float, float]:
    """(x, y) adapted-row norms of one 4x4 matrix.

    M[a, mu] = tr(rho (sigma_a (x) sigma_mu)) for a in XYZ and mu in IXYZ,
    entry by entry with dense Kronecker products, then the second and
    third singular values of M from one unbatched decomposition.
    """
    paulis = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
    m = np.array([
        [np.trace(rho @ np.kron(paulis[a], paulis[mu])).real for mu in "IXYZ"]
        for a in "XYZ"
    ])
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[1]), float(s[2])


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
            img_mono = tuple(Setting(t + i, letter)
                             for i, letter in enumerate(img.letters) if letter != "I")
            merged = tuple(sorted(rest + img_mono))
            _merge(out, merged, coeff * Fraction(entry.sign) * Fraction(img.phase))
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
        members = image_set(plan.encoding, entry.letter)
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


def loop_substitute_symbolic(seed, target_site, block_width, mapping) -> InequalityAST:
    """``descend.substitute_symbolic`` as a Fraction dict loop over terms."""
    ast = seed.ast if isinstance(seed, Inequality) else seed
    out: dict = {}
    for coeff, mono in ast.linear:
        new_mono = []
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
            qv = loop_quantum_value(descendant, seed_assignment, lifted)
            accepted = qv > bound + TOL.violation
        derived = Fraction(int(round(bound))) if float(bound).is_integer() else float(bound)
        results[key] = DescendantResult(
            descendant=Inequality(descendant.with_bound(derived)),
            lhv_bound=bound,
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
