"""Re-derivation of classical, separable, hybrid, and quantum bounds.

Classical (LHV) bounds for linear expressions are exact maxima over all
deterministic +-1 assignments to the settings; sufficiency of the
deterministic extreme points for linear functionals is standard and is
assumed, not re-proven.  The nonlinear case does NOT assume it: with
concave square terms the optimum may need a mixture of deterministic
strategies, so it is computed over probability distributions via an
upper concave envelope of the strategy point cloud.  The settings inside
square terms take the low strategy bits: the square moments are
transformed over those settings alone, and the linear part's values are
folded to their maximum over the free settings, one per square
assignment, before the points are grouped.  Both read one
strategy evaluator, ``_chunked_values``: a term's value under strategy k
is its coefficient times (-1)^popcount(k & mask), so a term list's values
over all 2^S strategies are one Walsh-Hadamard transform
(``pauli.walsh_hadamard``) of its coefficients scattered by setting mask,
taken in chunks of 2^20 values; the descendant search passes a stack of
coefficient rows over one setting index, and its chunks count rows times
strategies.  Linear bounds refuse square terms and more than
``LIMITS.max_settings`` settings before enumerating.

The hybrid bound is the deterministic bound of a pre-expanded grouping
form.  The quantum maximum is exact (Hermitian eigensolver) for linear
expressions and a seeded heuristic ascent with square terms.  The
separable bound is an alternating product-state maximisation over the
1 | rest split of a linear operator (``separable_terms`` refuses square
terms), seeded deterministically.  The discord condition check reads
the rank of each two-qubit state's 3x4 correlation matrix [r_A | T]:
the adapted-basis correlators are its second and third singular
values, taken for one state or a stack in one decomposition.
Single-qubit matrices come from ``pauli._SINGLE``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .config import LIMITS, TOL
from .dsl import Inequality, InequalityAST, Setting, assign_paulis
from .pauli import _SINGLE, PauliString, SignedPauliTerm, to_matrix, walsh_hadamard
from .states import (
    DensityOperator,
    StateVector,
    assemble_operator,
    expectation,
    max_eigenpair,
    max_eigenvalue,
)


class BoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic strategy enumeration

def _ast(expr) -> InequalityAST:
    return expr.ast if isinstance(expr, Inequality) else expr


def _index_terms(terms, setting_index):
    return [(float(c), tuple(setting_index[s] for s in mono)) for c, mono in terms]


_CHUNK_BITS = 20  # values evaluated per chunk, rows x strategies: 2^20


class _Stack(NamedTuple):
    """Coefficient rows over one shared list of monomials (setting bitmasks)."""

    coeffs: np.ndarray  # (rows, terms) floats
    masks: Sequence[int]


def _chunked_values(term_lists, n_settings: int):
    """Yield (strategy_offset, [value array per term list]) over all 2^S strategies.

    Strategy k sets setting j to (-1)^(bit j of k), so a term c * prod_{j in m}
    is worth c * (-1)^popcount(k & m): over all k, a term list's values are
    the Walsh-Hadamard transform of its coefficients scattered by mask.  A
    chunk fixes the high bits of k; each coefficient is scattered by its low
    mask bits with the sign its high mask bits take under them.

    A term list is a sequence of (coefficient, setting indices) pairs, and
    its values come as one (step,) array per chunk; a ``_Stack`` of R rows
    gives an (R, step) array, the values of each row as if it were its own
    term list.  The caller keeps rows x step within 2^_CHUNK_BITS.
    """
    bits = min(n_settings, _CHUNK_BITS)
    step = 1 << bits
    lists = []
    for terms in term_lists:
        if isinstance(terms, _Stack):
            coeffs, masks = terms.coeffs, list(terms.masks)
        else:
            coeffs = np.array([c for c, _ in terms], dtype=float).reshape(1, len(terms))
            masks = [sum(1 << k for k in sel) for _, sel in terms]
        lows = np.array(masks, dtype=np.int64) & (step - 1)
        lows = (np.arange(len(coeffs))[:, None] * step + lows).ravel()
        lists.append((coeffs, lows, [m >> bits for m in masks], isinstance(terms, _Stack)))
    n_rows = sum(len(coeffs) for coeffs, *_ in lists)
    for high in range(1 << (n_settings - bits)):
        outs = np.empty((n_rows, step))
        views, row = [], 0
        for coeffs, lows, highs, stacked in lists:
            signs = np.array([1 - 2 * ((high & h).bit_count() & 1) for h in highs])
            out = outs[row:row + len(coeffs)]
            out[:] = np.bincount(lows, weights=(coeffs * signs).ravel(),
                                 minlength=out.size).reshape(out.shape)
            views.append(out if stacked else out[0])
            row += len(coeffs)
        walsh_hadamard(outs)
        yield high << bits, views


def _lhv_rows(stack: _Stack, n_settings: int) -> np.ndarray:
    """Deterministic maximum of every row of a stack, 2^_CHUNK_BITS values at a time."""
    per_chunk = max(1, (1 << _CHUNK_BITS) >> n_settings)
    best = np.full(len(stack.coeffs), -np.inf)
    for r in range(0, len(best), per_chunk):
        rows = _Stack(stack.coeffs[r:r + per_chunk], stack.masks)
        for _, (vals,) in _chunked_values([rows], n_settings):
            np.maximum(best[r:r + per_chunk], vals.max(axis=1), out=best[r:r + per_chunk])
    return best


def _linear_indexed(expr) -> tuple[dict[Setting, int], list]:
    """Setting index and indexed terms of a linear expression within the cap."""
    ast = _ast(expr)
    if not ast.is_linear:
        raise BoundError(
            "expression has square terms; use lhv_bound_nonlinear (bound --kind nonlinear)"
        )
    settings = ast.settings
    if len(settings) > LIMITS.max_settings:
        raise BoundError(f"{len(settings)} settings exceed cap {LIMITS.max_settings}")
    index = {s: k for k, s in enumerate(settings)}
    return index, _index_terms(ast.linear, index)


def lhv_bound(expr: Inequality | InequalityAST) -> float:
    """Exact maximum over all deterministic strategies (linear expressions)."""
    index, terms = _linear_indexed(expr)
    best = -np.inf
    for _, (vals,) in _chunked_values([terms], len(index)):
        best = max(best, float(vals.max()))
    return best


def lhv_strategy(expr: Inequality | InequalityAST) -> tuple[float, dict[Setting, int]]:
    """As lhv_bound, but also return one maximising assignment."""
    index, terms = _linear_indexed(expr)
    best, arg = -np.inf, 0
    for start, (vals,) in _chunked_values([terms], len(index)):
        k = int(vals.argmax())
        if vals[k] > best:
            best, arg = float(vals[k]), start + k
    strategy = {s: 1 - 2 * ((arg >> k) & 1) for s, k in index.items()}
    return best, strategy


def hybrid_bound(expr: Inequality | InequalityAST) -> float:
    """Deterministic bound of a pre-expanded grouping form.

    The expression is expected to be written in the variables of the
    grouped model (composite settings already expanded), so the bound is
    the plain deterministic maximum over all of them.
    """
    ast = _ast(expr)
    if not ast.is_linear:
        raise BoundError("hybrid bound expects a linear (pre-expanded) expression")
    return lhv_bound(ast)


# ---------------------------------------------------------------------------
# nonlinear LHV via concave envelope over strategy mixtures

def _group_max(moments: np.ndarray, values: np.ndarray):
    """Distinct moment rows in lexicographic order, each with its largest value."""
    order = np.lexsort((values, *moments.T[::-1]))
    moments, values = moments[order], values[order]
    last = np.ones(len(values), dtype=bool)  # last row of each group holds its max
    last[:-1] = (moments[1:] != moments[:-1]).any(axis=1)
    return moments[last], values[last]


def _folded_values(term_lists, n_settings: int, low_bits: int) -> np.ndarray:
    """(lists, 2^low_bits) array: each term list's largest value over the
    strategies that share their low ``low_bits`` bits.

    A chunk narrower than 2^low_bits fills the slice of low assignments at
    its offset; a wider one is folded to one value per low assignment.
    """
    out = np.full((len(term_lists), 1 << low_bits), -np.inf)
    for start, values in _chunked_values(term_lists, n_settings):
        for row, vals in zip(out, values):
            width = min(len(vals), len(row))
            at = row[start & (len(row) - 1):][:width]
            np.maximum(at, vals.reshape(-1, width).max(axis=0), out=at)
    return out


def _strategy_points(ast: InequalityAST):
    """Distinct (m_1[, m_2], L) strategy values, each moment key with its best L.

    The q settings that appear inside a square take the low strategy bits
    and the free settings the high bits, so the low q bits of a strategy
    fix its moments.  The moments are transformed over the 2^q square
    assignments alone, into one (squares, 2^q) array rounded in place.
    The linear part is transformed over all 2^S strategies and folded to
    its maximum over the free bits, one value per square assignment.  The
    2^q (moments, best L) rows are then grouped once.
    """
    settings = ast.settings
    if len(settings) > LIMITS.max_nonlinear_settings:
        raise BoundError(
            f"{len(settings)} settings exceed nonlinear cap {LIMITS.max_nonlinear_settings}"
        )
    squared = {s for _, sub in ast.squares for _, mono in sub for s in mono}
    order = sorted(settings, key=lambda s: s not in squared)  # stable: squared first
    index = {s: k for k, s in enumerate(order)}
    (best,) = _folded_values([_index_terms(ast.linear, index)], len(order), len(squared))
    subs = [_index_terms(sub, index) for _, sub in ast.squares]
    moments = _folded_values(subs, len(squared), len(squared))
    m, v = _group_max(np.round(moments, 12, out=moments).T, best)
    return [(tuple(k), val) for k, val in zip(m.tolist(), v.tolist())]


def _upper_concave_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
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


def _max_quadratic_on_segment(c, p, q):
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


def lhv_bound_nonlinear(expr: Inequality | InequalityAST) -> float:
    """Exact maximum of E[linear] + sum_j c_j (E[sub_j])^2 over strategy mixtures.

    Requires every square coefficient c_j <= 0 (the objective is then
    concave in the moment vector, so the optimum sits on the upper
    concave envelope of the deterministic strategy points).  Supports at
    most two square terms.
    """
    ast = _ast(expr)
    if ast.is_linear:
        return lhv_bound(ast)
    if len(ast.squares) > 2:
        raise BoundError("at most two square terms supported")
    coeffs = [float(c) for c, _ in ast.squares]
    if any(c > 0 for c in coeffs):
        raise BoundError("positive square coefficients make the problem non-concave")
    points = _strategy_points(ast)
    if len(ast.squares) == 1:
        c = coeffs[0]
        flat = [(k[0], v) for k, v in points]
        hull = _upper_concave_hull(flat)
        best = max(l + c * m * m for m, l in hull)
        for p, q in zip(hull, hull[1:]):
            best = max(best, _max_quadratic_on_segment(c, p, q))
        return float(best)
    return _nonlinear_two_squares(points, coeffs)


def _nonlinear_two_squares(points, coeffs) -> float:
    """Closed-form maximisation over singles, pairs, and triples of points.

    Any point of the upper envelope over the 2-D moment space is a mixture
    of at most three strategies, so enumerating triples with the interior
    stationary point solved exactly is equivalent to facet enumeration of
    the convex hull.
    """
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
                got = _triple_interior(pts[i], pts[j], pts[k], c1, c2)
                if got is not None:
                    best = max(best, got)
    return float(best)


def _triple_interior(p, q, r, c1, c2):
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


# ---------------------------------------------------------------------------
# quantum values

def quantum_value(
    expr: Inequality | InequalityAST,
    assignment: Mapping | None,
    state: StateVector,
) -> float:
    """Expectation of the assigned operator expression on a state.

    Square terms contribute coefficient * (expectation of sub-expression)^2.
    """
    opex = assign_paulis(_ast(expr), assignment, width=state.width)
    val = sum(expectation(state, t) for t in opex.linear_terms())
    for c, sub in opex.square_parts():
        s = sum(expectation(state, t) for t in sub)
        val += c * s * s
    return float(val)


def quantum_max(
    expr: Inequality | InequalityAST,
    assignment: Mapping | None = None,
    restarts: int = 8,
    seed: int = LIMITS.rng_seed,
) -> float:
    """Largest quantum value of the assigned operator expression.

    Linear expressions use the exact Hermitian eigensolver.  Expressions
    with square terms use a heuristic fixed-point ascent over pure states
    seeded by the linear part's top eigenvector (reported best value).
    """
    ast = _ast(expr)
    opex = assign_paulis(ast, assignment)
    width = opex.width
    lin = assemble_operator(opex.linear_terms(), width)
    if not opex.squares:
        return max_eigenvalue(lin)
    subs = [
        (c, assemble_operator(terms, width)) for c, terms in opex.square_parts()
    ]
    rng = np.random.default_rng(seed)
    _, seed_vec = max_eigenpair(lin)
    best = -np.inf
    starts = [seed_vec]
    dim = 2**width
    for _ in range(restarts):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        starts.append(v / np.linalg.norm(v))
    for psi in starts:
        prev = -np.inf
        for _ in range(200):
            eff = lin.copy()
            for c, s in subs:
                eff += 2 * c * np.vdot(psi, s @ psi).real * s
            _, psi = max_eigenpair(eff)
            val = np.vdot(psi, lin @ psi).real + sum(
                c * (np.vdot(psi, s @ psi).real ** 2) for c, s in subs
            )
            if val <= prev + TOL.converge:
                break
            prev = val
        best = max(best, prev)
    return float(best)


def algebraic_bound(expr: Inequality | InequalityAST) -> float:
    """Sum of absolute linear coefficients; negative squares cannot add."""
    ast = _ast(expr)
    total = float(sum(abs(c) for c, _ in ast.linear))
    for c, sub in ast.squares:
        if c > 0:
            total += float(c) * float(sum(abs(cc) for cc, _ in sub)) ** 2
    return total


# ---------------------------------------------------------------------------
# separable bound (alternating product-state maximisation)

def _split_term(term: SignedPauliTerm):
    letters = term.string.letters
    return (
        term.coefficient,
        to_matrix(PauliString.from_letters(letters[:1])),
        to_matrix(PauliString.from_letters(letters[1:])),
    )


def _fibonacci_bloch(n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors on the Bloch sphere."""
    k = np.arange(n) + 0.5
    z = 1 - 2 * k / n
    theta = np.arccos(z)
    phi = np.pi * (1 + np.sqrt(5)) * k
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), z], 1)


def separable_terms(
    expr: Inequality | InequalityAST, assignment: Mapping | None = None
) -> list[SignedPauliTerm]:
    """Assigned operator terms of a linear expression, for ``separable_bound``.

    The optimiser maximises one operator, so square terms are refused
    rather than dropped.
    """
    ast = _ast(expr)
    if not ast.is_linear:
        raise BoundError("separable bound supports linear expressions only")
    return assign_paulis(ast, assignment).linear_terms()


@dataclass(frozen=True)
class SeparableResult:
    value: float
    left_state: np.ndarray
    right_state: np.ndarray


def separable_bound(
    terms: Sequence[SignedPauliTerm],
    restarts: int = LIMITS.separable_restarts,
) -> SeparableResult:
    """Best product state across the 1 | rest split, by alternating maximisation.

    Qubit 1 starts at each of ``restarts`` Fibonacci-sphere Bloch vectors,
    so the result is deterministic and draws no random numbers.  The
    value is attained by the returned product state, so it is a lower
    bound on the true separable maximum; with the default restart budget
    it is exact in practice for the small operators handled here
    (cross-checked against a dense grid oracle for the 2x2 case in the
    test-suite).
    """
    if not terms:
        raise BoundError("empty operator")
    width = terms[0].width
    if width < 2:
        raise BoundError("the 1 | rest split needs at least two qubits")
    parts = [_split_term(t) for t in terms]
    dim_r = 2 ** (width - 1)

    seeds = []
    for v in _fibonacci_bloch(restarts):
        theta = np.arccos(np.clip(v[2], -1, 1))
        phi = np.arctan2(v[1], v[0])
        seeds.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))

    best = SeparableResult(-np.inf, None, None)
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
            best = SeparableResult(float(value), alpha, beta)
    return best


# ---------------------------------------------------------------------------
# discord condition

# kron(sigma_a, sigma_mu) for a in XYZ on qubit 1 and mu in IXYZ on qubit 2
_CORRELATION_BASIS = np.stack(
    [[np.kron(_SINGLE[a], _SINGLE[mu]) for mu in "IXYZ"] for a in "XYZ"]
)


@dataclass(frozen=True)
class DiscordCheck:
    """Result for one state (floats) or a stack ((n,) arrays).

    For a stack, ``passed`` holds only if every state passes.
    """

    passed: bool
    x_correlator: float | np.ndarray
    y_correlator: float | np.ndarray
    epsilon: float


def discord_condition_check(rho: DensityOperator, epsilon: float) -> DiscordCheck:
    """Adapted-basis correlator test for the classical-quantum structure.

    M[a, mu] = tr(rho sigma_a (x) sigma_mu), for a in XYZ and mu in IXYZ,
    is the 3x4 correlation matrix [r_A | T]; a state has zero discord on
    the first qubit iff M has rank <= 1 (Dakic, Vedral, Brukner, PRL 105,
    190502 (2010)).  The leading left singular vector of M is the
    classical direction; the adapted X' and Y' observables lie along the
    other two, and their rows of M have norms sigma_2 and sigma_3.  These
    adapted-row norms are ``x_correlator`` and ``y_correlator``, so
    (sigma_2^2 + sigma_3^2) / 4 is the geometric discord, and a state
    passes iff sigma_2 <= epsilon.  No eigenvalue gap enters, so
    classical-quantum states with equal weights pass too.  ``rho`` may
    hold one 4x4 matrix or a (..., 4, 4) stack; one einsum and one
    singular-value decomposition serve both.
    """
    if rho.width != 2:
        raise BoundError("discord condition defined for two-qubit states")
    if not 0 < epsilon <= 0.5:
        raise BoundError("epsilon must lie in (0, 1/2]")
    m = np.einsum("...ij,amji->...am", rho.matrix, _CORRELATION_BASIS).real
    s = np.linalg.svd(m, compute_uv=False)
    x_corr, y_corr = s[..., 1], s[..., 2]
    passed = bool((x_corr <= epsilon).all())
    if m.ndim == 2:
        return DiscordCheck(passed, float(x_corr), float(y_corr), epsilon)
    return DiscordCheck(passed, x_corr, y_corr, epsilon)


# ---------------------------------------------------------------------------
# report container

@dataclass
class BoundReport:
    name: str
    lhv: Optional[float] = None
    separable: Optional[float] = None
    hybrid: Optional[float] = None
    quantum_value: Optional[float] = None
    quantum_max: Optional[float] = None
    algebraic: Optional[float] = None
    verdict: str = "no-violation"
    paper_claim: dict = field(default_factory=dict)
    claim_match: dict = field(default_factory=dict)
    expected_mismatch: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhv": self.lhv,
            "separable": self.separable,
            "hybrid": self.hybrid,
            "quantum_value": self.quantum_value,
            "quantum_max": self.quantum_max,
            "algebraic": self.algebraic,
            "verdict": self.verdict,
            "paper_claim": self.paper_claim,
            "claim_match": self.claim_match,
        }

    def _failed(self) -> list:
        return [k for k, ok in self.claim_match.items() if not ok]

    @property
    def known_mismatch(self) -> bool:
        """Some failed claim is listed in ``expected_mismatch``."""
        return any(k in self.expected_mismatch for k in self._failed())

    @property
    def unexpected_mismatch(self) -> bool:
        """Some failed claim is not listed in ``expected_mismatch``."""
        return any(k not in self.expected_mismatch for k in self._failed())
