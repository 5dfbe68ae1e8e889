"""Re-derivation of classical, separable, hybrid, and quantum bounds.

Classical (LHV) bounds for linear expressions are exact maxima over all
deterministic +-1 assignments to the settings; sufficiency of the
deterministic extreme points for linear functionals is standard and is
assumed, not re-proven.  The nonlinear case does NOT assume it: with
concave square terms the optimum may need a mixture of deterministic
strategies, so it is computed over probability distributions.  For k
squares the optimum lies on a face of at most k+1 strategy points of the
upper concave envelope; ``_face_max`` solves the stationarity system of
every candidate face in one array pass.  The strategy points split the
settings into two blocks: the settings inside square terms with every
setting joined to them through linear terms, transitively, and the
rest.  No linear term spans both, so the independent block's linear
maximum is added once to every point: the split is exact.  The
nonlinear cap counts the settings of both blocks.

Every deterministic value comes from one strategy evaluator,
``_chunked_values``, which takes one ``_Stack``: coefficient rows over a
shared list of setting masks.  A term's value under strategy k is its
coefficient times (-1)^popcount(k & mask), so a row's values over all
2^S strategies are one Walsh-Hadamard transform
(``pauli.walsh_hadamard``) of its coefficients scattered by setting mask,
taken in chunks of 2^20 values, rows times strategies.  One expression is
a stack of one row (``_stack``); the nonlinear bound stacks its square
parts, one row each; the descendant search stacks thousands of rows over
one setting index.  Two reducers read the evaluator: ``_lhv_max`` keeps
one expression's maximum and its first maximising strategy, and
``_folded_values`` keeps each row's maximum over the strategies that
share their low bits, in blocks of rows that keep the chunk size (the
envelope's folds, and with no low bits the descendant search's row
maxima).  Linear bounds refuse square terms and more than
``LIMITS.max_settings`` settings before enumerating.

Quantum values come from one kernel, ``_quantum_values``, over parts of
(coefficient column, monomial) terms with one entry per row:
``quantum_value`` is its one-row call, and the descendant search passes
its table columns.  It holds the width contract: a setting on a site past
the state's width raises ``BoundError``, and a wider state pads with
identities.

The hybrid bound is the deterministic bound of a pre-expanded grouping
form.  The quantum maximum is exact (Hermitian eigensolver) for linear
expressions and a seeded heuristic ascent with square terms.  The
separable value is a deterministically seeded alternating product-state
maximisation over the 1 | rest split of a linear operator
(``separable_terms`` refuses square terms), on four blocks built by
``assemble_operator``, one per qubit-1 letter; it is a lower bound on the
separable maximum, attained by the returned product state.  The discord
condition check reads the rank of each two-qubit state's 3x4
correlation matrix [r_A | T]: the adapted-basis correlators are its
second and third singular values, taken for one state or a stack in one
decomposition.
Single-qubit matrices come from ``pauli._SINGLE``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .config import LIMITS, TOL
from .dsl import (
    Inequality,
    InequalityAST,
    Setting,
    _pauli_sums,
    _resolve_assignment,
    assign_paulis,
)
from .pauli import _LETTER, _SINGLE, PauliString, walsh_hadamard
from .states import (
    DensityOperator,
    StateVector,
    assemble_operator,
    expectation,
    max_eigenpair,
    max_eigenvalue,
    standard_normals,
)


class BoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic strategy enumeration

def _ast(expr) -> InequalityAST:
    return expr.ast if isinstance(expr, Inequality) else expr


_CHUNK_BITS = 20  # values evaluated per chunk, rows x strategies: 2^20
_QUANTUM_RESTARTS = 8  # random starts of the square-term ascent, after the seeded one
_QUANTUM_SEED = 0  # seed of those random starts
_SEPARABLE_RESTARTS = 64  # Fibonacci-sphere starts of the separable maximisation


class _Stack(NamedTuple):
    """Coefficient rows over one shared list of monomials (setting bitmasks)."""

    coeffs: np.ndarray  # (rows, terms) floats
    masks: Sequence[int]


def _stack(term_lists, index: Mapping[Setting, int]) -> _Stack:
    """One row per term list, each row on its own columns.

    A row is zero outside its own columns, and zeros add nothing to a sum,
    so every row keeps its own term order and the float bits of its values.
    """
    coeffs = np.zeros((len(term_lists), sum(map(len, term_lists))))
    masks: list[int] = []
    for row, terms in zip(coeffs, term_lists):
        row[len(masks):len(masks) + len(terms)] = [float(c) for c, _ in terms]
        masks += [sum(1 << index[s] for s in mono) for _, mono in terms]
    return _Stack(coeffs, masks)


def _chunked_values(stack: _Stack, n_settings: int):
    """Yield (strategy_offset, (rows, step) values) over all 2^S strategies.

    Strategy k sets setting j to (-1)^(bit j of k), so a term c * prod_{j in m}
    is worth c * (-1)^popcount(k & m): over all k, a row's values are the
    Walsh-Hadamard transform of its coefficients scattered by mask.  A
    chunk fixes the high bits of k; each coefficient is scattered by its low
    mask bits with the sign its high mask bits take under them.  A stack of
    many rows comes through ``_folded_values``, which keeps rows x step
    within 2^_CHUNK_BITS.
    """
    bits = min(n_settings, _CHUNK_BITS)
    step = 1 << bits
    rows = len(stack.coeffs)
    lows = np.array(stack.masks, dtype=np.int64) & (step - 1)
    lows = (np.arange(rows)[:, None] * step + lows).ravel()
    highs = [m >> bits for m in stack.masks]
    for high in range(1 << (n_settings - bits)):
        signs = np.array([1 - 2 * ((high & h).bit_count() & 1) for h in highs])
        values = np.bincount(lows, weights=(stack.coeffs * signs).ravel(),
                             minlength=rows * step).reshape(rows, step)
        yield high << bits, walsh_hadamard(values)


def _lhv_max(expr) -> tuple[float, int, dict[Setting, int]]:
    """Deterministic maximum of a linear expression within the cap, its first
    maximising strategy and the setting index that strategy's bits follow."""
    ast = _ast(expr)
    if not ast.is_linear:
        raise BoundError(
            "expression has square terms; use lhv_bound_nonlinear (bound --kind nonlinear)"
        )
    settings = ast.settings
    if len(settings) > LIMITS.max_settings:
        raise BoundError(f"{len(settings)} settings exceed cap {LIMITS.max_settings}")
    index = {s: k for k, s in enumerate(settings)}
    best, arg = -np.inf, 0
    for start, (vals,) in _chunked_values(_stack([ast.linear], index), len(index)):
        k = int(vals.argmax())
        if vals[k] > best:
            best, arg = float(vals[k]), start + k
    return best, arg, index


def lhv_bound(expr: Inequality | InequalityAST) -> float:
    """Exact maximum over all deterministic strategies (linear expressions)."""
    return _lhv_max(expr)[0]


def lhv_strategy(expr: Inequality | InequalityAST) -> tuple[float, dict[Setting, int]]:
    """As lhv_bound, but also return one maximising assignment."""
    best, arg, index = _lhv_max(expr)
    return best, {s: 1 - 2 * ((arg >> k) & 1) for s, k in index.items()}


def hybrid_bound(expr: Inequality | InequalityAST) -> float:
    """Deterministic bound of a pre-expanded grouping form.

    The expression is expected to be written in the variables of the
    grouped model (composite settings already expanded), so the bound is
    the plain deterministic maximum over all of them.
    """
    return lhv_bound(expr)


# ---------------------------------------------------------------------------
# nonlinear LHV via concave envelope over strategy mixtures

def _group_max(moments: np.ndarray, values: np.ndarray):
    """Distinct moment rows in lexicographic order, each with its largest value."""
    order = np.lexsort((values, *moments.T[::-1]))
    moments, values = moments[order], values[order]
    last = np.ones(len(values), dtype=bool)  # last row of each group holds its max
    last[:-1] = (moments[1:] != moments[:-1]).any(axis=1)
    return moments[last], values[last]


def _folded_values(stack: _Stack, n_settings: int, low_bits: int) -> np.ndarray:
    """(rows, 2^low_bits) array: each row's largest value over the
    strategies that share their low ``low_bits`` bits.

    The rows go through ``_chunked_values`` in blocks of at most
    2^_CHUNK_BITS values, rows times strategies.  A chunk narrower than
    2^low_bits fills the slice of low assignments at its offset; a wider
    one is folded to one value per low assignment.  With ``low_bits`` 0
    this is each row's deterministic maximum.
    """
    out = np.full((len(stack.coeffs), 1 << low_bits), -np.inf)
    per_block = max(1, (1 << _CHUNK_BITS) >> n_settings)
    for r in range(0, len(out), per_block):
        block = out[r:r + per_block]
        rows = _Stack(stack.coeffs[r:r + per_block], stack.masks)
        for start, values in _chunked_values(rows, n_settings):
            width = min(values.shape[1], block.shape[1])
            at = block[:, start & (block.shape[1] - 1):][:, :width]
            np.maximum(at, values.reshape(len(values), -1, width).max(axis=1), out=at)
    return out


def _coupled(seeds, monomials) -> set:
    """``seeds`` and every setting joined to them through ``monomials``, transitively."""
    reached, pending = set(seeds), [set(m) for m in monomials]
    while joined := [m for m in pending if m & reached]:
        pending = [m for m in pending if not m & reached]
        reached.update(*joined)
    return reached


def _strategy_points(ast: InequalityAST):
    """Distinct (m_1[, m_2], L) strategy values, each moment key with its best L.

    The coupled block is the q squared settings and every setting joined
    to them through linear terms, transitively; the independent block is
    the rest.  No linear term spans both, so the best L at a square
    assignment is the coupled part's best plus the independent part's
    maximum, exactly.  The squared settings take the coupled block's low
    bits, so the moments are transformed over the 2^q square assignments
    alone, and the coupled linear part, the constant too, is folded to
    one best value per square assignment.  The 2^q (moments, best L) rows
    are grouped once.  The nonlinear cap counts the settings of both
    blocks, before enumerating.
    """
    settings = ast.settings
    if len(settings) > LIMITS.max_nonlinear_settings:
        raise BoundError(
            f"{len(settings)} settings exceed nonlinear cap {LIMITS.max_nonlinear_settings}"
        )
    squared = {s for _, sub in ast.squares for _, mono in sub for s in mono}
    coupled = _coupled(squared, (mono for _, mono in ast.linear))
    order = sorted((s for s in settings if s in coupled), key=lambda s: s not in squared)
    index = {s: k for k, s in enumerate(order)}
    free_index = {s: k for k, s in enumerate(s for s in settings if s not in coupled)}
    coupled_terms = [t for t in ast.linear if set(t[1]) <= coupled]
    free_terms = [t for t in ast.linear if not set(t[1]) <= coupled]
    (best,) = _folded_values(_stack([coupled_terms], index), len(index), len(squared))
    best += _folded_values(_stack([free_terms], free_index), len(free_index), 0)[0, 0]
    moments = _folded_values(_stack([sub for _, sub in ast.squares], index),
                             len(squared), len(squared))
    m, v = _group_max(np.round(moments, 12, out=moments).T, best)
    return [(tuple(k), val) for k, val in zip(m.tolist(), v.tolist())]


def _upper_concave_hull(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the monotone-chain upper hull of (m, L) points, by m."""
    hull: list[int] = []
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = points[hull[-2]], points[hull[-1]]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _face_max(pts: np.ndarray, c: np.ndarray, faces: np.ndarray) -> float:
    """Largest interior stationary value of L + sum_j c_j m_j^2 over faces.

    ``pts`` is the (P, k+1) array of strategy points (m_1..m_k, L) and
    ``faces`` an (F, s) array of point indices, s >= 2.  A mixture of a
    face is r + w @ D, with r its last point, D its other points minus r
    and w >= 0, sum w <= 1.  The objective is a concave quadratic in w;
    its stationary point solves H w = b with H = 2 D_m diag(c) D_m^T and
    b = -(D_L + 2 D_m (c * r_m)), one (s-1)x(s-1) system per face.  Faces
    whose H is singular or whose stationary point leaves the simplex are
    skipped: their maximum lies on a smaller face.
    """
    r = pts[faces[:, -1]]
    d = pts[faces[:, :-1]] - r[:, None]
    dm = d[..., :-1]
    h = 2 * np.einsum("fik,k,fjk->fij", dm, c, dm)
    b = -(d[..., -1] + 2 * np.einsum("fik,fk->fi", dm, c * r[:, :-1]))
    ok = np.abs(np.linalg.det(h)) > 1e-12
    w = np.linalg.solve(h[ok], b[ok][..., None])[..., 0]
    inside = (w >= -1e-12).all(axis=1) & (w.sum(axis=1) <= 1 + 1e-12)
    x = r[ok][inside] + np.einsum("fi,fik->fk", w[inside], d[ok][inside])
    return float(np.max(x[:, -1] + x[:, :-1] ** 2 @ c, initial=-np.inf))


def lhv_bound_nonlinear(expr: Inequality | InequalityAST) -> float:
    """Exact maximum of E[linear] + sum_j c_j (E[sub_j])^2 over strategy mixtures.

    Requires every square coefficient c_j <= 0: the objective is then
    concave in the moment vector, so for k squares the optimum lies on a
    face of at most k+1 strategy points of the upper concave envelope.
    Single points are evaluated directly and larger faces go to
    ``_face_max``: with one square, the edges of the upper hull in (m, L);
    with two, every pair and every triple of points, one first index at a
    time.  Supports at most two square terms.
    """
    ast = _ast(expr)
    if ast.is_linear:
        return lhv_bound(ast)
    if len(ast.squares) > 2:
        raise BoundError("at most two square terms supported")
    c = np.array([float(c) for c, _ in ast.squares])
    if (c > 0).any():
        raise BoundError("positive square coefficients make the problem non-concave")
    pts = np.array([[*k, v] for k, v in _strategy_points(ast)])
    best = float((pts[:, -1] + pts[:, :-1] ** 2 @ c).max())
    if len(c) == 1:
        hull = _upper_concave_hull(pts.tolist())
        edges = np.array([hull[:-1], hull[1:]], dtype=np.intp).T
        return max(best, _face_max(pts, c, edges))
    pairs = np.column_stack(np.triu_indices(len(pts), 1))
    best = max(best, _face_max(pts, c, pairs))
    for i in range(len(pts) - 2):
        rest = pairs[pairs[:, 0] > i]
        triples = np.column_stack([np.full(len(rest), i), rest])
        best = max(best, _face_max(pts, c, triples))
    return best


# ---------------------------------------------------------------------------
# quantum values

def _quantum_values(parts, square_coeffs: Sequence[float], assignment: Mapping | None,
                    state: StateVector, rows: int) -> np.ndarray:
    """Quantum value of each of ``rows`` expressions on one state.

    ``parts`` holds the linear part, then each square part (its
    coefficient in ``square_coeffs``), as (coefficient column, monomial)
    terms with one column entry per row.  Each part goes once through
    ``_pauli_sums`` and each string's expectation is taken once.  A row's
    string sums carry the bits of its own expansion and add up in
    ``PauliString.sort_key`` order from +0.0, and absent terms add zeros,
    so each row's value is, by construction, the one ``quantum_value``
    (the one-row call) gives its own expression.  A setting on a site
    past the state's width is refused; a wider state pads with identities.
    """
    settings = sorted({s for terms in parts for _, mono in terms for s in mono})
    width = max((s.site for s in settings), default=1)
    if width > state.width:
        raise BoundError(f"expression width {width} exceeds state width {state.width}")
    observables = _resolve_assignment(settings, assignment or {})
    expectations: dict[PauliString, float] = {}
    sums = []
    for terms in parts:
        total = np.zeros(rows)
        for acc, string in _pauli_sums(terms, observables, state.width):
            kept = np.abs(acc) > 1e-14
            if not kept.any():
                continue
            if string not in expectations:
                expectations[string] = expectation(state, string)
            total = total + np.where(kept, expectations[string] * acc, 0.0)
        sums.append(total)
    values = sums[0]
    for c, s in zip(square_coeffs, sums[1:]):
        values = values + c * s * s
    return values


def quantum_value(
    expr: Inequality | InequalityAST,
    assignment: Mapping | None,
    state: StateVector,
) -> float:
    """Expectation of the assigned operator expression on a state.

    Square terms contribute coefficient * (expectation of sub-expression)^2.
    The expression is a one-row call of ``_quantum_values``.
    """
    ast = _ast(expr)
    parts = [[(np.array([float(c)]), mono) for c, mono in terms]
             for terms in (ast.linear, *(sub for _, sub in ast.squares))]
    square_coeffs = [float(c) for c, _ in ast.squares]
    return float(_quantum_values(parts, square_coeffs, assignment, state, 1)[0])


def quantum_max(expr: Inequality | InequalityAST, assignment: Mapping | None = None) -> float:
    """Largest quantum value of the assigned operator expression.

    Linear expressions use the exact Hermitian eigensolver.  Expressions
    with square terms use a heuristic fixed-point ascent over pure states
    started at the linear part's top eigenvector and at
    ``_QUANTUM_RESTARTS`` random states (reported best value).  Their
    amplitudes are standard normals (``states.standard_normals``) from the
    stdlib generator ``random.Random(_QUANTUM_SEED)``, a new instance per
    call, so concurrent calls share no state, and on numpy 2 no path
    loads ``numpy.random``.
    """
    ast = _ast(expr)
    opex = assign_paulis(ast, assignment)
    width = opex.width
    lin = assemble_operator(opex.linear, width)
    if not opex.squares:
        return max_eigenvalue(lin)
    subs = [(c, assemble_operator(terms, width)) for c, terms in opex.squares]
    draws = Random(_QUANTUM_SEED)
    _, seed_vec = max_eigenpair(lin)
    best = -np.inf
    starts = [seed_vec]
    for _ in range(_QUANTUM_RESTARTS):
        real, imag = standard_normals(draws, (2, 2**width))
        v = real + 1j * imag
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

def _fibonacci_bloch(n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors on the Bloch sphere."""
    k = np.arange(n) + 0.5
    z = 1 - 2 * k / n
    theta = np.arccos(z)
    phi = np.pi * (1 + np.sqrt(5)) * k
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), z], 1)


def separable_terms(
    expr: Inequality | InequalityAST, assignment: Mapping | None = None
) -> tuple[tuple[float, PauliString], ...]:
    """Assigned (coefficient, string) pairs of a linear expression, for ``separable_bound``.

    The optimiser maximises one operator, so square terms are refused
    rather than dropped.
    """
    ast = _ast(expr)
    if not ast.is_linear:
        raise BoundError("separable bound supports linear expressions only")
    return assign_paulis(ast, assignment).linear


@dataclass(frozen=True)
class SeparableResult:
    value: float
    left_state: np.ndarray
    right_state: np.ndarray


def separable_bound(terms: Sequence[tuple[float, PauliString]]) -> SeparableResult:
    """Best product state across the 1 | rest split, by alternating maximisation.

    ``terms`` are the operator's (coefficient, string) pairs, of one width.
    The operator is split once as O = sum_a sigma_a (x) B_a over a in IXYZ,
    each block B_a assembled over the terms whose qubit-1 letter is a.  An
    iteration takes the top eigenvector of the rest's operator
    B_I + sum_{a in XYZ} <alpha|sigma_a|alpha> B_a, then of qubit 1's
    sum_a <beta|B_a|beta> sigma_a.  Qubit 1 starts at each of
    ``_SEPARABLE_RESTARTS`` Fibonacci-sphere Bloch vectors, so the result
    is deterministic and draws no random numbers.  The value is attained
    by the returned product state, so it is a lower bound on the true
    separable maximum, not a certified upper bound.  Where the optimum is
    flat to fourth order the ascent converges sublinearly: on
    -I - Y2 - X1X2 - Y1 + Z1Z2 (maximum 1) every start reaches the
    500-iteration cap and the value falls 2.3e-7 short.
    """
    if not terms:
        raise BoundError("empty operator")
    width = terms[0][1].width
    if any(string.width != width for _, string in terms):
        raise BoundError("operator terms differ in width")
    if width < 2:
        raise BoundError("the 1 | rest split needs at least two qubits")
    rest, low = width - 1, (1 << (width - 1)) - 1
    groups = {a: [] for a in "IXYZ"}
    for c, string in terms:
        x, z = string.x_mask, string.z_mask
        part = (c, PauliString(rest, x & low, z & low, string.phase_exp))
        groups[_LETTER[x >> rest, z >> rest]].append(part)
    blocks = {a: assemble_operator(g, rest) for a, g in groups.items()}

    seeds = []
    for v in _fibonacci_bloch(_SEPARABLE_RESTARTS):
        theta = np.arccos(np.clip(v[2], -1, 1))
        phi = np.arctan2(v[1], v[0])
        seeds.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))

    best = SeparableResult(-np.inf, None, None)
    for alpha in seeds:
        value = -np.inf
        for _ in range(500):
            o_right = blocks["I"].copy()
            for a in "XYZ":
                o_right += np.vdot(alpha, _SINGLE[a] @ alpha).real * blocks[a]
            _, beta = max_eigenpair(o_right)
            o_left = sum(np.vdot(beta, b @ beta).real * _SINGLE[a] for a, b in blocks.items())
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
        return DiscordCheck(passed, float(x_corr), float(y_corr))
    return DiscordCheck(passed, x_corr, y_corr)


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
