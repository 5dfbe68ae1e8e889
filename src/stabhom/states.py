"""Statevector, density-operator and block-operator engine.

Seven checks hold the width cap ``LIMITS.max_width`` (12).  Five guard a
2^N allocation: ``make_pair_superposition``, ``ghz_state`` and
``catalog.state_from_spec`` (an ``amplitudes`` spec) before the amplitude
array, ``x_cosets`` before the index space and ``codespace.lift_state``
before the lifted amplitudes.  Two allocate nothing: ``StateVector``
checks amplitudes its caller already holds before it computes 2**width,
and ``LogicalEncoding.ghz`` refuses a code size with its own message.

Basis convention: site 1 is the most significant bit of the basis index,
so |011> on three qubits is amplitude index 0b011 = 3.  All heavy loops
are numpy bit-twiddling; a Pauli string acts as an index permutation plus
a per-index phase, so no dense matrix is ever built for expectations.

Operators have one builder, over x-mask cosets.  The x-masks of an
operator's strings span a GF(2) subspace V of dimension r, and every
string maps each coset k + V of basis indices into itself, so the operator
is block-diagonal: 2^(N-r) blocks of 2^r, held as a (2^(N-r), 2^r, 2^r)
stack of 2^(N+r) entries instead of 4^N (``x_cosets``,
``assemble_blocks``).  The cosets are ordered by their smallest member.
Top eigenpairs come from one batched ``eigh`` or ``eigvalsh`` over the
stack; where several blocks share the top value, the first in coset order
gives the eigenvector, embedded in a dense vector.  Strings whose x-masks
span all N bits give one dense block: ``assemble_operator`` is that
one-coset case, r = N, and ``max_eigenvalue`` / ``max_eigenpair`` take
one dense matrix.  Dense solves use the Hermitian eigensolver or a closed
form; no other LAPACK routine runs on the CLI paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .config import LIMITS, TOL
from .pauli import PauliError, PauliString, _phase_vector


class StateError(ValueError):
    """Raised on malformed states or operators."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Read-only amplitudes; equal when width and amplitude bytes are equal."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.width > LIMITS.max_width:  # before 2**width is computed
            raise StateError(f"width {self.width} exceeds width cap {LIMITS.max_width}")
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: the caller's array stays writable
        if amps.shape != (2**self.width,):
            raise StateError(f"expected {2**self.width} amplitudes, got {amps.shape}")
        if not abs(np.linalg.norm(amps) - 1.0) <= TOL.norm:  # a NaN fails too
            raise StateError("state vector is not normalised")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def _key(self) -> tuple[int, bytes]:
        return self.width, self.amplitudes.tobytes()

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _check_density(m, dim: int) -> np.ndarray:
    """Complex (..., dim, dim) array of density matrices, or StateError.

    Every matrix of a stack must be Hermitian with unit trace and no
    eigenvalue below ``-TOL.psd``; one batched ``eigvalsh`` covers them all.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (dim, dim):
        raise StateError(f"expected {dim}x{dim} matrix")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) > TOL.norm:
        raise StateError("density operator is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    if (np.abs(tr.real - 1.0) > TOL.norm).any() or (np.abs(tr.imag) > TOL.norm).any():
        raise StateError("density operator trace is not 1")
    if np.linalg.eigvalsh(m).min(initial=0.0) < -TOL.psd:
        raise StateError("density operator is not positive semidefinite")
    return m


@dataclass(frozen=True)
class DensityOperator:
    """A width-qubit density matrix, or a stack of them: shape (..., 2^w, 2^w)."""

    width: int
    matrix: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable
        m = _check_density(np.array(self.matrix, dtype=complex), 2**self.width)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


# ---------------------------------------------------------------------------
# constructors

def make_pair_superposition(a: str, b: str, amp_a: complex, amp_b: complex) -> StateVector:
    """State amp_a|a> + amp_b|b> for two distinct basis labels."""
    if len(a) != len(b):
        raise StateError("bitstring lengths differ")
    if a == b:
        raise StateError("bitstrings must differ")
    if set(a + b) - {"0", "1"}:  # int(., 2) would also take "_", "+" and "-"
        raise StateError(f"bitstrings {a!r}, {b!r} must hold only 0 and 1")
    if len(a) > LIMITS.max_width:
        raise StateError(f"bitstring length {len(a)} exceeds width cap {LIMITS.max_width}")
    if abs(abs(amp_a) ** 2 + abs(amp_b) ** 2 - 1.0) > TOL.norm:
        raise StateError("|amp_a|^2 + |amp_b|^2 must be 1")
    n = len(a)
    amps = np.zeros(2**n, dtype=complex)
    amps[int(a, 2)] = amp_a
    amps[int(b, 2)] = amp_b
    return StateVector(n, amps)


def ghz_state(n: int, phase: complex = 1.0) -> StateVector:
    """(|0...0> + phase |1...1>)/sqrt(2)."""
    if not 1 <= n <= LIMITS.max_width:
        raise StateError(f"GHZ state size {n} outside 1..{LIMITS.max_width}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = phase / np.sqrt(2)
    return StateVector(n, amps)


def standard_normals(draws: Random, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws from a stdlib generator, in C order of ``shape``.

    Each caller passes its own ``random.Random(seed)``, so threads share
    no generator, and on numpy 2 no path loads ``numpy.random``.
    """
    return np.array([draws.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def make_cq_state(
    probs: Sequence[float],
    kets: Sequence[np.ndarray],
    rhos: Sequence[DensityOperator] | DensityOperator,
) -> DensityOperator:
    """Classical-quantum state sum_k p_k |phi_k><phi_k| (x) rho_k.

    The first-qubit kets must be mutually orthonormal; the reduced state
    of qubit 1 is then diagonal in that basis.  ``rhos`` is a sequence of
    K density operators or one holding a (..., K, d, d) stack; with
    ``probs`` of shape (..., K) and ``kets`` of shape (..., K, 2) the
    leading axes give a stack of states, built by one ``einsum``.
    """
    if isinstance(rhos, DensityOperator):
        rho_m, width = rhos.matrix, rhos.width
    else:
        rho_m = np.array([r.matrix for r in rhos])
        width = rhos[0].width if rhos else 0  # empty input fails the length check below
    p = np.asarray(probs, dtype=float)
    kets = np.asarray(kets, dtype=complex)
    if not (p.shape == kets.shape[:-1] == rho_m.shape[:-2]):
        raise StateError("probs, kets, rhos must have equal length")
    if (p < -TOL.norm).any() or (np.abs(p.sum(axis=-1) - 1.0) > TOL.norm).any():
        raise StateError("probabilities must be nonnegative and sum to 1")
    if kets.shape[-1] != 2 or (np.abs(np.linalg.norm(kets, axis=-1) - 1.0) > TOL.norm).any():
        raise StateError("kets must be normalised single-qubit states")
    gram = np.einsum("...ia,...ja->...ij", kets.conj(), kets)
    if (np.abs(gram[..., ~np.eye(gram.shape[-1], dtype=bool)]) > TOL.norm).any():
        raise StateError("kets must be mutually orthogonal")
    d = rho_m.shape[-1]
    out = np.einsum("...k,...ka,...kb,...kcd->...acbd", p, kets, kets.conj(), rho_m)
    return DensityOperator(1 + width, out.reshape(p.shape[:-1] + (2 * d, 2 * d)))


# ---------------------------------------------------------------------------
# pauli action and expectations

def apply_pauli(string: PauliString, amps: np.ndarray) -> np.ndarray:
    """Return string @ amps using index permutation + per-index phases."""
    n = string.width
    ph = _phase_vector(string, n)
    out = np.zeros_like(amps)
    idx = np.arange(2**n)
    out[idx ^ string.x_mask] = ph * amps
    return out


def expectation(state: StateVector, string: PauliString) -> float:
    """<psi| string |psi>, the string's sign being its phase; a phase of +-i raises PauliError."""
    if state.width != string.width:
        raise PauliError(f"width mismatch {state.width} != {string.width}")
    if string.phase_exp % 2:
        raise PauliError(f"string {string} has an imaginary phase")
    val = np.vdot(state.amplitudes, apply_pauli(string, state.amplitudes))
    if abs(val.imag) > TOL.norm:
        raise StateError(f"non-real expectation {val}")
    return float(val.real)


# ---------------------------------------------------------------------------
# block operators and their top eigenpairs

def x_cosets(masks: Iterable[int], width: int) -> np.ndarray:
    """Cosets of the GF(2) span V of the x-masks among the 2^width basis indices.

    Returns a (2^(width-r), 2^r) integer array, r = dim V: one row per
    coset k + V, the rows ordered by their smallest member and each row
    ascending.  The basis is kept in reduced echelon form (distinct leading
    bits, each clear in every other basis mask), so a coset's smallest
    member is the one that is clear on every leading bit, and a row is that
    member XOR the ascending span: member j of a row XOR member t of the
    first row (V itself) is member j ^ t of the same row.
    """
    if width > LIMITS.max_width:  # before the 2^width index space or span is allocated
        raise StateError(f"operator width {width} exceeds width cap {LIMITS.max_width}")
    basis: list[int] = []
    for m in masks:
        for b in basis:  # descending leading bits
            m = min(m, m ^ b)
        if m:
            basis = sorted([min(b, b ^ m) for b in basis] + [m], reverse=True)
    span = np.zeros(1, dtype=np.int64)
    for b in reversed(basis):
        span = np.concatenate([span, span ^ b])
    leads = sum(1 << (b.bit_length() - 1) for b in basis)
    idx = np.arange(2**width, dtype=np.int64)
    return idx[(idx & leads) == 0][:, None] ^ span


def assemble_blocks(terms: Sequence[tuple[float, PauliString]], cosets: np.ndarray,
                    width: int) -> np.ndarray:
    """Restrictions of sum of (coefficient, string) pairs to each coset, (blocks, 2^r, 2^r).

    ``cosets`` comes from ``x_cosets`` over masks that span every string's
    x-mask.  A string maps member j of a coset to member j ^ t, t being its
    x-mask's place in the first coset, with the phase the string takes at
    member j; entries add up in term order, so each equals its entry of the
    dense matrix bit for bit.
    """
    span = cosets[0]
    j = np.arange(span.size)
    out = np.zeros((len(cosets), span.size, span.size), dtype=complex)
    for c, string in terms:
        t = int(np.searchsorted(span, string.x_mask))
        if t == span.size or span[t] != string.x_mask:
            raise StateError(f"string {string} leaves the cosets")
        out[:, j ^ t, j] += c * _phase_vector(string, width)[cosets]
    return out


def assemble_operator(terms: Sequence[tuple[float, PauliString]], width: int) -> np.ndarray:
    """Dense sum of (coefficient, string) pairs, phases included: the one-coset case r = width."""
    return assemble_blocks(terms, np.arange(2**width)[None], width)[0]


def apply_blocks(blocks: np.ndarray, cosets: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The block operator applied to a dense amplitude vector, as a dense vector."""
    out = np.empty_like(amps)
    out[cosets] = np.einsum("bij,bj->bi", blocks, amps[cosets])
    return out


def _check_hermitian(blocks: np.ndarray) -> np.ndarray:
    """A complex (blocks, d, d) stack, Hermitian to ``TOL.norm``."""
    blocks = np.asarray(blocks, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise StateError("operator must be square")
    scale = max(1.0, np.abs(blocks).max())
    if np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() > TOL.norm * scale:
        raise StateError("operator is not Hermitian")
    return blocks


def top_eigenvalue(blocks: np.ndarray) -> float:
    """Largest eigenvalue of a block-diagonal operator, one batched ``eigvalsh``."""
    return float(np.linalg.eigvalsh(_check_hermitian(blocks))[:, -1].max())


def top_eigenpair(blocks: np.ndarray, cosets: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector on one coset, embedded in a dense vector.

    One batched ``eigh``; where blocks share the top value the first block
    in coset order wins.  The vector is a new array, so it holds no
    reference to the solver's eigenvector matrices.
    """
    vals, vecs = np.linalg.eigh(_check_hermitian(blocks))
    b = int(vals[:, -1].argmax())
    vec = np.zeros(cosets.size, dtype=complex)
    vec[cosets[b]] = vecs[b, :, -1]
    return float(vals[b, -1]), vec


def max_eigenvalue(op: np.ndarray) -> float:
    """Largest eigenvalue of one dense Hermitian matrix."""
    return top_eigenvalue(np.asarray(op)[None])


def max_eigenpair(op: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of one dense Hermitian matrix and an owned unit eigenvector."""
    op = np.asarray(op)[None]
    return top_eigenpair(op, np.arange(op.shape[-1])[None])
