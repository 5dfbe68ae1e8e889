"""Dense statevector / density-operator engine for up to 12 qubits.

Basis convention: site 1 is the most significant bit of the basis index,
so |011> on three qubits is amplitude index 0b011 = 3.  All heavy loops
are numpy bit-twiddling; a Pauli string acts as an index permutation plus
a per-index phase, so no dense matrix is ever built for expectations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

import numpy as np

from .config import LIMITS, TOL
from .pauli import PauliError, PauliString, SignedPauliTerm, _phase_vector


class StateError(ValueError):
    """Raised on malformed states or operators."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Read-only amplitudes; equal when width and amplitude bytes are equal."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: the caller's array stays writable
        if amps.shape != (2**self.width,):
            raise StateError(f"expected {2**self.width} amplitudes, got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > TOL.norm:
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
    if abs(abs(amp_a) ** 2 + abs(amp_b) ** 2 - 1.0) > TOL.norm:
        raise StateError("|amp_a|^2 + |amp_b|^2 must be 1")
    n = len(a)
    amps = np.zeros(2**n, dtype=complex)
    amps[int(a, 2)] = amp_a
    amps[int(b, 2)] = amp_b
    return StateVector(n, amps)


def ghz_state(n: int, phase: complex = 1.0) -> StateVector:
    """(|0...0> + phase |1...1>)/sqrt(2)."""
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


def expectation(state: StateVector, term: SignedPauliTerm) -> float:
    """coefficient * <psi| string |psi>, guaranteed real for Hermitian terms."""
    if state.width != term.width:
        raise PauliError(f"width mismatch {state.width} != {term.width}")
    val = np.vdot(state.amplitudes, apply_pauli(term.string, state.amplitudes))
    val *= term.coefficient
    if abs(val.imag) > TOL.norm:
        raise StateError(f"non-real expectation {val}")
    return float(val.real)


# ---------------------------------------------------------------------------
# eigen-extremes

def _check_hermitian(op: np.ndarray) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise StateError("operator must be square")
    if op.shape[0] > 2**LIMITS.max_width:
        raise StateError("operator dimension exceeds cap")
    if np.abs(op - op.conj().T).max() > TOL.norm * max(1.0, np.abs(op).max()):
        raise StateError("operator is not Hermitian")
    return op


def max_eigenvalue(op: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_check_hermitian(op))[-1])


def max_eigenpair(op: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(_check_hermitian(op))
    return float(vals[-1]), vecs[:, -1]


def assemble_operator(terms: Sequence[SignedPauliTerm], width: int) -> np.ndarray:
    """Dense sum of signed Pauli terms (column-wise, no kron chains)."""
    dim = 2**width
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for t in terms:
        ph = _phase_vector(t.string, width)
        out[idx ^ t.string.x_mask, idx] += t.coefficient * ph
    return out
