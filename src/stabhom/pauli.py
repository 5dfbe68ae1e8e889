"""Exact algebra of phased Pauli strings on up to 12 qubits.

A string is stored as two bitmasks (x-part, z-part) plus a power of i.
Site 1 is the most significant bit of both masks, matching the basis
ordering used by the state engine.  The single-site conventions are

    X = [[0, 1], [1, 0]]    Y = [[0, -i], [i, 0]]    Z = diag(1, -1)

and Y = i * X * Z, which fixes every sign produced by multiplication.

A signed string, such as a member of an image set, is a PauliString
whose phase is its sign: ``phase_exp`` 0 for +1, 2 for -1.  A real
multiple of a string is a (coefficient, PauliString) pair, the form
``dsl._pauli_sums`` returns; ``states.assemble_blocks``,
``states.assemble_operator`` and ``bounds.separable_bound`` take lists
of such pairs, and
``states.expectation`` takes a bare string.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LIMITS

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# letter -> (x bit, z bit)
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER = {v: k for k, v in _BITS.items()}

_PHASES = {0: 1, 1: 1j, 2: -1, 3: -1j}
_PHASE_TEXT = {0: "+", 2: "-"}


class PauliError(ValueError):
    """Raised on width mismatches, capacity overflows, or malformed terms."""


@dataclass(frozen=True)
class PauliString:
    """Immutable phased tensor product of single-site Pauli letters."""

    width: int
    x_mask: int
    z_mask: int
    phase_exp: int  # operator = i**phase_exp * (tensor of letters)

    def __post_init__(self):
        if not 1 <= self.width <= LIMITS.max_width:
            raise PauliError(f"width {self.width} outside 1..{LIMITS.max_width}")
        if self.x_mask >> self.width or self.z_mask >> self.width:
            raise PauliError("mask wider than declared width")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_letters(cls, letters: str, phase_exp: int = 0) -> "PauliString":
        x = z = 0
        for ch in letters:
            bx, bz = _BITS[ch]
            x = (x << 1) | bx
            z = (z << 1) | bz
        return cls(len(letters), x, z, phase_exp)

    # -- views ----------------------------------------------------------
    @property
    def letters(self) -> str:
        out = []
        for site in range(self.width):
            shift = self.width - 1 - site
            out.append(_LETTER[((self.x_mask >> shift) & 1, (self.z_mask >> shift) & 1)])
        return "".join(out)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    @property
    def weight(self) -> int:
        return bin(self.x_mask | self.z_mask).count("1")

    @property
    def y_count(self) -> int:
        return bin(self.x_mask & self.z_mask).count("1")

    def sort_key(self):
        sites = tuple(
            (s + 1, ch) for s, ch in enumerate(self.letters) if ch != "I"
        )
        return (self.weight, sites, self.phase_exp)

    def __str__(self) -> str:
        sign = _PHASE_TEXT.get(self.phase_exp)
        head = sign if sign is not None else ("+i" if self.phase_exp == 1 else "-i")
        body = "".join(
            f"{ch}{s + 1}" for s, ch in enumerate(self.letters) if ch != "I"
        )
        return head + (body or "I")


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p*q including the accumulated power of i."""
    if p.width != q.width:
        raise PauliError(f"width mismatch {p.width} != {q.width}")
    # internally  p = i**e  X^x Z^z  with  e = phase_exp + y_count
    e = p.phase_exp + p.y_count + q.phase_exp + q.y_count
    e += 2 * bin(p.z_mask & q.x_mask).count("1")  # Z past X picks up -1 per site
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    y = bin(x & z).count("1")
    return PauliString(p.width, x, z, (e - y) % 4)


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of the last axis, in place.

    a[..., k] becomes sum_j (-1)^popcount(k & j) a[..., j], computed by
    log2(n) butterfly stages on views that split the last axis, which
    must have a power-of-two length.  Returns ``a``.
    """
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError(f"walsh_hadamard needs a power-of-two last axis, not {n}")
    tmp = np.empty((*a.shape[:-1], n // 2), dtype=a.dtype)
    half = 1
    while half < n:
        pairs = a.reshape(*a.shape[:-1], n // (2 * half), 2, half)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        total = tmp.reshape(lo.shape)
        np.add(lo, hi, out=total)
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        half *= 2
    return a


def _parity(bits: np.ndarray, n: int) -> np.ndarray:
    """Parity (0 or 1) of the popcount of each n-bit integer entry; folds ``bits`` in place."""
    for k in reversed(range((n - 1).bit_length())):  # fold by 2^k for every 2^k < n, largest first
        bits ^= bits >> (1 << k)
    return bits & 1


def _phase_vector(string: PauliString, n: int) -> np.ndarray:
    """Phase of each basis index k under the string: string|k> = phase[k] |k ^ x_mask>."""
    sign = 1 - 2 * _parity(np.arange(2**n) & string.z_mask, n)
    return string.phase * (1j ** string.y_count) * sign


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^N x 2^N realisation: the index permutation k -> k ^ x_mask times the phases."""
    idx = np.arange(2**p.width)
    m = np.zeros((len(idx), len(idx)), dtype=complex)
    m[idx ^ p.x_mask, idx] = _phase_vector(p, p.width)
    return m
