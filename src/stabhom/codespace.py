"""Logical encodings and their Pauli image sets.

A LogicalEncoding is an ordered orthonormal pair (|0_L>, |1_L>) of
N-qubit states.  Every N-qubit Pauli string either leaves the span
invariant or does not; when it does, its 2x2 restriction in the logical
basis is compared against +-I, +-X, +-Y, +-Z.

All restrictions come from one kernel, the code's Pauli spectrum: for a
fixed x-mask, <a|X^x Z^z|b> over every z-mask is the Walsh-Hadamard
transform of conj(a[k^x]) * b[k], so one O(N 4^N) pass restricts all
4^N strings.  An encoding computes its four image sets from that pass on
first use and keeps them.  The homomorphism check reads the image sets:
a product of two members passes when the sets list its string with the
product letter and sign.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import LIMITS, TOL
from .pauli import (
    _SINGLE,
    PauliString,
    SignedPauliTerm,
    multiply,
    walsh_hadamard,
)
from .states import StateVector, make_pair_superposition

_I_POW = np.array([1, 1j, -1, -1j])  # i**k for k mod 4
# classifier targets in matching order: +I, -I, +X, -X, +Y, -Y, +Z, -Z
_TARGETS = tuple((letter, sign) for letter in _SINGLE for sign in (1, -1))
_TARGET_MATRICES = np.stack([sign * _SINGLE[letter] for letter, sign in _TARGETS])


class CodespaceError(ValueError):
    pass


@dataclass(frozen=True)
class LogicalEncoding:
    width: int
    zero_l: StateVector
    one_l: StateVector

    def __post_init__(self):
        if self.zero_l.width != self.width or self.one_l.width != self.width:
            raise CodespaceError("encoding states must match declared width")
        if abs(np.vdot(self.zero_l.amplitudes, self.one_l.amplitudes)) > TOL.norm:
            raise CodespaceError("logical basis states must be orthogonal")

    @cached_property
    def _image_sets(self) -> dict[str, "ImageSet"]:
        # the amplitudes are read-only, so the sets never go stale
        return _compute_image_sets(self)

    @classmethod
    def from_basis_pair(cls, zero: str, one: str) -> "LogicalEncoding":
        return cls(
            len(zero),
            make_pair_superposition(zero, one, 1.0, 0.0),
            make_pair_superposition(zero, one, 0.0, 1.0),
        )

    @classmethod
    def ghz(cls, n: int) -> "LogicalEncoding":
        """|0_L> = |0...0>, |1_L> = |1...1> on n qubits."""
        return cls.from_basis_pair("0" * n, "1" * n)

    @classmethod
    def cluster_pair(cls) -> "LogicalEncoding":
        """|0_L> = (|00>+|11>)/sqrt2, |1_L> = (|00>-|11>)/sqrt2."""
        r = 1 / np.sqrt(2)
        return cls(
            2,
            make_pair_superposition("00", "11", r, r),
            make_pair_superposition("00", "11", r, -r),
        )

    @classmethod
    def from_json(cls, spec: dict | str) -> "LogicalEncoding":
        """Load {"n": 3, "zero": "000", "one": "111"} or amplitude lists."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        n = int(spec["n"])
        zero, one = spec["zero"], spec["one"]
        if isinstance(zero, str):
            return cls.from_basis_pair(zero, one)
        def vec(pairs):
            return StateVector(n, np.array([complex(re, im) for re, im in pairs]))
        return cls(n, vec(zero), vec(one))


# ---------------------------------------------------------------------------

def _spectrum(enc: LogicalEncoding, x_masks: Sequence[int]) -> np.ndarray:
    """Restrictions <e_i|X^x Z^z|e_j> for the given x-masks and every z-mask.

    ``e_0, e_1`` are |0_L>, |1_L>; the result has shape (2, 2, len(x_masks), 2^N).
    For fixed x the z-axis is the Walsh-Hadamard transform of
    conj(e_i[k^x]) * e_j[k] (``pauli.walsh_hadamard``).
    """
    basis = np.stack([enc.zero_l.amplitudes, enc.one_l.amplitudes])  # (2, 2^N)
    dim = basis.shape[1]
    shifted = basis[:, np.asarray(x_masks)[:, None] ^ np.arange(dim)]  # e_i[k^x]
    return walsh_hadamard(shifted.conj()[:, None] * basis[None, :, None, :])


def _classify(r: np.ndarray) -> np.ndarray:
    """Index into ``_TARGETS`` of the sign*letter each restriction r[:, :, m] equals.

    -1 where the string leaves the code space (a column of the restriction
    misses unit norm) or acts as no signed letter.
    """
    norms = np.sqrt((np.abs(r) ** 2).sum(axis=0))  # column norms, (2, M)
    stays = np.flatnonzero((np.abs(norms - 1.0) <= TOL.action).all(axis=0))
    out = np.full(r.shape[2], -1)
    dist = np.abs(r[:, :, stays][None] - _TARGET_MATRICES[..., None]).max(axis=(1, 2))
    match = dist < TOL.action  # (targets, stays)
    hit = match.any(axis=0)
    out[stays[hit]] = match.argmax(axis=0)[hit]
    return out


@dataclass(frozen=True)
class ImageSet:
    logical_letter: str
    encoding: LogicalEncoding
    members: tuple[SignedPauliTerm, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def texts(self) -> list[str]:
        return [str(m) for m in self.members]


def _compute_image_sets(enc: LogicalEncoding) -> dict[str, ImageSet]:
    """All four image sets, classified from one full Pauli spectrum."""
    if enc.width > LIMITS.max_image_width:
        raise CodespaceError(
            f"width {enc.width} exceeds image enumeration cap {LIMITS.max_image_width}"
        )
    masks = np.arange(1 << enc.width)
    ys = np.array([bin(m).count("1") for m in masks])[masks[:, None] & masks]
    r = _spectrum(enc, masks)
    r *= _I_POW[ys % 4]  # the letters' operator is i^#Y X^x Z^z
    kinds = _classify(r.reshape(2, 2, -1))
    members: dict[str, list] = {letter: [] for letter in _SINGLE}
    for flat in np.flatnonzero(kinds >= 0):
        letter, sign = _TARGETS[kinds[flat]]
        x, z = divmod(int(flat), len(masks))
        members[letter].append(SignedPauliTerm(float(sign), PauliString(enc.width, x, z, 0)))
    return {
        letter: ImageSet(letter, enc, tuple(sorted(terms, key=SignedPauliTerm.sort_key)))
        for letter, terms in members.items()
    }


def image_set(enc: LogicalEncoding, letter: str) -> ImageSet:
    """All signed strings acting exactly as +letter on the code space."""
    if letter not in _SINGLE:
        raise CodespaceError(f"unknown logical letter {letter!r}")
    return enc._image_sets[letter]


def verify_homomorphism(enc: LogicalEncoding) -> tuple[bool, list]:
    """Check that image-set products classify as the product letters.

    For every P in image(sigma_a) and Q in image(sigma_b), with
    sigma_a sigma_b = i^k sigma_c, the product i^-k PQ (``multiply``) must
    be +-1 times a string whose image-set entry is (c, that sign): then PQ
    restricts to exactly sigma_a sigma_b, i-phase included.  The image
    sets hold every string's restriction, so no spectrum is taken, and
    every encoding within the image cap is checkable.  Returns (ok, list
    of violating (P, Q, a, b)).
    """
    sets = enc._image_sets
    entry = {(m.string.x_mask, m.string.z_mask): (letter, m.coefficient)
             for letter, members in sets.items() for m in members}
    violations = []
    for a in "IXYZ":
        for b in "IXYZ":
            ab = multiply(PauliString.from_letters(a), PauliString.from_letters(b))
            for p in sets[a]:
                for q in sets[b]:
                    pq = multiply(p.string, q.string)
                    # i^-k PQ is p's and q's coefficients times i^e times pq's string
                    e = (pq.phase_exp - ab.phase_exp) % 4
                    want = (ab.letters, p.coefficient * q.coefficient * (1 - e))  # 1 - e = i^e
                    if e % 2 or entry.get((pq.x_mask, pq.z_mask)) != want:
                        violations.append((p, q, a, b))
    return not violations, violations


def lift_state(state: StateVector, site: int, enc: LogicalEncoding) -> StateVector:
    """Replace qubit ``site`` (1-based) by the encoding: |0> -> |0_L>, |1> -> |1_L>."""
    n = state.width
    if not 1 <= site <= n:
        raise CodespaceError(f"site {site} outside 1..{n}")
    if n - 1 + enc.width > LIMITS.max_width:
        raise CodespaceError("lifted width exceeds cap")
    tensor = state.amplitudes.reshape([2] * n)
    code = np.stack([enc.zero_l.amplitudes, enc.one_l.amplitudes])  # (2, 2^m)
    lifted = np.tensordot(tensor, code, axes=([site - 1], [0]))
    # tensordot moved the logical block to the last axis; restore site order
    lifted = np.moveaxis(
        lifted.reshape([2] * (n - 1) + [2] * enc.width),
        list(range(n - 1, n - 1 + enc.width)),
        list(range(site - 1, site - 1 + enc.width)),
    )
    return StateVector(n - 1 + enc.width, lifted.reshape(-1))
