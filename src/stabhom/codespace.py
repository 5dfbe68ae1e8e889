"""Logical encodings and their Pauli image sets.

A LogicalEncoding is an ordered orthonormal pair (|0_L>, |1_L>) of
N-qubit states.  Every N-qubit Pauli string either leaves the span
invariant or does not; when it does, its 2x2 restriction in the logical
basis is compared against +-I, +-X, +-Y, +-Z.

All restrictions come from one kernel, the code's Pauli spectrum: for a
fixed x-mask, <a|X^x Z^z|b> over every z-mask is the Walsh-Hadamard
transform of conj(a[k^x]) * b[k], so one O(N 4^N) pass restricts all
4^N strings.  An encoding computes its four image sets from that pass on
first use and keeps them, each a sorted tuple of signed strings whose
sign is their phase.  The homomorphism check reads the image sets: a
product of two members passes when the sets list it, phase included,
under the product letter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import LIMITS, TOL
from .pauli import _SINGLE, PauliString, multiply, walsh_hadamard
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
    def _image_sets(self) -> dict[str, tuple[PauliString, ...]]:
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
        if type(n) is not int or not 1 <= n <= LIMITS.max_width:
            raise CodespaceError(f"GHZ code size {n!r} outside 1..{LIMITS.max_width}")
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
    def from_json(cls, spec: dict) -> "LogicalEncoding":
        """Read a code spec, the object a fixture or ``--encoding`` file holds.

        Four forms: ``{"ghz": n}``; ``{"cluster": true}``; ``{"n": 3,
        "zero": "000", "one": "111"}``, two basis labels of n sites; and
        ``{"n": 1, "zero": [[1, 0], [0, 0]], "one": [[0, 0], [1, 0]]}``,
        2^n ``[re, im]`` amplitudes per logical state.
        """
        if not isinstance(spec, dict):
            raise CodespaceError(f"code spec must be a JSON object, got {spec!r}")
        if "ghz" in spec:
            return cls.ghz(spec["ghz"])
        if spec.get("cluster"):
            return cls.cluster_pair()
        n, zero, one = spec.get("n"), spec.get("zero"), spec.get("one")
        if type(n) is not int:
            raise CodespaceError(f"code spec 'n' must be an integer, got {n!r}")
        if isinstance(zero, str) and isinstance(one, str):
            if len(zero) != n or len(one) != n:
                raise CodespaceError(f"basis labels {zero!r}, {one!r} do not have n = {n} sites")
            return cls.from_basis_pair(zero, one)
        try:
            amps = [[complex(re, im) for re, im in v] for v in (zero, one)]
        except (TypeError, ValueError):  # not lists of number pairs
            raise CodespaceError("code spec 'zero', 'one' need labels or [re, im] lists") from None
        return cls(n, *(StateVector(n, np.array(a)) for a in amps))


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


def _compute_image_sets(enc: LogicalEncoding) -> dict[str, tuple[PauliString, ...]]:
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
        members[letter].append(PauliString(enc.width, x, z, 1 - sign))  # phase 0 or 2
    # each string is classified once, so sort_key's phase never breaks a tie
    return {letter: tuple(sorted(strings, key=PauliString.sort_key))
            for letter, strings in members.items()}


def image_set(enc: LogicalEncoding, letter: str) -> tuple[PauliString, ...]:
    """All strings acting exactly as +letter on the code space, signed by phase, sorted."""
    if letter not in _SINGLE:
        raise CodespaceError(f"unknown logical letter {letter!r}")
    return enc._image_sets[letter]


def verify_homomorphism(enc: LogicalEncoding) -> tuple[bool, list]:
    """Check that image-set products classify as the product letters.

    For every P in image(sigma_a) and Q in image(sigma_b), with
    sigma_a sigma_b = i^k sigma_c, the product i^-k PQ (``multiply``, signs
    included as phases) must be a member of image(sigma_c), phase and all:
    then PQ restricts to exactly sigma_a sigma_b.  An odd phase fails, as
    no member carries one.  The image sets hold every string's
    restriction, so no spectrum is taken, and every encoding within the
    image cap is checkable.  Returns (ok, list of violating (P, Q, a, b)).
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
