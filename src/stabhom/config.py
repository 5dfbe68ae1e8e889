"""Central numeric tolerances and search limits.

Every module pulls its comparison thresholds and caps from here.  Each
field is read by the code; the audit's claim tolerance is the only value
a caller changes (``audit --tolerance``, via ``Tolerances.with_claim``).
No field seeds a random generator: every random draw comes from the
stdlib ``random.Random``, seeded with ``bounds._QUANTUM_SEED`` (0) for
the quantum ascent's restarts and with a discord fixture's ``rng_seed``
for the audit's sampled states, so on numpy 2 (where ``import numpy``
leaves it unloaded) no CLI path loads ``numpy.random``.
The homomorphism check has no cap of its own: it reads the image sets,
so ``max_image_width`` bounds it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10          # state normalisation / orthogonality / hermiticity
    psd: float = 1e-9            # a density operator's eigenvalues may dip this far below 0
    action: float = 1e-9         # code-space restriction matching
    claim: float = 1e-6          # catalogued-value comparisons in the audit
    violation: float = 1e-9      # strictness margin for "quantum beats classical"
    converge: float = 1e-10      # alternating-optimisation fixed points

    def with_claim(self, claim: float) -> "Tolerances":
        return replace(self, claim=claim)


@dataclass(frozen=True)
class SearchLimits:
    max_width: int = 12          # dense amplitudes and operator index spaces only: 2^12 at most
    max_image_width: int = 8     # image-set cap: O(N 4^N) pass, 4*4^N complex (4 MB at 8)
    max_settings: int = 24       # deterministic-strategy enumeration cap
    max_nonlinear_settings: int = 20
    max_assignments: int = 100_000  # descendant occurrence-assignment search cap


TOL = Tolerances()
LIMITS = SearchLimits()
