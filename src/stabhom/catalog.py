"""Machine-readable fixture catalogue and the bound audit built on it.

Each fixture is one JSON file (``schema: 1``) holding an inequality, an
optional observable assignment and state, the catalogued claims (value +
verbatim quote), and optionally the derivation chain that produces the
inequality from a seed.  ``audit_all`` re-derives every claimed number
from scratch and reports matches/mismatches; fixtures may flag claims as
*expected* mismatches so known-unreproducible catalogue values do not
fail the audit run.

The fixtures directory is ``--fixtures`` when given, else the bundled
``fixtures/`` directory, whose JSON files are the source; nothing
generates them.  Code specs are read by ``LogicalEncoding.from_json``
and state specs by ``state_from_spec``.  To add a fixture, write its
JSON file and give any derivation an ``expect`` text (the canonical
derived expression without its bound): the audit then replays the
derivation and reports whether it reproduces that text.  A symbolic
derivation has no ``expect``; the audit replays it only to refuse a
malformed spec, so it adds no field to the audit JSON, and the test
suite compares it with the fixture's own inequality.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path
from random import Random
from typing import Optional

import numpy as np

from .bounds import (
    BoundReport,
    algebraic_bound,
    discord_condition_check,
    hybrid_bound,
    lhv_bound,
    lhv_bound_nonlinear,
    quantum_max,
    separable_bound,
    separable_terms,
)
from . import bounds as _bounds
from .codespace import LogicalEncoding
from .config import LIMITS, TOL, Tolerances
from .descend import (DescendantResult, PlanEntry, SubstitutionPlan, lift_coherence_witness,
                      substitute, substitute_symbolic)
from .dsl import Inequality, Setting, parse, parse_setting, pretty_print
from .states import (
    DensityOperator,
    StateVector,
    ghz_state,
    make_cq_state,
    make_pair_superposition,
    standard_normals,
)


class CatalogError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar and state specs

_SCALARS = {
    "1": 1.0,
    "-1": -1.0,
    "1/2": 0.5,
    "-1/2": -0.5,
    "1/sqrt2": 2**-0.5,
    "-1/sqrt2": -(2**-0.5),
    "i/sqrt2": 1j * 2**-0.5,
    "-i/sqrt2": -1j * 2**-0.5,
    "i": 1j,
    "-i": -1j,
}


def parse_scalar(tok) -> complex:
    if isinstance(tok, (int, float)):
        return complex(tok)
    if not isinstance(tok, str):
        raise CatalogError(f"scalar must be a number or text, got {tok!r}")
    if tok in _SCALARS:
        return complex(_SCALARS[tok])
    return complex(float(tok))


def state_from_spec(spec: dict) -> StateVector:
    """Read a state spec of kind ``ghz`` (``n``, optional ``phase``), ``pair``
    (labels ``a``, ``b`` and two ``amps``) or ``amplitudes`` (``n`` and a
    ``nonzero`` map from n-bit labels to amplitudes)."""
    if not isinstance(spec, dict):
        raise CatalogError(f"state spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "ghz":
        return ghz_state(_field(spec, "n", "state spec", int), parse_scalar(spec.get("phase", "1")))
    if kind == "pair":
        amps = [parse_scalar(a) for a in _field(spec, "amps", "state spec", list)]
        if len(amps) != 2:
            raise CatalogError(f"state spec 'amps' must hold two entries, got {len(amps)}")
        a, b = (_field(spec, label, "state spec", str) for label in ("a", "b"))
        return make_pair_superposition(a, b, *amps)
    if kind == "amplitudes":
        n = _field(spec, "n", "state spec", int)
        if not 1 <= n <= LIMITS.max_width:  # before the 2^n array is allocated
            raise CatalogError(f"state spec 'n' = {n} outside 1..{LIMITS.max_width}")
        vec = np.zeros(2**n, dtype=complex)
        for bits, amp in _field(spec, "nonzero", "state spec", dict).items():
            if len(bits) != n or set(bits) - {"0", "1"}:  # int(., 2) also takes "_" and a sign
                raise CatalogError(f"state spec label {bits!r} is not {n} characters of 0 and 1")
            vec[int(bits, 2)] = parse_scalar(amp)
        return StateVector(n, vec)
    raise CatalogError(f"unknown state kind {kind!r}")


_JSON_KINDS = {dict: "object", list: "array", int: "integer", str: "string"}


def _field(spec: dict, key: str, where: str, kind: type = object):
    """``spec[key]``, refused with ``CatalogError`` when missing or not a ``kind``."""
    if not isinstance(spec, dict) or key not in spec:
        raise CatalogError(f"{where} has no {key!r}")
    value = spec[key]
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise CatalogError(f"{where} {key!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _setting_from_text(text: str) -> Setting:
    setting = parse_setting(text) if isinstance(text, str) else None
    if setting is None:
        raise CatalogError(f"bad setting text {text!r}")
    return setting


def plan_from_spec(site: int, encoding: LogicalEncoding, spec: dict) -> SubstitutionPlan:
    """Read a plan: an object from setting text to an object with a ``letter``
    X, Y or Z, an optional ``sign`` 1 or -1 and an optional ``select``, either
    ``"all"`` or a list of distinct non-negative integers."""
    if not isinstance(spec, dict):
        raise CatalogError(f"plan must be a JSON object, got {spec!r}")
    entries = {}
    for text, entry in spec.items():
        if not _is_plan_entry(entry):
            raise CatalogError(f"plan entry {text} needs a letter X, Y or Z, a sign 1 or -1 "
                               f"and select \"all\" or distinct indices >= 0, got {entry!r}")
        select = entry.get("select", "all")
        selection = ("all",) if select == "all" else ("subset", *select)
        sign = entry.get("sign", 1)
        entries[_setting_from_text(text)] = PlanEntry(entry["letter"], sign, selection)
    return SubstitutionPlan(site, encoding, entries)


def _is_plan_entry(entry) -> bool:
    fields = entry if isinstance(entry, dict) else {}
    sign, select = fields.get("sign", 1), fields.get("select", "all")
    indices = isinstance(select, list) and all(type(i) is int and i >= 0 for i in select)
    return (fields.get("letter") in ("X", "Y", "Z") and type(sign) is int and sign in (1, -1)
            and (select == "all" or indices and len(set(select)) == len(select)))


# ---------------------------------------------------------------------------
# fixtures

@dataclass
class Fixture:
    name: str
    kind: str  # linear | nonlinear | derivation | discord | coherence
    raw: dict

    @cached_property
    def inequality(self) -> Optional[Inequality]:
        text = self.raw.get("inequality")
        if text is None:
            return None
        return parse(text, name=self.name, provenance=self.raw.get("provenance", ""))

    @property
    def assignment(self) -> dict:
        return self.raw.get("assignment", {})

    @property
    def state(self) -> Optional[StateVector]:
        spec = self.raw.get("state")
        return state_from_spec(spec) if spec else None

    @property
    def claims(self) -> dict:
        return self.raw.get("claims", {})

    @property
    def expected_mismatch(self) -> list:
        return list(self.raw.get("expected_mismatch", []))


def load_catalog(directory: Optional[os.PathLike] = None) -> list[Fixture]:
    base = Path(directory or str(resources.files("stabhom") / "fixtures"))
    if not base.is_dir():
        raise CatalogError(f"fixtures directory not found: {base}")
    fixtures = []
    for path in sorted(base.glob("*.json")):
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw.get("schema") != 1:
                raise CatalogError("unsupported schema version")
            fx = Fixture(raw["name"], raw["kind"], raw)
            fx.inequality  # parse now, so a corrupt expression fails at load time
        except CatalogError:
            raise
        except Exception as exc:
            raise CatalogError(f"fixture {path.name} failed to load: {exc}") from exc
        fixtures.append(fx)
    if not fixtures:
        raise CatalogError(f"no fixtures found in {base}")
    return fixtures


# ---------------------------------------------------------------------------
# derivation replay

def replay_derivation(fx: Fixture, catalog: list[Fixture]) -> Optional[str]:
    """Re-run a fixture's derivation chain; return the canonical result text.

    The ``symbolic`` form reads ``seed``, ``site``, ``width`` and ``map``;
    any other derivation reads its ``chain``, a chain step that substitutes
    its ``encoding`` and ``plan``, and a ``lift`` seed spec its
    ``encoding``, ``threshold`` and ``letter``.  A missing or mistyped
    field or a malformed plan raises ``CatalogError`` naming the fixture.
    """
    spec = fx.raw.get("derivation")
    if not spec:
        return None
    try:
        return _replay(spec, catalog)
    except CatalogError as exc:
        raise CatalogError(f"fixture {fx.name}: {exc}") from None


def _replay(spec: dict, catalog: list[Fixture]) -> str:
    if "symbolic" in spec:
        sym = spec["symbolic"]
        seed = _resolve_seed(_field(sym, "seed", "symbolic"), catalog)
        images = _field(sym, "map", "symbolic", dict)
        mapping = {
            _setting_from_text(k): tuple(map(_setting_from_text, _field(images, k, "map", list)))
            for k in images
        }
        out = substitute_symbolic(seed.ast, _field(sym, "site", "symbolic", int),
                                  _field(sym, "width", "symbolic", int), mapping)
        return pretty_print(out)
    chain = _field(spec, "chain", "derivation", list)
    if not chain:
        raise CatalogError("derivation 'chain' is empty")
    current = None
    for step in chain:
        if not isinstance(step, dict):
            raise CatalogError(f"chain step must be a JSON object, got {step!r}")
        if "seed" in step:
            current = _resolve_seed(step["seed"], catalog)
        if current is None:
            raise CatalogError("the first chain step has no 'seed'")
        if "site" in step:
            enc = LogicalEncoding.from_json(_field(step, "encoding", "chain step"))
            plan = plan_from_spec(step["site"], enc, _field(step, "plan", "chain step"))
            ast = current.ast if isinstance(current, Inequality) else current
            current = Inequality(substitute(ast, plan))
    ast = current.ast if isinstance(current, Inequality) else current
    return pretty_print(ast.with_bound(Fraction(0)))


def _resolve_seed(spec, catalog: list[Fixture]) -> Inequality:
    if isinstance(spec, str):
        for fx in catalog:
            if fx.name == spec:
                return fx.inequality
        raise CatalogError(f"unknown seed fixture {spec!r}")
    if isinstance(spec, dict) and "lift" in spec:
        return _lift(spec["lift"]).descendant
    if isinstance(spec, dict) and "expression" in spec:
        return parse(spec["expression"])
    raise CatalogError(f"bad seed spec {spec!r}")


def _lift(lift: dict) -> DescendantResult:
    """The coherence-witness lift a ``{"lift": ...}`` seed spec names."""
    enc = LogicalEncoding.from_json(_field(lift, "encoding", "lift"))
    threshold = float(parse_scalar(_field(lift, "threshold", "lift")).real)
    return lift_coherence_witness(threshold, _field(lift, "letter", "lift"), enc)


def _threshold_lift(fx: Fixture) -> dict:
    """The lift spec a ``threshold_bound`` claim reads: the first chain step's seed.

    The audit replays the derivation first, so a chain is a list of objects.
    """
    spec = fx.raw.get("derivation") or {}
    seed = spec["chain"][0].get("seed") if "chain" in spec and "symbolic" not in spec else None
    if not isinstance(seed, dict) or "lift" not in seed:
        raise CatalogError(f"fixture {fx.name}: a threshold_bound claim needs a lift seed "
                           "in the first chain step")
    return seed["lift"]


# ---------------------------------------------------------------------------
# audit

def _match(computed, claimed, tol: float) -> bool:
    if computed is None:
        return False
    if isinstance(claimed, bool):
        return bool(computed) == claimed
    return abs(float(computed) - float(claimed)) <= tol


def audit_fixture(
    fx: Fixture, catalog: list[Fixture], tol: Tolerances = TOL
) -> BoundReport:
    report = BoundReport(name=fx.name, expected_mismatch=fx.expected_mismatch)
    claims = fx.claims
    report.paper_claim = {k: v.get("value") for k, v in claims.items()}

    ineq = fx.inequality
    state = fx.state
    assignment = fx.assignment

    if fx.kind == "discord":
        return _audit_discord(fx, report, tol)

    ast = ineq.ast
    # classical bounds
    if fx.raw.get("hybrid"):
        report.hybrid = hybrid_bound(ast)
        report.lhv = report.hybrid
    elif ast.is_linear:
        report.lhv = lhv_bound(ast)
    else:
        report.lhv = lhv_bound_nonlinear(ast)
    report.algebraic = algebraic_bound(ast)

    # separable bound over 1 | rest product states when claimed
    if "separable" in claims:
        report.separable = separable_bound(separable_terms(ast, assignment)).value

    # quantum value on the fixture state
    if state is not None:
        report.quantum_value = _bounds.quantum_value(ast, assignment, state)

    report.quantum_max = quantum_max(ast, assignment)

    # derivation replay; one without ``expect`` is replayed for its errors alone
    derivation = fx.raw.get("derivation")
    got = replay_derivation(fx, catalog)
    if derivation and "expect" in derivation:
        expect_parsed = pretty_print(parse(derivation["expect"] + " <= 0").ast)
        report.claim_match["derivation"] = got == expect_parsed

    computed = {
        "lhv": report.lhv,
        "separable": report.separable,
        "hybrid": report.hybrid,
        "quantum_value": report.quantum_value,
        "quantum_max": report.quantum_max,
        "algebraic": report.algebraic,
        "threshold_bound": None,
        "violated": None,
    }
    if report.quantum_value is not None and report.lhv is not None:
        computed["violated"] = report.quantum_value > report.lhv + tol.violation
    for key, claim in claims.items():
        if key == "threshold_bound":
            computed["threshold_bound"] = _lift(_threshold_lift(fx)).derived_bound
        report.claim_match[key] = _match(computed.get(key), claim["value"], tol.claim)

    # verdict
    if any(not ok for ok in report.claim_match.values()):
        report.verdict = "audit-mismatch"
    elif computed["violated"]:
        report.verdict = "nonlocality"
    elif (
        report.separable is not None
        and report.quantum_value is not None
        and report.quantum_value > report.separable + tol.violation
    ):
        report.verdict = "entanglement-only"
    else:
        report.verdict = "no-violation"
    return report


def _audit_discord(fx: Fixture, report: BoundReport, tol: Tolerances) -> BoundReport:
    """Check the discord condition on sampled classical-quantum states and a Bell state.

    The fixture's ``rng_seed`` (0 when absent) seeds the stdlib generator
    ``random.Random`` that ``_random_cq_states`` draws its ``samples``
    states from, so the audit's samples do not depend on any CLI option.
    """
    draws = Random(fx.raw.get("rng_seed", 0))
    samples = int(fx.raw.get("samples", 200))
    epsilon = float(fx.raw.get("epsilon", 0.5))
    cq = discord_condition_check(_random_cq_states(draws, samples), epsilon)
    cq_max = float(np.abs([cq.x_correlator, cq.y_correlator]).max(initial=0.0))
    bell = make_pair_superposition("00", "11", 2**-0.5, 2**-0.5)
    bell_rho = DensityOperator(2, np.outer(bell.amplitudes, bell.amplitudes.conj()))
    computed = {
        "cq_correlators_vanish": cq_max < 1e-9,
        "bell_fails": not discord_condition_check(bell_rho, epsilon).passed,
    }
    for key in (k for k in computed if k in fx.claims):
        report.claim_match[key] = computed[key] == fx.claims[key]["value"]
    report.verdict = (
        "no-violation" if all(report.claim_match.values()) else "audit-mismatch"
    )
    return report


def _random_cq_states(draws: Random, samples: int) -> DensityOperator:
    """Stack of random classical-quantum two-qubit states for the adapted-basis check.

    ``draws`` is a stdlib ``random.Random`` (the audit seeds it with the
    fixture's ``rng_seed``); on numpy 2 no path loads ``numpy.random``.
    Draws one state at a time (first-qubit basis, Dirichlet(2, 2)
    probabilities as ``betavariate(2, 2)`` and its complement, two
    second-qubit states), so the first n states of a seed do not depend
    on ``samples``; everything after the draws runs on the whole stack.
    """
    v = np.empty((samples, 2, 2, 2))  # real, imaginary part of each basis draw
    p = np.empty((samples, 2))
    a = np.empty((samples, 2, 2, 2, 2))  # two second-qubit draws, each real, imaginary
    for i in range(samples):
        v[i] = standard_normals(draws, (2, 2, 2))
        w = draws.betavariate(2.0, 2.0)
        p[i] = w, 1.0 - w
        a[i] = standard_normals(draws, (2, 2, 2, 2))
    # random orthonormal first-qubit bases, kets as columns
    q, _ = np.linalg.qr(v[:, 0] + 1j * v[:, 1])
    a = a[:, :, 0] + 1j * a[:, :, 1]
    m = a @ a.conj().swapaxes(-1, -2)
    rhos = DensityOperator(1, m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])
    return make_cq_state(p, q.swapaxes(-1, -2), rhos)


@dataclass
class AuditResult:
    reports: list[BoundReport]
    exit_code: int
    expected_mismatches: list[str]
    unexpected_mismatches: list[str]
    tolerance: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "tolerance": self.tolerance,
            "reports": [r.to_json() for r in self.reports],
            "summary": {
                "expected_mismatches": self.expected_mismatches,
                "unexpected_mismatches": self.unexpected_mismatches,
                "exit_code": self.exit_code,
            },
        }


def audit_all(
    fixtures: Optional[list[Fixture]] = None,
    tol: Tolerances = TOL,
    workers: int = 1,
) -> AuditResult:
    """One report per fixture; exit code 0 unless an unexpected mismatch."""
    catalog = fixtures if fixtures is not None else load_catalog()
    items = sorted(catalog, key=lambda f: f.name)

    def run(fx: Fixture) -> BoundReport:
        return audit_fixture(fx, catalog, tol)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, items))
    else:
        reports = [run(fx) for fx in items]

    expected = list(dict.fromkeys(r.name for r in reports if r.known_mismatch))
    unexpected = list(dict.fromkeys(r.name for r in reports if r.unexpected_mismatch))
    code = 1 if unexpected else 0
    return AuditResult(reports, code, expected, unexpected, tol.claim)
