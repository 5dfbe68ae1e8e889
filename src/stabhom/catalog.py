"""Machine-readable fixture catalogue and the bound audit built on it.

A fixture is one JSON file; ``read_fixture``'s docstring is its schema.
``audit_all`` re-derives every claimed number from scratch and reports
matches and mismatches; a claim listed in ``expected_mismatch`` does not
fail the run.  The fixtures directory is ``--fixtures`` when given, else
the bundled ``fixtures/``, whose JSON files are the source; nothing
generates them.  The audit replays each derivation: one with an
``expect`` text reports whether it reproduces that text, and a symbolic
one, which has none, is replayed only to refuse a malformed spec (the
test suite compares it with the fixture's own inequality).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from random import Random
from typing import Optional

import numpy as np

from .bounds import (BoundReport, algebraic_bound, discord_condition_check, hybrid_bound,
                     lhv_bound, lhv_bound_nonlinear, quantum_max, separable_bound,
                     separable_terms, violates)
from . import bounds as _bounds
from .codespace import LogicalEncoding
from .config import LIMITS, TOL
from .descend import (DescendantResult, PlanEntry, SubstitutionError, SubstitutionPlan,
                      lift_coherence_witness, substitute, substitute_symbolic)
from .dsl import Inequality, Setting, parse, parse_setting, pretty_print
from .states import (DensityOperator, StateVector, ghz_state, make_cq_state,
                     make_pair_superposition, standard_normals)


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


_JSON_KINDS = {dict: "object", list: "array", int: "integer", str: "string", bool: "boolean",
               (int, float): "number", (bool, int, float): "number or boolean"}
_REQUIRED = object()


def _field(spec: dict, key: str, where: str, kind: type = object, default=_REQUIRED):
    """``spec[key]``, or ``default`` when given and ``key`` is absent; refused with
    ``CatalogError`` when missing or not of an exact JSON type in ``kind`` (so
    ``true`` is no integer)."""
    if not isinstance(spec, dict) or key not in spec:
        if default is _REQUIRED or not isinstance(spec, dict):
            raise CatalogError(f"{where} has no {key!r}")
        return default
    value = spec[key]
    if kind is not object and type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise CatalogError(f"{where} {key!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _setting_from_text(text: str) -> Setting:
    try:
        setting = parse_setting(text) if isinstance(text, str) else None
    except ValueError as exc:  # a valid shape that ``Setting`` refuses, e.g. site 0
        raise CatalogError(f"bad setting text {text!r}: {exc}") from None
    if setting is None:
        raise CatalogError(f"bad setting text {text!r}")
    return setting


def plan_from_spec(site: int, encoding: LogicalEncoding, spec: dict) -> SubstitutionPlan:
    """Read a plan: setting text to an object with a ``letter``, an optional ``sign``
    and ``select`` (``"all"`` or an array of image indices).  Only this JSON shape is
    checked here; ``PlanEntry`` checks the values, its refusal re-raised as ``CatalogError``."""
    if not isinstance(spec, dict):
        raise CatalogError(f"plan must be a JSON object, got {spec!r}")
    entries = {}
    for text, entry in spec.items():
        select = entry.get("select", "all") if isinstance(entry, dict) else None
        if not (select == "all" or isinstance(select, list)):
            raise CatalogError(f"plan entry {text}: {entry!r} is not an object whose select "
                               "is \"all\" or an array")
        selection = ("all",) if select == "all" else ("subset", *select)
        try:
            plan_entry = PlanEntry(entry.get("letter"), entry.get("sign", 1), selection)
        except SubstitutionError as exc:
            raise CatalogError(f"plan entry {text}: {exc}") from None
        entries[_setting_from_text(text)] = plan_entry
    return SubstitutionPlan(site, encoding, entries)


# ---------------------------------------------------------------------------
# fixtures

@dataclass(frozen=True)
class Fixture:
    """One fixture file's fields, each checked once by ``read_fixture``."""

    name: str
    kind: str
    inequality: Optional[Inequality]
    assignment: dict
    state: Optional[StateVector]
    hybrid: bool
    derivation: dict
    expect: Optional[str]
    claims: dict  # claim name -> claimed value
    expected_mismatch: list
    rng_seed: int
    samples: int
    epsilon: float


_KINDS = ("linear", "nonlinear", "derivation", "discord", "coherence")


def read_fixture(raw: dict) -> Fixture:
    """The one reader of a fixture object: each field is checked once, into a ``Fixture``.

    The schema, as field (JSON type, default when absent):

    - ``schema`` (the integer 1), ``name`` (string) and ``kind`` (``linear``,
      ``nonlinear``, ``derivation``, ``discord`` or ``coherence``).
    - ``inequality`` (string, parsed here), required unless the kind is
      ``discord``, and its ``provenance`` (string, ``""``).
    - ``assignment`` (object from setting text to observable, ``{}``).
    - ``state`` (object read by ``state_from_spec``, built here; none).
    - ``hybrid`` (boolean, false): the classical bound is ``hybrid_bound``.
    - ``derivation`` (object, ``{}``), read by ``replay_derivation``, and its
      ``expect`` (string, none), parsed by the audit.
    - ``claims`` (object from claim name to an object whose ``value`` is a
      number or a boolean) and ``expected_mismatch`` (array of names, ``[]``).
    - Read by the ``discord`` kind: ``rng_seed`` (integer, 0), ``samples``
      (positive integer, 200) and ``epsilon`` (number, 0.5).

    A refusal is a ``CatalogError``; ``load_catalog`` adds the file name.
    """
    def top(key, kind, default=_REQUIRED):
        return _field(raw, key, "top level", kind, default)

    if top("schema", int) != 1:
        raise CatalogError("unsupported schema version")
    name, kind = top("name", str), top("kind", str)
    if kind not in _KINDS:
        raise CatalogError(f"unknown kind {kind!r}, expected one of {', '.join(_KINDS)}")
    text = top("inequality", str, None if kind == "discord" else _REQUIRED)
    state, derivation = top("state", dict, None), top("derivation", dict, {})
    claims, provenance = top("claims", dict), top("provenance", str, "")
    names, samples = top("expected_mismatch", list, []), top("samples", int, 200)
    if not all(isinstance(k, str) for k in names):
        raise CatalogError(f"top level 'expected_mismatch' must be a JSON array of claim names, "
                           f"got {names!r}")
    if samples < 1:
        raise CatalogError(f"top level 'samples' must be a positive integer, got {samples!r}")
    return Fixture(
        name=name, kind=kind,
        inequality=None if text is None else parse(text, name=name, provenance=provenance),
        assignment=top("assignment", dict, {}),
        state=None if state is None else state_from_spec(state),
        hybrid=top("hybrid", bool, False),
        derivation=derivation, expect=_field(derivation, "expect", "derivation", str, None),
        claims={key: _field(_field(claims, key, "claims", dict), "value", f"claim {key!r}",
                            (bool, int, float)) for key in claims},
        expected_mismatch=names, rng_seed=top("rng_seed", int, 0), samples=samples,
        epsilon=top("epsilon", (int, float), 0.5),
    )


def load_catalog(directory: Optional[os.PathLike] = None) -> list[Fixture]:
    """``read_fixture`` of each ``*.json`` file in ``directory`` (default: the bundled ones)."""
    base = Path(directory or str(resources.files("stabhom") / "fixtures"))
    if not base.is_dir():
        raise CatalogError(f"fixtures directory not found: {base}")
    fixtures, files = [], {}
    for path in sorted(base.glob("*.json")):
        try:
            fx = read_fixture(json.loads(path.read_text(encoding="utf-8")))
            if fx.name in files:
                raise CatalogError(f"name {fx.name!r} is taken by {files[fx.name]}")
        except CatalogError as exc:
            raise CatalogError(f"fixture {path.name}: {exc}") from None
        except Exception as exc:
            raise CatalogError(f"fixture {path.name} failed to load: {exc}") from exc
        files[fx.name] = path.name
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
    ``encoding``, ``threshold`` and ``letter``.  A missing or mistyped field,
    a bad plan, a refused code, expression or substitution raises ``CatalogError``
    naming the fixture.
    """
    if not fx.derivation:
        return None
    try:
        return _replay(fx.derivation, catalog)
    except ValueError as exc:  # every module error is a ValueError
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
            plan = plan_from_spec(_field(step, "site", "chain step", int), enc,
                                  _field(step, "plan", "chain step"))
            current = Inequality(substitute(current, plan))
    return pretty_print(current.ast.with_bound(Fraction(0)))


def _resolve_seed(spec, catalog: list[Fixture]) -> Inequality:
    if isinstance(spec, str):
        for fx in catalog:
            if fx.name == spec:
                if fx.inequality is None:
                    raise CatalogError(f"seed fixture {spec!r} has no inequality")
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
    """The first chain step's lift seed, which a ``threshold_bound`` claim reads (the
    audit has replayed the derivation, so a chain is a list of objects)."""
    spec = fx.derivation
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


def audit_fixture(fx: Fixture, catalog: list[Fixture], claim_tol: float = TOL.claim) -> BoundReport:
    report = BoundReport(name=fx.name, paper_claim=dict(fx.claims),
                         expected_mismatch=list(fx.expected_mismatch))
    if fx.kind == "discord":
        return _audit_discord(fx, report)

    ast = fx.inequality.ast
    # classical bounds
    if fx.hybrid:
        report.hybrid = hybrid_bound(ast)
        report.lhv = report.hybrid
    elif ast.is_linear:
        report.lhv = lhv_bound(ast)
    else:
        report.lhv = lhv_bound_nonlinear(ast)
    report.algebraic = algebraic_bound(ast)

    # separable bound over 1 | rest product states when claimed
    if "separable" in fx.claims:
        report.separable = separable_bound(separable_terms(ast, fx.assignment)).value

    # quantum value on the fixture state
    if fx.state is not None:
        report.quantum_value = _bounds.quantum_value(ast, fx.assignment, fx.state)

    report.quantum_max = quantum_max(ast, fx.assignment)

    # derivation replay; one without ``expect`` is replayed for its errors alone
    got = replay_derivation(fx, catalog)
    if fx.expect is not None:
        try:
            expect = parse(fx.expect + " <= 0").ast
        except ValueError as exc:
            raise CatalogError(f"fixture {fx.name}: {exc}") from None
        report.claim_match["derivation"] = got == pretty_print(expect)

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
        computed["violated"] = violates(report.quantum_value, report.lhv)
    for key, claimed in fx.claims.items():
        if key == "threshold_bound":
            computed["threshold_bound"] = _lift(_threshold_lift(fx)).derived_bound
        report.claim_match[key] = _match(computed.get(key), claimed, claim_tol)

    # verdict
    if any(not ok for ok in report.claim_match.values()):
        report.verdict = "audit-mismatch"
    elif computed["violated"]:
        report.verdict = "nonlocality"
    elif (report.separable is not None and report.quantum_value is not None
          and violates(report.quantum_value, report.separable)):
        report.verdict = "entanglement-only"
    else:
        report.verdict = "no-violation"
    return report


def _audit_discord(fx: Fixture, report: BoundReport) -> BoundReport:
    """Check the discord condition on sampled classical-quantum states and a Bell state.

    The fixture's ``rng_seed`` seeds the stdlib generator ``random.Random``
    that ``_random_cq_states`` takes its ``samples`` states from, so the
    audit's samples do not depend on any CLI option.  ``epsilon`` is the
    check's threshold.
    """
    cq = discord_condition_check(_random_cq_states(Random(fx.rng_seed), fx.samples), fx.epsilon)
    cq_max = float(np.abs([cq.x_correlator, cq.y_correlator]).max(initial=0.0))
    bell = make_pair_superposition("00", "11", 2**-0.5, 2**-0.5)
    bell_rho = DensityOperator(2, np.outer(bell.amplitudes, bell.amplitudes.conj()))
    computed = {
        "cq_correlators_vanish": cq_max < 1e-9,
        "bell_fails": not discord_condition_check(bell_rho, fx.epsilon).passed,
    }
    for key in (k for k in computed if k in fx.claims):
        report.claim_match[key] = computed[key] == fx.claims[key]
    report.verdict = "no-violation" if all(report.claim_match.values()) else "audit-mismatch"
    return report


def _random_cq_states(rng: Random, samples: int) -> DensityOperator:
    """Stack of random classical-quantum two-qubit states for the adapted-basis check.

    ``rng`` is a stdlib ``random.Random`` (the audit seeds it with the
    fixture's ``rng_seed``); on numpy 2 no path loads ``numpy.random``.
    Samples one state at a time (first-qubit basis, Dirichlet(2, 2)
    probabilities as ``betavariate(2, 2)`` and its complement, two
    second-qubit states), so the first n states of a seed do not depend
    on ``samples``; everything after the sampling runs on the whole stack.
    The basis is e_0, the basis sample's normalised first column, and
    e_1 = (-conj(e_0[1]), conj(e_0[0])): QR's projectors, without a QR.
    """
    v = np.empty((samples, 2, 2))  # real, imaginary part of each basis sample's first column
    p = np.empty((samples, 2))
    a = np.empty((samples, 2, 2, 2, 2))  # two second-qubit samples, each real, imaginary
    for i in range(samples):
        v[i] = standard_normals(rng, (2, 2, 2))[..., 0]
        w = rng.betavariate(2.0, 2.0)
        p[i] = w, 1.0 - w
        a[i] = standard_normals(rng, (2, 2, 2, 2))
    e0 = v[:, 0] + 1j * v[:, 1]
    e0 /= np.linalg.norm(e0, axis=-1, keepdims=True)
    kets = np.stack([e0, (e0[:, ::-1] * [-1, 1]).conj()], axis=1)
    a = a[:, :, 0] + 1j * a[:, :, 1]
    m = np.einsum("...ij,...kj->...ik", a, a.conj())
    rhos = DensityOperator(1, m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])
    return make_cq_state(p, kets, rhos)


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


def audit_all(fixtures: Optional[list[Fixture]] = None,
              claim_tol: float = TOL.claim) -> AuditResult:
    """One report per fixture in name order, each claim matched within ``claim_tol``;
    exit code 0 unless an unexpected mismatch."""
    catalog = fixtures if fixtures is not None else load_catalog()
    reports = [audit_fixture(fx, catalog, claim_tol)
               for fx in sorted(catalog, key=lambda f: f.name)]
    expected = list(dict.fromkeys(r.name for r in reports if r.known_mismatch))
    unexpected = list(dict.fromkeys(r.name for r in reports if r.unexpected_mismatch))
    code = 1 if unexpected else 0
    return AuditResult(reports, code, expected, unexpected, claim_tol)
