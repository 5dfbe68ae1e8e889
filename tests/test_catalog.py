"""Fixture catalogue loading and the audit built on it."""
import json
import re
import threading
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import loop_cq_states
from stabhom import bounds, catalog, cli, descend
from stabhom.bounds import discord_condition_check
from stabhom.descend import enumerate_descendants, lift_coherence_witness
from stabhom.dsl import load_ineq, parse, pretty_print
from stabhom.states import DensityOperator, make_pair_superposition

CATALOG = catalog.load_catalog()
DERIVED = [fx for fx in CATALOG if fx.derivation]
RAW = {raw["name"]: raw for raw in (json.loads(path.read_text(encoding="utf-8")) for path in
                                    (Path(catalog.__file__).parent / "fixtures").glob("*.json"))}


def raw_copy(name: str) -> dict:
    """A deep copy of bundled fixture ``name``'s JSON object."""
    return json.loads(json.dumps(RAW[name]))


@pytest.mark.parametrize("fx", DERIVED, ids=[fx.name for fx in DERIVED])
def test_derivation_replays_to_its_texts(fx):
    # the audit checks only derivations with an ``expect``; this also covers the symbolic one
    got = catalog.replay_derivation(fx, CATALOG)
    if fx.expect is not None:
        assert got == pretty_print(parse(fx.expect + " <= 0").ast)
    if fx.expect is None or all(s.is_fixed_pauli for s in fx.inequality.ast.settings):
        assert got == pretty_print(fx.inequality.ast.with_bound(Fraction(0)))


def test_audit_reuses_each_fixture_parse(monkeypatch):
    fixtures = catalog.load_catalog()
    texts = []
    parse = catalog.parse

    def recording(text, *args, **kwargs):
        texts.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(catalog, "parse", recording)
    catalog.audit_all(fixtures)
    loaded = {raw["inequality"] for raw in RAW.values() if "inequality" in raw}
    assert texts, "derivation expect and expression-seed strings still parse"
    assert not loaded & set(texts)


def test_random_cq_states_match_per_state_sampler():
    rhos = catalog._random_cq_states(Random(0), 200)
    want = loop_cq_states(Random(0), 200)
    assert rhos.width == 2 and rhos.matrix.shape == (200, 4, 4)
    assert np.abs(rhos.matrix - want).max() < 1e-15
    head = catalog._random_cq_states(Random(0), 7)
    assert np.array_equal(head.matrix, rhos.matrix[:7])


def test_cli_paths_solve_only_by_eigensolver_or_closed_form(monkeypatch):
    # dense solves go through eigvalsh / eigh or a closed form; no other LAPACK routine
    def refusing(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    for name in ("qr", "svd", "det", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refusing(f"np.linalg.{name}"))
    monkeypatch.setattr(np, "tensordot", refusing("np.tensordot"))
    assert catalog.audit_all().exit_code == 0
    bell = make_pair_superposition("00", "11", 2**-0.5, 2**-0.5)
    seed = load_ineq(Path(catalog.__file__).parent / "data" / "seeds" / "chsh.ineq")
    rows = enumerate_descendants(seed, 2, catalog.LogicalEncoding.ghz(3), {"X2": "X", "Y2": "Y"},
                                 seed_state=bell)
    assert (len(rows), sum(r.accepted for r in rows)) == (225, 71)


def test_audit_sample_stack_matches_per_state_checks():
    rhos = catalog._random_cq_states(Random(0), 200)
    check = discord_condition_check(rhos, 0.5)
    single = [discord_condition_check(DensityOperator(2, m), 0.5) for m in rhos.matrix]
    assert check.passed and all(s.passed for s in single)
    for got, attr in ((check.x_correlator, "x_correlator"), (check.y_correlator, "y_correlator")):
        assert np.abs(got - [getattr(s, attr) for s in single]).max() < 1e-12


def test_plan_setting_text_parses_like_the_grammar():
    enc = catalog.LogicalEncoding.ghz(2)
    plan = catalog.plan_from_spec(2, enc, {"A2''": {"letter": "X"}})
    assert list(plan.entries) == [catalog.parse("A2'' <= 1").ast.settings[0]]
    for bad in ("a2", "A", "A2*", "AB2"):
        with pytest.raises(catalog.CatalogError, match="bad setting text"):
            catalog.plan_from_spec(2, enc, {bad: {"letter": "X"}})


@pytest.mark.parametrize("plan,message", [
    ([1], "plan must be a JSON object, got [1]"),
    ({"X2": 5}, 'plan entry X2: 5 is not an object whose select is "all" or an array'),
    ({"X2": {}}, "plan entry X2: logical letter must be X/Y/Z, got None"),
    ({"X2": {"letter": "XY"}}, "plan entry X2: logical letter must be X/Y/Z, got 'XY'"),
    ({"X2": {"letter": "X"}, "Y2": {"letter": "Y", "sign": "x"}},
     "plan entry Y2: sign must be 1 or -1, got 'x'"),
    ({"X2": {"letter": "X", "sign": 2}}, "plan entry X2: sign must be 1 or -1, got 2"),
    ({"X2": {"letter": "X", "sign": True}}, "plan entry X2: sign must be 1 or -1, got True"),
    ({"X2": {"letter": "X", "select": "some"}},
     "plan entry X2: {'letter': 'X', 'select': 'some'} is not an object whose select is "
     '"all" or an array'),
    ({"X2": {"letter": "X", "select": [0.5]}},
     "plan entry X2: image indices must be distinct integers >= 0, got [0.5]"),
    ({"X2": {"letter": "X", "select": [-1]}},
     "plan entry X2: image indices must be distinct integers >= 0, got [-1]"),
    ({"X2": {"letter": "X", "select": [0, 0]}},
     "plan entry X2: image indices must be distinct integers >= 0, got [0, 0]"),
], ids=["list-plan", "int-entry", "no-letter", "two-letters", "text-sign", "sign-2",
        "bool-sign", "text-select", "float-index", "negative-index", "repeated-index"])
def test_plan_reader_names_fixture_and_setting(plan, message):
    # the JSON shape is checked by the reader, the values by PlanEntry alone
    raw = raw_copy("chsh-to-mermin")
    raw["derivation"]["chain"][0]["plan"] = plan
    with pytest.raises(catalog.CatalogError) as err:
        catalog.replay_derivation(catalog.read_fixture(raw), CATALOG)
    assert str(err.value) == f"fixture chsh-to-mermin: {message}"


MISSING = object()  # delete the field rather than set it


def edit(raw: dict, path: tuple, field: str, value) -> None:
    """Set ``field`` of the object at ``path`` in ``raw`` to ``value``; delete it for MISSING."""
    spec = raw
    for key in path:
        spec = spec[key]
    if value is MISSING:
        del spec[field]
    else:
        spec[field] = value


@pytest.mark.parametrize("name,path,field,value,message", [
    ("chsh-to-mermin", ("chain", 0), "encoding", MISSING, "chain step has no 'encoding'"),
    ("chsh-to-mermin", ("chain", 0), "plan", MISSING, "chain step has no 'plan'"),
    ("chsh-to-mermin", ("chain", 0, "seed", "lift"), "encoding", MISSING, "lift has no 'encoding'"),
    ("chsh-to-mermin", ("chain", 0, "seed", "lift"), "threshold", MISSING,
     "lift has no 'threshold'"),
    ("chsh-to-mermin", ("chain", 0, "seed", "lift"), "letter", MISSING, "lift has no 'letter'"),
    ("chsh-to-mermin", ("chain", 0), "seed", MISSING, "the first chain step has no 'seed'"),
    ("chsh-to-mermin", ("chain", 0), "seed", 5, "bad seed spec 5"),
    ("chsh-to-mermin", (), "chain", [], "derivation 'chain' is empty"),
    ("svetlichny-desc-5", ("symbolic",), "seed", MISSING, "symbolic has no 'seed'"),
    ("svetlichny-desc-5", ("symbolic",), "site", MISSING, "symbolic has no 'site'"),
    ("svetlichny-desc-5", ("symbolic",), "width", MISSING, "symbolic has no 'width'"),
    ("svetlichny-desc-5", ("symbolic",), "map", MISSING, "symbolic has no 'map'"),
    ("svetlichny-desc-5", ("symbolic",), "map", [1], "symbolic 'map' must be a JSON object"),
    ("svetlichny-desc-5", ("symbolic", "map"), "A3", "A3", "map 'A3' must be a JSON array"),
    ("svetlichny-desc-5", ("symbolic",), "site", "3", "symbolic 'site' must be a JSON integer"),
    ("chsh-to-mermin", ("chain", 0), "site", "2", "chain step 'site' must be a JSON integer"),
    ("chsh-to-mermin", ("chain", 0), "seed", "discord-condition",
     "seed fixture 'discord-condition' has no inequality"),
    ("svetlichny-desc-5", ("symbolic",), "seed", "discord-condition",
     "seed fixture 'discord-condition' has no inequality"),
    ("svetlichny-desc-5", ("symbolic", "map"), "X0", ["X3"],
     "bad setting text 'X0': site must be >= 1"),
    ("chsh-to-mermin", ("chain", 0, "plan"), "X2", {"letter": "X", "select": [9]},
     "image index out of range"),
    ("chsh-to-mermin", ("chain", 0, "plan"), "X2", {"letter": "X", "select": []},
     "plan entry X2: empty image selection"),
], ids=["step-encoding", "step-plan", "lift-encoding", "lift-threshold", "lift-letter",
        "step-seed", "int-seed", "empty-chain", "symbolic-seed", "symbolic-site",
        "symbolic-width", "symbolic-map", "list-map", "text-image", "text-site",
        "text-step-site", "step-seed-without-inequality", "symbolic-seed-without-inequality",
        "site-zero-map-key", "index-out-of-range", "empty-select"])
def test_derivation_reader_names_fixture_and_field(name, path, field, value, message):
    raw = raw_copy(name)
    edit(raw, ("derivation", *path), field, value)
    with pytest.raises(catalog.CatalogError, match="^fixture " + re.escape(f"{name}: {message}")):
        catalog.replay_derivation(catalog.read_fixture(raw), CATALOG)


@pytest.mark.parametrize("derivation", [
    MISSING,
    {"chain": [{"seed": {"expression": "X1*X2 - Y1*Y2 <= 1"}}], "expect": "X1*X2 - Y1*Y2"},
], ids=["no-derivation", "expression-seed"])
def test_threshold_claim_needs_a_lift_seed(derivation):
    raw = raw_copy("ent-witness-I")
    edit(raw, (), "derivation", derivation)
    with pytest.raises(catalog.CatalogError, match="^fixture ent-witness-I: a threshold_bound"):
        catalog.audit_fixture(catalog.read_fixture(raw), CATALOG)


def edited_fixtures(tmp_path, name, change) -> Path:
    """A copy of the bundled fixtures with ``change`` applied to fixture ``name``'s JSON."""
    directory = tmp_path / "fixtures"
    directory.mkdir()
    for key in RAW:
        raw = raw_copy(key)
        if key == name:
            change(raw)
        (directory / f"{key}.json").write_text(json.dumps(raw), encoding="utf-8")
    return directory


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw["claims"]["lhv"].pop("value"), "claim 'lhv' has no 'value'"),
    (lambda raw: raw.update(claims=[{"lhv": {"value": 2}}]),
     "top level 'claims' must be a JSON object"),
    (lambda raw: raw.pop("claims"), "top level has no 'claims'"),
    (lambda raw: raw["claims"].update(lhv=2), "claims 'lhv' must be a JSON object"),
    (lambda raw: raw["claims"]["lhv"].update(value="2"),
     "claim 'lhv' 'value' must be a JSON number or boolean, got '2'"),
    (lambda raw: raw["claims"]["lhv"].update(value=None),
     "claim 'lhv' 'value' must be a JSON number or boolean, got None"),
], ids=["no-value", "list-claims", "no-claims", "number-claim", "text-value", "null-value"])
def test_malformed_claim_is_refused_at_load(tmp_path, capsys, edit, message):
    directory = edited_fixtures(tmp_path, "chsh", edit)
    with pytest.raises(catalog.CatalogError, match="^fixture chsh.json: " + re.escape(message)):
        catalog.load_catalog(directory)
    assert cli.main(["audit", "--fixtures", str(directory)]) == cli.USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: fixture chsh.json: ")


@pytest.mark.parametrize("name,path,field,value,message", [
    ("chsh", (), "expected_mismatch", 5,
     "chsh.json: top level 'expected_mismatch' must be a JSON array"),
    ("chsh", (), "expected_mismatch", "lhv",
     "chsh.json: top level 'expected_mismatch' must be a JSON array"),
    ("chsh", (), "expected_mismatch", [1],
     "chsh.json: top level 'expected_mismatch' must be a JSON array"),
    ("discord-condition", (), "epsilon", None,
     "discord-condition.json: top level 'epsilon' must be a JSON number, got None"),
    ("discord-condition", (), "epsilon", "0.5",
     "discord-condition.json: top level 'epsilon' must be a JSON number, got '0.5'"),
    ("discord-condition", (), "epsilon", True,
     "discord-condition.json: top level 'epsilon' must be a JSON number, got True"),
    ("discord-condition", (), "rng_seed", [1],
     "discord-condition.json: top level 'rng_seed' must be a JSON integer, got [1]"),
    ("discord-condition", (), "rng_seed", True,
     "discord-condition.json: top level 'rng_seed' must be a JSON integer, got True"),
    ("discord-condition", (), "rng_seed", 1.5,
     "discord-condition.json: top level 'rng_seed' must be a JSON integer, got 1.5"),
    ("chsh-to-mermin", ("derivation",), "expect", 5,
     "chsh-to-mermin.json: derivation 'expect' must be a JSON string, got 5"),
    ("chsh", (), "inequality", MISSING, "chsh.json: top level has no 'inequality'"),
    ("discord-condition", (), "kind", "discrod", "discord-condition.json: unknown kind 'discrod'"),
    ("chsh", (), "state", [], "chsh.json: top level 'state' must be a JSON object, got []"),
    ("chsh", (), "state", 0, "chsh.json: top level 'state' must be a JSON object, got 0"),
    ("svetlichny3", (), "hybrid", "no",
     "svetlichny3.json: top level 'hybrid' must be a JSON boolean, got 'no'"),
    ("chsh-to-mermin", ("derivation",), "expect", "X1*",
     "chsh-to-mermin: expected a term (at position 4)"),
    ("chsh-to-mermin", ("derivation", "chain", 0), "encoding", {"ghz": 0},
     "chsh-to-mermin: GHZ code size 0 outside 1..12"),
    ("cluster4", ("derivation", "chain", 0), "seed", {"expression": "X1*"},
     "cluster4: expected a term (at position 3)"),
], ids=["int-mismatch", "text-mismatch", "int-list-mismatch", "null-epsilon", "text-epsilon",
        "bool-epsilon", "list-seed", "bool-seed", "float-seed", "int-expect", "no-inequality",
        "unknown-kind", "list-state", "int-state", "text-hybrid", "bad-expect",
        "ghz0-step-encoding", "bad-expression-seed"])
def test_mistyped_fixture_field_is_a_usage_error(tmp_path, capsys, name, path, field, value,
                                                 message):
    # refused at load (naming the file) or at audit (naming the fixture), never a traceback
    directory = edited_fixtures(tmp_path, name, lambda raw: edit(raw, path, field, value))
    with pytest.raises(catalog.CatalogError, match="^fixture " + re.escape(message)):
        catalog.audit_all(catalog.load_catalog(directory))
    assert cli.main(["audit", "--fixtures", str(directory)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("error: fixture " + message)


def test_duplicate_fixture_names_are_refused_at_load(tmp_path, capsys):
    directory = edited_fixtures(tmp_path, "chsh", lambda raw: None)
    (directory / "chsh-copy.json").write_bytes((directory / "chsh.json").read_bytes())
    message = "fixture chsh.json: name 'chsh' is taken by chsh-copy.json"
    with pytest.raises(catalog.CatalogError, match="^" + re.escape(message) + "$"):
        catalog.load_catalog(directory)
    for argv in (["audit"], ["qvalue", "--fixture", "chsh"]):
        assert cli.main([*argv, "--fixtures", str(directory)]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"


REPORT_VALUES = ("lhv", "separable", "hybrid", "quantum_value", "quantum_max", "algebraic")


@pytest.mark.parametrize("claim_tol", [0.0, 0.5, 1e9])
def test_claim_tolerance_moves_only_tolerance_and_claim_matches(claim_tol):
    base = catalog.audit_all(CATALOG).to_json()
    got = catalog.audit_all(CATALOG, claim_tol=claim_tol).to_json()
    assert got["tolerance"] == claim_tol and base["tolerance"] == catalog.TOL.claim
    for want, report in zip(base["reports"], got["reports"], strict=True):
        moved = ("claim_match", "verdict")
        assert {k: v for k, v in report.items() if k not in moved} == \
            {k: v for k, v in want.items() if k not in moved}
        for key, ok in report["claim_match"].items():
            claimed = report["paper_claim"].get(key)
            if key in REPORT_VALUES:
                assert ok == (report[key] is not None and abs(report[key] - claimed) <= claim_tol)
            elif isinstance(claimed, bool) or key == "derivation":
                assert ok == want["claim_match"][key]
        if all(report["claim_match"].values()):
            assert report["verdict"] != "audit-mismatch"
        else:
            assert report["verdict"] == "audit-mismatch"


def at_margin(bound, above):
    """A value exactly ``TOL.violation`` above ``bound``, or the next float past it."""
    value = bound + catalog.TOL.violation
    return float(np.nextafter(value, np.inf)) if above else value


def audit_verdict(monkeypatch, above, verdict):
    lhv, separable = (2.0, 100.0) if verdict == "nonlocality" else (100.0, 3.0)
    monkeypatch.setattr(catalog, "lhv_bound", lambda ast: lhv)
    monkeypatch.setattr(catalog, "separable_bound", lambda terms: SimpleNamespace(value=separable))
    monkeypatch.setattr(bounds, "quantum_value",
                        lambda ast, assignment, state: at_margin(min(lhv, separable), above))
    raw = {"schema": 1, "name": "margin", "kind": "linear", "inequality": "X1*X2 - Y1*Y2 <= 2",
           "state": {"kind": "ghz", "n": 2}, "claims": {"separable": {"value": separable}}}
    report = catalog.audit_fixture(catalog.read_fixture(raw), CATALOG)
    assert report.claim_match == {"separable": True}
    return report.verdict == verdict


def search_accepted(monkeypatch, above):
    def values(coeffs, universe, squares, assignment, state):
        maxima = bounds._row_maxima(coeffs.reshape(len(coeffs), -1), universe)[0]
        return np.array([at_margin(float(b), above) for b in maxima])

    monkeypatch.setattr(descend, "_quantum_values", values)
    bell = make_pair_superposition("00", "11", 2**-0.5, 2**-0.5)
    rows = enumerate_descendants(parse("X1*X2 - Y1*Y2 <= 2"), 2, catalog.LogicalEncoding.ghz(2),
                                 {"X2": "X", "Y2": "Y"}, seed_state=bell)
    (accepted,) = {r.accepted for r in rows}
    return accepted


def lift_accepted(monkeypatch, above):
    monkeypatch.setattr(bounds, "quantum_value",
                        lambda ast, assignment, state: at_margin(bounds.lhv_bound(ast), above))
    return lift_coherence_witness(0.5, "X", catalog.LogicalEncoding.ghz(3)).accepted


@pytest.mark.parametrize("above", [False, True], ids=["at-margin", "past-margin"])
@pytest.mark.parametrize("verdict", [
    lambda mp, above: audit_verdict(mp, above, "nonlocality"),
    lambda mp, above: audit_verdict(mp, above, "entanglement-only"),
    search_accepted,
    lift_accepted,
], ids=["audit-nonlocality", "audit-entanglement-only", "search-accepted", "lift-accepted"])
def test_every_verdict_site_violates_only_past_the_margin(monkeypatch, verdict, above):
    # a value exactly TOL.violation above its bound does not violate; the next float does
    assert verdict(monkeypatch, above) is above


def test_audit_starts_no_thread(monkeypatch, capsys):
    def refused(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    assert catalog.audit_all().exit_code == 0
    assert cli.main(["audit", "--json"]) == 0
    assert cli.main(["--workers", "2", "audit", "--json"]) == 0


@pytest.mark.parametrize("samples", [0, -3, 2.7, True, "200", None],
                         ids=["zero", "negative", "float", "bool", "text", "null"])
def test_discord_samples_must_be_a_positive_integer(samples):
    raw = raw_copy("discord-condition")
    raw["samples"] = samples
    message = f"top level 'samples' must be a (JSON|positive) integer, got {re.escape(repr(samples))}$"
    with pytest.raises(catalog.CatalogError, match="^" + message):
        catalog.read_fixture(raw)


def amplitudes_spec(n, nonzero):
    return {"kind": "amplitudes", "n": n, "nonzero": nonzero}


@pytest.mark.parametrize("spec,message", [
    (amplitudes_spec(0, {}), "'n' = 0 outside 1..12"),
    (amplitudes_spec(13, {}), "'n' = 13 outside 1..12"),
    (amplitudes_spec(40, {}), "'n' = 40 outside 1..12"),  # 16 TiB if allocated
    (amplitudes_spec(2, {"111": 1}), "label '111' is not 2 characters"),
    (amplitudes_spec(2, {"1_1": 1}), "label '1_1' is not 2 characters"),
    (amplitudes_spec(2, {"-1": 1}), "label '-1' is not 2 characters"),
    ({"kind": "pair", "a": "00", "b": "11", "amps": [1]}, "'amps' must hold two entries"),
], ids=["n0", "n13", "n40", "long-label", "underscore-label", "signed-label", "one-amp"])
def test_state_spec_refuses_bad_sizes_and_labels(spec, message):
    with pytest.raises(catalog.CatalogError, match=message):
        catalog.state_from_spec(spec)
