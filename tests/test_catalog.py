"""Fixture catalogue loading and the audit built on it."""
import json
import re
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import loop_cq_states
from stabhom import catalog
from stabhom.bounds import discord_condition_check
from stabhom.dsl import parse, pretty_print
from stabhom.states import DensityOperator

CATALOG = catalog.load_catalog()
DERIVED = [fx for fx in CATALOG if "derivation" in fx.raw]


@pytest.mark.parametrize("fx", DERIVED, ids=[fx.name for fx in DERIVED])
def test_derivation_replays_to_its_texts(fx):
    # the audit checks only derivations with an ``expect``; this also covers the symbolic one
    got = catalog.replay_derivation(fx, CATALOG)
    expect = fx.raw["derivation"].get("expect")
    if expect is not None:
        assert got == pretty_print(parse(expect + " <= 0").ast)
    if expect is None or all(s.is_fixed_pauli for s in fx.inequality.ast.settings):
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
    loaded = {fx.raw["inequality"] for fx in fixtures if "inequality" in fx.raw}
    assert texts, "derivation expect and expression-seed strings still parse"
    assert not loaded & set(texts)


def test_random_cq_states_match_per_state_sampler():
    rhos = catalog._random_cq_states(Random(0), 200)
    want = loop_cq_states(Random(0), 200)
    assert rhos.width == 2 and rhos.matrix.shape == (200, 4, 4)
    assert np.abs(rhos.matrix - want).max() < 1e-15
    head = catalog._random_cq_states(Random(0), 7)
    assert np.array_equal(head.matrix, rhos.matrix[:7])


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


CHSH_TO_MERMIN = next(fx for fx in CATALOG if fx.name == "chsh-to-mermin")


@pytest.mark.parametrize("plan,setting", [
    ([1], None),
    ({"X2": 5}, "X2"),
    ({"X2": {}}, "X2"),
    ({"X2": {"letter": "XY"}}, "X2"),
    ({"X2": {"letter": "X"}, "Y2": {"letter": "Y", "sign": "x"}}, "Y2"),
    ({"X2": {"letter": "X", "sign": 2}}, "X2"),
    ({"X2": {"letter": "X", "sign": True}}, "X2"),
    ({"X2": {"letter": "X", "select": "some"}}, "X2"),
    ({"X2": {"letter": "X", "select": [0.5]}}, "X2"),
    ({"X2": {"letter": "X", "select": [-1]}}, "X2"),
    ({"X2": {"letter": "X", "select": [0, 0]}}, "X2"),
], ids=["list-plan", "int-entry", "no-letter", "two-letters", "text-sign", "sign-2",
        "bool-sign", "text-select", "float-index", "negative-index", "repeated-index"])
def test_plan_reader_names_fixture_and_setting(plan, setting):
    raw = json.loads(json.dumps(CHSH_TO_MERMIN.raw))
    raw["derivation"]["chain"][0]["plan"] = plan
    fx = catalog.Fixture(CHSH_TO_MERMIN.name, CHSH_TO_MERMIN.kind, raw)
    with pytest.raises(catalog.CatalogError, match="^fixture chsh-to-mermin: ") as err:
        catalog.replay_derivation(fx, CATALOG)
    want = "plan must be a JSON object" if setting is None else f"plan entry {setting} needs"
    assert want in str(err.value)


FIXTURES = {fx.name: fx for fx in CATALOG}
MISSING = object()  # delete the field rather than set it


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
], ids=["step-encoding", "step-plan", "lift-encoding", "lift-threshold", "lift-letter",
        "step-seed", "int-seed", "empty-chain", "symbolic-seed", "symbolic-site",
        "symbolic-width", "symbolic-map", "list-map", "text-image", "text-site"])
def test_derivation_reader_names_fixture_and_field(name, path, field, value, message):
    raw = json.loads(json.dumps(FIXTURES[name].raw))
    spec = raw["derivation"]
    for key in path:
        spec = spec[key]
    if value is MISSING:
        del spec[field]
    else:
        spec[field] = value
    fx = catalog.Fixture(name, FIXTURES[name].kind, raw)
    with pytest.raises(catalog.CatalogError, match="^fixture " + re.escape(f"{name}: {message}")):
        catalog.replay_derivation(fx, CATALOG)


@pytest.mark.parametrize("derivation", [
    None,
    {"chain": [{"seed": {"expression": "X1*X2 - Y1*Y2 <= 1"}}], "expect": "X1*X2 - Y1*Y2"},
], ids=["no-derivation", "expression-seed"])
def test_threshold_claim_needs_a_lift_seed(derivation):
    raw = json.loads(json.dumps(FIXTURES["ent-witness-I"].raw))
    raw["derivation"] = derivation
    fx = catalog.Fixture("ent-witness-I", "linear", raw)
    with pytest.raises(catalog.CatalogError, match="^fixture ent-witness-I: a threshold_bound"):
        catalog.audit_fixture(fx, CATALOG)


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
