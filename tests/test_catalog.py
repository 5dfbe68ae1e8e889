"""Fixture catalogue loading and the audit built on it."""
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
    # the audit replays only derivations with an ``expect``; this also covers the symbolic one
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
    assert texts, "derivation, alternative and expression-seed strings still parse"
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
