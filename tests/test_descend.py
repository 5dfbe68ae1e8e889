"""Descendant generation: substitution plans, enumeration, witness lifts."""
import numpy as np
import pytest

from conftest import per_image_transport_check
from stabhom.bounds import lhv_bound, quantum_value
from stabhom.codespace import LogicalEncoding, image_set, lift_state
from stabhom.descend import (
    DescendantResult,
    PlanEntry,
    SubstitutionError,
    SubstitutionPlan,
    enumerate_descendants,
    lift_coherence_witness,
    substitute,
    substitute_symbolic,
)
from stabhom.dsl import Setting, parse, pretty_print
from stabhom.states import ghz_state, make_pair_superposition

R = 2**-0.5
BELL = LogicalEncoding.ghz(2)
GHZ3 = LogicalEncoding.ghz(3)

MERMIN_PAULI = "X1*X2*X3 - X1*Y2*Y3 - Y1*X2*Y3 - Y1*Y2*X3"


def expr_text(ast):
    from fractions import Fraction

    return pretty_print(ast.with_bound(Fraction(0)))[: -len(" <= 0")]


class TestSubstitute:
    def test_precursor_to_three_party(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        plan = SubstitutionPlan(2, BELL, {Setting(2, "X"): PlanEntry("X"),
                                          Setting(2, "Y"): PlanEntry("Y")})
        out = substitute(seed, plan)
        assert expr_text(out) == MERMIN_PAULI
        assert lhv_bound(out) == 2.0

    def test_dda_single_images(self):
        seed = parse("A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2")
        plan = SubstitutionPlan(2, BELL, {
            Setting(2, "A"): PlanEntry("X", 1, ("subset", 0)),
            Setting(2, "A", 1): PlanEntry("Z", 1, ("subset", 0)),
        })
        out = substitute(seed, plan)
        assert expr_text(out) == "A1*X2*X3 + A1*Z2 + A1'*X2*X3 - A1'*Z2"
        assert lhv_bound(out) == 2.0

    def test_five_party_symbolic_grouping(self):
        sv3 = parse(
            "B1*A2*A3 + B1'*A2*A3 + B1*A2'*A3 - B1'*A2'*A3 "
            "+ B1*A2*A3' - B1'*A2*A3' - B1*A2'*A3' - B1'*A2'*A3' <= 4"
        )
        out = substitute_symbolic(
            sv3, 3, 3,
            {Setting(3, "A"): (Setting(3, "A"), Setting(4, "A"), Setting(5, "A")),
             Setting(3, "A", 1): (Setting(3, "A", 1), Setting(4, "A", 1),
                                  Setting(5, "A", 1))},
        )
        assert out.width == 5
        assert len(out.linear) == 8
        assert lhv_bound(out) == 4.0

    def test_occurrence_mode_injective(self):
        seed = parse("X1*X2 + Y1*X2 <= 2")  # X2 occurs twice
        plan = SubstitutionPlan(2, BELL, {
            Setting(2, "X"): PlanEntry("X", 1, ("occ", 0, 1)),
        })
        out = substitute(seed, plan)
        # first occurrence -> +X2X3, second -> -Y2Y3
        assert expr_text(out) == "X1*X2*X3 - Y1*Y2*Y3"

    def test_occurrence_count_mismatch(self):
        seed = parse("X1*X2 + Y1*X2 <= 2")
        plan = SubstitutionPlan(2, BELL, {
            Setting(2, "X"): PlanEntry("X", 1, ("occ", 0)),
        })
        with pytest.raises(SubstitutionError):
            substitute(seed, plan)

    def test_rejects_duplicate_occurrence_images(self):
        with pytest.raises(SubstitutionError):
            PlanEntry("X", 1, ("occ", 0, 0))

    def test_missing_plan_entry(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        plan = SubstitutionPlan(2, BELL, {Setting(2, "X"): PlanEntry("X")})
        with pytest.raises(SubstitutionError):
            substitute(seed, plan)

    def test_sign_carries_through(self):
        seed = parse("X1*Y2 <= 1")
        plan = SubstitutionPlan(2, BELL, {Setting(2, "Y"): PlanEntry("Y", -1)})
        out = substitute(seed, plan)
        assert expr_text(out) == "-X1*X2*Y3 - X1*Y2*X3"

    def test_width_shift(self):
        seed = parse("X1*X2*Z3 <= 1")
        plan = SubstitutionPlan(2, BELL, {Setting(2, "X"): PlanEntry("X", 1, ("subset", 0))})
        out = substitute(seed, plan)
        assert expr_text(out) == "X1*X2*X3*Z4"


class TestEnumerate:
    def test_chsh_chain_finds_the_three_party_form(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        bell_state = make_pair_superposition("00", "11", R, R)
        results = enumerate_descendants(
            seed, 2, BELL, {"X2": "X", "Y2": "Y"}, seed_state=bell_state
        )
        accepted = [r for r in results if r.accepted]
        assert len(accepted) == 1
        top = results[0]
        assert expr_text(top.descendant.ast) == MERMIN_PAULI
        assert top.lhv_bound == 2.0
        assert top.quantum_value == pytest.approx(4.0, abs=1e-9)

    def test_mermin_ghz2_descendant(self):
        seed = parse(f"{MERMIN_PAULI} <= 2")
        results = enumerate_descendants(
            seed, 3, BELL, {"X3": "X", "Y3": "Y"}, seed_state=ghz_state(3)
        )
        top = results[0]
        assert top.lhv_bound == 4.0
        assert top.quantum_value == pytest.approx(8.0, abs=1e-9)
        assert top.accepted

    def test_mermin_ghz3_descendant(self):
        seed = parse(f"{MERMIN_PAULI} <= 2")
        results = enumerate_descendants(
            seed, 3, GHZ3, {"X3": "X", "Y3": "Y"}, seed_state=ghz_state(3)
        )
        top = results[0]
        assert len(top.descendant.ast.linear) == 16
        assert top.lhv_bound == 4.0  # exact enumeration; see the audit notes
        assert top.quantum_value == pytest.approx(16.0, abs=1e-9)

    def test_deterministic_ordering(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        bell_state = make_pair_superposition("00", "11", R, R)
        a = enumerate_descendants(seed, 2, BELL, {"X2": "X", "Y2": "Y"}, seed_state=bell_state)
        b = enumerate_descendants(seed, 2, BELL, {"X2": "X", "Y2": "Y"}, seed_state=bell_state)
        assert [pretty_print(r.descendant.ast) for r in a] == [
            pretty_print(r.descendant.ast) for r in b
        ]

    def test_truncation_flag(self):
        seed = parse(f"{MERMIN_PAULI} <= 2")
        results = enumerate_descendants(
            seed, 3, GHZ3, {"X3": "X", "Y3": "Y"}, max_assignments=3
        )
        assert results and all(r.truncated for r in results)

    def test_accepted_descendants_have_local_noncommuting_pair(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        bell_state = make_pair_superposition("00", "11", R, R)
        results = enumerate_descendants(
            seed, 2, BELL, {"X2": "X", "Y2": "Y"}, seed_state=bell_state
        )
        for r in results:
            if not r.accepted:
                continue
            settings = r.descendant.ast.settings
            by_site = {}
            for s in settings:
                by_site.setdefault(s.site, set()).add(s.base)
            assert any(len(bases) >= 2 for bases in by_site.values())


class TestTransport:
    def test_per_image_value_transport(self):
        seed = parse("X1*X2 - Y1*Y2 <= 2")
        bell_state = make_pair_superposition("00", "11", R, R)
        plan = SubstitutionPlan(2, BELL, {Setting(2, "X"): PlanEntry("X"),
                                          Setting(2, "Y"): PlanEntry("Y")})
        assert per_image_transport_check(seed, plan, bell_state) < 1e-10

    def test_transport_through_triple_code(self):
        seed = parse("X1*X2 + Y1*Y2 + Z1*Z2 <= 1")
        singlet = make_pair_superposition("01", "10", R, -R)
        plan = SubstitutionPlan(2, GHZ3, {Setting(2, "X"): PlanEntry("X"),
                                          Setting(2, "Y"): PlanEntry("Y"),
                                          Setting(2, "Z"): PlanEntry("Z")})
        assert per_image_transport_check(seed, plan, singlet) < 1e-10


class TestWitnessLift:
    def test_half_threshold_pair_code(self):
        res = lift_coherence_witness(0.5, "X", BELL)
        assert expr_text(res.descendant.ast) == "X1*X2 - Y1*Y2"
        assert res.derived_bound == pytest.approx(1.0)
        assert not res.accepted  # entanglement witness, not a deterministic violation

    def test_half_threshold_triple_code(self):
        res = lift_coherence_witness(0.5, "X", GHZ3)
        assert expr_text(res.descendant.ast) == MERMIN_PAULI
        assert res.derived_bound == pytest.approx(2.0)
        assert res.lhv_bound == 2.0
        assert res.quantum_value == pytest.approx(4.0, abs=1e-9)
        assert res.accepted

    def test_stringent_threshold(self):
        res = lift_coherence_witness(2**-0.5, "X", BELL)
        assert res.derived_bound == pytest.approx(2**0.5)

    def test_y_letter(self):
        res = lift_coherence_witness(0.5, "Y", BELL)
        assert res.quantum_value == pytest.approx(2.0, abs=1e-9)

    def test_threshold_range(self):
        with pytest.raises(SubstitutionError):
            lift_coherence_witness(1.5, "X", BELL)
        with pytest.raises(SubstitutionError):
            lift_coherence_witness(0.5, "Z", BELL)
