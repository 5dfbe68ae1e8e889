"""Descendant generation: substitution plans, enumeration, witness lifts."""
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    loop_enumerate_descendants,
    loop_substitute,
    loop_substitute_symbolic,
    per_image_transport_check,
)
from stabhom import bounds
from stabhom.bounds import BoundError, lhv_bound, lhv_bound_nonlinear, quantum_value
from stabhom.codespace import CodespaceError, LogicalEncoding, image_set, lift_state
from stabhom.descend import (
    DescendantResult,
    PlanEntry,
    SubstitutionError,
    SubstitutionPlan,
    _plan_selections,
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
GHZ8 = LogicalEncoding.ghz(8)
# a GHZ-8 code at site 6 gives 13-qubit descendants, past the dense cap
SIX_SITE = "X1*X2*X3*X4*X5*X6 - Y1*Y2*X3*X4*X5*X6 <= 2"

MERMIN_PAULI = "X1*X2*X3 - X1*Y2*Y3 - Y1*X2*Y3 - Y1*Y2*X3"
SVETLICHNY3 = (
    "B1*A2*A3 + B1'*A2*A3 + B1*A2'*A3 - B1'*A2'*A3 "
    "+ B1*A2*A3' - B1'*A2*A3' - B1*A2'*A3' - B1'*A2'*A3' <= 4"
)
# the third party splits into three parties measuring the same labelled setting
SVETLICHNY_MAP = {
    Setting(3, "A"): (Setting(3, "A"), Setting(4, "A"), Setting(5, "A")),
    Setting(3, "A", 1): (Setting(3, "A", 1), Setting(4, "A", 1), Setting(5, "A", 1)),
}


def expr_text(ast):
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
        sv3 = parse(SVETLICHNY3)
        out = substitute_symbolic(sv3, 3, 3, SVETLICHNY_MAP)
        assert out.width == 5
        assert len(out.linear) == 8
        assert lhv_bound(out) == 4.0

    @pytest.mark.parametrize("text,site,width,mapping,expected", [
        (SVETLICHNY3, 3, 3, SVETLICHNY_MAP,
         "B1*A2*A3*A4*A5 + B1*A2*A3'*A4'*A5' + B1*A2'*A3*A4*A5 - B1*A2'*A3'*A4'*A5' "
         "+ B1'*A2*A3*A4*A5 - B1'*A2*A3'*A4'*A5' - B1'*A2'*A3*A4*A5 - B1'*A2'*A3'*A4'*A5'"),
        # B2 and B2' share one image: the A1 terms cancel, the A1' terms merge
        ("A1*B2 - A1*B2' + 1/3*A1'*B2 + 2/3*A1'*B2' + B2*C3 - 1/2*A1*C3 <= 3", 2, 2,
         {Setting(2, "B"): (Setting(2, "B"), Setting(3, "B")),
          Setting(2, "B", 1): (Setting(2, "B"), Setting(3, "B"))},
         "-1/2*A1*C4 + A1'*B2*B3 + B2*B3*C4"),
    ], ids=["svetlichny", "merge-and-cancel"])
    def test_symbolic_matches_loop_oracle(self, text, site, width, mapping, expected):
        seed = parse(text)
        out = substitute_symbolic(seed, site, width, mapping)
        assert out == loop_substitute_symbolic(seed, site, width, mapping)
        assert expr_text(out) == expected

    @pytest.mark.parametrize("substitute_fn", [substitute_symbolic, loop_substitute_symbolic],
                             ids=["table", "oracle"])
    def test_symbolic_refusals(self, substitute_fn):
        mapping = {Setting(2, "B"): (Setting(2, "B"), Setting(3, "B"))}
        with pytest.raises(SubstitutionError, match="no mapping for B2'"):
            substitute_fn(parse("A1*B2 + A1*B2' <= 2"), 2, 2, mapping)
        with pytest.raises(SubstitutionError, match="supports linear seeds only"):
            substitute_fn(parse("A1*B2 - 1/2*sq(A1*B2) <= 1"), 2, 2, mapping)

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

    @pytest.mark.parametrize("sign,selection", [
        (True, ("all",)), (-1.0, ("all",)), (1, ("subset",)), (1, ("subset", 0, 0)),
        (1, ("subset", -1)), (1, ("subset", True)), (1, ("occ", 0.0, 1)), (1, ("pick", 0)),
        (1, ("all", 0)), (1, ("all", 7)), (1, ()),
    ], ids=["bool-sign", "float-sign", "empty-subset", "repeated-subset", "negative-index",
            "bool-index", "float-occ-index", "unknown-mode", "all-with-index",
            "all-with-far-index", "no-mode"])
    def test_plan_entry_refuses_other_signs_and_selections(self, sign, selection):
        with pytest.raises(SubstitutionError):
            PlanEntry("X", sign, selection)

    @pytest.mark.parametrize("sign,selection", [
        (1, ("all",)), (-1, ("all",)), (1, ("subset", 0)), (-1, ("subset", 3, 0)),
        (1, ("occ", 1, 0)), (1, ("occ", 0)), (1, ("occ",)),
    ])
    def test_plan_entry_keeps_every_valid_form(self, sign, selection):
        assert PlanEntry("X", sign, selection).selection == selection

    @pytest.mark.parametrize("letter", ["XY", "YZ", ""])
    def test_rejects_letter_other_than_x_y_z(self, letter):
        with pytest.raises(SubstitutionError, match="logical letter must be X/Y/Z"):
            PlanEntry(letter)

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

    @pytest.mark.parametrize("letter", ["X", "Y"])
    @pytest.mark.parametrize("enc", [
        *(LogicalEncoding.ghz(n) for n in range(1, 7)),
        LogicalEncoding.cluster_pair(),
        LogicalEncoding.from_basis_pair("0101", "1010"),
    ], ids=[*(f"ghz{n}" for n in range(1, 7)), "cluster", "basis-0101-1010"])
    def test_lifted_state_is_the_amplitude_sum(self, monkeypatch, enc, letter):
        states = []
        value = bounds.quantum_value

        def recording(ast, assignment, state):
            states.append(state)
            return value(ast, assignment, state)

        monkeypatch.setattr(bounds, "quantum_value", recording)
        lift_coherence_witness(0.5, letter, enc)
        amp, phase = 1 / np.sqrt(2), (1.0 if letter == "X" else 1.0j)
        want = amp * enc.zero_l.amplitudes + amp * phase * enc.one_l.amplitudes
        (state,) = states
        assert state.width == enc.width
        assert state.amplitudes.tobytes() == want.astype(complex).tobytes()

    def test_threshold_range(self):
        with pytest.raises(SubstitutionError):
            lift_coherence_witness(1.5, "X", BELL)
        with pytest.raises(SubstitutionError):
            lift_coherence_witness(0.5, "Z", BELL)


CHSH_SYMBOLIC = "A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2"
BELL_STATE = make_pair_superposition("00", "11", R, R)
ORACLE_CASES = {
    "chsh-bell": ("X1*X2 - Y1*Y2 <= 2", 2, BELL, {"X2": "X", "Y2": "Y"}, BELL_STATE, None),
    "chsh-ghz3": ("X1*X2 - Y1*Y2 <= 2", 2, GHZ3, {"X2": "X", "Y2": "Y"}, BELL_STATE, None),
    "mermin3-ghz3": (f"{MERMIN_PAULI} <= 2", 3, GHZ3, {"X3": "X", "Y3": "Y"},
                     ghz_state(3), None),
    "per-occurrence": ("X1*X2 + Y1*X2 <= 2", 2, GHZ3, {"X2": "X"}, BELL_STATE, None),
    "square-term": ("X1*X2 - Y1*Y2 - 1/2*sq(X1*X2 + Y1*Y2) <= 2", 2, BELL,
                    {"X2": "X", "Y2": "-Y"}, BELL_STATE, None),
    "duplicate-rows": ("X1*X2 + X1*Z2 <= 2", 2, GHZ3, {"X2": "X", "Z2": "X"},
                       BELL_STATE, None),
    "symbolic": (CHSH_SYMBOLIC, 2, BELL, {"A2": "X", "A2'": "Z"}, BELL_STATE,
                 {"A1": "(X1+Z1)/sqrt2", "A1'": "(X1-Z1)/sqrt2"}),
    "no-state": ("X1*X2 - Y1*Y2 <= 2", 2, GHZ3, {"X2": "X", "Y2": "Y"}, None, None),
    "square-only": ("X1*X2 + Y1*X2 - 1/2*sq(X1*X2 - Y1*Y2) <= 2", 2, BELL,
                    {"X2": "X", "Y2": "Y"}, BELL_STATE, None),
    # every row's bound has the float bits of lhv_bound of its own expression
    "non-dyadic": ("1/3*X1*X2 - 2/3*Y1*Y2 + 1/3*Z1 <= 1", 2, GHZ3, {"X2": "X", "Y2": "Y"},
                   BELL_STATE, None),
}
# X11's two-image rows use 25 settings, one past the cap
PAST_CAP = " - ".join("*".join(f"{b}{i}" for i in range(1, 11)) + "*X11" for b in "XY") + " <= 2"


def assert_same_search(got, want, exact=True):
    assert [r.expression for r in got] == [pretty_print(r.descendant.ast) for r in want]
    for g, w in zip(got, want):
        assert (g.accepted, g.truncated) == (w.accepted, w.truncated)
        assert g.plan.entries == w.plan.entries
        assert (g.quantum_value is None) == (w.quantum_value is None)
        if exact:
            assert g.lhv_bound.hex() == w.lhv_bound.hex()
            if w.quantum_value is not None:
                assert g.quantum_value.hex() == w.quantum_value.hex()
        else:
            assert g.lhv_bound == pytest.approx(w.lhv_bound, abs=1e-9)
            assert g.quantum_value == pytest.approx(w.quantum_value, abs=1e-9)


class TestSearchOracle:
    """The array search against the per-plan object loop it replaced."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_same_rows_text_and_values(self, case):
        text, site, enc, letters, state, assignment = ORACLE_CASES[case]
        seed = parse(text)
        got = enumerate_descendants(seed, site, enc, letters, seed_state=state,
                                    seed_assignment=assignment)
        want = loop_enumerate_descendants(seed, site, enc, letters, seed_state=state,
                                          seed_assignment=assignment)
        assert got
        assert_same_search(got, want)

    def test_duplicate_rows_are_dropped(self):
        text, site, enc, letters, state, _ = ORACLE_CASES["duplicate-rows"]
        got = enumerate_descendants(parse(text), site, enc, letters, seed_state=state)
        # image multiplicities a + b in {0,1,2}^4 for nonempty subsets a, b:
        # all but the zero vector and the four single-image vectors
        assert len(got) == 3**4 - 1 - 4

    @pytest.mark.parametrize("text,site,enc,letters,state,cap", [
        (f"{MERMIN_PAULI} <= 2", 3, GHZ3, {"X3": "X", "Y3": "Y"}, ghz_state(3), 3),
        (f"{MERMIN_PAULI} <= 2", 3, GHZ3, {"X3": "X", "Y3": "Y"}, ghz_state(3), 100),
        (SIX_SITE, 6, GHZ8, {"X6": "X"}, None, 50),
    ], ids=["3", "100", "six-site-ghz8"])
    def test_truncation_inside_the_product(self, text, site, enc, letters, state, cap):
        seed = parse(text)
        got = enumerate_descendants(seed, site, enc, letters, seed_state=state,
                                    max_assignments=cap)
        want = loop_enumerate_descendants(seed, site, enc, letters, seed_state=state,
                                          max_assignments=cap)
        assert got and all(r.truncated for r in got)
        assert_same_search(got, want)

    def test_non_dyadic_coefficients_close(self):
        seed = parse("1/3*X1*X2 - 2/3*Y1*Y2 + 1/3*Z1 <= 1")
        letters = {"X2": "X", "Y2": "Y"}
        got = enumerate_descendants(seed, 2, GHZ3, letters, seed_state=BELL_STATE)
        want = loop_enumerate_descendants(seed, 2, GHZ3, letters, seed_state=BELL_STATE)
        assert_same_search(got, want, exact=False)

    def test_substitute_matches_fraction_loop_on_every_plan(self):
        seed = parse("X1*X2 + Y1*X2 <= 2")
        selections = list(_plan_selections(len(image_set(GHZ3, "X")), 2))
        assert any(sel[0] == "occ" for sel in selections)
        for sign in (1, -1):
            for sel in selections:
                plan = SubstitutionPlan(2, GHZ3, {Setting(2, "X"): PlanEntry("X", sign, sel)})
                assert substitute(seed, plan) == loop_substitute(seed, plan)

    def test_per_occurrence_plans_skipped_when_the_setting_is_squared(self):
        seed = parse("X1*X2 + Y1*X2 - 1/2*sq(X1*X2) <= 2")
        plan = SubstitutionPlan(2, BELL, {Setting(2, "X"): PlanEntry("X", 1, ("occ", 0, 1))})
        with pytest.raises(SubstitutionError, match="linear part"):
            substitute(seed, plan)
        got = enumerate_descendants(seed, 2, BELL, {"X2": "X"}, seed_state=BELL_STATE)
        want = loop_enumerate_descendants(seed, 2, BELL, {"X2": "X"}, seed_state=BELL_STATE)
        assert len(got) == 3
        assert_same_search(got, want)

    def test_setting_only_in_a_square_is_searched(self):
        text, site, enc, letters, state, _ = ORACLE_CASES["square-only"]
        seed = parse(text)
        got = enumerate_descendants(seed, site, enc, letters, seed_state=state)
        # 3 subsets of X2's images times 3 of Y2's; X2's per-occurrence plans are unusable
        assert len(got) == 9
        for r in got:
            assert r.descendant.ast.with_bound(Fraction(0)) == substitute(seed, r.plan)
            assert r.lhv_bound == lhv_bound_nonlinear(r.descendant)
        with pytest.raises(SubstitutionError, match="misses Y2"):
            enumerate_descendants(seed, site, enc, {"X2": "X"})

    def test_substitute_past_twelve_qubits_matches_fraction_loop(self):
        seed = parse(SIX_SITE)
        selections = [*itertools.islice(_plan_selections(len(image_set(GHZ8, "X")), 2), 40),
                      ("all",), ("occ", 0, 1), ("occ", 127, 5)]
        for sign in (1, -1):
            for sel in selections:
                plan = SubstitutionPlan(6, GHZ8, {Setting(6, "X"): PlanEntry("X", sign, sel)})
                got = substitute(seed, plan)
                assert got.width == 13 and got == loop_substitute(seed, plan)

    def test_search_past_twelve_qubits_refuses_a_lifted_state(self):
        with pytest.raises(CodespaceError, match="lifted width exceeds cap"):
            enumerate_descendants(parse(SIX_SITE), 6, GHZ8, {"X6": "X"},
                                  seed_state=ghz_state(6), max_assignments=50)

    def test_row_blocks_and_chunks_keep_the_bits(self, monkeypatch):
        """Rows of up to eight settings in chunks of 2^3 values: up to 32 chunks a row."""
        text, site, enc, letters, state, _ = ORACLE_CASES["chsh-ghz3"]
        whole = enumerate_descendants(parse(text), site, enc, letters, seed_state=state)
        sizes = []

        def recording_transform(a, transform=bounds.walsh_hadamard):
            sizes.append(a.size)
            return transform(a)

        monkeypatch.setattr(bounds, "walsh_hadamard", recording_transform)
        monkeypatch.setattr(bounds, "_CHUNK_BITS", 3)
        got = enumerate_descendants(parse(text), site, enc, letters, seed_state=state)
        assert len(got) == 225 and max(sizes) == 2**3
        assert_same_search(got, whole)

    def test_rows_past_the_settings_cap_are_refused_as_by_lhv_bound(self):
        seed = parse(PAST_CAP)
        with pytest.raises(BoundError, match="^25 settings exceed cap 24$"):
            enumerate_descendants(seed, 11, GHZ3, {"X11": "X"})
        plan = SubstitutionPlan(11, GHZ3, {Setting(11, "X"): PlanEntry("X", 1, ("subset", 0, 1))})
        with pytest.raises(BoundError, match="^25 settings exceed cap 24$"):
            lhv_bound(substitute(seed, plan))

    @pytest.mark.parametrize("value,sign", [
        ("Y", 1), ("+Y", 1), ("-Y", -1), ((1, "Y"), 1), ([-1, "Y"], -1),
    ])
    def test_letter_map_signs(self, value, sign):
        got = enumerate_descendants(parse("X1*X2 - Y1*Y2 <= 2"), 2, BELL, {"X2": "X", "Y2": value})
        assert {r.plan.entries[Setting(2, "Y")].sign for r in got} == {sign}

    @pytest.mark.parametrize("value", [
        "+-Y", "--Y", "-+Y", "++Y", "y", "", "YY", " Y", "-",
        [2, "Y"], [True, "Y"], [-1.0, "Y"], ["-", "Y"], [-1, "W"], [-1], 5,
    ])
    def test_letter_map_refuses_other_values(self, value):
        with pytest.raises(SubstitutionError, match="^letter map entry Y2: .* not a signed letter"):
            enumerate_descendants(parse("X1*X2 - Y1*Y2 <= 2"), 2, BELL,
                                  {"X2": "X", "Y2": value})

    @pytest.mark.parametrize("key", ["Z7", "X1", Setting(1, "X"), "Z2"])
    def test_letter_map_refuses_keys_off_the_target_settings(self, key):
        with pytest.raises(SubstitutionError, match=re.escape(f"letter map key {key!r} names no")):
            enumerate_descendants(parse("X1*X2 - Y1*Y2 <= 2"), 2, BELL,
                                  {"X2": "X", "Y2": "Y", key: "Z"})

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(SubstitutionError, match="at least 1"):
            enumerate_descendants(parse("X1*X2 <= 1"), 2, BELL, {"X2": "X"},
                                  max_assignments=cap)
