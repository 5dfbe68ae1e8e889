"""Inequality grammar, canonicalization, and Pauli assignment."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_chain
from stabhom.dsl import (
    AssignmentError,
    Inequality,
    InequalityAST,
    ParseError,
    Setting,
    _pauli_sums,
    _resolve_assignment,
    assign_paulis,
    load_ineq_text,
    parse,
    parse_observable,
    pretty_print,
)
from stabhom.states import assemble_operator


class TestGrammar:
    def test_chsh(self):
        ineq = parse("A1*(A2+A2') + A1'*(A2-A2') <= 2")
        assert len(ineq.ast.linear) == 4
        assert ineq.ast.bound == 2
        assert ineq.ast.relation == "<="
        assert pretty_print(ineq) == "A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2"

    def test_fixed_pauli(self):
        ineq = parse("X1*X2 - Y1*Y2 <= 1")
        assert len(ineq.ast.linear) == 2
        assert all(s.is_fixed_pauli for s in ineq.ast.settings)

    def test_duplicate_site(self):
        with pytest.raises(ParseError):
            parse("X1*X1' <= 1")

    def test_nested_square(self):
        with pytest.raises(ParseError):
            parse("sq(A1 + sq(A2)) <= 1")

    def test_square_cannot_multiply(self):
        with pytest.raises(ParseError):
            parse("A1*sq(A2) <= 1")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("A1*A2 + % <= 1")
        assert err.value.position == 8

    def test_identity_witness_term(self):
        ineq = parse("1 <= 1")
        assert pretty_print(ineq) == "1 <= 1"
        ineq2 = parse("-1 - X1*X2 - Y1*Y2 - Z1*Z2 <= 0")
        assert len(ineq2.ast.linear) == 4
        assert pretty_print(ineq2) == "-1 - X1*X2 - Y1*Y2 - Z1*Z2 <= 0"

    def test_rational_coefficients(self):
        ineq = parse("3/2*A1*A2 - 0.25*A1'*A2 <= 1/2")
        coeffs = {c for c, _ in ineq.ast.linear}
        assert Fraction(3, 2) in coeffs and Fraction(-1, 4) in coeffs
        assert ineq.ast.bound == Fraction(1, 2)
        # decimals are exact at any number of places: none is dropped or rounded
        small = parse("0.0000001*X1 + X2 <= 1")
        assert small.ast.linear[0] == (Fraction(1, 10**7), (Setting(1, "X"),))
        assert pretty_print(small) == "1/10000000*X1 + X2 <= 1"
        (c, _), = parse("0.12345678*X1*X2 <= 1").ast.linear
        assert c == Fraction(12345678, 10**8)

    def test_square_terms(self):
        ineq = parse("X1*X2 - 1/2*sq(X1 + X2) <= 1")
        assert len(ineq.ast.squares) == 1
        c, sub = ineq.ast.squares[0]
        assert c == Fraction(-1, 2)
        assert len(sub) == 2

    def test_like_terms_collapse(self):
        ineq = parse("A1*A2 + A1*A2 - 2*A1*A2 + A1 <= 1")
        assert len(ineq.ast.linear) == 1

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            parse("0*A1 <= 1")


class TestCanonical:
    def test_idempotent(self):
        texts = [
            "A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2",
            "X1*X2 - Y1*Y2 <= 1",
            "X1*X2 + Y1*Y2 + Z1*Z2 - 1/2*sq(X1 + X2) - 1/2*sq(Y1 + Y2) <= 1",
        ]
        for text in texts:
            once = pretty_print(parse(text))
            assert pretty_print(parse(once)) == once

    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3).filter(bool),
                st.lists(
                    st.tuples(st.integers(1, 4), st.sampled_from("ABXY"),
                              st.integers(0, 2)),
                    min_size=1, max_size=3,
                    unique_by=lambda t: t[0],
                ),
            ),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_random_round_trip(self, raw_terms):
        linear = {}
        for coeff, mono in raw_terms:
            key = tuple(sorted(Setting(site, base, primes)
                               for site, base, primes in mono))
            linear[key] = linear.get(key, Fraction(0)) + Fraction(coeff)
        terms = tuple(sorted(
            ((c, m) for m, c in linear.items() if c != 0),
            key=lambda t: tuple((s.site, s.base, s.primes) for s in t[1]),
        ))
        if not terms:
            return
        ast = InequalityAST(terms, (), "<=", Fraction(1))
        text = pretty_print(ast)
        assert pretty_print(parse(text).ast) == text


class TestIneqFiles:
    def test_headers_and_comments(self):
        text = "\n".join([
            "# a comment",
            "name: demo",
            "provenance: test file",
            "A1*A2 - A1'*A2' <= 2",
        ])
        ineq = load_ineq_text(text)
        assert ineq.name == "demo"
        assert ineq.provenance == "test file"
        assert len(ineq.ast.linear) == 2

    def test_dump_round_trip(self):
        ineq = parse("X1*X2 - Y1*Y2 <= 1", name="wit", provenance="demo")
        text = "name: wit\nprovenance: demo\n" + pretty_print(ineq) + "\n"
        again = load_ineq_text(text)
        assert (again.name, again.provenance) == ("wit", "demo")
        assert pretty_print(again) == pretty_print(ineq)
        # the printed form is a fixed point of parse-and-print
        assert pretty_print(parse(pretty_print(again))) == pretty_print(again)

    def test_two_expressions_rejected(self):
        with pytest.raises(ParseError):
            load_ineq_text("A1 <= 1\nA2 <= 1")


class TestAssignment:
    MERMIN = "A1*A2*A3 + A1'*A2'*A3 + A1*A2'*A3' - A1'*A2*A3' <= 2"
    MAP = {"A1": "X1", "A1'": "-Y1", "A2": "X2", "A2'": "Y2",
           "A3": "X3", "A3'": "-Y3"}

    def test_mermin_assignment(self):
        opex = assign_paulis(parse(self.MERMIN).ast, self.MAP)
        got = {(round(c, 9), str(s)) for c, s in opex.linear}
        assert got == {
            (1.0, "+X1X2X3"), (-1.0, "+X1Y2Y3"), (-1.0, "+Y1X2Y3"), (-1.0, "+Y1Y2X3"),
        }

    def test_identity_on_fixed_pauli(self):
        ast = parse("X1*X2 - Y1*Y2 <= 1").ast
        opex = assign_paulis(ast, {})
        assert {(c, str(s)) for c, s in opex.linear} == {
            (1.0, "+X1X2"), (-1.0, "+Y1Y2"),
        }

    def test_missing_assignment(self):
        with pytest.raises(AssignmentError):
            assign_paulis(parse("A1*A2 <= 1").ast, {"A1": "X1"})

    def test_rotated_observables(self):
        obs = parse_observable("(X1+Z1)/sqrt2")
        assert obs == ((pytest.approx(2**-0.5), "X"), (pytest.approx(2**-0.5), "Z"))
        with pytest.raises(AssignmentError):
            parse_observable("(X1+X1)/sqrt2")  # same letter twice

    def test_rejects_unnormalised(self):
        with pytest.raises(AssignmentError):
            assign_paulis(parse("A1 <= 1").ast, {"A1": ((0.5, "X"), (0.5, "Z"))})

    def test_expand_then_assign_matches_assign_then_expand(self):
        # matrix-level agreement between the factored and expanded forms
        factored = parse("A1*(A2+A2') + A1'*(A2-A2') <= 2")
        expanded = parse("A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2")
        amap = {"A1": "(X1-Y1)/sqrt2", "A1'": "(X1+Y1)/sqrt2", "A2": "X2", "A2'": "Y2"}
        m1 = assemble_operator(assign_paulis(factored.ast, amap).linear, 2)
        m2 = assemble_operator(assign_paulis(expanded.ast, amap).linear, 2)
        assert np.abs(m1 - m2).max() < 1e-12

    def test_square_terms_expand(self):
        ast = parse("X1*X2 - 1/2*sq(X1 + X2) <= 1").ast
        opex = assign_paulis(ast, {})
        assert len(opex.squares) == 1
        c, sub = opex.squares[0]
        assert c == -0.5 and len(sub) == 2

    def test_array_coefficients_expand_row_by_row(self):
        # the descendant search expands one coefficient column per monomial;
        # each row must carry the bits of the scalar expansion of its own terms
        ast = parse("A1*A2 + A1*A2' + 1/3*A1'*A2 - A1'*A2' + 2/7*A2 - 1 <= 2").ast
        amap = {"A1": "(X1-Y1)/sqrt2", "A1'": "(X1+Z1)/sqrt2",
                "A2": "X2", "A2'": "(Y2-Z2)/sqrt2"}
        table = _resolve_assignment(ast.settings, amap)
        monos = [mono for _, mono in ast.linear]
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(6, len(monos)))
        coeffs[1, :3] = 0.0
        coeffs[2] = [float(c) for c, _ in ast.linear]
        stacked = _pauli_sums([(coeffs[:, j], m) for j, m in enumerate(monos)], table, 2)
        assert len(stacked) == 11
        for r, row in enumerate(coeffs):
            scalar = _pauli_sums([(float(c), m) for c, m in zip(row, monos)], table, 2)
            assert [s for _, s in scalar] == [s for _, s in stacked]
            want = np.array([c for c, _ in scalar]).tobytes()
            assert np.array([c[r] for c, _ in stacked]).tobytes() == want, r
