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

BIG = "1" + "0" * 400  # past the largest float, about 1.8e308


def field_key(mono):
    """A monomial's order spelled out field by field: the oracle for native tuple order."""
    return tuple((s.site, s.base, s.primes) for s in mono)


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

    @pytest.mark.parametrize("text", [
        f"{BIG}*X1*X2 + Y1*Y2 <= 1",  # a coefficient
        f"X1 - {BIG}*sq(X2) <= 1",  # a square coefficient
        f"X1 - sq({BIG}*X2) <= 1",  # a coefficient inside a square
        f"X1 <= {BIG}",  # the bound
        f"10{'0' * 200}*X1*10{'0' * 200} <= 1",  # a product of two finite numbers
    ], ids=["coefficient", "square-coefficient", "inside-square", "bound", "product"])
    def test_refuses_numbers_past_the_float_range(self, text):
        with pytest.raises(ParseError, match="too large for a float"):
            parse(text)

    def test_keeps_numbers_that_cancel_or_underflow(self):
        assert parse(f"{BIG}*X1 - {BIG}*X1 + X2 <= 1") == parse("X2 <= 1")
        assert float(parse(f"1/{BIG}*X1 <= 1").ast.linear[0][0]) == 0.0

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("A1*A2 + % <= 1")
        assert err.value.position == 8

    @pytest.mark.parametrize("text,position,message", [
        ("X0*Y1 <= 1", 0, "site must be >= 1"),
        ("X1*X2 <= 1/0", 11, "fraction denominator must not be zero"),
        ("1/0*X1 <= 1", 2, "fraction denominator must not be zero"),
        ("X1*X2 <= 1/0.5", 11, "fraction denominator must be integer"),
    ], ids=["site-zero", "zero-bound-denominator", "zero-coefficient-denominator",
            "decimal-denominator"])
    def test_refusal_carries_position(self, text, position, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert err.value.position == position

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


def poly_times(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out[tuple(sorted(ma + mb))] = ca * cb
    return out


@st.composite
def products(draw):
    """(text, sign, polynomial, polynomial inside its sq(...) or None) of one product.

    The factors are numbers, settings on distinct sites, parenthesised sums and at
    most one sq(...), which then has only numbers beside it.  They are joined by
    ``*`` or, before anything but a number, by juxtaposition.
    """
    sites = iter(draw(st.permutations(range(1, 10))))
    numbers = st.sampled_from([("1", Fraction(1)), ("2", Fraction(2)), ("3", Fraction(3)),
                               ("1/2", Fraction(1, 2)), ("0.25", Fraction(1, 4))])

    def setting():
        return Setting(next(sites), draw(st.sampled_from("ABXYZ")), draw(st.integers(0, 1)))

    def group():
        # a sum over fresh sites: distinct monomials with nonzero integer coefficients
        own = [setting() for _ in range(draw(st.integers(1, 2)))]
        monos = draw(st.lists(st.lists(st.sampled_from(own), unique=True, max_size=2)
                              .map(lambda m: tuple(sorted(m))),
                              min_size=1, max_size=3, unique=True))
        poly, chunks = {}, []
        for mono in monos:
            c = draw(st.integers(-3, 3).filter(bool))
            body = "*".join(s.text() for s in mono)
            chunks.append(("- " if c < 0 else "+ ") + (f"{abs(c)}*{body}" if mono else str(abs(c))))
            poly[mono] = Fraction(c)
        return "(" + " ".join(chunks) + ")", poly

    square = draw(st.booleans())
    factors = []  # (text, polynomial, is a number)
    for _ in range(draw(st.integers(0 if square else 1, 4))):
        kind = "number" if square else draw(st.sampled_from(["number", "setting", "group"]))
        if kind == "number":
            text, value = draw(numbers)
            factors.append((text, {(): value}, True))
        elif kind == "setting":
            s = setting()
            factors.append((s.text(), {(s,): Fraction(1)}, False))
        else:
            factors.append((*group(), False))
    inner = None
    if square:
        text, inner = group()
        factors.insert(draw(st.integers(0, len(factors))), ("sq" + text, {(): Fraction(1)}, False))
    text, product = factors[0][0], factors[0][1]
    for factor_text, poly, is_number in factors[1:]:
        joins = ["*", " * "] + ([] if is_number else [" ", ""])
        text += draw(st.sampled_from(joins)) + factor_text
        product = poly_times(product, poly)
    return text, draw(st.sampled_from([1, -1])), product, inner


class TestFactorRule:
    """A term is a product of factors: numbers, settings, ``( expr )`` and ``sq( expr )``."""

    @pytest.mark.parametrize("text", [
        "X1*-Z3", "Y2*-1/2", "A1*+B2", "X1*X2 *", "(B2*)",  # "*" with no factor after it
        "sq(X1 + X2) X3", "-1/2*sq(X1 + X2) (Y1 + Y2)",  # a factor right after sq(...)
    ])
    def test_refuses_dangling_star_and_factor_after_square(self, text):
        with pytest.raises(ParseError):
            parse(text + " <= 1")

    @pytest.mark.parametrize("text,same", [
        ("X1*2", "2*X1"), ("2*3*X1", "6*X1"), ("sq(X1)*1/2", "1/2*sq(X1)"),
    ])
    def test_number_after_star(self, text, same):
        assert parse(text + " <= 1").ast == parse(same + " <= 1").ast

    @given(products())
    @settings(max_examples=300)
    def test_random_products_expand_as_built(self, case):
        text, sign, product, inner = case
        ast = parse(("-" if sign < 0 else "") + text + " <= 1").ast
        if inner is None:
            assert ast.squares == ()
            assert {m: c for c, m in ast.linear} == {m: sign * c for m, c in product.items()}
        else:
            (coeff, sub), = ast.squares
            assert ast.linear == ()
            assert coeff == sign * product[()]
            assert {m: c for c, m in sub} == inner


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
            ((c, m) for m, c in linear.items() if c != 0), key=lambda t: field_key(t[1])))
        if not terms:
            return
        ast = InequalityAST(terms, (), "<=", Fraction(1))
        text = pretty_print(ast)
        assert pretty_print(parse(text).ast) == text


any_setting = st.builds(Setting, st.integers(1, 12), st.sampled_from("ABXYZ"), st.integers(0, 2))


class TestSetting:
    """A setting is the tuple of its fields; a monomial is a tuple of settings."""

    @given(st.lists(st.lists(any_setting, max_size=4).map(tuple), min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_native_order_hash_and_equality_follow_the_fields(self, monos):
        assert sorted(monos) == sorted(monos, key=field_key)
        for mono in monos:
            assert hash(mono) == hash(field_key(mono)) and mono == field_key(mono)
        a, b = monos[0], monos[1]
        assert (a == b) == (field_key(a) == field_key(b))

    @pytest.mark.parametrize("site,base,message", [
        (0, "X", "site must be >= 1"),
        (1, "x", "base must be a single uppercase letter"),
        (1, "XY", "base must be a single uppercase letter"),
    ])
    def test_constructor_refuses_bad_fields(self, site, base, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Setting(site, base)

    @given(any_setting)
    def test_never_equals_its_text(self, s):
        assert s != s.text() and s.text() not in {s}


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
