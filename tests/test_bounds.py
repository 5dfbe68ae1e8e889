"""Classical, separable, hybrid, and quantum bound re-derivation."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIGMA,
    column_chunked_values,
    loop_cq_states,
    loop_discord_correlators,
    loop_mixture_max,
    loop_quantum_value,
    loop_separable_bound,
    naive_lhv,
    naive_strategy_points,
    nonlinear_sampling_lower_bound,
    separable_grid_max,
    solve_face_max,
    xy_chain,
)
from stabhom import bounds, catalog
from stabhom.bounds import (
    BoundError,
    algebraic_bound,
    discord_condition_check,
    hybrid_bound,
    lhv_bound,
    lhv_bound_nonlinear,
    lhv_strategy,
    quantum_max,
    quantum_value,
    separable_bound,
    separable_terms,
)
from stabhom.catalog import load_catalog
from stabhom.config import LIMITS
from stabhom.dsl import InequalityAST, Setting, assign_paulis, parse, pretty_print
from stabhom.pauli import PauliString, walsh_hadamard
from stabhom.states import (
    DensityOperator,
    StateVector,
    assemble_operator,
    ghz_state,
    make_cq_state,
    make_pair_superposition,
    max_eigenvalue,
)

R = 2**-0.5

CHSH = "A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2"
MERMIN = "A1*A2*A3 + A1'*A2'*A3 + A1*A2'*A3' - A1'*A2*A3' <= 2"
TWO_SQUARES = "A1*A2 + B1*B2 - 1/2*sq(A1 + A2) - 1/2*sq(B1 - B2) <= 9"
# the 20-setting cap input with a second square over the Y settings
CAP_TWO_SQUARES = xy_chain(10).replace(
    " <= ", " - 1/4*sq(" + "+".join(f"Y{i}" for i in range(1, 11)) + ") <= "
)


def term(letters, coeff=1.0):
    return coeff, PauliString.from_letters(letters)


def loop_envelope(ast) -> float:
    """The loop oracle's mixture maximum over the library's strategy points."""
    return loop_mixture_max(bounds._strategy_points(ast), [float(c) for c, _ in ast.squares])


def random_nonlinear_text(rng) -> str:
    """2-6 settings on three sites, rational terms and one or two negative squares."""
    pool = ["A1", "A1'", "A2", "A2'", "A3", "A3'"]

    def coeff():
        return f"{rng.integers(1, 5)}/{rng.integers(1, 5)}"

    def monomial(settings):
        by_site = {}
        for s in rng.permutation(settings)[: rng.integers(1, 4)]:
            by_site.setdefault(s[:2], s)  # one setting per site in a product
        return "*".join(sorted(by_site.values()))

    while True:
        settings = rng.permutation(pool)[: rng.integers(2, 7)]
        linear = " ".join(f"{rng.choice(['+', '-'])} {coeff()}*{monomial(settings)}"
                          for _ in range(rng.integers(1, 5)))
        squares = " ".join(
            "- {}*sq({})".format(coeff(), " + ".join(f"{coeff()}*{monomial(settings)}"
                                                    for _ in range(rng.integers(1, 4))))
            for _ in range(rng.integers(1, 3))
        )
        text = f"{linear} {squares} <= 1"
        if len(parse(text).ast.settings) >= 2:
            return text


def signed_sum(terms) -> str:
    """Text of a sum of (c, body) terms, where body is the term with |c| as its factor."""
    text = "".join(f" {'-' if c < 0 else '+'} {body}" for c, body in terms)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


@st.composite
def envelope_texts(draw):
    """Up to 8 settings (A or B on sites 1-4), integer coefficients from -3 to 3,
    constants allowed, and one or two negative squares."""
    def term(min_sites):
        c = draw(st.integers(-3, 3).filter(bool))
        sites = sorted(draw(st.lists(st.integers(1, 4), min_size=min_sites, max_size=3,
                                     unique=True)))
        mono = "*".join(f"{draw(st.sampled_from('AB'))}{site}" for site in sites)
        return c, f"{abs(c)}*{mono}" if mono else str(abs(c))

    terms = [term(0) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(1, 2))):
        inner = signed_sum([term(draw(st.integers(0, 1))) for _ in range(draw(st.integers(1, 3)))])
        k = draw(st.integers(1, 3))
        terms.insert(draw(st.integers(0, len(terms))), (-k, f"{k}*sq({inner})"))
    return signed_sum(terms) + " <= 1"


class TestLhv:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (CHSH, 2.0),
            (MERMIN, 2.0),
            ("X1*X2 - Y1*Y2 <= 1", 2.0),
            ("A1 <= 1", 1.0),
        ],
    )
    def test_known_bounds(self, text, expected):
        assert lhv_bound(parse(text)) == expected

    def test_strategy_certificate(self):
        value, strategy = lhv_strategy(parse(CHSH))
        assert value == 2.0
        ast = parse(CHSH).ast
        total = sum(
            float(c) * np.prod([strategy[s] for s in mono]) for c, mono in ast.linear
        )
        assert total == pytest.approx(2.0)

    def test_matches_naive_oracle_on_catalog(self):
        for fx in load_catalog():
            ineq = fx.inequality
            if ineq is None or not ineq.ast.is_linear:
                continue
            if len(ineq.ast.settings) > 12:
                continue
            assert lhv_bound(ineq) == pytest.approx(naive_lhv(ineq), abs=1e-12), fx.name

    def test_rejects_square_terms(self):
        with pytest.raises(BoundError):
            lhv_bound(parse("A1 - 1/2*sq(A1) <= 1"))

    def test_capacity(self):
        text = " + ".join(f"A{i}" for i in range(1, 26)) + " <= 1"
        with pytest.raises(BoundError):
            lhv_bound(parse(text))

    def test_strategy_rejects_square_terms(self):
        with pytest.raises(BoundError, match="--kind nonlinear"):
            lhv_strategy(parse("A1 - 1/2*sq(A1) <= 1"))

    def test_strategy_capacity_checked_before_enumeration(self, monkeypatch):
        def enumerate_all(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(bounds, "_chunked_values", enumerate_all)
        text = " + ".join(f"A{i}" for i in range(1, 26)) + " <= 1"
        with pytest.raises(BoundError, match="exceed cap"):
            lhv_strategy(parse(text))

    def test_mermin_10_party(self):
        terms = [
            ("-" if letters.count("Y") % 4 else "+")
            + "*".join(f"A{i + 1}" + ("'" if ch == "Y" else "") for i, ch in enumerate(letters))
            for letters in itertools.product("XY", repeat=10)
            if letters.count("Y") % 2 == 0
        ]
        ineq = parse(" ".join(terms) + " <= 32")
        assert len(ineq.ast.settings) == 20 and len(ineq.ast.linear) == 512
        assert lhv_bound(ineq) == 2.0**5


def indexed_lists(ast):
    """Each part's (float coefficient, setting indices) terms, linear part first."""
    index = {s: k for k, s in enumerate(ast.settings)}
    parts = [ast.linear] + [sub for _, sub in ast.squares]
    return [[(float(c), tuple(index[s] for s in mono)) for c, mono in terms] for terms in parts]


def random_lists(rng, n_settings, coefficients, count=2):
    """Term lists of random setting subsets (the empty one included)."""
    lists = []
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(1, 2 * n_settings + 2))):
            sel = tuple(int(k) for k in np.flatnonzero(rng.integers(0, 2, n_settings)))
            terms.append((float(rng.choice(coefficients)), sel))
        lists.append(terms)
    return lists


def chunk_pairs(lists, n_settings):
    """(kernel row, oracle values) per term list and chunk.

    The kernel takes every list at once, each term on its own column, and
    its row blocks are joined per chunk.
    """
    coeffs = np.zeros((len(lists), sum(map(len, lists))))
    masks = []
    for row, terms in zip(coeffs, lists):
        row[len(masks):len(masks) + len(terms)] = [c for c, _ in terms]
        masks += [sum(1 << k for k in sel) for _, sel in terms]
    chunks = {}
    for _, start, values in bounds._chunked_values(coeffs, masks, n_settings):
        chunks.setdefault(start, []).extend(values)
    got = list(chunks.items())
    want = list(column_chunked_values(lists, n_settings))
    assert [start for start, _ in got] == [start for start, _ in want]
    return [(g, w) for (_, gs), (_, ws) in zip(got, want) for g, w in zip(gs, ws)]


class TestStrategyKernel:
    """``_chunked_values`` (Walsh-Hadamard) against the +-1 column oracle."""

    def test_fixture_term_lists_byte_equal(self):
        for fx in load_catalog():
            if fx.inequality is None:
                continue
            ast = fx.inequality.ast
            for g, w in chunk_pairs(indexed_lists(ast), len(ast.settings)):
                assert g.tobytes() == w.tobytes(), fx.name

    def test_random_dyadic_byte_equal_across_chunks(self, monkeypatch):
        monkeypatch.setattr(bounds, "_CHUNK_BITS", 3)
        rng = np.random.default_rng(404)
        for n in range(1, 15):
            lists = random_lists(rng, n, (1.0, -1.0, 0.5, -0.5))
            for g, w in chunk_pairs(lists, n):
                assert g.tobytes() == w.tobytes(), n

    @pytest.mark.parametrize("chunk_bits", [20, 3])
    def test_random_non_dyadic_close(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(bounds, "_CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(405)
        for n in range(1, 11):
            lists = random_lists(rng, n, (1 / 3, -1 / 3, R, -R))
            for g, w in chunk_pairs(lists, n):
                assert np.abs(g - w).max() <= 1e-12, n

    @pytest.mark.parametrize("chunk_bits", [20, 3])
    def test_strategy_is_oracle_first_argmax(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(bounds, "_CHUNK_BITS", chunk_bits)
        for fx in load_catalog():
            if fx.inequality is None or not fx.inequality.ast.is_linear:
                continue
            ast = fx.inequality.ast
            values = np.concatenate(
                [vals for _, (vals,) in column_chunked_values(indexed_lists(ast), len(ast.settings))]
            )
            k = int(values.argmax())
            want = {s: 1 - 2 * ((k >> j) & 1) for j, s in enumerate(ast.settings)}
            assert lhv_strategy(ast) == (values[k], want), fx.name


class TestRowBlocks:
    """Rows split into blocks and strategies into chunks keep each row's own bits."""

    @staticmethod
    def record_blocks(monkeypatch):
        seen = []

        def recording(*args, chunked=bounds._chunked_values):
            for r, start, values in chunked(*args):
                seen.append((r, start))
                yield r, start, values

        monkeypatch.setattr(bounds, "_chunked_values", recording)
        return seen

    def test_row_maxima_equal_one_row_strategies(self, monkeypatch):
        rng = np.random.default_rng(2611)
        # every monomial on A or B at sites 1-3
        universe = sorted(tuple(Setting(site, base) for site, base in enumerate(bases, 1) if base)
                          for bases in itertools.product(("", "A", "B"), repeat=3))[1:]
        exact = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                  * bool(rng.random() < 0.4) for _ in universe] for _ in range(9)]
        for row in exact[:5]:  # five rows on all six settings, the rest on what they draw
            for mono in ((Setting(1, "A"), Setting(2, "A"), Setting(3, "A")),
                         (Setting(1, "B"), Setting(2, "B"), Setting(3, "B"))):
                row[universe.index(mono)] = Fraction(1, 3)
        coeffs = np.array([[float(c) for c in row] for row in exact])
        seen = self.record_blocks(monkeypatch)
        monkeypatch.setattr(bounds, "_CHUNK_BITS", 3)
        best, arg, _ = bounds._row_maxima(coeffs, universe)
        assert len({r for r, _ in seen}) >= 3 and len({start for _, start in seen}) >= 2
        for row, top, k in zip(exact, best.tolist(), arg.tolist()):
            ast = InequalityAST(tuple((c, m) for c, m in zip(row, universe) if c), (), "<=", 0)
            value, strategy = lhv_strategy(ast)
            assert top.hex() == value.hex()
            assert {s: 1 - 2 * ((k >> j) & 1) for j, s in enumerate(ast.settings)} == strategy

    def test_folded_values_equal_naive_points(self, monkeypatch):
        text = ("A1*A2 - A1'*A2' + 1/3*A1*A3 - 1/2*sq(A1 + A2') - 1/3*sq(A1' - A2)"
                " - 1/4*sq(A1 + A1' + 2/3*A2) <= 1")
        ast = parse(text).ast
        seen = self.record_blocks(monkeypatch)
        monkeypatch.setattr(bounds, "_CHUNK_BITS", 3)
        assert bounds._strategy_points(ast) == naive_strategy_points(ast)
        moments = seen[-6:]  # three square rows of 2^4 values, one row a block, two chunks
        assert [r for r, _ in moments] == [0, 0, 1, 1, 2, 2]
        assert [start for _, start in moments] == [0, 8] * 3


class TestNonlinear:
    def test_single_variable_calculus(self):
        assert lhv_bound_nonlinear(parse("A1 - 1/2*sq(A1) <= 1")) == pytest.approx(0.5)

    def test_linear_routed(self):
        assert lhv_bound_nonlinear(parse(CHSH)) == lhv_bound(parse(CHSH))

    def test_rejects_positive_square(self):
        with pytest.raises(BoundError):
            lhv_bound_nonlinear(parse("A1 + sq(A1) <= 1"))

    @pytest.mark.parametrize("chunk_bits", [20, 3, 1])
    def test_strategy_points_match_naive_oracle(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(bounds, "_CHUNK_BITS", chunk_bits)
        texts = (
            TWO_SQUARES,
            "A1*A2 - 1/2*sq(A1) <= 2",
            "A1 - 1/2*sq(A1 + 1) <= 1",
            # squared A1, A2' sort between the free A1', A2; terms mix both kinds
            "A1*A2 + A1'*A2' + A1*A2' - A1'*A2 - 1/2*sq(A1 + A2') <= 2",
            # free settings only in linear terms
            "A1*A2 + B1*B2 + C1 - 1/2*sq(A1 - A2) <= 3",
            "-1/2*sq(A1 + A2) <= 0",  # no linear part
            "A1 - 1/2*sq(1) <= 1",  # no squared setting: q = 0
            # two squares sharing A2, q = 5 of 8 settings: chunks of 2^3 and
            # 2^1 are narrower than the square assignments
            "A1*A2*A3 + A1'*A2'*A3 + A1*A2'*A3' - A1'*A2*A3' + B1*B3"
            " - 1/2*sq(A1 + A2 + A3') - 1/4*sq(A2 - A1' + A3) <= 4",
            # C3 is coupled to the squared A1 only through B2
            "A1*B2 - B2*C3 + C3 - 1/2*sq(A1) <= 2",
            # two independent components, {B1, B2} and {C1, C3}
            "A1*A2 + B1*B2 - B1 - C1*C3 + 2*C3 - 1/2*sq(A1 - A2) <= 5",
            "A1*A2 - 3 + B1 - 1/2*sq(A1 + A2) <= 1",  # a constant term
            # every free setting is coupled: no independent block
            "A1*A2 + A1'*A2 - A1'*A2' - 1/2*sq(A1 + A2') <= 2",
        )
        for text in texts:
            ast = parse(text).ast
            assert bounds._strategy_points(ast) == naive_strategy_points(ast), text

    def test_nonlinear6_transforms_moments_over_square_settings(self, monkeypatch):
        """18 settings, 12 inside the squares and 6 sharing no term with them:
        the coupled linear part and the moments take 2^12 values, the
        independent linear part 2^6."""
        ast = {f.name: f for f in load_catalog()}["nonlinear6"].inequality.ast
        shapes, grouped = [], []

        def recording_transform(a):
            shapes.append(a.shape)
            return walsh_hadamard(a)

        def recording_group(moments, values, group=bounds._group_max):
            grouped.append(len(values))
            return group(moments, values)

        monkeypatch.setattr(bounds, "walsh_hadamard", recording_transform)
        monkeypatch.setattr(bounds, "_group_max", recording_group)
        bounds._strategy_points(ast)
        assert shapes == [(1, 2**12), (1, 2**6), (2, 2**12)]
        assert grouped == [4096]

    @given(envelope_texts())
    @settings(max_examples=200, deadline=None)
    def test_random_strategy_points_equal_naive_oracle(self, text):
        ast = parse(text).ast
        assert bounds._strategy_points(ast) == naive_strategy_points(ast), text

    def test_settings_cap(self, monkeypatch):
        assert len(parse(xy_chain(10)).ast.settings) == LIMITS.max_nonlinear_settings == 20
        assert lhv_bound_nonlinear(parse(xy_chain(10))) == pytest.approx(18.0, abs=1e-9)

        def enumerate_all(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(bounds, "_chunked_values", enumerate_all)
        for text in ("Z11 + " + xy_chain(10), xy_chain(11)):
            with pytest.raises(BoundError, match="settings exceed nonlinear cap 20"):
                lhv_bound_nonlinear(parse(text))

    def test_nonlinear6_points_independent_of_chunking(self, monkeypatch):
        ast = {f.name: f for f in load_catalog()}["nonlinear6"].inequality.ast
        whole = bounds._strategy_points(ast)
        monkeypatch.setattr(bounds, "_CHUNK_BITS", 10)
        assert bounds._strategy_points(ast) == whole

    def test_two_squares_vs_sampling(self):
        text = TWO_SQUARES
        env = lhv_bound_nonlinear(parse(text))
        low = nonlinear_sampling_lower_bound(parse(text), samples=2000)
        assert env >= low - 1e-9
        assert env == pytest.approx(low, abs=1e-6)

    def test_mixture_beats_deterministic(self):
        # E[A1] = 0 mixtures kill the penalty while keeping E[A1*A2] = 1
        text = "A1*A2 - 1/2*sq(A1) <= 2"
        ast = parse(text)
        assert lhv_bound_nonlinear(ast) == pytest.approx(1.0)
        assert naive_lhv(ast) == pytest.approx(0.5)

    def test_nonlinear6_envelope(self):
        fx = {f.name: f for f in load_catalog()}["nonlinear6"]
        env = lhv_bound_nonlinear(fx.inequality)
        assert env == 24.0
        assert env == pytest.approx(loop_envelope(fx.inequality.ast), abs=1e-12)
        low = nonlinear_sampling_lower_bound(fx.inequality, samples=10_000)
        assert env >= low - 1e-9
        assert env == pytest.approx(low, abs=1e-6)

    @pytest.mark.parametrize("text", [xy_chain(10), CAP_TWO_SQUARES], ids=["one", "two"])
    def test_cap_inputs_match_loop_oracle(self, text):
        ast = parse(text).ast
        env = lhv_bound_nonlinear(ast)
        assert env == pytest.approx(18.0, abs=1e-9)
        assert env == pytest.approx(loop_envelope(ast), abs=1e-12)

    @pytest.mark.parametrize("text", [
        # equal sub-expressions: the moments are collinear, every triple singular
        "A1*A2 + A1'*A2' - A1*A2' - 1/2*sq(A1 + A2) - 1/4*sq(A1 + A2) <= 2",
        "A1*A2 + A1' - 1/2*sq(A1 - A2) - 1/4*sq(1) <= 2",  # constant-only square
        "A1*A2 + A1'*A2 - 1/2*sq(A1 + A2) - 0*sq(A1' - A2) <= 2",  # zero coefficient
        "A1*A2 + A1' - 0*sq(A1 + A2) <= 2",
        "A1*A2 - 1/3*sq(2) <= 1",
    ], ids=["collinear", "constant", "zero-coefficient", "zero-only", "constant-only"])
    def test_degenerate_squares_match_loop_oracle(self, text):
        ast = parse(text).ast
        assert lhv_bound_nonlinear(ast) == pytest.approx(loop_envelope(ast), abs=1e-12)

    def test_random_inputs_match_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(150):
            ast = parse(random_nonlinear_text(rng)).ast
            assert 2 <= len(ast.settings) <= 6 and 1 <= len(ast.squares) <= 2
            assert lhv_bound_nonlinear(ast) == pytest.approx(loop_envelope(ast), abs=1e-12), \
                pretty_print(ast)


class TestHybrid:
    def test_svetlichny_forms(self):
        cat = {f.name: f for f in load_catalog()}
        assert hybrid_bound(cat["svetlichny3"].inequality) == 4.0
        assert hybrid_bound(cat["svetlichny-desc-5"].inequality) == 4.0

    def test_trivial_grouping_reduces_to_lhv(self):
        assert hybrid_bound(parse(CHSH)) == 2.0


class TestSeparable:
    def test_isotropic(self):
        res = separable_bound([term("XX"), term("YY"), term("ZZ")])
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_witness_pair(self):
        res = separable_bound([term("XX"), term("YY", -1.0)])
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_negated_optimal_witness(self):
        terms = [term("II", -1.0), term("XX", -1.0), term("YY", -1.0), term("ZZ", -1.0)]
        assert separable_bound(terms).value == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_oracle(self):
        from stabhom.pauli import to_matrix

        for letters in (("XX", "YY", "ZZ"), ("XX", "YY")):
            terms = [term(l) if l != "YY" else term(l, -1.0) for l in letters]
            grid = separable_grid_max([
                (c,
                 to_matrix(PauliString.from_letters(s.letters[0])),
                 to_matrix(PauliString.from_letters(s.letters[1])))
                for c, s in terms
            ])
            alt = separable_bound(terms).value
            assert alt == pytest.approx(grid, abs=1e-3)
            assert alt >= grid - 1e-9  # alternation refines the grid

    def test_certificate_is_product_state(self):
        res = separable_bound([term("XX"), term("YY", -1.0)])
        assert abs(np.linalg.norm(res.left_state) - 1) < 1e-9
        assert abs(np.linalg.norm(res.right_state) - 1) < 1e-9

    def test_terms_refuse_square_terms(self):
        with pytest.raises(BoundError, match="linear"):
            separable_terms(parse("X1*X2 - 1/2*sq(X1*X2) <= 1"))
        assert separable_terms(parse("X1*X2 - Y1*Y2 <= 1")) == (term("XX"), term("YY", -1.0))

    def test_witness_gap_on_pair_state(self):
        bell = make_pair_superposition("00", "11", R, R)
        value = quantum_value(parse("X1*X2 - Y1*Y2 <= 1"), None, bell)
        sep = separable_bound([term("XX"), term("YY", -1.0)]).value
        assert sep == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(2.0, abs=1e-9)
        assert sep < value


def mermin_terms(parties):
    """Mermin operator: X/Y strings with an even number of Y, sign (-1)^(#Y/2)."""
    return [
        term(letters, (-1.0) ** (letters.count("Y") // 2))
        for letters in map("".join, itertools.product("XY", repeat=parties))
        if letters.count("Y") % 2 == 0
    ]


def random_sign_terms(rng, width):
    """The identity, one string per qubit-1 letter and a few more, signs +-1."""
    strings = ["".join(l) for l in itertools.product("IXYZ", repeat=width)]
    chosen = {"I" * width}
    chosen |= {a + "".join(rng.choice(list("IXYZ"), width - 1)) for a in "IXYZ"}
    chosen |= {strings[i] for i in rng.choice(len(strings), size=rng.integers(0, 2 * width + 1))}
    return [term(s, float(rng.choice((-1, 1)))) for s in sorted(chosen)]


def attained(res, terms):
    psi = np.kron(res.left_state, res.right_state)
    return np.vdot(psi, assemble_operator(terms, terms[0][1].width) @ psi).real


class TestSeparableBlocks:
    """The block optimiser against the per-term loop oracle."""

    def test_audit_witnesses_equal_loop_oracle(self):
        cat = {f.name: f for f in load_catalog()}
        for name in ("ent-witness-I", "ent-witness-II-optimal"):
            fx = cat[name]
            terms = separable_terms(fx.inequality, fx.assignment)
            assert separable_bound(terms).value == loop_separable_bound(terms).value, name

    @pytest.mark.parametrize("parties", range(3, 8))
    def test_mermin_matches_loop_oracle(self, parties):
        terms = mermin_terms(parties)
        res = separable_bound(terms)
        assert res.value == pytest.approx(loop_separable_bound(terms).value, abs=1e-9)
        assert res.value == pytest.approx(2.0 ** (parties - 2), abs=1e-9)
        assert attained(res, terms) == pytest.approx(res.value, abs=1e-9)

    def test_random_signs_match_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            terms = random_sign_terms(rng, int(rng.integers(2, 5)))
            assert {s.letters[0] for _, s in terms} == set("IXYZ")
            res = separable_bound(terms)
            oracle = loop_separable_bound(terms).value
            assert res.value == pytest.approx(oracle, abs=1e-9), [(c, str(s)) for c, s in terms]
            assert attained(res, terms) == pytest.approx(res.value, abs=1e-9)

    def test_mermin_13_party_past_the_dense_cap(self):
        # 13 qubits need no 2^13 array: the optimiser's blocks live on the 12-qubit rest
        assert separable_bound(mermin_terms(13)).value == pytest.approx(2048.0, abs=1e-9)

    def test_refuses_mixed_widths(self):
        with pytest.raises(BoundError, match="width"):
            separable_bound([term("XX"), term("XXX")])
        with pytest.raises(BoundError, match="width"):
            separable_bound([term("ZZZ"), term("YY")])


class TestQuantum:
    def test_nl1_on_lifted_singlet(self):
        cat = {f.name: f for f in load_catalog()}
        fx = cat["nl1-3party"]
        assert quantum_value(fx.inequality, fx.assignment, fx.state) == pytest.approx(6.0, abs=1e-9)

    def test_fourparty_on_ghz4(self):
        cat = {f.name: f for f in load_catalog()}
        fx = cat["fourparty"]
        assert quantum_value(fx.inequality, fx.assignment, fx.state) == pytest.approx(12.0, abs=1e-9)

    def test_nonlinear6_on_ghz6(self):
        cat = {f.name: f for f in load_catalog()}
        fx = cat["nonlinear6"]
        assert quantum_value(fx.inequality, fx.assignment, fx.state) == pytest.approx(48.0, abs=1e-9)

    @pytest.mark.parametrize("text", ["X1*X2*X3 <= 1", "Z3 <= 1"])
    def test_value_refuses_sites_past_state_width(self, text):
        with pytest.raises(BoundError, match="width 3 exceeds state width 2"):
            quantum_value(parse(text), None, ghz_state(2))

    def test_value_pads_a_wider_state(self):
        # <Z1 Z2> = 1 and <X1 X2> = 0 on GHZ-3, with identity on site 3
        value = quantum_value(parse("Z1*Z2 + X1*X2 <= 1"), None, ghz_state(3))
        assert value == loop_quantum_value(parse("Z1*Z2 + X1*X2 <= 1"), None, ghz_state(3))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_value_matches_per_term_loop_on_every_fixture(self):
        # the one-row kernel call keeps the per-term sum's bits, squares included
        for fx in load_catalog():
            if fx.inequality is None or fx.state is None:
                continue
            got = quantum_value(fx.inequality, fx.assignment, fx.state)
            assert got.hex() == loop_quantum_value(fx.inequality, fx.assignment, fx.state).hex()

    def test_value_with_shared_linear_and_square_monomials(self):
        # A1'' sits in both parts: the square's three X1 shares must still add in
        # its own term order, A1 then A1' then A1'', not in the linear part's
        text = "A1''*B2 + 1/5*A1'' - 1/2*sq(1/3*A1 + 1/7*A1' - 1/13*A1'') <= 2"
        assignment = {"A1": "X1", "A1'": "(X1+Z1)/sqrt2", "A1''": "(X1-Y1)/sqrt2",
                      "B2": "(X2-Z2)/sqrt2"}
        amps = np.random.default_rng(7).normal(size=(4, 2)) @ [1, 1j]
        state = StateVector(2, amps / np.linalg.norm(amps))
        got = quantum_value(parse(text), assignment, state)
        assert got.hex() == loop_quantum_value(parse(text), assignment, state).hex()

    def test_mermin_operator_max(self):
        assert quantum_max(
            parse(MERMIN),
            {"A1": "X1", "A1'": "-Y1", "A2": "X2", "A2'": "Y2", "A3": "X3", "A3'": "-Y3"},
        ) == pytest.approx(4.0, abs=1e-8)

    def test_nl1_assigned_operator_max(self):
        cat = {f.name: f for f in load_catalog()}
        fx = cat["nl1-3party"]
        opex = assign_paulis(fx.inequality.ast, fx.assignment)
        top = max_eigenvalue(assemble_operator(opex.linear, 3))
        assert top == pytest.approx(6.0, abs=1e-8)

    def test_chsh_tsirelson_via_eigensolver(self):
        amap = {"A1": "(X1+Z1)/sqrt2", "A1'": "(X1-Z1)/sqrt2", "A2": "X2", "A2'": "Z2"}
        assert quantum_max(parse(CHSH), amap) == pytest.approx(2 * np.sqrt(2), abs=1e-8)

    def test_nonlinear_heuristic_max(self):
        cat = {f.name: f for f in load_catalog()}
        fx = cat["nonlinear6"]
        assert quantum_max(fx.inequality.ast, None) == pytest.approx(48.0, abs=1e-6)

    def test_block_max_matches_dense_on_every_linear_fixture(self):
        for fx in load_catalog():
            if fx.inequality is None or not fx.inequality.ast.is_linear:
                continue
            opex = assign_paulis(fx.inequality.ast, fx.assignment)
            dense = max_eigenvalue(assemble_operator(opex.linear, opex.width))
            assert abs(quantum_max(fx.inequality, fx.assignment) - dense) < 1e-12, fx.name

    def test_ascent_starts_at_the_first_top_block(self, monkeypatch):
        # X1 X2 X3 ties in four 2x2 blocks: the ascent's seeded start is GHZ-3
        starts = []
        solve = bounds.top_eigenpair

        def record(blocks, cosets):
            value, vec = solve(blocks, cosets)
            starts.append(vec)
            return value, vec

        monkeypatch.setattr(bounds, "top_eigenpair", record)
        quantum_max(parse("X1*X2*X3 - 1/2*sq(Z1*Z2) <= 1"))
        assert np.abs(starts[0] - ghz_state(3).amplitudes).max() < 1e-12

    def test_algebraic(self):
        assert algebraic_bound(parse(CHSH)) == 4.0
        assert algebraic_bound(parse("2*X1*X2 - Y1*Y2 <= 1")) == 3.0


class TestInvariantChain:
    def test_lhv_le_qmax_le_algebraic(self):
        for fx in load_catalog():
            ineq = fx.inequality
            if ineq is None or not ineq.ast.is_linear:
                continue
            lhv = hybrid_bound(ineq) if fx.hybrid else lhv_bound(ineq)
            opex = assign_paulis(ineq.ast, fx.assignment)
            qmax = max_eigenvalue(assemble_operator(opex.linear, opex.width))
            alg = algebraic_bound(ineq)
            assert lhv <= qmax + 1e-7, fx.name
            assert qmax <= alg + 1e-7, fx.name


class TestDiscord:
    def test_cq_states_pass(self, rng):
        for _ in range(50):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(v)
            p = rng.dirichlet((2.0, 2.0))
            rhos = []
            for _ in range(2):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                m = a @ a.conj().T
                rhos.append(DensityOperator(1, m / np.trace(m).real))
            rho = make_cq_state(p, [q[:, 0], q[:, 1]], rhos)
            check = discord_condition_check(rho, 0.5)
            assert check.passed
            assert abs(check.x_correlator) < 1e-9
            assert abs(check.y_correlator) < 1e-9

    def test_bell_fails_at_half(self):
        bell = make_pair_superposition("00", "11", R, R)
        rho = DensityOperator(2, np.outer(bell.amplitudes, bell.amplitudes.conj()))
        check = discord_condition_check(rho, 0.5)
        assert not check.passed
        assert abs(check.x_correlator) == pytest.approx(1.0)

    def test_singlet_fails_at_half(self):
        singlet = make_pair_superposition("01", "10", R, -R)
        rho = DensityOperator(2, np.outer(singlet.amplitudes, singlet.amplitudes.conj()))
        check = discord_condition_check(rho, 0.5)
        assert not check.passed
        assert check.x_correlator == pytest.approx(1.0)
        assert check.y_correlator == pytest.approx(1.0)

    def test_rotated_product_state_passes(self):
        plus = np.array([R, R])
        rho = DensityOperator(2, np.kron(np.outer(plus, plus), np.outer(plus, plus)))
        check = discord_condition_check(rho, 0.5)
        assert check.passed

    def test_maximally_mixed_state_passes(self):
        check = discord_condition_check(DensityOperator(2, np.eye(4) / 4), 0.5)
        assert check.passed
        assert check.x_correlator == check.y_correlator == 0.0

    @pytest.mark.parametrize("gap", [1e-3, 1e-9, 3e-10, 1e-11, 0.0])
    def test_nearly_equal_weights_pass(self, gap):
        # a reduced-state eigenbasis loses accuracy as 1/gap and has none at gap 0
        c, s = np.cos(0.3), np.sin(0.3)
        rhos = [
            DensityOperator(1, np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)),
            DensityOperator(1, np.array([[0.4, 0.1j], [-0.1j, 0.6]])),
        ]
        rho = make_cq_state([0.5 + gap / 2, 0.5 - gap / 2], [[c, s], [-s, c]], rhos)
        check = discord_condition_check(rho, 0.5)
        assert check.passed
        assert check.x_correlator <= 1e-12
        assert check.y_correlator <= 1e-12

    def test_epsilon_range(self):
        rho = DensityOperator(2, np.eye(4) / 4)
        with pytest.raises(BoundError):
            discord_condition_check(rho, 0.6)

    def test_stack_keeps_width_and_epsilon_checks(self):
        with pytest.raises(BoundError):
            discord_condition_check(DensityOperator(1, np.stack([np.eye(2) / 2] * 3)), 0.5)
        with pytest.raises(BoundError):
            discord_condition_check(DensityOperator(2, np.stack([np.eye(4) / 4] * 3)), 0.6)

    def test_stack_rows_match_single_state_calls(self):
        plus = np.array([R, R])
        bell = make_pair_superposition("00", "11", R, R).amplitudes
        fixed = [
            np.eye(4) / 4,  # degenerate reduced state
            np.outer(bell, bell.conj()),  # degenerate, fails
            np.kron(np.outer(plus, plus), np.outer(plus, plus)),
        ]
        stack = np.concatenate([fixed, loop_cq_states(random.Random(3), 20)])
        check = discord_condition_check(DensityOperator(2, stack), 0.5)
        assert check.x_correlator.shape == check.y_correlator.shape == (23,)
        assert not check.passed
        for i, m in enumerate(stack):
            one = discord_condition_check(DensityOperator(2, m), 0.5)
            assert type(one.passed) is bool
            assert type(one.x_correlator) is float and type(one.y_correlator) is float
            assert one.passed == (i != 1)
            assert abs(check.x_correlator[i] - one.x_correlator) < 1e-12
            assert abs(check.y_correlator[i] - one.y_correlator) < 1e-12
            x, y = loop_discord_correlators(m)
            assert abs(check.x_correlator[i] - x) < 1e-12
            assert abs(check.y_correlator[i] - y) < 1e-12
        assert discord_condition_check(DensityOperator(2, stack[2:]), 0.5).passed

    @staticmethod
    def from_correlations(m):
        """DensityOperator (I + sum_{a, mu} M[a, mu] sigma_a (x) sigma_mu) / 4; needs sum |M| < 1."""
        basis = np.array([[np.kron(SIGMA[a], SIGMA[mu]) for mu in "IXYZ"] for a in "XYZ"])
        return DensityOperator(2, np.eye(4) / 4 + np.einsum("...am,amij->...ij", m, basis) / 4)

    @pytest.mark.parametrize("shape", [(), (50,)])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_dilation_matches_svd_on_random_correlations(self, rng, shape, rank):
        m = sum(rng.normal(size=shape + (3, 1)) * rng.normal(size=shape + (1, 4)) for _ in range(rank))
        m *= 0.9 / np.abs(m).sum(axis=(-2, -1), keepdims=True)
        check = discord_condition_check(self.from_correlations(m), 0.5)
        s = np.linalg.svd(m, compute_uv=False)
        assert np.shape(check.x_correlator) == np.shape(check.y_correlator) == shape
        assert np.abs(check.x_correlator - s[..., 1]).max() < 1e-12
        assert np.abs(check.y_correlator - s[..., 2]).max() < 1e-12
        if rank == 1:
            assert np.max(check.x_correlator) <= 1e-12 and check.passed

    def test_dilation_on_sampled_cq_states(self):
        rhos = catalog._random_cq_states(random.Random(0), 200)
        check = discord_condition_check(rhos, 0.5)
        assert check.x_correlator.max() <= 1e-12  # what ``cq_correlators_vanish`` reads
        for i, m in enumerate(rhos.matrix):
            x, y = loop_discord_correlators(m)
            assert abs(check.x_correlator[i] - x) < 1e-12 and abs(check.y_correlator[i] - y) < 1e-12

    def test_dilation_on_bell_correlations(self):
        bell = make_pair_superposition("00", "11", R, R).amplitudes
        rho = np.outer(bell, bell.conj())
        for check in (
            discord_condition_check(DensityOperator(2, rho), 0.5),
            discord_condition_check(DensityOperator(2, np.stack([rho] * 3)), 0.5),
        ):
            # singular values (1, 1, 1): T = diag(1, -1, 1), r_A = 0
            assert np.abs(np.subtract(check.x_correlator, 1.0)).max() < 1e-12
            assert np.abs(np.subtract(check.y_correlator, 1.0)).max() < 1e-12
            assert not check.passed


class TestFaceMax:
    @pytest.mark.parametrize("squares", [1, 2])
    def test_closed_form_matches_solve_oracle(self, rng, squares):
        # small integer points give exactly singular faces (repeated or collinear
        # moments); copies moved by 1e-8 give |det H| ~ 1e-16, near-singular
        pts = rng.integers(-2, 3, size=(10, squares + 1)).astype(float)
        pts = np.concatenate([pts, pts[:4] + 1e-8 * rng.normal(size=(4, squares + 1))])
        c = -rng.uniform(0.1, 1.0, squares)
        faces = np.array(list(itertools.combinations(range(len(pts)), squares + 1)))
        want = solve_face_max(pts, c, faces)
        got = [bounds._face_max(pts, c, faces[i:i + 1]) for i in range(len(faces))]
        assert [g == -np.inf for g in got] == [w == -np.inf for w in want]
        assert np.isfinite(want).any() and np.isneginf(want).sum() > len(faces) // 10
        finite = np.isfinite(want)
        assert np.abs(np.array(got)[finite] - np.array(want)[finite]).max() < 1e-9
        assert bounds._face_max(pts, c, faces) == pytest.approx(max(want), abs=1e-12)

    def test_refuses_three_by_three_systems(self, rng):
        pts = rng.normal(size=(5, 4))
        with pytest.raises(BoundError, match="more than three points"):
            bounds._face_max(pts, -np.ones(3), np.array([[0, 1, 2, 3]]))
