"""Statevector / density-operator engine."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_max_eig, kron_chain
from stabhom.pauli import PauliError, PauliString, _phase_vector, to_matrix
from stabhom.states import (
    DensityOperator,
    StateError,
    StateVector,
    apply_blocks,
    assemble_blocks,
    assemble_operator,
    expectation,
    ghz_state,
    make_cq_state,
    make_pair_superposition,
    max_eigenpair,
    max_eigenvalue,
    top_eigenpair,
    top_eigenvalue,
    x_cosets,
)

R = 2**-0.5


def term(text_letters: str, phase_exp: int = 0) -> PauliString:
    return PauliString.from_letters(text_letters, phase_exp)


class TestPairSuperposition:
    def test_bell(self):
        bell = make_pair_superposition("00", "11", R, R)
        assert bell.amplitudes[0] == pytest.approx(R)
        assert bell.amplitudes[3] == pytest.approx(R)
        assert np.count_nonzero(bell.amplitudes) == 2

    def test_three_qubit(self):
        st3 = make_pair_superposition("011", "100", R, -R)
        assert st3.amplitudes[0b011] == pytest.approx(R)
        assert st3.amplitudes[0b100] == pytest.approx(-R)

    def test_degenerate_amplitude(self):
        s = make_pair_superposition("0", "1", 1.0, 0.0)
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_rejects_equal_labels(self):
        with pytest.raises(StateError):
            make_pair_superposition("01", "01", R, R)

    @pytest.mark.parametrize("a,b", [("0_1", "1_0"), ("+1", "01"), ("0a", "11")])
    def test_rejects_non_binary_labels(self, a, b):
        with pytest.raises(StateError, match="only 0 and 1"):
            make_pair_superposition(a, b, R, R)

    def test_rejects_bad_norm(self):
        with pytest.raises(StateError):
            make_pair_superposition("0", "1", 1.0, 1.0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(StateError, match="not normalised"):  # a NaN norm compares false
            make_pair_superposition("0", "1", float("nan"), 1.0)


class TestExpectation:
    def test_bell_stabilisers(self):
        bell = make_pair_superposition("00", "11", R, R)
        assert expectation(bell, term("XX")) == pytest.approx(1.0)
        assert expectation(bell, term("YY", 2)) == pytest.approx(1.0)  # the string -YY
        assert expectation(bell, term("ZZ")) == pytest.approx(1.0)

    def test_singlet_isotropic_sum(self):
        singlet = make_pair_superposition("01", "10", R, -R)
        total = sum(expectation(singlet, term(l)) for l in ("XX", "YY", "ZZ"))
        assert total == pytest.approx(-3.0)

    def test_matches_dense_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            v /= np.linalg.norm(v)
            state = StateVector(n, v)
            letters = "".join(rng.choice(list("IXYZ"), n))
            want = np.vdot(v, kron_chain(letters) @ v).real
            assert expectation(state, term(letters)) == pytest.approx(want, abs=1e-12)

    def test_negative_phase_negates(self, rng):
        # a signed string's sign is its phase: -P has minus the expectation of +P
        for _ in range(20):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = StateVector(3, v / np.linalg.norm(v))
            letters = "".join(rng.choice(list("IXYZ"), 3))
            assert expectation(state, term(letters, 2)) == -expectation(state, term(letters))

    @pytest.mark.parametrize("phase_exp", [1, 3])
    def test_rejects_imaginary_phase(self, phase_exp):
        with pytest.raises(PauliError, match="imaginary phase"):
            expectation(ghz_state(2), term("XX", phase_exp))

    def test_width_mismatch(self):
        with pytest.raises(Exception):
            expectation(ghz_state(3), term("XX"))

    @given(st.integers(0, 2**6 - 1), st.floats(-3, 3))
    @settings(max_examples=100)
    def test_bounded_by_coefficient(self, idx, coeff):
        if abs(coeff) < 1e-6:
            return
        n = 3
        v = np.zeros(2**n, dtype=complex)
        v[idx % 2**n] = 1.0
        state = StateVector(n, v)
        assert abs(coeff * expectation(state, term("XYZ"))) <= abs(coeff) + 1e-12


class TestMaxEigenvalue:
    def test_z(self):
        assert max_eigenvalue(np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_mermin_operator(self):
        op = (
            kron_chain("XXX") - kron_chain("XYY") - kron_chain("YXY") - kron_chain("YYX")
        )
        assert max_eigenvalue(op) == pytest.approx(4.0, abs=1e-8)

    def test_char_poly_oracle(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a + a.conj().T
            assert max_eigenvalue(h) == pytest.approx(char_poly_max_eig(h), abs=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateError):
            max_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dominates_expectations(self, rng):
        op = assemble_operator([(1.0, term("XX")), (0.5, term("ZZ"))], 2)
        top = max_eigenvalue(op)
        for _ in range(100):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert np.vdot(v, op @ v).real <= top + 1e-9


def random_span_terms(rng, r, width):
    """Real-signed terms whose x-masks span a random r-dimensional subspace."""
    while True:
        basis = [int(m) for m in rng.integers(1, 2**width, size=r)]
        span = {0}
        for b in basis:
            span |= {v ^ b for v in span}
        if len(span) == 2**r:
            break
    x_masks = basis + [int(v) for v in rng.choice(sorted(span), size=int(rng.integers(0, 8)))]
    return [(float(rng.normal()), PauliString(width, x, int(rng.integers(2**width)),
                                              2 * int(rng.integers(2))))
            for x in x_masks]


def dense_sum(terms, width):
    """Sum of per-term dense matrices, in term order from zeros."""
    out = np.zeros((2**width, 2**width), dtype=complex)
    for c, string in terms:
        out += c * to_matrix(string)
    return out


def mermin(parties):
    return [((-1.0) ** (l.count("Y") // 2), PauliString.from_letters(l))
            for l in map("".join, itertools.product("XY", repeat=parties))
            if l.count("Y") % 2 == 0]


class TestBlockBuilder:
    """Block operators over x-mask cosets against dense matrices."""

    @pytest.mark.parametrize("r", range(7))
    def test_random_spectra_match_dense(self, rng, r):
        for width in range(max(r, 1), r + 3):
            terms = random_span_terms(rng, r, width)
            cosets = x_cosets([s.x_mask for _, s in terms], width)
            assert cosets.shape == (2 ** (width - r), 2**r)
            blocks = assemble_blocks(terms, cosets, width)
            dense = np.linalg.eigvalsh(dense_sum(terms, width))
            assert np.abs(np.sort(np.linalg.eigvalsh(blocks).ravel()) - dense).max() < 1e-12
            assert abs(top_eigenvalue(blocks) - dense[-1]) < 1e-12

    def test_cosets_partition_in_order(self, rng):
        for r in range(5):
            width = r + 2
            cosets = x_cosets([s.x_mask for _, s in random_span_terms(rng, r, width)], width)
            assert sorted(cosets.ravel().tolist()) == list(range(2**width))
            assert (np.diff(cosets, axis=1) > 0).all() and (np.diff(cosets[:, 0]) > 0).all()
            # member j of a coset XOR member t of the span is member j ^ t
            j = np.arange(cosets.shape[1])
            for t in j:
                assert (cosets ^ cosets[0, t] == cosets[:, j ^ t]).all()

    @pytest.mark.parametrize("name", ["ghz-x", "ghz-zz", "mermin3", "mermin4", "random"])
    def test_eigenpair_is_first_top_block(self, rng, name):
        terms = {
            "ghz-x": [(1.0, term("XXX"))],  # four 2x2 blocks tie at 1
            "ghz-zz": [(1.0, term("ZZI")), (1.0, term("IZZ"))],  # |000> and |111> tie at 2
            "mermin3": mermin(3),
            "mermin4": mermin(4),
            "random": random_span_terms(rng, 3, 5),
        }[name]
        width = terms[0][1].width
        cosets = x_cosets([s.x_mask for _, s in terms], width)
        blocks = assemble_blocks(terms, cosets, width)
        value, vec = top_eigenpair(blocks, cosets)
        tops = np.linalg.eigh(blocks)[0][:, -1]
        first = int(np.flatnonzero(tops == tops.max())[0])
        assert value == tops[first] and abs(value - top_eigenvalue(blocks)) < 1e-12
        assert vec.base is None and abs(np.linalg.norm(vec) - 1) < 1e-12
        assert set(np.flatnonzero(vec)) <= set(cosets[first].tolist())
        rayleigh = np.vdot(vec, apply_blocks(blocks, cosets, vec))
        assert abs(rayleigh - value) < 1e-12
        assert abs(np.vdot(vec, dense_sum(terms, width) @ vec) - value) < 1e-12
        if name == "ghz-x":
            assert np.abs(vec - ghz_state(3).amplitudes).max() < 1e-12
        if name == "ghz-zz":
            assert np.abs(vec).tolist() == [1.0] + [0.0] * 7

    def test_assemble_operator_is_bitwise_term_sum(self, rng):
        for r in range(5):
            width = r + 2
            terms = random_span_terms(rng, r, width)
            assert assemble_operator(terms, width).tobytes() == dense_sum(terms, width).tobytes()
        assert assemble_operator(mermin(4), 4).tobytes() == dense_sum(mermin(4), 4).tobytes()

    def test_apply_blocks_matches_dense_product(self, rng):
        terms = random_span_terms(rng, 2, 5)
        cosets = x_cosets([s.x_mask for _, s in terms], 5)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        got = apply_blocks(assemble_blocks(terms, cosets, 5), cosets, v)
        assert np.abs(got - dense_sum(terms, 5) @ v).max() < 1e-12

    @pytest.mark.parametrize("phase_exp", [1, 3])
    def test_imaginary_phase_refused_as_dense(self, phase_exp):
        terms = [(1.0, term("XX")), (0.5, term("ZY", phase_exp))]
        with pytest.raises(StateError, match="not Hermitian"):
            max_eigenvalue(assemble_operator(terms, 2))
        cosets = x_cosets([s.x_mask for _, s in terms], 2)
        blocks = assemble_blocks(terms, cosets, 2)
        for solve in (top_eigenvalue, lambda b: top_eigenpair(b, cosets)):
            with pytest.raises(StateError, match="not Hermitian"):
                solve(blocks)

    @pytest.mark.parametrize("width", [13, 40])
    def test_refuses_widths_past_the_cap_before_allocating(self, monkeypatch, width):
        def no_arrays(*args, **kwargs):
            raise AssertionError("allocated an array")

        monkeypatch.setattr(np, "arange", no_arrays)
        monkeypatch.setattr(np, "zeros", no_arrays)
        with pytest.raises(StateError, match="width cap 12"):
            x_cosets([1 << k for k in range(width)], width)

    def test_refuses_string_outside_the_span(self):
        cosets = x_cosets([term("XI").x_mask], 2)
        with pytest.raises(StateError, match="leaves the cosets"):
            assemble_blocks([(1.0, term("IX"))], cosets, 2)

    def test_dense_eigenpair_is_an_owned_copy(self):
        op = assemble_operator(mermin(3), 3)
        value, vec = max_eigenpair(op)
        vals, vecs = np.linalg.eigh(op)
        assert vec.base is None and value == vals[-1]
        assert vec.tobytes() == vecs[:, -1].tobytes()


class TestCallerArrays:
    """A state copies the caller's complex array before freezing its own."""

    def test_state_vector(self):
        amps = np.array([R, 0, 0, R], dtype=complex)
        state = StateVector(2, amps)
        amps[0] = 7.0
        assert amps.flags.writeable
        assert state.amplitudes[0] == R and not state.amplitudes.flags.writeable

    def test_density_operator(self):
        m = np.eye(4, dtype=complex) / 4
        rho = DensityOperator(2, m)
        m[0, 0] = 7.0
        assert m.flags.writeable
        assert rho.matrix[0, 0] == 0.25 and not rho.matrix.flags.writeable


class TestDensity:
    def test_invariant_checks(self):
        with pytest.raises(StateError):
            DensityOperator(1, np.array([[1.0, 0.5], [0.4, 0.0]]))  # not hermitian
        with pytest.raises(StateError):
            DensityOperator(1, np.diag([0.7, 0.7]))  # trace != 1
        with pytest.raises(StateError):
            DensityOperator(1, np.diag([1.5, -0.5]))  # not PSD

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[1.0, 0.5], [0.4, 0.0]]), "not Hermitian"),
            (np.diag([0.7, 0.7]), "trace is not 1"),
            (np.diag([1.5, -0.5]), "not positive semidefinite"),
        ],
        ids=["non-hermitian", "trace", "not-psd"],
    )
    def test_stack_with_one_bad_member(self, bad, message):
        stack = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0]), np.eye(2) / 2])
        assert DensityOperator(1, stack).matrix.shape == (3, 2, 2)
        stack[1] = bad
        with pytest.raises(StateError, match=message):
            DensityOperator(1, stack)


class TestCqState:
    def test_pure_case(self):
        rho = make_cq_state(
            [1.0, 0.0],
            [np.array([1, 0]), np.array([0, 1])],
            [DensityOperator(1, np.diag([1.0, 0.0]))] * 2,
        )
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(rho.matrix, want)

    def test_reduced_first_qubit_diagonal(self, rng):
        for _ in range(20):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(v)
            kets = [q[:, 0], q[:, 1]]
            p = rng.dirichlet((1.5, 1.5))
            rhos = []
            for _ in range(2):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                m = a @ a.conj().T
                rhos.append(DensityOperator(1, m / np.trace(m).real))
            rho = make_cq_state(p, kets, rhos)
            red = np.trace(rho.matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            off = np.vdot(kets[0], red @ kets[1])
            assert abs(off) < 1e-10

    def test_cross_correlator_vanishes(self):
        # Z-basis kets: any second-qubit operator leaves <X1 (x) M> = 0
        rho = make_cq_state(
            [0.5, 0.5],
            [np.array([1, 0]), np.array([0, 1])],
            [
                DensityOperator(1, np.array([[0.7, 0.2], [0.2, 0.3]])),
                DensityOperator(1, np.array([[0.1, 0.0], [0.0, 0.9]])),
            ],
        )
        for letters in ("XX", "XY", "XZ"):
            value = np.trace(rho.matrix @ to_matrix(PauliString.from_letters(letters)))
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_stacked_inputs_build_each_state(self, rng):
        v = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        kets = np.linalg.qr(v)[0].swapaxes(-1, -2)
        p = rng.dirichlet((1.5, 1.5), size=3)
        a = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
        m = a @ a.conj().swapaxes(-1, -2)
        rhos = DensityOperator(1, m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])
        stack = make_cq_state(p, kets, rhos)
        assert stack.width == 2 and stack.matrix.shape == (3, 4, 4)
        for i in range(3):
            one = make_cq_state(p[i], kets[i], [DensityOperator(1, r) for r in rhos.matrix[i]])
            assert np.abs(stack.matrix[i] - one.matrix).max() < 1e-15
        bad = kets.copy()
        bad[1, 1] = kets[1, 0]
        with pytest.raises(StateError, match="orthogonal"):
            make_cq_state(p, bad, rhos)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(StateError):
            make_cq_state(
                [0.5, 0.5],
                [np.array([1, 0]), np.array([R, R])],
                [DensityOperator(1, np.eye(2) / 2)] * 2,
            )

    def test_rejects_bad_probs(self):
        with pytest.raises(StateError):
            make_cq_state(
                [0.6, 0.6],
                [np.array([1, 0]), np.array([0, 1])],
                [DensityOperator(1, np.eye(2) / 2)] * 2,
            )


@pytest.mark.parametrize("n", [12, 17])
def test_phase_vector_parity_covers_every_bit(n):
    z = (1 << n) - 1
    string = PauliString(n, 0, z, 0)
    want = [1 - 2 * (bin(k & z).count("1") & 1) for k in range(1 << n)]
    assert _phase_vector(string, n).tolist() == want

