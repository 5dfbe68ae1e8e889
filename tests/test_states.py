"""Statevector / density-operator engine."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_max_eig, kron_chain
from stabhom.pauli import PauliString, SignedPauliTerm, _phase_vector, to_matrix
from stabhom.states import (
    DensityOperator,
    StateError,
    StateVector,
    assemble_operator,
    expectation,
    ghz_state,
    make_cq_state,
    make_pair_superposition,
    max_eigenvalue,
)

R = 2**-0.5


def term(text_letters: str, coeff: float = 1.0) -> SignedPauliTerm:
    return SignedPauliTerm(coeff, PauliString.from_letters(text_letters))


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

    def test_rejects_bad_norm(self):
        with pytest.raises(StateError):
            make_pair_superposition("0", "1", 1.0, 1.0)


class TestExpectation:
    def test_bell_stabilisers(self):
        bell = make_pair_superposition("00", "11", R, R)
        assert expectation(bell, term("XX")) == pytest.approx(1.0)
        assert expectation(bell, term("YY", -1.0)) == pytest.approx(1.0)
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
            c = float(rng.normal())
            if c == 0:
                continue
            t = term(letters, c)
            want = c * np.vdot(v, kron_chain(letters) @ v).real
            assert expectation(state, t) == pytest.approx(want, abs=1e-12)

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
        t = term("XYZ", coeff)
        assert abs(expectation(state, t)) <= abs(coeff) + 1e-12


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
        op = assemble_operator([term("XX"), term("ZZ", 0.5)], 2)
        top = max_eigenvalue(op)
        for _ in range(100):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert np.vdot(v, op @ v).real <= top + 1e-9


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
    # width 17 lies past the 12-qubit cap, so a bare namespace stands in for the string
    z = (1 << n) - 1
    string = SimpleNamespace(z_mask=z, phase=1, y_count=0)
    want = [1 - 2 * (bin(k & z).count("1") & 1) for k in range(1 << n)]
    assert _phase_vector(string, n).tolist() == want

