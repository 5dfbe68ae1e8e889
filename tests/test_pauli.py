"""Pauli-string algebra against the dense-matrix oracle."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA, kron_chain
from stabhom.pauli import (
    PauliError,
    PauliString,
    multiply,
    to_matrix,
    walsh_hadamard,
)

LETTERS = "IXYZ"


def dense(p: PauliString) -> np.ndarray:
    return p.phase * kron_chain(p.letters)


strings2 = st.builds(
    PauliString.from_letters,
    st.text(alphabet=LETTERS, min_size=2, max_size=2),
    st.integers(min_value=0, max_value=3),
)


class TestMultiply:
    def test_single_site_table(self):
        assert str(multiply(PauliString.from_letters("X"), PauliString.from_letters("Y"))) == "+iZ1"
        assert str(multiply(PauliString.from_letters("Y"), PauliString.from_letters("X"))) == "-iZ1"
        assert str(multiply(PauliString.from_letters("Z"), PauliString.from_letters("X"))) == "+iY1"

    def test_involution(self):
        zz = PauliString.from_letters("ZZ")
        assert str(multiply(zz, zz)) == "+I"

    def test_signed_product_matches_dense(self):
        # (X1X2) * (-Y1Y2) must equal the dense 4x4 product exactly
        xx = PauliString.from_letters("XX")
        myy = PauliString.from_letters("YY", phase_exp=2)
        prod = multiply(xx, myy)
        assert np.abs(dense(prod) - dense(xx) @ dense(myy)).max() < 1e-12
        assert str(prod) == "+Z1Z2"

    def test_exhaustive_width_2(self):
        for la, lb in itertools.product(itertools.product(LETTERS, repeat=2), repeat=2):
            a = PauliString.from_letters("".join(la))
            b = PauliString.from_letters("".join(lb))
            got = dense(multiply(a, b))
            want = dense(a) @ dense(b)
            assert np.abs(got - want).max() < 1e-12

    def test_random_width_3_4(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 5))
            la = "".join(rng.choice(list(LETTERS), n))
            lb = "".join(rng.choice(list(LETTERS), n))
            a = PauliString.from_letters(la, int(rng.integers(0, 4)))
            b = PauliString.from_letters(lb, int(rng.integers(0, 4)))
            assert np.abs(dense(multiply(a, b)) - dense(a) @ dense(b)).max() < 1e-12

    def test_random_width_20_letter_by_letter(self, rng):
        # past the 12-qubit dense cap: each site's 2x2 product gives its letter and phase
        for _ in range(200):
            la = "".join(rng.choice(list(LETTERS), 20))
            lb = "".join(rng.choice(list(LETTERS), 20))
            ea, eb = (int(e) for e in rng.integers(0, 4, size=2))
            e, letters = ea + eb, ""
            for x, y in zip(la, lb):
                m = SIGMA[x] @ SIGMA[y]
                c, k = next((c, k) for c in LETTERS for k in range(4)
                            if np.array_equal(m, 1j**k * SIGMA[c]))
                e, letters = e + k, letters + c
            got = multiply(PauliString.from_letters(la, ea), PauliString.from_letters(lb, eb))
            assert got == PauliString.from_letters(letters, e)

    def test_width_mismatch(self):
        with pytest.raises(PauliError):
            multiply(PauliString.from_letters("X"), PauliString.from_letters("XX"))

    @given(strings2, strings2, strings2)
    @settings(max_examples=200)
    def test_associative(self, a, b, c):
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left == right


class TestMatrix:
    def test_conventions(self):
        assert np.array_equal(to_matrix(PauliString.from_letters("I")), np.eye(2))
        assert np.allclose(to_matrix(PauliString.from_letters("Y")), [[0, -1j], [1j, 0]])
        assert np.allclose(to_matrix(PauliString.from_letters("ZZ")), np.diag([1, -1, -1, 1]))

    def test_hermitian_iff_real_phase(self):
        for e in range(4):
            p = PauliString.from_letters("XZ", e)
            m = to_matrix(p)
            assert np.allclose(m, m.conj().T) == (e in (0, 2))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_permutation_form_equals_kron_chain(self, width):
        for letters in map("".join, itertools.product(LETTERS, repeat=width)):
            for e in range(4):
                p = PauliString.from_letters(letters, e)
                assert np.array_equal(to_matrix(p), p.phase * kron_chain(letters)), (letters, e)


def sylvester(n: int) -> np.ndarray:
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, [[1, 1], [1, -1]])
    return out


class TestWalshHadamard:
    @pytest.mark.parametrize("n", range(7))
    def test_equals_dense_sylvester_matrix(self, rng, n):
        a = rng.integers(-4, 5, size=(3, 1 << n)).astype(float)
        want = a @ sylvester(n)
        got = walsh_hadamard(a)
        assert got is a and np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complex_strided_input_in_place(self, rng, n):
        base = rng.normal(size=(4, 1 << n)) + 1j * rng.normal(size=(4, 1 << n))
        want = base[::2] @ sylvester(n)
        walsh_hadamard(base[::2])  # rows 0 and 2, transformed where they lie
        assert np.abs(base[::2] - want).max() < 1e-12

    def test_rejects_length_not_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.zeros(6))


class TestSignedTerm:
    def test_square_is_identity_times_phase_squared(self):
        # every string squared equals (phase^2) * identity
        for e in range(4):
            p = PauliString.from_letters("XYZ", e)
            sq = multiply(p, p)
            assert sq.letters == "III"
            assert sq.phase == pytest.approx(p.phase**2)
