"""Image sets, action classification, and the homomorphism check."""
import itertools
import time

import numpy as np
import pytest

from conftest import brute_force_images, kron_chain, loop_verify_homomorphism
from stabhom import cli, codespace
from stabhom.codespace import (
    CodespaceError,
    LogicalEncoding,
    image_set,
    lift_state,
    verify_homomorphism,
)
from stabhom.pauli import PauliString, multiply
from stabhom.states import (
    StateError,
    StateVector,
    expectation,
    ghz_state,
    make_pair_superposition,
)

R = 2**-0.5


def term(letters):
    return PauliString.from_letters(letters)


def texts(enc, letter):
    return [str(p) for p in image_set(enc, letter)]


def negated(p):
    return PauliString(p.width, p.x_mask, p.z_mask, p.phase_exp + 2)


def planted_encodings():
    """The failing encodings of ``TestHomomorphism``, each built afresh."""
    enc = LogicalEncoding.ghz(3)
    xs = enc._image_sets["X"]
    enc._image_sets["X"] = (xs[0], negated(xs[1]), *xs[2:])
    yield enc
    for letter in "XYZ":
        other = "XYZI"["XYZ".index(letter) + 1]
        for k in range(4):
            for moved in (False, True):
                enc = LogicalEncoding.ghz(3)
                sets = enc._image_sets
                members = sets[letter]
                if moved:
                    sets[letter] = (*members[:k], *members[k + 1:])
                    sets[other] = (members[k], *sets[other])
                else:
                    sets[letter] = (*members[:k], negated(members[k]), *members[k + 1:])
                yield enc
    enc = LogicalEncoding.ghz(1)
    sets = enc._image_sets
    sets["I"] = (*sets["I"], term("Y"))
    sets["X"] = (*sets["X"], term("Z"))
    yield enc


def complementary_pairs(widths):
    """(zero, one) basis labels differing on every site, zero < one."""
    for n in widths:
        for bits in itertools.product("01", repeat=n):
            zero = "".join(bits)
            one = "".join("1" if b == "0" else "0" for b in bits)
            if zero < one:
                yield zero, one


# (|001> + i|110>)/sqrt2 and (|001> - i|110>)/sqrt2
COMPLEX_SPEC = {
    "n": 3,
    "zero": [[0, 0], [R, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, R], [0, 0]],
    "one": [[0, 0], [R, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, -R], [0, 0]],
}

ORACLE_CASES = (
    [(f"ghz{n}", LogicalEncoding.ghz(n)) for n in range(1, 7)]
    + [("cluster", LogicalEncoding.cluster_pair())]
    + [(f"pair-{z}-{o}", LogicalEncoding.from_basis_pair(z, o))
       for z, o in complementary_pairs((2, 3, 4))]
    + [("complex-json", LogicalEncoding.from_json(COMPLEX_SPEC))]
)

STRUCTURE_CASES = [
    (zero, one)
    for n in range(2, 7)
    for zero, one in (("0" * n, "1" * n), (("01" * n)[:n], ("10" * n)[:n]))
]


class TestImageSets:
    def test_pair_code(self):
        enc = LogicalEncoding.ghz(2)
        assert texts(enc, "X") == ["+X1X2", "-Y1Y2"]
        assert texts(enc, "I") == ["+I", "+Z1Z2"]
        assert texts(enc, "Y") == ["+X1Y2", "+Y1X2"]
        assert texts(enc, "Z") == ["+Z1", "+Z2"]

    def test_triple_code(self):
        enc = LogicalEncoding.ghz(3)
        assert texts(enc, "I") == ["+I", "+Z1Z2", "+Z1Z3", "+Z2Z3"]
        assert texts(enc, "X") == [
            "+X1X2X3", "-X1Y2Y3", "-Y1X2Y3", "-Y1Y2X3",
        ]
        assert texts(enc, "Y") == [
            "+X1X2Y3", "+X1Y2X3", "+Y1X2X3", "-Y1Y2Y3",
        ]

    def test_superposed_pair_code(self):
        # the Z images of the superposed code carry definite signs fixed by
        # the conventions of the single-site matrices
        enc = LogicalEncoding.cluster_pair()
        assert texts(enc, "Z") == ["+X1X2", "-Y1Y2"]
        assert texts(enc, "X") == ["+Z1", "+Z2"]
        assert texts(enc, "Y") == ["-X1Y2", "-Y1X2"]

    def test_capacity(self):
        with pytest.raises(CodespaceError):
            image_set(LogicalEncoding.ghz(9), "X")

    def test_members_act_identically(self, rng):
        # image members restricted to the code space equal the logical letter
        for enc in (LogicalEncoding.ghz(2), LogicalEncoding.ghz(3),
                    LogicalEncoding.cluster_pair()):
            sets = {letter: image_set(enc, letter) for letter in "XYZ"}
            for _ in range(20):
                a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
                norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
                a, b = a / norm, b / norm
                inside = StateVector(
                    enc.width,
                    a * enc.zero_l.amplitudes + b * enc.one_l.amplitudes,
                )
                logical = StateVector(1, np.array([a, b]))
                for letter, members in sets.items():
                    want = expectation(logical, term(letter))
                    for p in members:
                        assert expectation(inside, p) == pytest.approx(want, abs=1e-10)

    def test_x_y_counts_match(self):
        for enc in (LogicalEncoding.ghz(2), LogicalEncoding.ghz(3),
                    LogicalEncoding.ghz(4), LogicalEncoding.cluster_pair()):
            assert len(image_set(enc, "X")) == len(image_set(enc, "Y"))

    @pytest.mark.parametrize("zero,one", STRUCTURE_CASES)
    def test_multiplying_by_identity_image_permutes_x_images(self, zero, one):
        # image sets are signed cosets of the code's stabiliser group image(I)
        enc = LogicalEncoding.from_basis_pair(zero, one)
        n = enc.width
        sets = {letter: image_set(enc, letter) for letter in "IXYZ"}
        for letter, members in sets.items():
            assert len(members) == 2 ** (n - 1), letter
        # a product's phase is its sign, so a +-i product would match no member
        stabs = sets["I"]
        assert all(multiply(p, q) in stabs for p in stabs for q in stabs)
        for letter, members in sets.items():
            assert {multiply(members[0], s) for s in stabs} == set(members)
        for stab in stabs:
            assert {multiply(m, stab) for m in sets["X"]} == set(sets["X"])

    def test_basis_pair_support_structure(self):
        # X images act exactly on the differing sites of the basis pair
        for zero, one in complementary_pairs((2, 3, 4)):
            enc = LogicalEncoding.from_basis_pair(zero, one)
            differ = {i + 1 for i, (x, y) in enumerate(zip(zero, one)) if x != y}
            for m in image_set(enc, "X"):
                support = {
                    i + 1 for i, ch in enumerate(m.letters) if ch in "XY"
                }
                assert support == differ

    def test_global_commute_local_noncommute(self):
        for enc in (LogicalEncoding.ghz(2), LogicalEncoding.ghz(3)):
            members = list(image_set(enc, "I")) + list(image_set(enc, "X"))
            dense = [kron_chain(m.letters) for m in members]
            assert all(np.allclose(a @ b, b @ a) for a in dense for b in dense)
            locally_noncommuting = any(
                pa != "I" and qa != "I" and pa != qa
                for p in members
                for q in members
                for pa, qa in zip(p.letters, q.letters)
            )
            assert locally_noncommuting


class TestSpectralKernel:
    @pytest.mark.parametrize("name,enc", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_brute_force(self, name, enc):
        oracle = brute_force_images(enc)
        for letter in "IXYZ":
            assert texts(enc, letter) == oracle[letter], letter

    def test_complex_encoding_signs(self):
        # X1Y2X3|001> = i|110>, so +X1Y2X3 fixes (|001> + i|110>)/sqrt2
        enc = LogicalEncoding.from_json(COMPLEX_SPEC)
        assert texts(enc, "Z") == ["-X1X2Y3", "+X1Y2X3", "+Y1X2X3", "+Y1Y2Y3"]
        assert texts(enc, "X") == ["+Z1", "+Z2", "-Z3", "-Z1Z2Z3"]

    def test_image_sets_memoised_per_encoding(self):
        enc = LogicalEncoding.ghz(3)
        first = image_set(enc, "X")
        assert image_set(enc, "X") is first
        assert image_set(LogicalEncoding.ghz(3), "X") is not first

    def test_images_command_computes_one_spectrum(self, monkeypatch, capsys):
        calls = []
        spectrum = codespace._spectrum

        def counted(*args):
            calls.append(args)
            return spectrum(*args)

        monkeypatch.setattr(codespace, "_spectrum", counted)
        assert cli.main(["images", "--ghz", "3"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[0] == "I:"


class TestHomomorphism:
    @pytest.mark.parametrize("enc_name", ["ghz2", "ghz3", "ghz4", "ghz5", "ghz6", "ghz7", "ghz8",
                                          "cluster"])
    def test_verify(self, enc_name, monkeypatch):
        enc = {
            **{f"ghz{n}": LogicalEncoding.ghz(n) for n in range(2, 9)},
            "cluster": LogicalEncoding.cluster_pair(),
        }[enc_name]
        enc._image_sets  # the check reads these and takes no second spectrum
        monkeypatch.setattr(codespace, "_spectrum", None)
        ok, violations = verify_homomorphism(enc)
        assert ok, violations[:3]

    @pytest.mark.parametrize("enc_name", [f"ghz{n}" for n in range(1, 9)] + ["cluster"])
    def test_equals_pairwise_loop_oracle(self, enc_name):
        enc = (LogicalEncoding.cluster_pair() if enc_name == "cluster"
               else LogicalEncoding.ghz(int(enc_name[3:])))
        assert verify_homomorphism(enc) == loop_verify_homomorphism(enc) == (True, [])

    def test_failing_encodings_equal_pairwise_loop_oracle(self):
        encodings = list(planted_encodings())
        assert len(encodings) == 26
        for enc in encodings:
            ok, violations = verify_homomorphism(enc)
            assert not ok and (ok, violations) == loop_verify_homomorphism(enc)

    def test_reports_planted_violation(self):
        enc = LogicalEncoding.ghz(3)
        xs = enc._image_sets["X"]
        planted = negated(xs[1])
        enc._image_sets["X"] = (xs[0], planted, *xs[2:])
        ok, violations = verify_homomorphism(enc)
        assert not ok
        # a pair is judged against the sets, so it fails when it holds the
        # planted member or when its product is the planted member's string
        assert all(planted in (p, q) or multiply(p, q).letters == "XYY"
                   for p, q, _, _ in violations)
        # every pair holding it fails but those whose product is itself or +I
        members = [m for letter in "IXYZ" for m in enc._image_sets[letter]]
        held = {(p, q) for m in members for p, q in ((planted, m), (m, planted))}
        identity = term("III")
        assert held - {(p, q) for p, q, _, _ in violations} == {
            (planted, identity), (identity, planted), (planted, planted)}

    @pytest.mark.parametrize("letter", "XYZ")
    def test_flipped_or_moved_member_fails(self, letter):
        for k in range(4):
            # flip member k's sign, then move it to the next letter's set
            enc = LogicalEncoding.ghz(3)
            sets = enc._image_sets
            members = sets[letter]
            sets[letter] = (*members[:k], negated(members[k]), *members[k + 1:])
            assert not verify_homomorphism(enc)[0]
            other = "XYZI"["XYZ".index(letter) + 1]
            sets[letter] = (*members[:k], *members[k + 1:])
            sets[other] = (members[k], *sets[other])
            assert not verify_homomorphism(enc)[0]

    def test_odd_phase_product_fails_though_its_string_is_listed(self):
        # X*X = I, but the planted pair gives X1*Z1 = -i Y1, and Y1 is planted under I
        enc = LogicalEncoding.ghz(1)
        sets = enc._image_sets
        sets["I"] = (*sets["I"], term("Y"))
        sets["X"] = (*sets["X"], term("Z"))
        ok, violations = verify_homomorphism(enc)
        assert not ok and (term("X"), term("Z"), "X", "X") in violations

    def test_equal_encodings_built_apart_compare_and_hash_equal(self):
        pairs = [
            (LogicalEncoding.ghz(2), LogicalEncoding.from_json({"n": 2, "zero": "00", "one": "11"})),
            (LogicalEncoding.cluster_pair(), LogicalEncoding.cluster_pair()),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
            assert a.zero_l == b.zero_l and hash(a.zero_l) == hash(b.zero_l)
        assert ghz_state(2) == ghz_state(2) and hash(ghz_state(2)) == hash(ghz_state(2))
        assert LogicalEncoding.ghz(2) != LogicalEncoding.cluster_pair()
        assert LogicalEncoding.ghz(2) != LogicalEncoding.ghz(3)
        assert ghz_state(2) != ghz_state(2, -1.0)

    def test_rejects_non_orthogonal_pair(self):
        with pytest.raises(CodespaceError):
            LogicalEncoding(
                1,
                StateVector(1, np.array([1.0, 0.0])),
                StateVector(1, np.array([R, R])),
            )

    def test_capacity(self):
        with pytest.raises(CodespaceError, match="image enumeration cap 8"):
            verify_homomorphism(LogicalEncoding.ghz(9))


class TestJsonAndLift:
    def test_from_json_basis(self):
        enc = LogicalEncoding.from_json({"n": 3, "zero": "000", "one": "111"})
        assert image_set(enc, "X") == image_set(LogicalEncoding.ghz(3), "X")

    def test_basis_pair_width_cap(self):
        with pytest.raises(StateError, match="width cap 12"):
            LogicalEncoding.from_json({"n": 40, "zero": "0" * 40, "one": "1" * 40})

    def test_amplitude_width_cap_refused_at_once(self):
        # 2**n is neither computed nor formatted before the cap check
        spec = {"n": 1_000_000_000, "zero": [[1, 0]], "one": [[0, 0], [1, 0]]}
        start = time.perf_counter()
        with pytest.raises(StateError, match="width cap 12"):
            LogicalEncoding.from_json(spec)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("zero,one", [("00", "11"), ("0000", "1111"), ("000", "11")])
    def test_from_json_basis_refuses_labels_off_width(self, zero, one):
        with pytest.raises(CodespaceError, match="n = 3"):
            LogicalEncoding.from_json({"n": 3, "zero": zero, "one": one})

    def test_from_json_amplitudes(self):
        spec = {
            "n": 2,
            "zero": [[R, 0], [0, 0], [0, 0], [R, 0]],
            "one": [[R, 0], [0, 0], [0, 0], [-R, 0]],
        }
        enc = LogicalEncoding.from_json(spec)
        assert texts(enc, "Z") == ["+X1X2", "-Y1Y2"]

    def test_lift_bell_to_ghz(self):
        bell = make_pair_superposition("00", "11", R, R)
        lifted = lift_state(bell, 2, LogicalEncoding.ghz(2))
        assert np.allclose(lifted.amplitudes, ghz_state(3).amplitudes)

    @pytest.mark.parametrize("site", [1, 2, 3])
    def test_lift_matches_kron_oracle(self, rng, site):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        enc = LogicalEncoding.ghz(3)
        code, tail = [enc.zero_l.amplitudes, enc.one_l.amplitudes], 3 - site
        want = 0
        for i, a in enumerate(state.amplitudes):
            head, bit, rest = i >> (tail + 1), i >> tail & 1, i & (2**tail - 1)
            basis = np.kron(np.eye(2 ** (site - 1))[head], code[bit])
            want = want + a * np.kron(basis, np.eye(2**tail)[rest])
        assert np.abs(lift_state(state, site, enc).amplitudes - want).max() < 1e-15

    def test_lift_middle_site(self):
        s = make_pair_superposition("01", "10", R, -R)
        lifted = lift_state(s, 1, LogicalEncoding.ghz(2))
        want = make_pair_superposition("001", "110", R, -R)
        assert np.allclose(lifted.amplitudes, want.amplitudes)
