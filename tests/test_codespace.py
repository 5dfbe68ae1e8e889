"""Image sets, action classification, and the homomorphism check."""
import itertools

import numpy as np
import pytest

from conftest import brute_force_images, kron_chain
from stabhom import cli, codespace
from stabhom.codespace import (
    CodespaceError,
    LogicalEncoding,
    image_set,
    lift_state,
    verify_homomorphism,
)
from stabhom.pauli import PauliString, SignedPauliTerm, multiply
from stabhom.states import StateVector, expectation, ghz_state, make_pair_superposition

R = 2**-0.5


def term(letters, coeff=1.0):
    return SignedPauliTerm(coeff, PauliString.from_letters(letters))


def complementary_pairs(widths):
    """(zero, one) basis labels differing on every site, zero < one."""
    for n in widths:
        for bits in itertools.product("01", repeat=n):
            zero = "".join(bits)
            one = "".join("1" if b == "0" else "0" for b in bits)
            if zero < one:
                yield zero, one


def signed_product(p, q):
    """p*q as a signed term; raises if the product carries a phase of +-i."""
    return SignedPauliTerm(p.coefficient * q.coefficient, multiply(p.string, q.string))


def keys(terms):
    return {(t.coefficient, t.string) for t in terms}


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
        assert image_set(enc, "X").texts() == ["+X1X2", "-Y1Y2"]
        assert image_set(enc, "I").texts() == ["+I", "+Z1Z2"]
        assert image_set(enc, "Y").texts() == ["+X1Y2", "+Y1X2"]
        assert image_set(enc, "Z").texts() == ["+Z1", "+Z2"]

    def test_triple_code(self):
        enc = LogicalEncoding.ghz(3)
        assert image_set(enc, "I").texts() == ["+I", "+Z1Z2", "+Z1Z3", "+Z2Z3"]
        assert image_set(enc, "X").texts() == [
            "+X1X2X3", "-X1Y2Y3", "-Y1X2Y3", "-Y1Y2X3",
        ]
        assert image_set(enc, "Y").texts() == [
            "+X1X2Y3", "+X1Y2X3", "+Y1X2X3", "-Y1Y2Y3",
        ]

    def test_superposed_pair_code(self):
        # the Z images of the superposed code carry definite signs fixed by
        # the conventions of the single-site matrices
        enc = LogicalEncoding.cluster_pair()
        assert image_set(enc, "Z").texts() == ["+X1X2", "-Y1Y2"]
        assert image_set(enc, "X").texts() == ["+Z1", "+Z2"]
        assert image_set(enc, "Y").texts() == ["-X1Y2", "-Y1X2"]

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
        stabs = sets["I"]
        assert all(keys([signed_product(p, q)]) <= keys(stabs) for p in stabs for q in stabs)
        for letter, members in sets.items():
            assert keys(signed_product(members.members[0], s) for s in stabs) == keys(members)
        x_keys = keys(sets["X"])
        for stab in stabs:
            assert keys(signed_product(m, stab) for m in sets["X"]) == x_keys

    def test_basis_pair_support_structure(self):
        # X images act exactly on the differing sites of the basis pair
        for zero, one in complementary_pairs((2, 3, 4)):
            enc = LogicalEncoding.from_basis_pair(zero, one)
            differ = {i + 1 for i, (x, y) in enumerate(zip(zero, one)) if x != y}
            for m in image_set(enc, "X"):
                support = {
                    i + 1 for i, ch in enumerate(m.string.letters) if ch in "XY"
                }
                assert support == differ

    def test_global_commute_local_noncommute(self):
        for enc in (LogicalEncoding.ghz(2), LogicalEncoding.ghz(3)):
            members = list(image_set(enc, "I")) + list(image_set(enc, "X"))
            dense = [kron_chain(m.string.letters) for m in members]
            assert all(np.allclose(a @ b, b @ a) for a in dense for b in dense)
            locally_noncommuting = any(
                pa != "I" and qa != "I" and pa != qa
                for p in members
                for q in members
                for pa, qa in zip(p.string.letters, q.string.letters)
            )
            assert locally_noncommuting


class TestSpectralKernel:
    @pytest.mark.parametrize("name,enc", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_brute_force(self, name, enc):
        oracle = brute_force_images(enc)
        for letter in "IXYZ":
            assert image_set(enc, letter).texts() == oracle[letter], letter

    def test_complex_encoding_signs(self):
        # X1Y2X3|001> = i|110>, so +X1Y2X3 fixes (|001> + i|110>)/sqrt2
        enc = LogicalEncoding.from_json(COMPLEX_SPEC)
        assert image_set(enc, "Z").texts() == ["-X1X2Y3", "+X1Y2X3", "+Y1X2X3", "+Y1Y2Y3"]
        assert image_set(enc, "X").texts() == ["+Z1", "+Z2", "-Z3", "-Z1Z2Z3"]

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

    def test_reports_planted_violation(self):
        enc = LogicalEncoding.ghz(3)
        xs = enc._image_sets["X"].members
        planted = SignedPauliTerm(-xs[1].coefficient, xs[1].string)
        enc._image_sets["X"] = codespace.ImageSet("X", enc, (xs[0], planted, *xs[2:]))
        ok, violations = verify_homomorphism(enc)
        assert not ok
        # a pair is judged against the sets, so it fails when it holds the
        # planted member or when its product is the planted member's string
        assert all(planted in (p, q) or multiply(p.string, q.string).letters == "XYY"
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
            members = sets[letter].members
            flipped = SignedPauliTerm(-members[k].coefficient, members[k].string)
            sets[letter] = codespace.ImageSet(letter, enc, (*members[:k], flipped, *members[k + 1:]))
            assert not verify_homomorphism(enc)[0]
            other = "XYZI"["XYZ".index(letter) + 1]
            sets[letter] = codespace.ImageSet(letter, enc, (*members[:k], *members[k + 1:]))
            sets[other] = codespace.ImageSet(other, enc, (members[k], *sets[other].members))
            assert not verify_homomorphism(enc)[0]

    def test_odd_phase_product_fails_though_its_string_is_listed(self):
        # X*X = I, but the planted pair gives X1*Z1 = -i Y1, and Y1 is planted under I
        enc = LogicalEncoding.ghz(1)
        sets = enc._image_sets
        sets["I"] = codespace.ImageSet("I", enc, (*sets["I"].members, term("Y")))
        sets["X"] = codespace.ImageSet("X", enc, (*sets["X"].members, term("Z")))
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
        assert image_set(enc, "X").texts() == image_set(LogicalEncoding.ghz(3), "X").texts()

    def test_from_json_amplitudes(self):
        spec = {
            "n": 2,
            "zero": [[R, 0], [0, 0], [0, 0], [R, 0]],
            "one": [[R, 0], [0, 0], [0, 0], [-R, 0]],
        }
        enc = LogicalEncoding.from_json(spec)
        assert image_set(enc, "Z").texts() == ["+X1X2", "-Y1Y2"]

    def test_lift_bell_to_ghz(self):
        bell = make_pair_superposition("00", "11", R, R)
        lifted = lift_state(bell, 2, LogicalEncoding.ghz(2))
        assert np.allclose(lifted.amplitudes, ghz_state(3).amplitudes)

    def test_lift_middle_site(self):
        s = make_pair_superposition("01", "10", R, -R)
        lifted = lift_state(s, 1, LogicalEncoding.ghz(2))
        want = make_pair_superposition("001", "110", R, -R)
        assert np.allclose(lifted.amplitudes, want.amplitudes)
