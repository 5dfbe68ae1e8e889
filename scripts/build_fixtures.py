#!/usr/bin/env python3
"""Regenerate the fixture catalogue under src/stabhom/fixtures/.

Derivable inequality texts are produced by the package itself so the
canonical forms stay in sync.  The new catalogue is written to a
temporary directory and audited there by ``catalog.audit_all``, the same
audit as ``stabhom audit``; the bundled files are replaced only if no
claim mismatches unexpectedly.  Claims that are known not to reproduce
are written with an expected_mismatch flag.  Run from the repo root:

    python scripts/build_fixtures.py
"""
from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stabhom.catalog import audit_all, load_catalog  # noqa: E402
from stabhom.codespace import LogicalEncoding  # noqa: E402
from stabhom.descend import (  # noqa: E402
    PlanEntry,
    SubstitutionPlan,
    lift_coherence_witness,
    substitute,
    substitute_symbolic,
)
from stabhom.dsl import Setting, parse, pretty_print  # noqa: E402

OUT = ROOT / "src" / "stabhom" / "fixtures"


def fmt9(x: float) -> float:
    """Freeze a derived float at 9 significant digits (round-half-even)."""
    return float(f"{x:.9g}")


def expr_text(ast) -> str:
    return pretty_print(ast.with_bound(Fraction(0)))[: -len(" <= 0")]


def plan(site, enc, entries):
    return SubstitutionPlan(site, enc, entries)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    bell = LogicalEncoding.ghz(2)
    ghz3 = LogicalEncoding.ghz(3)
    fixtures: list[dict] = []

    # -- coherence witness ------------------------------------------------
    fixtures.append({
        "schema": 1,
        "name": "coherence-X-half",
        "kind": "coherence",
        "provenance": "single-site coherence witness: twice the X expectation, "
                      "bounded by 1 on incoherent states",
        "inequality": "2*X1 <= 1",
        "assignment": {},
        "state": {"kind": "pair", "n": 1, "a": "0", "b": "1",
                  "amps": ["1/sqrt2", "1/sqrt2"]},
        "claims": {
            "quantum_value": {"value": 2, "source": "maximally coherent state attains 2"},
        },
        "expected_mismatch": [],
    })

    # -- entanglement witness I (lift of the 1/2 coherence witness) -------
    lift_half = lift_coherence_witness(0.5, "X", bell)
    wit1_expr = expr_text(lift_half.descendant.ast)
    assert wit1_expr == "X1*X2 - Y1*Y2", wit1_expr
    fixtures.append({
        "schema": 1,
        "name": "ent-witness-I",
        "kind": "linear",
        "provenance": "two-qubit entanglement witness descended from the 1/2 "
                      "coherence witness via the pair-code image sum",
        "inequality": "X1*X2 - Y1*Y2 <= 1",
        "assignment": {},
        "state": {"kind": "pair", "n": 2, "a": "00", "b": "11",
                  "amps": ["1/sqrt2", "1/sqrt2"]},
        "claims": {
            "separable": {"value": 1, "source": "catalogued separable bound"},
            "quantum_value": {"value": 2, "source": "derived: pair state value"},
            "threshold_bound": {"value": 1, "source": "image count times threshold"},
        },
        "derivation": {
            "chain": [
                {"seed": {"lift": {"threshold": "1/2", "letter": "X",
                                   "encoding": {"ghz": 2}}}},
            ],
            "expect": wit1_expr,
        },
        "expected_mismatch": [],
    })

    # -- entanglement witness II (optimal linear witness, negated form) ---
    fixtures.append({
        "schema": 1,
        "name": "ent-witness-II-optimal",
        "kind": "linear",
        "provenance": "optimal linear two-qubit witness; stored negated so the "
                      "separable bound is an upper bound (0), violated by the "
                      "singlet",
        "inequality": "-1 - X1*X2 - Y1*Y2 - Z1*Z2 <= 0",
        "assignment": {},
        "state": {"kind": "pair", "n": 2, "a": "01", "b": "10",
                  "amps": ["1/sqrt2", "-1/sqrt2"]},
        "claims": {
            "separable": {"value": 0, "source": "catalogued witness threshold"},
            "quantum_value": {"value": 2, "source": "derived: singlet value"},
        },
        "expected_mismatch": [],
    })

    # -- mermin3 -----------------------------------------------------------
    fixtures.append({
        "schema": 1,
        "name": "mermin3",
        "kind": "linear",
        "provenance": "three-party two-setting correlation inequality, "
                      "deterministic bound 2, algebraic maximum 4",
        "inequality": "A1*A2*A3 + A1'*A2'*A3 + A1*A2'*A3' - A1'*A2*A3' <= 2",
        "assignment": {"A1": "X1", "A1'": "-Y1", "A2": "X2", "A2'": "Y2",
                       "A3": "X3", "A3'": "-Y3"},
        "state": {"kind": "ghz", "n": 3},
        "claims": {
            "lhv": {"value": 2, "source": "catalogued deterministic bound"},
            "quantum_value": {"value": 4, "source": "derived: GHZ value"},
        },
        "expected_mismatch": [],
    })

    # -- discord condition --------------------------------------------------
    fixtures.append({
        "schema": 1,
        "name": "discord-condition",
        "kind": "discord",
        "provenance": "adapted-basis correlator test for the classical-quantum "
                      "state structure",
        "epsilon": 0.5,
        "samples": 200,
        "rng_seed": 0,
        "claims": {
            "cq_correlators_vanish": {"value": True,
                                      "source": "classical-quantum structure"},
            "bell_fails": {"value": True, "source": "maximal correlation"},
        },
        "expected_mismatch": [],
    })

    # -- chsh ----------------------------------------------------------------
    fixtures.append({
        "schema": 1,
        "name": "chsh",
        "kind": "linear",
        "provenance": "two-party two-setting correlation inequality, "
                      "deterministic bound 2, quantum maximum 2*sqrt(2)",
        "inequality": "A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2",
        "assignment": {"A1": "(X1-Y1)/sqrt2", "A1'": "(X1+Y1)/sqrt2",
                       "A2": "X2", "A2'": "Y2"},
        "state": {"kind": "pair", "n": 2, "a": "00", "b": "11",
                  "amps": ["1/sqrt2", "1/sqrt2"]},
        "claims": {
            "lhv": {"value": 2, "source": "catalogued deterministic bound"},
            "quantum_value": {"value": fmt9(2 * np.sqrt(2)),
                              "source": "derived: pair-state value"},
            "quantum_max": {"value": fmt9(2 * np.sqrt(2)),
                            "source": "derived: eigensolver / see-saw"},
        },
        "expected_mismatch": [],
    })

    # -- chsh -> mermin ------------------------------------------------------
    precursor = lift_coherence_witness(2**-0.5, "X", bell).descendant
    p_mer = plan(2, bell, {Setting(2, "X"): PlanEntry("X"),
                           Setting(2, "Y"): PlanEntry("Y")})
    mermin_pauli = substitute(precursor, p_mer)
    mer_text = expr_text(mermin_pauli)
    assert mer_text == "X1*X2*X3 - X1*Y2*Y3 - Y1*X2*Y3 - Y1*Y2*X3", mer_text
    fixtures.append({
        "schema": 1,
        "name": "chsh-to-mermin",
        "kind": "derivation",
        "provenance": "two-site correlation seed at its maximal-violation "
                      "realization, second site replaced by the pair-code "
                      "image sums",
        "inequality": f"{mer_text} <= 2",
        "assignment": {},
        "state": {"kind": "ghz", "n": 3},
        "claims": {
            "lhv": {"value": 2, "source": "re-derived descendant bound"},
            "quantum_value": {"value": 4, "source": "derived: lifted-state value"},
        },
        "derivation": {
            "chain": [
                {"seed": {"lift": {"threshold": "1/sqrt2", "letter": "X",
                                   "encoding": {"ghz": 2}}},
                 "site": 2, "encoding": {"ghz": 2},
                 "plan": {"X2": {"letter": "X"}, "Y2": {"letter": "Y"}}},
            ],
            "expect": mer_text,
        },
        "expected_mismatch": [],
    })

    # -- dda3 ------------------------------------------------------------------
    chsh_sym = parse("A1*A2 + A1*A2' + A1'*A2 - A1'*A2' <= 2")
    p_dda = plan(2, bell, {Setting(2, "A"): PlanEntry("X", 1, ("subset", 0)),
                           Setting(2, "A", 1): PlanEntry("Z", 1, ("subset", 0))})
    dda_mixed = substitute(chsh_sym, p_dda)
    dda_text = expr_text(dda_mixed)
    assert dda_text == "A1*X2*X3 + A1*Z2 + A1'*X2*X3 - A1'*Z2", dda_text
    fixtures.append({
        "schema": 1,
        "name": "dda3",
        "kind": "linear",
        "provenance": "tripartite descendant of the two-party seed with one "
                      "two-site image and one single-site image",
        "inequality": "A1*A2*A3 + A1'*A2*A3 + A1*A2' - A1'*A2' <= 2",
        "assignment": {"A1": "-(X1+Z1)/sqrt2", "A1'": "-(X1-Z1)/sqrt2",
                       "A2": "X2", "A3": "X3", "A2'": "Z2"},
        "state": {"kind": "pair", "n": 3, "a": "011", "b": "100",
                  "amps": ["1/sqrt2", "-1/sqrt2"]},
        "claims": {
            "lhv": {"value": 2, "source": "catalogued deterministic bound"},
            "quantum_value": {"value": fmt9(2 * np.sqrt(2)),
                              "source": "derived: lifted-state value"},
        },
        "derivation": {
            "chain": [
                {"seed": "chsh", "site": 2, "encoding": {"ghz": 2},
                 "plan": {"A2": {"letter": "X", "select": [0]},
                          "A2'": {"letter": "Z", "select": [0]}}},
            ],
            "expect": dda_text,
        },
        "expected_mismatch": [],
    })

    # -- nl1-3party --------------------------------------------------------------
    wit_seed = parse("X1*X2 + Y1*Y2 + Z1*Z2 <= 1")
    p_nl1 = plan(2, bell, {Setting(2, "X"): PlanEntry("X"),
                           Setting(2, "Y"): PlanEntry("Y"),
                           Setting(2, "Z"): PlanEntry("Z")})
    nl1_pauli = substitute(wit_seed, p_nl1)
    nl1_text = expr_text(nl1_pauli)
    fixtures.append({
        "schema": 1,
        "name": "nl1-3party",
        "kind": "linear",
        "provenance": "three-party inequality from the two-qubit correlation "
                      "witness; all image sums on the second site",
        "inequality": "A1*A2*A3 - A1*A2'*A3' + A1'*A2*A3' + A1'*A2'*A3 "
                      "+ A1''*A2'' + A1''*A3'' <= 4",
        "assignment": {"A1": "-X1", "A1'": "-Y1", "A1''": "-Z1",
                       "A2": "X2", "A2'": "Y2", "A2''": "Z2",
                       "A3": "X3", "A3'": "Y3", "A3''": "Z3"},
        "state": {"kind": "pair", "n": 3, "a": "011", "b": "100",
                  "amps": ["1/sqrt2", "-1/sqrt2"]},
        "claims": {
            "lhv": {"value": 4, "source": "catalogued: bound set over all "
                                          "deterministic models"},
            "quantum_value": {"value": 6, "source": "catalogued: lifted singlet value"},
            "algebraic": {"value": 6, "source": "sum of absolute coefficients"},
        },
        "derivation": {
            "chain": [
                {"seed": {"expression": "X1*X2 + Y1*Y2 + Z1*Z2 <= 1"},
                 "site": 2, "encoding": {"ghz": 2},
                 "plan": {"X2": {"letter": "X"}, "Y2": {"letter": "Y"},
                          "Z2": {"letter": "Z"}}},
            ],
            "expect": nl1_text,
        },
        "expected_mismatch": [],
    })

    # -- fourparty ------------------------------------------------------------------
    p_four = plan(2, ghz3, {Setting(2, "X"): PlanEntry("X"),
                          Setting(2, "Y"): PlanEntry("Y"),
                          Setting(2, "Z"): PlanEntry("Z")})
    four_pauli = substitute(wit_seed, p_four)
    four_text = expr_text(four_pauli)
    fixtures.append({
        "schema": 1,
        "name": "fourparty",
        "kind": "linear",
        "provenance": "four-party inequality from the two-qubit correlation "
                      "witness; triple-code image sums on the second site",
        "inequality": "A1*A2*A3*A4 - A1*A2*A3'*A4' - A1*A2'*A3*A4' - A1*A2'*A3'*A4 "
                      "+ A1'*A2'*A3*A4 + A1'*A2*A3'*A4 + A1'*A2*A3*A4' - A1'*A2'*A3'*A4' "
                      "+ A1''*A2'' + A1''*A3'' + A1''*A4'' + A1''*A2''*A3''*A4'' <= 8",
        "assignment": {"A1": "X1", "A1'": "-Y1", "A1''": "Z1",
                       "A2": "X2", "A2'": "Y2", "A2''": "Z2",
                       "A3": "X3", "A3'": "Y3", "A3''": "Z3",
                       "A4": "X4", "A4'": "Y4", "A4''": "Z4"},
        "state": {"kind": "ghz", "n": 4},
        "claims": {
            "lhv": {"value": 8, "source": "catalogued: bound fixed so all "
                                          "deterministic models comply"},
            "quantum_value": {"value": 12, "source": "catalogued: GHZ attains the "
                                                     "algebraic bound"},
            "algebraic": {"value": 12, "source": "sum of absolute coefficients"},
        },
        "derivation": {
            "chain": [
                {"seed": {"expression": "X1*X2 + Y1*Y2 + Z1*Z2 <= 1"},
                 "site": 2, "encoding": {"ghz": 3},
                 "plan": {"X2": {"letter": "X"}, "Y2": {"letter": "Y"},
                          "Z2": {"letter": "Z"}}},
            ],
            "expect": four_text,
        },
        "expected_mismatch": [],
    })

    # -- cluster4 ---------------------------------------------------------------------
    cluster = LogicalEncoding.cluster_pair()
    clu_seed = parse("X1*X2*X3 + Z2*Z3 <= 1")
    p_clu = plan(3, cluster, {Setting(3, "X"): PlanEntry("Y", -1),
                              Setting(3, "Z"): PlanEntry("Z")})
    clu_pauli = substitute(clu_seed, p_clu)
    clu_text = expr_text(clu_pauli)
    assert clu_text == "X1*X2*X3*Y4 + X1*X2*Y3*X4 + Z2*X3*X4 - Z2*Y3*Y4", clu_text
    fixtures.append({
        "schema": 1,
        "name": "cluster4",
        "kind": "linear",
        "provenance": "four-qubit descendant of a three-site witness over the "
                      "superposed pair code, exactly as catalogued; the first "
                      "bracket uses the sign-flipped Y images, and the audit "
                      "shows the catalogued state only reaches the bound",
        "inequality": f"{clu_text} <= 2",
        "assignment": {},
        "state": {"kind": "amplitudes", "n": 4,
                  "nonzero": {"0000": "1/2", "0011": "1/2",
                              "1100": "1/2", "1111": "-1/2"}},
        "claims": {
            "lhv": {"value": 2, "source": "catalogued deterministic bound"},
            "violated": {"value": True, "source": "catalogued: maximally violated "
                                                  "by the four-qubit state"},
        },
        "derivation": {
            "chain": [
                {"seed": {"expression": "X1*X2*X3 + Z2*Z3 <= 1"},
                 "site": 3, "encoding": {"cluster": True},
                 "plan": {"X3": {"letter": "Y", "sign": -1},
                          "Z3": {"letter": "Z"}}},
            ],
            "expect": clu_text,
        },
        "alternatives": [
            {"label": "x-images-first-term",
             "inequality": "X1*X2*Z3 + X1*X2*Z4 + Z2*X3*X4 - Z2*Y3*Y4 <= 4"},
        ],
        "expected_mismatch": ["violated"],
    })

    # -- nonlinear6 ----------------------------------------------------------------------
    nl_seed = parse("X1*X2 + Y1*Y2 + Z1*Z2 - 1/2*sq(X1 + X2) - 1/2*sq(Y1 + Y2) <= 1")
    step1 = substitute(nl_seed, plan(2, ghz3, {
        Setting(2, "X"): PlanEntry("X"),
        Setting(2, "Y"): PlanEntry("Y", -1),
        Setting(2, "Z"): PlanEntry("Z"),
    }))
    step2 = substitute(step1, plan(1, ghz3, {
        Setting(1, "X"): PlanEntry("X"),
        Setting(1, "Y"): PlanEntry("Y"),
        Setting(1, "Z"): PlanEntry("Z"),
    }))
    nl6_text = expr_text(step2)
    fixtures.append({
        "schema": 1,
        "name": "nonlinear6",
        "kind": "nonlinear",
        "provenance": "six-qubit nonlinear inequality: both sites of the "
                      "nonlinear two-qubit witness replaced by triple-code "
                      "image sums (second block's Y sum enters with the "
                      "opposite sign, as the catalogued maximum requires)",
        "inequality": f"{nl6_text} <= 32",
        "assignment": {},
        "state": {"kind": "ghz", "n": 6},
        "claims": {
            "lhv": {"value": 32, "source": "catalogued nonlinear bound"},
            "quantum_value": {"value": 48, "source": "catalogued six-qubit GHZ value"},
            "algebraic": {"value": 48, "source": "sum of absolute coefficients"},
        },
        "derivation": {
            "chain": [
                {"seed": {"expression": "X1*X2 + Y1*Y2 + Z1*Z2 "
                                        "- 1/2*sq(X1 + X2) - 1/2*sq(Y1 + Y2) <= 1"},
                 "site": 2, "encoding": {"ghz": 3},
                 "plan": {"X2": {"letter": "X"}, "Y2": {"letter": "Y", "sign": -1},
                          "Z2": {"letter": "Z"}}},
                {"site": 1, "encoding": {"ghz": 3},
                 "plan": {"X1": {"letter": "X"}, "Y1": {"letter": "Y"},
                          "Z1": {"letter": "Z"}}},
            ],
            "expect": nl6_text,
        },
        "expected_mismatch": ["lhv"],
    })

    # -- mermin descendants ------------------------------------------------------------
    p_d4 = plan(3, bell, {Setting(3, "X"): PlanEntry("X"),
                          Setting(3, "Y"): PlanEntry("Y")})
    desc4 = substitute(mermin_pauli, p_d4)
    d4_text = expr_text(desc4)
    fixtures.append({
        "schema": 1,
        "name": "mermin-desc-4",
        "kind": "linear",
        "provenance": "four-party descendant: third site of the three-party "
                      "inequality replaced by pair-code image sums",
        "inequality": f"{d4_text} <= 4",
        "assignment": {},
        "state": {"kind": "ghz", "n": 4},
        "claims": {
            "lhv": {"value": 4, "source": "catalogued deterministic bound"},
        },
        "derivation": {
            "chain": [
                {"seed": "chsh-to-mermin", "site": 3, "encoding": {"ghz": 2},
                 "plan": {"X3": {"letter": "X"}, "Y3": {"letter": "Y"}}},
            ],
            "expect": d4_text,
        },
        "expected_mismatch": [],
    })

    p_d5 = plan(3, ghz3, {Setting(3, "X"): PlanEntry("X"),
                          Setting(3, "Y"): PlanEntry("Y")})
    desc5 = substitute(mermin_pauli, p_d5)
    d5_text = expr_text(desc5)
    fixtures.append({
        "schema": 1,
        "name": "mermin-desc-5",
        "kind": "linear",
        "provenance": "five-party descendant: third site of the three-party "
                      "inequality replaced by triple-code image sums; the "
                      "catalogued bound 8 does not survive exact enumeration "
                      "(the image-sum brackets are two-valued, giving 4)",
        "inequality": f"{d5_text} <= 8",
        "assignment": {},
        "state": {"kind": "ghz", "n": 5},
        "claims": {
            "lhv": {"value": 8, "source": "catalogued deterministic bound"},
        },
        "derivation": {
            "chain": [
                {"seed": "chsh-to-mermin", "site": 3, "encoding": {"ghz": 3},
                 "plan": {"X3": {"letter": "X"}, "Y3": {"letter": "Y"}}},
            ],
            "expect": d5_text,
        },
        "expected_mismatch": ["lhv"],
    })

    # -- svetlichny -----------------------------------------------------------------------
    sv3_text = ("B1*A2*A3 + B1'*A2*A3 + B1*A2'*A3 - B1'*A2'*A3 "
                "+ B1*A2*A3' - B1'*A2*A3' - B1*A2'*A3' - B1'*A2'*A3'")
    fixtures.append({
        "schema": 1,
        "name": "svetlichny3",
        "kind": "linear",
        "hybrid": True,
        "provenance": "tripartite grouped-model inequality, pre-expanded in the "
                      "first party's composite settings",
        "inequality": f"{sv3_text} <= 4",
        "assignment": {"B1": "(X1-Y1)/sqrt2", "B1'": "(X1+Y1)/sqrt2",
                       "A2": "X2", "A2'": "Y2", "A3": "X3", "A3'": "Y3"},
        "state": {"kind": "ghz", "n": 3},
        "claims": {
            "hybrid": {"value": 4, "source": "catalogued grouped-model bound"},
            "quantum_value": {"value": fmt9(4 * np.sqrt(2)),
                              "source": "derived: GHZ value"},
        },
        "expected_mismatch": [],
    })

    sv3 = parse(f"{sv3_text} <= 4")
    sv5_ast = substitute_symbolic(
        sv3, 3, 3,
        {Setting(3, "A"): (Setting(3, "A"), Setting(4, "A"), Setting(5, "A")),
         Setting(3, "A", 1): (Setting(3, "A", 1), Setting(4, "A", 1),
                              Setting(5, "A", 1))},
    )
    sv5_text = expr_text(sv5_ast)
    fixtures.append({
        "schema": 1,
        "name": "svetlichny-desc-5",
        "kind": "linear",
        "hybrid": True,
        "provenance": "five-party grouped-model descendant: the third party "
                      "splits into three parties measuring replicated settings",
        "inequality": f"{sv5_text} <= 4",
        "assignment": {"B1": "(X1-Y1)/sqrt2", "B1'": "(X1+Y1)/sqrt2",
                       "A2": "X2", "A2'": "Y2",
                       "A3": "X3", "A4": "X4", "A5": "X5",
                       "A3'": "-Y3", "A4'": "-Y4", "A5'": "-Y5"},
        "state": {"kind": "ghz", "n": 5},
        "claims": {
            "hybrid": {"value": 4, "source": "catalogued grouped-model bound"},
            "quantum_value": {"value": fmt9(4 * np.sqrt(2)),
                              "source": "derived: GHZ value"},
        },
        "derivation": {
            "symbolic": {"seed": "svetlichny3", "site": 3, "width": 3,
                         "map": {"A3": ["A3", "A4", "A5"],
                                 "A3'": ["A3'", "A4'", "A5'"]}},
        },
        "expected_mismatch": [],
    })

    # -- audit the written catalogue before it replaces the bundled one ---
    texts = {f"{fx['name']}.json": json.dumps(fx, indent=2) + "\n" for fx in fixtures}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        result = audit_all(load_catalog(tmp))
    print("audit of the new catalogue:")
    for rep in result.reports:
        failed = [key for key, ok in rep.claim_match.items() if not ok]
        flag = (" [UNEXPECTED-MISMATCH]" if rep.unexpected_mismatch
                else " [expected-mismatch]" if rep.known_mismatch else "")
        print(f"  {rep.name:24s} {rep.verdict:18s} failed={failed}{flag}")
    if result.unexpected_mismatches:
        raise SystemExit(f"unexpected mismatches: {result.unexpected_mismatches}")

    for name, text in texts.items():
        path = OUT / name
        path.write_text(text, encoding="utf-8")
        print("wrote", path.relative_to(ROOT))

if __name__ == "__main__":
    main()
