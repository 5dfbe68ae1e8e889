"""Output checks for benchmark jobs.

Each CLI call of a job is checked against references recorded from the
program (``reference/``) and, for the cap-scale bounds, against checks
that do not use the program: the LHV certificate is re-evaluated, the
quantum maximum is recomputed with ``scipy.sparse.linalg.eigsh`` and the
separable certificate's product state is evaluated on the same operator.
Those independent checks run for every seed; the recorded references exist
for cap-scale seed 0 only.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from workloads import cap_terms

REF = Path(__file__).resolve().parent / "reference"
REF_SEED = 0
EXPECTED_MISMATCHES = ["cluster4", "mermin-desc-5", "nonlinear6"]
VALUE_TOL = 1e-9


def printed_tol(value: float) -> float:
    """Allowance for the CLI printing values at 9 significant digits."""
    return VALUE_TOL + 5e-9 * abs(value)


def pauli_operator(terms: list[tuple[int, str]]) -> sp.csr_matrix:
    """Sparse sum of signed Pauli strings; site 1 is the most significant bit."""
    n = len(terms[0][1])
    cols = np.arange(1 << n)
    rows, data = [], []
    for sign, letters in terms:
        x = z = 0
        for k, letter in enumerate(letters):
            bit = 1 << (n - 1 - k)
            if letter in "XY":
                x |= bit
            if letter in "YZ":
                z |= bit
        parity = np.zeros(len(cols), dtype=np.int64)
        masked = cols & z
        while masked.any():
            parity ^= masked & 1
            masked = masked >> 1
        phase = sign * (1j ** letters.count("Y"))
        rows.append(cols ^ x)
        data.append(phase * (1 - 2 * parity))
    dim = 1 << n
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.tile(cols, len(terms)))),
        shape=(dim, dim),
    )


class Expectations:
    """What every call of one workload at one seed must print."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.refs: dict[str, bytes] = {}
        if workload == "audit-catalog":
            self.refs["audit"] = (REF / "audit.json").read_bytes()
        elif workload == "descend-ghz3":
            self.refs["descend"] = (REF / "descend-ghz3.json").read_bytes()
        elif workload == "cap-scale":
            self.refs["images"] = (REF / "cap-images.json").read_bytes()
            if seed == REF_SEED:
                for kind in ("lhv", "quantum", "separable"):
                    self.refs[kind] = (REF / f"cap-{kind}-seed0.json").read_bytes()
            self.terms = cap_terms(seed)
            self.ops = {k: pauli_operator(t) for k, t in self.terms.items()
                        if k in ("quantum", "separable")}
            self.qmax = {k: float(eigsh(op, k=1, which="LA", return_eigenvectors=False)[0])
                         for k, op in self.ops.items()}
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def check(self, label: str, rc: int, stdout: bytes) -> list[str]:
        """Problems found in one call's exit code and output; empty when correct."""
        if rc != 0:
            return [f"{label}: exit code {rc}"]
        try:
            return getattr(self, "_check_" + label)(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{label}: malformed output ({exc!r})"]

    def _check_audit(self, out: bytes) -> list[str]:
        problems = []
        if out != self.refs["audit"]:
            problems.append("audit: JSON differs from the reference")
        summary = json.loads(out)["summary"]
        if summary["expected_mismatches"] != EXPECTED_MISMATCHES:
            problems.append(f"audit: expected mismatches {summary['expected_mismatches']}")
        if summary["unexpected_mismatches"] or summary["exit_code"] != 0:
            problems.append(f"audit: unexpected mismatches {summary['unexpected_mismatches']}")
        return problems

    def _check_descend(self, out: bytes) -> list[str]:
        got, ref = json.loads(out), json.loads(self.refs["descend"])
        if [r["expression"] for r in got] != [r["expression"] for r in ref]:
            return ["descend: descendant expressions or their order differ"]
        problems = []
        for g, r in zip(got, ref):
            if g["truncated"] or g["accepted"] != r["accepted"]:
                problems.append(f"descend: flags differ for {g['expression']}")
            for key in ("lhv_bound", "quantum_value", "violation_ratio"):
                if abs(g[key] - r[key]) > VALUE_TOL:
                    problems.append(f"descend: {key} {g[key]} != {r[key]} for {g['expression']}")
        return problems

    def _check_images(self, out: bytes) -> list[str]:
        return [] if out == self.refs["images"] else ["images: output differs from the reference"]

    def _reference_value(self, kind: str):
        ref = self.refs.get(kind)
        return None if ref is None else json.loads(ref)["value"]

    def _check_lhv(self, out: bytes) -> list[str]:
        got = json.loads(out)
        value, cert = got["value"], got["certificate"]
        problems = []
        achieved = sum(
            sign * np.prod([cert[f"{l}{k + 1}"] for k, l in enumerate(letters)])
            for sign, letters in self.terms["lhv"]
        )
        if abs(achieved - value) > printed_tol(value):
            problems.append(f"lhv: certificate evaluates to {achieved}, not {value}")
        ref = self._reference_value("lhv")
        if ref is not None and value != ref:
            problems.append(f"lhv: value {value} != reference {ref}")
        return problems

    def _check_quantum(self, out: bytes) -> list[str]:
        value = json.loads(out)["value"]
        problems = []
        if abs(value - self.qmax["quantum"]) > printed_tol(value):
            problems.append(f"quantum: value {value} != eigsh {self.qmax['quantum']}")
        ref = self._reference_value("quantum")
        if ref is not None and abs(value - ref) > VALUE_TOL:
            problems.append(f"quantum: value {value} != reference {ref}")
        return problems

    def _check_separable(self, out: bytes) -> list[str]:
        got = json.loads(out)
        value, cert = got["value"], got["certificate"]
        left = np.array([complex(re, im) for re, im in cert["left_state"]])
        right = np.array([complex(re, im) for re, im in cert["right_state"]])
        psi = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
        achieved = float(np.vdot(psi, self.ops["separable"] @ psi).real)
        problems = []
        if abs(achieved - value) > printed_tol(value):
            problems.append(f"separable: certificate evaluates to {achieved}, not {value}")
        if value > self.qmax["separable"] + printed_tol(value):
            problems.append(f"separable: {value} exceeds the quantum maximum")
        ref = self._reference_value("separable")
        if ref is not None and value < ref - VALUE_TOL:
            problems.append(f"separable: value {value} below reference {ref}")
        return problems
