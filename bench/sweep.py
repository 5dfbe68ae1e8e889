"""Ungated scaling sweep through stabhom's public calls.

Usage: python bench/sweep.py [--budget SECONDS] [--only KIND]

Regenerates the baseline rows of ROADMAP.md:

- ``image_set`` of letter X on the GHZ code, widths 4-7;
- ``lhv_bound`` of the N-party Mermin expression, 16-20 settings (N = 8-10);
- ``quantum_max`` of the N-qubit Mermin expression, widths 10-12;
- ``audit_fixture`` wall time for every bundled fixture.

Each point runs in its own process and is timed around the one call.  A
point that runs past ``--budget`` is stopped and reported as skipped, not
failed, so later changes show progress towards the caps.  One JSON object
per point is printed; the exit code is 1 if any point failed.  These runs
are not part of the gated benchmark.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time

import workloads

KINDS = ("image_set", "lhv_bound", "quantum_max", "audit_fixture")
FIXTURES = (
    "chsh", "chsh-to-mermin", "cluster4", "coherence-X-half", "dda3", "discord-condition",
    "ent-witness-I", "ent-witness-II-optimal", "fourparty", "mermin-desc-4",
    "mermin-desc-5", "mermin3", "nl1-3party", "nonlinear6", "svetlichny-desc-5",
    "svetlichny3",
)
POINTS = (
    [("image_set", n) for n in range(4, 8)]
    + [("lhv_bound", n) for n in range(8, 11)]
    + [("quantum_max", n) for n in range(10, 13)]
    + [("audit_fixture", name) for name in FIXTURES]
)


def mermin(n: int):
    """The n-party Mermin expression: terms with an even number of Y factors."""
    from stabhom.dsl import load_ineq_text

    terms = [
        ((-1) ** (letters.count("Y") // 2), "".join(letters))
        for letters in itertools.product("XY", repeat=n)
        if letters.count("Y") % 2 == 0
    ]
    return load_ineq_text(workloads.ineq_text(f"mermin{n}", terms, "sweep"))


def run_point(kind: str, arg: str) -> dict:
    """Time one public call in this process; return its seconds and sizes."""
    if kind == "image_set":
        from stabhom.codespace import LogicalEncoding, image_set

        enc = LogicalEncoding.ghz(int(arg))
        start = time.perf_counter()
        members = len(image_set(enc, "X"))
        return {"seconds": time.perf_counter() - start, "width": enc.width,
                "strings": 4 ** enc.width, "members": members}
    if kind == "lhv_bound":
        from stabhom.bounds import lhv_bound

        ineq = mermin(int(arg))
        start = time.perf_counter()
        value = lhv_bound(ineq)
        return {"seconds": time.perf_counter() - start, "parties": int(arg),
                "settings": len(ineq.ast.settings), "terms": len(ineq.ast.linear),
                "value": value}
    if kind == "quantum_max":
        from stabhom.bounds import quantum_max

        ineq = mermin(int(arg))
        start = time.perf_counter()
        value = quantum_max(ineq)
        return {"seconds": time.perf_counter() - start, "width": int(arg),
                "terms": len(ineq.ast.linear), "value": value}
    if kind == "audit_fixture":
        from stabhom.catalog import audit_fixture, load_catalog

        catalog = load_catalog()
        fx = next(f for f in catalog if f.name == arg)
        start = time.perf_counter()
        report = audit_fixture(fx, catalog)
        return {"seconds": time.perf_counter() - start, "verdict": report.verdict}
    raise ValueError(f"unknown kind {kind!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description="ungated scaling sweep")
    ap.add_argument("--budget", type=float, default=30.0, help="seconds per point")
    ap.add_argument("--only", choices=KINDS)
    ap.add_argument("--point", nargs=2, metavar=("KIND", "ARG"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.point:
        print(json.dumps(run_point(*args.point)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    failed = 0
    for kind, arg in POINTS:
        if args.only and kind != args.only:
            continue
        row = {"kind": kind, "arg": arg, "budget_s": args.budget}
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--point", kind, str(arg)],
                capture_output=True, text=True, env=env, timeout=args.budget, check=False,
            )
        except subprocess.TimeoutExpired:
            row["status"] = "skipped"
        else:
            if proc.returncode == 0:
                row.update(status="ok", **json.loads(proc.stdout.splitlines()[-1]))
            else:
                row.update(status="failed", error=proc.stderr.strip().splitlines()[-1:])
                failed += 1
        print(json.dumps(row), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
