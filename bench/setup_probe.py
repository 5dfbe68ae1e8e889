"""Set-up probe: import the CLI, load a workload's inputs, exit.

Usage: python bench/setup_probe.py [--catalog] [--ineq FILE]... [--ghz N]...

Runs in a fresh interpreter with ``src`` on PYTHONPATH; its wall time,
measured by the caller, is the benchmark's ``setup_s``.
"""
import argparse

import stabhom.cli  # noqa: F401  (the import is part of what is timed)
from stabhom.catalog import load_catalog
from stabhom.codespace import LogicalEncoding
from stabhom.dsl import load_ineq


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--catalog", action="store_true")
    ap.add_argument("--ineq", action="append", default=[])
    ap.add_argument("--ghz", type=int, action="append", default=[])
    args = ap.parse_args()
    if args.catalog:
        load_catalog()
    for path in args.ineq:
        load_ineq(path)
    for n in args.ghz:
        LogicalEncoding.ghz(n)


if __name__ == "__main__":
    main()
