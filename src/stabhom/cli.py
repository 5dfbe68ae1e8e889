"""Command-line interface.

Subcommands: images, descend, bound, qvalue, audit, parse.
Exit codes: 0 success, 1 claim mismatch, 2 usage or operational error.
All numbers print at 9 significant digits (round-half-even); ``--json``
emits machine-readable output that carries the same values.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bounds import (
    hybrid_bound,
    lhv_bound_nonlinear,
    lhv_strategy,
    quantum_max,
    separable_bound,
    separable_terms,
)
from . import bounds as _bounds
from .catalog import audit_all, load_catalog, state_from_spec
from .codespace import LogicalEncoding, image_set
from .config import LIMITS, TOL
from .descend import enumerate_descendants
from .dsl import load_ineq, pretty_print
from .states import StateVector, ghz_state, make_pair_superposition

USAGE_ERROR = 2
MISMATCH_ERROR = 1


def fmt9(x) -> str:
    if x is None:
        return "-"
    return format(float(x), "#.9g")


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# shared option handling

def _encoding_from_args(args) -> LogicalEncoding:
    chosen = [args.ghz is not None, bool(args.cluster), bool(args.encoding)]
    if sum(chosen) != 1:
        raise CliError("specify exactly one of --ghz N, --cluster, --encoding FILE")
    if args.ghz is not None:
        return LogicalEncoding.ghz(args.ghz)
    if args.cluster:
        return LogicalEncoding.cluster_pair()
    return LogicalEncoding.from_json(json.loads(Path(args.encoding).read_text(encoding="utf-8")))


def _state_from_arg(text: str) -> StateVector:
    if text == "bell":
        return make_pair_superposition("00", "11", 2**-0.5, 2**-0.5)
    if text == "singlet":
        return make_pair_superposition("01", "10", 2**-0.5, -(2**-0.5))
    if text.startswith("ghz:"):
        return ghz_state(int(text.split(":", 1)[1]))
    if text.endswith(".json"):
        text = Path(text).read_text(encoding="utf-8")
    return state_from_spec(json.loads(text))


def _add_encoding_options(p: argparse.ArgumentParser):
    p.add_argument("--ghz", type=int, help="basis-pair code |0..0>, |1..1> on N qubits")
    p.add_argument("--cluster", action="store_true",
                   help="superposed pair code (|00>+|11>, |00>-|11>)/sqrt2")
    p.add_argument("--encoding", help="JSON file with a code spec: {\"ghz\": N}, "
                   "{\"cluster\": true}, or n with zero/one basis labels or [re, im] lists")


# ---------------------------------------------------------------------------
# subcommands

def cmd_images(args) -> int:
    enc = _encoding_from_args(args)
    letters = [args.letter] if args.letter else list("IXYZ")
    payload = {letter: [str(p) for p in image_set(enc, letter)] for letter in letters}
    if args.json:
        print(json.dumps({"width": enc.width, "images": payload}, indent=2))
    else:
        for letter in letters:
            if not args.letter:
                print(f"{letter}:")
            for text in payload[letter]:
                print(text)
    return 0


_JSON_BATCH = 64  # rows per write, about 16 KB of text


def _write_json_rows(results) -> None:
    """Print ``json.dumps([r.to_json() for r in results], indent=2)``, batch by batch.

    Each batch is encoded as one indented list and written without its
    brackets, so only one batch's dicts and text are held at a time.
    """
    if not results:
        print("[]")
        return
    for start in range(0, len(results), _JSON_BATCH):
        text = json.dumps([r.to_json() for r in results[start:start + _JSON_BATCH]], indent=2)
        sys.stdout.write(("[\n" if start == 0 else ",\n") + text[2:-2])
    sys.stdout.write("\n]\n")


def cmd_descend(args) -> int:
    seed = load_ineq(args.seed)
    enc = _encoding_from_args(args)
    letter_map = json.loads(args.map) if args.map else {}
    if letter_map == {}:
        # default: fixed-Pauli settings on the target site keep their letter
        for s in seed.ast.settings:
            if s.site == args.site and s.is_fixed_pauli:
                letter_map[s.text()] = s.base
    state = _state_from_arg(args.state) if args.state else None
    assignment = json.loads(args.assignment) if args.assignment else None
    results = enumerate_descendants(
        seed, args.site, enc, letter_map,
        seed_state=state, seed_assignment=assignment,
        max_assignments=args.max_assignments,
    )
    if results and results[0].truncated:
        print("warning: assignment search truncated at cap", file=sys.stderr)
    if args.json:
        _write_json_rows(results)
    else:
        for r in results:
            qv = fmt9(r.quantum_value) if r.quantum_value is not None else "-"
            mark = "*" if r.accepted else " "
            print(f"{mark} lhv={fmt9(r.lhv_bound)} qv={qv}  {r.expression}")
    return 0


def cmd_bound(args) -> int:
    ineq = load_ineq(args.file)
    certificate = None
    if args.kind == "lhv":
        value, strategy = lhv_strategy(ineq)
        certificate = {s.text(): v for s, v in strategy.items()}
    elif args.kind == "nonlinear":
        value = lhv_bound_nonlinear(ineq)
    elif args.kind == "hybrid":
        value = hybrid_bound(ineq)
    elif args.kind == "separable":
        assignment = json.loads(args.assignment) if args.assignment else None
        res = separable_bound(separable_terms(ineq, assignment))
        value = res.value
        certificate = {
            "left_state": [[v.real, v.imag] for v in res.left_state],
            "right_state": [[v.real, v.imag] for v in res.right_state],
        }
    elif args.kind == "quantum":
        value = quantum_max(ineq.ast, json.loads(args.assignment) if args.assignment else None)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown kind {args.kind}")
    if args.json:
        print(json.dumps({"kind": args.kind, "value": float(fmt9(value)),
                          "certificate": certificate}, indent=2))
    else:
        print(fmt9(value))
    return 0


def cmd_qvalue(args) -> int:
    if args.fixture:
        catalog = load_catalog(args.fixtures)
        matches = [f for f in catalog if f.name == args.fixture]
        if not matches:
            raise CliError(f"unknown fixture {args.fixture!r}")
        fx = matches[0]
        state = fx.state
        if state is None:
            raise CliError(f"fixture {fx.name} carries no state")
        value = _bounds.quantum_value(fx.inequality, fx.assignment, state)
    else:
        if not (args.file and args.state):
            raise CliError("qvalue needs --fixture NAME or --file F --state S")
        ineq = load_ineq(args.file)
        state = _state_from_arg(args.state)
        assignment = json.loads(args.assignment) if args.assignment else None
        value = _bounds.quantum_value(ineq, assignment, state)
    if args.json:
        print(json.dumps({"value": float(fmt9(value))}, indent=2))
    else:
        print(fmt9(value))
    return 0


def cmd_audit(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise CliError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    catalog = load_catalog(args.fixtures)
    tol = TOL.with_claim(args.tolerance)
    result = audit_all(catalog, tol, workers=args.workers)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        for rep in result.reports:
            cols = [
                f"lhv={fmt9(rep.lhv)}" if rep.lhv is not None else None,
                f"hybrid={fmt9(rep.hybrid)}" if rep.hybrid is not None else None,
                f"separable={fmt9(rep.separable)}" if rep.separable is not None else None,
                f"qv={fmt9(rep.quantum_value)}" if rep.quantum_value is not None else None,
                f"qmax={fmt9(rep.quantum_max)}" if rep.quantum_max is not None else None,
            ]
            detail = " ".join(c for c in cols if c)
            flag = (" [UNEXPECTED-MISMATCH]" if rep.unexpected_mismatch
                    else " [expected-mismatch]" if rep.known_mismatch else "")
            print(f"{rep.name:24s} {rep.verdict:18s} {detail}{flag}")
        print(f"exit={result.exit_code} expected={result.expected_mismatches} "
              f"unexpected={result.unexpected_mismatches}")
    return MISMATCH_ERROR if result.exit_code else 0


def cmd_parse(args) -> int:
    ineq = load_ineq(args.file)
    if args.json:
        print(json.dumps({
            "name": ineq.name,
            "provenance": ineq.provenance,
            "canonical": pretty_print(ineq),
            "settings": [s.text() for s in ineq.ast.settings],
            "linear_terms": len(ineq.ast.linear),
            "square_terms": len(ineq.ast.squares),
        }, indent=2))
    else:
        print(pretty_print(ineq))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabhom",
        description="image sets, descendant inequalities, and bound audits",
    )
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="worker count for parallel sections (1 = serial)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("images", help="print image sets of a logical letter")
    _add_encoding_options(p)
    p.add_argument("--letter", choices=list("IXYZ"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_images)

    p = sub.add_parser("descend", help="enumerate descendants of a seed inequality")
    p.add_argument("seed", help=".ineq file")
    p.add_argument("--site", type=int, required=True)
    _add_encoding_options(p)
    p.add_argument("--map", help="JSON letter map for symbolic target settings")
    p.add_argument("--state", help="seed violator: bell | singlet | ghz:N | spec JSON")
    p.add_argument("--assignment", help="JSON observable assignment for seed sites")
    p.add_argument("--max-assignments", type=int, default=LIMITS.max_assignments)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("bound", help="compute one bound kind for an .ineq file")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=["lhv", "nonlinear", "separable", "hybrid", "quantum"])
    p.add_argument("--assignment", help="JSON observable assignment")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("qvalue", help="quantum value of a fixture or expression")
    p.add_argument("--fixture")
    p.add_argument("--fixtures", help="fixtures directory (default: the bundled fixtures)")
    p.add_argument("--file")
    p.add_argument("--state")
    p.add_argument("--assignment")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qvalue)

    p = sub.add_parser("audit", help="re-derive every catalogued claim")
    p.add_argument("--fixtures", help="fixtures directory (default: the bundled fixtures)")
    p.add_argument("--tolerance", type=float, default=TOL.claim)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("parse", help="parse and canonicalize an .ineq file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:  # every module error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
