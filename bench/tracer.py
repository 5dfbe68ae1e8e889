"""Span recorder that wraps stabhom's public functions from outside.

``Recorder.install`` replaces each function named in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent) and, for some
layers, problem sizes.  Modules import many of these functions by name
(``from .codespace import image_set`` in ``descend`` and ``cli``), so the
wrapper is rebound in every ``stabhom`` module attribute that holds the
original function.  Spans stay in memory until ``dump``.

``call_metrics`` turns the spans of one CLI call into per-layer numbers
and ``job_metrics`` sums them over the calls of a job.  A layer's self
time is the summed duration of its spans minus the time covered by their
direct child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

# (module, function, span name); several functions may share a span name
TARGETS = (
    ("cli", "main", "cli.main"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "assign_paulis", "dsl.assign"),
    ("dsl", "pretty_print", "dsl.pretty_print"),
    ("codespace", "image_set", "codespace.image_set"),
    ("codespace", "lift_state", "codespace.lift_state"),
    ("descend", "substitute", "descend.substitute"),
    ("descend", "enumerate_descendants", "descend.enumerate"),
    ("bounds", "lhv_bound", "bounds.lhv"),
    ("bounds", "lhv_strategy", "bounds.lhv"),
    ("bounds", "lhv_bound_nonlinear", "bounds.envelope"),
    ("bounds", "quantum_max", "bounds.quantum_max"),
    ("bounds", "quantum_value", "bounds.quantum_value"),
    ("bounds", "separable_bound", "bounds.separable"),
    ("bounds", "discord_condition_check", "bounds.discord"),
    ("states", "assemble_operator", "states.assemble"),
    ("states", "max_eigenvalue", "states.eig"),
    ("states", "max_eigenpair", "states.eig"),
    ("states", "expectation", "states.expectation"),
    ("states", "apply_pauli", "states.apply_pauli"),
    ("pauli", "to_matrix", "pauli.to_matrix"),
    ("catalog", "load_catalog", "catalog.load"),
    ("catalog", "audit_fixture", "catalog.audit_fixture"),
    ("catalog", "replay_derivation", "catalog.replay"),
)


def _ast(expr):
    return getattr(expr, "ast", expr)


def _n_settings(expr) -> int:
    return len(_ast(expr).settings)


# span name -> function(args, result, counts) recording problem sizes
def _image_set(args, result, counts):
    enc, letter = args[0], args[1]
    counts["codespace.strings_tested"] += 4 ** enc.width
    counts["distinct:" + repr((enc.width, enc.zero_l.amplitudes.tobytes(),
                               enc.one_l.amplitudes.tobytes(), letter))] = 1


def _lhv(args, result, counts):
    s = _n_settings(args[0])
    counts["bounds.lhv.strategies"] += 1 << s
    counts["bounds.lhv.settings_max"] = max(counts["bounds.lhv.settings_max"], s)


def _envelope(args, result, counts):
    if not _ast(args[0]).is_linear:  # linear input is delegated to lhv_bound
        counts["bounds.envelope.strategies"] += 1 << _n_settings(args[0])


def _assemble(args, result, counts):
    counts["states.assemble.bytes_computed"] += 16 * result.shape[0] ** 2


def _eig(args, result, counts):
    d = len(args[0])
    counts["states.eig.dim_max"] = max(counts["states.eig.dim_max"], d)
    counts["states.eig.dim3_sum"] += d ** 3


def _enumerate(args, result, counts):
    counts["descend.kept"] += len(result)
    counts["descend.accepted"] += sum(1 for r in result if r.accepted)


COUNTS = (
    "codespace.strings_tested", "bounds.lhv.strategies", "bounds.lhv.settings_max",
    "bounds.envelope.strategies", "states.assemble.bytes_computed", "states.eig.dim_max",
    "states.eig.dim3_sum", "descend.kept", "descend.accepted",
)

SIZERS = {
    "codespace.image_set": _image_set,
    "bounds.lhv": _lhv,
    "bounds.envelope": _envelope,
    "states.assemble": _assemble,
    "states.eig": _eig,
    "descend.enumerate": _enumerate,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _wrap(self, fn, name):
        spans, counts, local = self.spans, self.counts, self._local
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                sizer(args, result, counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every stabhom module attribute that holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "stabhom" or k.startswith("stabhom."))]
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules["stabhom." + mod_name], fn_name)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# aggregation

def call_metrics(record: dict, wall_s: float) -> dict:
    """Per-layer numbers for one traced CLI call measured at ``wall_s``."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter()
    covered = 0.0
    eig_parent: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name != "cli.main" and parent_name in (None, "cli.main"):
            covered += end - start
        if name == "states.eig":
            eig_parent[parent_name] += 1
    durations = [end - start for name, start, end, _ in spans if name == "catalog.audit_fixture"]
    counts = record["counts"]
    out = {
        "cli.self_s": wall_s - covered,
        "trace.unattributed_s": self_s["cli.main"],
        "catalog.slowest_fixture_s": max(durations, default=0.0),
        "codespace.image_set.distinct": sum(1 for k in counts if k.startswith("distinct:")),
        "bounds.quantum_max.eig_calls": eig_parent["bounds.quantum_max"],
        "bounds.separable.eig_calls": eig_parent["bounds.separable"],
    }
    for name in set(calls) | {n for _, _, n in TARGETS}:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    return out


def job_metrics(calls: list[dict]) -> dict:
    """Sum per-call numbers over the calls of one job (maxima stay maxima)."""
    out: Counter = Counter()
    for m in calls:
        for key, value in m.items():
            if key.endswith(("_max", "slowest_fixture_s")):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return dict(out)
