"""The benchmark workloads: their inputs, jobs and set-up loaders.

``BENCHMARK.json`` gates audit-catalog and descend-ghz3; cap-scale runs the
same way but is not gated (see README.md).

A job is a list of CLI calls; each call is the argument list after
``python -m stabhom.cli``.  Inputs that depend on the workload seed are
written under the work directory before any timing starts.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEEDS = SRC / "stabhom" / "data" / "seeds"

# cap-scale instances: (name, parties, bound kind)
CAP_BOUNDS = (("corr9", 9, "lhv"), ("corr11", 11, "quantum"), ("corr6", 6, "separable"))
CAP_IMAGE_WIDTH = 6


@dataclass
class Workload:
    name: str
    calls: list[tuple[str, list[str]]]     # one job = these (label, CLI args), in order
    loaders: list[str] = field(default_factory=list)  # set-up probe arguments
    sizes: dict = field(default_factory=dict)


def xy_terms(parties: int, rng: random.Random) -> list[tuple[int, str]]:
    """Full X/Y correlator terms with an even number of Y factors.

    With every sign (-1)^(#Y/2) this is the Mermin operator; the benchmark
    draws each sign from ``rng`` instead.  A term is (sign, letters) with
    ``letters[k]`` acting on site k + 1.
    """
    return [
        (rng.choice((1, -1)), "".join(letters))
        for letters in itertools.product("XY", repeat=parties)
        if letters.count("Y") % 2 == 0
    ]


def ineq_text(name: str, terms: list[tuple[int, str]], note: str) -> str:
    body = " ".join(
        ("+" if sign > 0 else "-") + "*".join(f"{l}{k + 1}" for k, l in enumerate(letters))
        for sign, letters in terms
    )
    return f"name: {name}\nprovenance: {note}\n{body.lstrip('+')} <= 0\n"


def cap_terms(seed: int) -> dict[str, list[tuple[int, str]]]:
    """The cap-scale operators drawn from ``seed``, keyed by bound kind."""
    rng = random.Random(seed)
    return {kind: xy_terms(parties, rng) for _, parties, kind in CAP_BOUNDS}


def write_cap_inputs(workdir: Path, seed: int) -> dict[str, Path]:
    terms = cap_terms(seed)
    paths = {}
    for name, _, kind in CAP_BOUNDS:
        path = workdir / f"{name}-seed{seed}.ineq"
        path.write_text(ineq_text(name, terms[kind], f"benchmark seed {seed}"))
        paths[name] = path
    return paths


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "audit-catalog":
        return Workload(
            name,
            [("audit", ["--workers", "1", "audit", "--json"])],
            loaders=["--catalog"],
            sizes={"fixtures": 16},
        )
    if name == "descend-ghz3":
        seed_file = SEEDS / "chsh.ineq"
        return Workload(
            name,
            [("descend", ["--workers", "1", "descend", str(seed_file), "--site", "2",
                          "--ghz", "3", "--state", "bell", "--json"])],
            loaders=["--ineq", str(seed_file), "--ghz", "3"],
            sizes={"seed_settings": 2, "seed_terms": 2, "encoding_width": 3},
        )
    if name == "cap-scale":
        paths = write_cap_inputs(workdir, seed)
        calls = [("images", ["--workers", "1", "images", "--ghz", str(CAP_IMAGE_WIDTH), "--json"])]
        sizes = {"images": {"width": CAP_IMAGE_WIDTH, "letters": 4,
                            "strings_per_letter": 4 ** CAP_IMAGE_WIDTH}}
        loaders = ["--ghz", str(CAP_IMAGE_WIDTH)]
        for fname, parties, kind in CAP_BOUNDS:
            calls.append((kind, ["--workers", "1", "bound", str(paths[fname]),
                                 "--kind", kind, "--json"]))
            sizes[kind] = {"parties": parties, "settings": 2 * parties,
                           "terms": 2 ** (parties - 1), "width": parties}
            loaders += ["--ineq", str(paths[fname])]
        return Workload(name, calls, loaders=loaders, sizes=sizes)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("audit-catalog", "descend-ghz3", "cap-scale")
