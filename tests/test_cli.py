"""CLI contract: exit codes and ``--json`` schemas, run in process."""
import json
from pathlib import Path

import jsonschema
import pytest

import stabhom
from conftest import brute_force_images
from stabhom import cli
from stabhom.codespace import LogicalEncoding

PACKAGE = Path(stabhom.__file__).parent
SEEDS = PACKAGE / "data" / "seeds"


def run_json(capsys, argv, schema):
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    spec = json.loads((PACKAGE / "schemas" / schema).read_text(encoding="utf-8"))
    jsonschema.validate(payload, spec)
    return code, payload


def test_images_json(capsys):
    code, payload = run_json(capsys, ["images", "--ghz", "3", "--json"], "images.schema.json")
    assert code == 0
    assert payload == {"width": 3, "images": brute_force_images(LogicalEncoding.ghz(3))}


def test_descend_json(capsys):
    argv = ["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3",
            "--state", "bell", "--json"]
    code, rows = run_json(capsys, argv, "descend.schema.json")
    assert code == 0
    assert len(rows) == 225
    assert sum(r["accepted"] for r in rows) == 71


def test_images_width_cap_is_a_usage_error(capsys):
    assert cli.main(["images", "--ghz", "9"]) == cli.USAGE_ERROR == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv,seed", [([], 0), (["--rng-seed", "7"], 7)],
                         ids=["default", "seed7"])
def test_rng_seed_reaches_separable_optimiser(monkeypatch, capsys, argv, seed):
    seen = []
    optimise = cli.separable_bound

    def recording(terms, **kwargs):
        seen.append(kwargs.get("seed"))
        return optimise(terms, **kwargs)

    monkeypatch.setattr(cli, "separable_bound", recording)
    code, payload = run_json(
        capsys,
        argv + ["bound", str(SEEDS / "entwit.ineq"), "--kind", "separable", "--json"],
        "bound.schema.json",
    )
    assert code == 0 and seen == [seed]
    assert payload["value"] == pytest.approx(1.0)
