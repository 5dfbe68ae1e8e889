"""CLI contract: exit codes and ``--json`` schemas, run in process."""
import json
import shutil
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


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_descend_cap_below_one_is_a_usage_error(capsys, cap):
    argv = ["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3",
            "--state", "bell", "--json", "--max-assignments", cap]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "max_assignments" in captured.err


def test_images_width_cap_is_a_usage_error(capsys):
    assert cli.main(["images", "--ghz", "9"]) == cli.USAGE_ERROR == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv,seed", [([], 0), (["--rng-seed", "7"], 7)],
                         ids=["default", "seed7"])
def test_rng_seed_reaches_quantum_optimiser(monkeypatch, capsys, argv, seed):
    seen = []
    optimise = cli.quantum_max

    def recording(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return optimise(*args, **kwargs)

    monkeypatch.setattr(cli, "quantum_max", recording)
    code, payload = run_json(
        capsys,
        argv + ["bound", str(SEEDS / "nonlinear6.ineq"), "--kind", "quantum", "--json"],
        "bound.schema.json",
    )
    assert code == 0 and seen == [seed]
    assert payload["value"] == pytest.approx(48.0)


@pytest.mark.parametrize("kind,text,hint", [
    ("lhv", "A1 - 1/2*sq(A1) <= 1", "--kind nonlinear"),
    ("separable", "X1*X2 - 1/2*sq(X1*X2) <= 1", "linear"),
])
def test_bound_refuses_square_terms(tmp_path, capsys, kind, text, hint):
    path = tmp_path / "square.ineq"
    path.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["bound", str(path), "--kind", kind]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and hint in captured.err


def test_audit_json_schema(capsys):
    code, payload = run_json(capsys, ["audit", "--json"], "audit.schema.json")
    assert code == 0
    assert payload["summary"]["expected_mismatches"] == ["cluster4", "mermin-desc-5", "nonlinear6"]
    assert payload["summary"]["unexpected_mismatches"] == []


def test_audit_output_independent_of_workers(capsys):
    outs = []
    for workers in ("1", "2"):
        assert cli.main(["--workers", workers, "audit", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_audit_unexpected_mismatch_exits_1(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(PACKAGE / "fixtures", fixtures)
    path = fixtures / "chsh.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["claims"]["lhv"]["value"] += 1
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, payload = run_json(capsys, ["audit", "--fixtures", str(fixtures), "--json"],
                             "audit.schema.json")
    assert code == cli.MISMATCH_ERROR == 1
    assert payload["summary"]["exit_code"] == 1
    assert payload["summary"]["unexpected_mismatches"] == ["chsh"]


def test_qvalue_json(capsys):
    code, payload = run_json(capsys, ["qvalue", "--fixture", "mermin3", "--json"],
                             "qvalue.schema.json")
    assert code == 0 and payload == {"value": 4.0}
