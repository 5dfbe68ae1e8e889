"""CLI contract: exit codes and ``--json`` schemas, run in process."""
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import stabhom
from conftest import brute_force_images, xy_chain
from stabhom import bounds, cli
from stabhom.catalog import state_from_spec
from stabhom.codespace import LogicalEncoding, image_set
from stabhom.config import LIMITS, SearchLimits
from stabhom.descend import enumerate_descendants
from stabhom.dsl import load_ineq
from stabhom.states import make_pair_superposition

PACKAGE = Path(stabhom.__file__).parent
SEEDS = PACKAGE / "data" / "seeds"


def run_json(capsys, argv, schema):
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    spec = json.loads((PACKAGE / "schemas" / schema).read_text(encoding="utf-8"))
    jsonschema.validate(payload, spec)
    return code, payload



@pytest.mark.parametrize("path", sorted(SEEDS.glob("*.ineq")), ids=lambda p: p.name)
def test_bundled_seed_parses_to_a_fixed_point(capsys, path):
    assert cli.main(["parse", str(path), "--json"]) == 0
    canonical = json.loads(capsys.readouterr().out)["canonical"]
    assert stabhom.pretty_print(stabhom.parse(canonical)) == canonical

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


class Row:
    def __init__(self, i):
        self.i = i

    def to_json(self):
        return {"expression": f"+X1*Z{self.i}", "lhv_bound": 2.0 + self.i / 3,
                "quantum_value": None, "accepted": self.i % 2 == 0}


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7])
def test_descend_json_batches_equal_one_dump(monkeypatch, capsys, count):
    monkeypatch.setattr(cli, "_JSON_BATCH", 2)
    rows = [Row(i) for i in range(count)]
    cli._write_json_rows(rows)
    assert capsys.readouterr().out == json.dumps([r.to_json() for r in rows], indent=2) + "\n"


@pytest.mark.parametrize("state", [make_pair_superposition("00", "11", 2**-0.5, 2**-0.5), None])
def test_descend_json_template_equals_reference_encoder(capsys, state):
    # without a seed state every row has "quantum_value": null
    seed = load_ineq(SEEDS / "chsh.ineq")
    results = enumerate_descendants(seed, 2, LogicalEncoding.ghz(3), {"X2": "X", "Y2": "Y"},
                                    seed_state=state)
    assert len(results) == 225 and any(r.quantum_value is None for r in results) == (state is None)
    for rows in (results, results[:1], []):
        cli._write_json_rows(rows)
        assert capsys.readouterr().out == json.dumps([r.to_json() for r in rows], indent=2) + "\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_descend_cap_below_one_is_a_usage_error(capsys, cap):
    argv = ["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3",
            "--state", "bell", "--json", "--max-assignments", cap]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "max_assignments" in captured.err


def test_descend_searches_a_setting_only_in_a_square(tmp_path, capsys):
    path = tmp_path / "sqonly.ineq"
    path.write_text("X1*X2 + Y1*X2 - 1/2*sq(X1*X2 - Y1*Y2) <= 2\n", encoding="utf-8")
    argv = ["descend", str(path), "--site", "2", "--ghz", "2", "--json"]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 9
    assert cli.main([*argv, "--map", '{"X2": "X"}']) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "misses Y2" in captured.err


def test_qvalue_refuses_sites_past_state_width(tmp_path, capsys):
    path = tmp_path / "x3.ineq"
    path.write_text("X1*X2*X3 <= 1\n", encoding="utf-8")
    assert cli.main(["qvalue", "--file", str(path), "--state", "bell"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "width 3 exceeds state width 2" in captured.err


def test_descend_refuses_a_narrow_seed_state(capsys):
    # the lifted Bell state has 4 qubits; mermin3's descendants span 5 sites
    argv = ["descend", str(SEEDS / "mermin3.ineq"), "--site", "2", "--ghz", "3",
            "--state", "bell"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "width 5 exceeds state width 4" in captured.err


@pytest.mark.parametrize("argv,size", [
    (["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3", "--state", "ghz:-1"], -1),
    (["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3", "--state", "ghz:0"], 0),
    (["images", "--ghz", "0"], 0),
    (["images", "--ghz", "-1"], -1),
    (["descend", str(SEEDS / "chsh.ineq"), "--site", "2", "--ghz", "3", "--state", "ghz:40"], 40),
    (["images", "--ghz", "40"], 40),
])
def test_ghz_size_outside_width_cap_is_a_usage_error(capsys, argv, size):
    # refused before any 2^size array is allocated
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and f"size {size} outside 1..12" in captured.err


def test_images_width_cap_is_a_usage_error(capsys):
    assert cli.main(["images", "--ghz", "9"]) == cli.USAGE_ERROR == 2
    assert "cap" in capsys.readouterr().err


def test_rng_seed_reaches_quantum_optimiser(monkeypatch, capsys):
    seen = []
    generator = bounds.Random

    def recording(seed=None):
        seen.append(seed)
        return generator(seed)

    monkeypatch.setattr(bounds, "Random", recording)
    code, payload = run_json(
        capsys,
        ["bound", str(SEEDS / "nonlinear6.ineq"), "--kind", "quantum", "--json"],
        "bound.schema.json",
    )
    assert code == 0 and seen == [bounds._QUANTUM_SEED] == [0]
    assert payload["value"] == pytest.approx(48.0)


# imported by numpy's generator API: numpy.random, then secrets, then OpenSSL
LAZY_RANDOM = ("numpy.random", "secrets", "_hashlib")
COLD_CALL = """
import sys
from stabhom import cli
code = cli.main(sys.argv[2:])
sys.stderr.write("\\n" + repr((code, [m for m in sys.argv[1].split(",") if m in sys.modules])))
"""


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1 loads numpy.random, secrets and _hashlib on import")
@pytest.mark.parametrize("argv", [
    ["audit", "--json"],
    ["bound", str(SEEDS / "nonlinear6.ineq"), "--kind", "quantum", "--json"],
])
def test_cli_paths_leave_numpy_random_unloaded(argv):
    """A cold CLI call draws from the stdlib generator, never numpy's.

    On numpy 2 ``numpy.random`` is a lazy submodule, so it, ``secrets``
    and ``_hashlib`` load only if something draws from numpy.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", COLD_CALL, ",".join(LAZY_RANDOM), *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    code, loaded = ast.literal_eval(done.stderr.rsplit("\n", 1)[-1])
    assert done.returncode == 0 and code == 0
    assert loaded == []


@pytest.mark.parametrize("kind,text,hint", [
    ("lhv", "A1 - 1/2*sq(A1) <= 1", "--kind nonlinear"),
    ("separable", "X1*X2 - 1/2*sq(X1*X2) <= 1", "linear"),
    ("hybrid", "A1 - 1/2*sq(A1) <= 1", "--kind nonlinear"),
])
def test_bound_refuses_square_terms(tmp_path, capsys, kind, text, hint):
    path = tmp_path / "square.ineq"
    path.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["bound", str(path), "--kind", kind]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and hint in captured.err


@pytest.mark.parametrize("sites,code", [(10, 0), (11, cli.USAGE_ERROR)])
def test_bound_nonlinear_settings_cap(tmp_path, capsys, sites, code):
    path = tmp_path / "chain.ineq"
    path.write_text(xy_chain(sites) + "\n", encoding="utf-8")
    assert cli.main(["bound", str(path), "--kind", "nonlinear", "--json"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "22 settings exceed nonlinear cap 20" in captured.err
    else:
        assert json.loads(captured.out)["value"] == 18.0


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


def altered_chsh_fixtures(tmp_path) -> Path:
    """A copy of the bundled fixtures whose chsh lhv claim is off by one."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(PACKAGE / "fixtures", fixtures)
    path = fixtures / "chsh.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["claims"]["lhv"]["value"] += 1
    path.write_text(json.dumps(raw), encoding="utf-8")
    return fixtures


def test_audit_unexpected_mismatch_exits_1(tmp_path, capsys):
    fixtures = altered_chsh_fixtures(tmp_path)
    code, payload = run_json(capsys, ["audit", "--fixtures", str(fixtures), "--json"],
                             "audit.schema.json")
    assert code == cli.MISMATCH_ERROR == 1
    assert payload["summary"]["exit_code"] == 1
    assert payload["summary"]["unexpected_mismatches"] == ["chsh"]


def test_audit_text_flags_each_mismatch(tmp_path, capsys):
    expected = "['cluster4', 'mermin-desc-5', 'nonlinear6']"
    assert cli.main(["audit"]) == 0
    lines = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in lines if line.endswith(" [expected-mismatch]")]
    assert flagged == ["cluster4", "mermin-desc-5", "nonlinear6"]
    assert not any("UNEXPECTED" in line for line in lines)
    assert lines[-1] == f"exit=0 expected={expected} unexpected=[]"

    assert cli.main(["audit", "--fixtures", str(altered_chsh_fixtures(tmp_path))]) == 1
    lines = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in lines if line.endswith(" [UNEXPECTED-MISMATCH]")]
    assert flagged == ["chsh"]
    assert lines[-1] == f"exit=1 expected={expected} unexpected=['chsh']"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_audit_refuses_bad_tolerance(capsys, tolerance):
    assert cli.main(["audit", f"--tolerance={tolerance}", "--json"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "--tolerance" in captured.err


def test_parser_defaults_read_limits(monkeypatch):
    argv = ["descend", "seed.ineq", "--site", "1"]
    args = cli.build_parser().parse_args(argv)
    assert args.max_assignments == LIMITS.max_assignments
    monkeypatch.setattr(cli, "LIMITS", SearchLimits(max_assignments=9))
    args = cli.build_parser().parse_args(argv)
    assert args.max_assignments == 9


def test_qvalue_json(capsys):
    code, payload = run_json(capsys, ["qvalue", "--fixture", "mermin3", "--json"],
                             "qvalue.schema.json")
    assert code == 0 and payload == {"value": 4.0}


CHSH = str(SEEDS / "chsh.ineq")
SYMBOLIC = str(SEEDS / "chsh-symbolic.ineq")


@pytest.mark.parametrize("argv,code_spec", [
    (["qvalue", "--file", CHSH, "--state", "[]"], None),
    (["qvalue", "--file", CHSH, "--state", '{"kind":"ghz"}'], None),
    (["qvalue", "--file", SYMBOLIC, "--state", "bell", "--assignment", "[1]"], None),
    (["qvalue", "--file", SYMBOLIC, "--state", "bell", "--assignment", '{"A1": 5}'], None),
    (["descend", CHSH, "--site", "2", "--ghz", "2", "--map", "[1]"], None),
    (["descend", CHSH, "--site", "2", "--ghz", "2", "--map", '{"X2": 5, "Y2": "Y"}'], None),
    (["images", "--encoding"], "[1]"),
    (["images", "--encoding"], "{}"),
    (["images", "--encoding"], None),  # a directory
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, code_spec):
    """Each reader refuses a value of the wrong shape: one ``error:`` line, exit 2."""
    if argv[-1] == "--encoding":
        path = tmp_path / "code.json"
        if code_spec is not None:
            path.write_text(code_spec, encoding="utf-8")
        argv = [*argv, str(path if code_spec is not None else tmp_path)]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


R = 2**-0.5
CODE_SPECS = {
    "basis-pair": ({"n": 3, "zero": "001", "one": "110"},
                   LogicalEncoding.from_basis_pair("001", "110")),
    "amplitudes": ({"n": 2, "zero": [[R, 0], [0, 0], [0, 0], [R, 0]],
                    "one": [[R, 0], [0, 0], [0, 0], [-R, 0]]}, LogicalEncoding.cluster_pair()),
    "ghz": ({"ghz": 3}, LogicalEncoding.ghz(3)),
    "cluster": ({"cluster": True}, LogicalEncoding.cluster_pair()),
}


@pytest.mark.parametrize("name", [None, *CODE_SPECS])
def test_images_reads_every_code_form(tmp_path, capsys, name):
    """``--cluster`` and each ``--encoding`` spec form print the library's image sets."""
    if name is None:
        argv, enc = ["--cluster"], LogicalEncoding.cluster_pair()
    else:
        spec, enc = CODE_SPECS[name]
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["--encoding", str(path)]
    code, payload = run_json(capsys, ["images", *argv, "--json"], "images.schema.json")
    assert code == 0
    assert payload == {"width": enc.width, "images": {
        letter: [str(p) for p in image_set(enc, letter)] for letter in "IXYZ"}}


GHZ_MINUS = {"kind": "ghz", "n": 2, "phase": "-1"}


@pytest.mark.parametrize("form", ["singlet", "file", "inline"])
def test_qvalue_reads_every_state_form(tmp_path, capsys, form):
    """``--state`` as a name, a ``.json`` file and inline JSON give ``quantum_value``."""
    if form == "singlet":
        arg, state = "singlet", make_pair_superposition("01", "10", R, -R)
    else:
        arg, state = json.dumps(GHZ_MINUS), state_from_spec(GHZ_MINUS)
        if form == "file":
            path = tmp_path / "state.json"
            path.write_text(arg, encoding="utf-8")
            arg = str(path)
    code, payload = run_json(capsys, ["qvalue", "--file", CHSH, "--state", arg, "--json"],
                             "qvalue.schema.json")
    want = bounds.quantum_value(load_ineq(CHSH), None, state)
    assert code == 0 and payload == {"value": float(cli.fmt9(want))}
