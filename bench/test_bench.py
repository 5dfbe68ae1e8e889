"""Tests of the benchmark itself: python -m pytest bench"""
import json
import shutil
import tempfile
from pathlib import Path

import pytest

import run
import workloads
from checks import REF, Expectations


def _job(label: str, stdout: bytes, rc: int = 0) -> dict:
    return {"wall": 1.0, "rss": 1.0,
            "calls": [{"label": label, "wall": 1.0, "rc": rc, "stdout": stdout, "rss": 1.0}]}


@pytest.fixture
def workdir():
    (workloads.ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=workloads.ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_corrupted_audit_output_counts_in_failed_frac():
    expect = Expectations("audit-catalog", 0)
    good = (REF / "audit.json").read_bytes()
    bad = good.replace(b'"verdict": "nonlocality"', b'"verdict": "no-violation"', 1)
    assert bad != good
    tally = run.Tally()
    assert run.check_job(_job("audit", good), expect, tally)
    assert not run.check_job(_job("audit", bad), expect, tally)
    assert not run.check_job(_job("audit", good, rc=1), expect, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)


def test_descend_values_checked_to_tolerance():
    expect = Expectations("descend-ghz3", 0)
    rows = json.loads((REF / "descend-ghz3.json").read_bytes())
    rows[0]["quantum_value"] += 1e-6
    tally = run.Tally()
    run.check_job(_job("descend", json.dumps(rows).encode()), expect, tally)
    assert tally.failed == 1 and "quantum_value" in tally.problems[0]


def test_cap_scale_independent_checks_catch_wrong_values():
    expect = Expectations("cap-scale", 3)  # no recorded reference at this seed
    assert expect.check("quantum", 0, b'{"kind": "quantum", "value": 1.5}')
    lhv = {"kind": "lhv", "value": 2.0,
           "certificate": {f"{l}{k}": 1 for k in range(1, 10) for l in "XY"}}
    assert expect.check("lhv", 0, json.dumps(lhv).encode())


def test_tail_never_below_median_and_leaves_ten_jobs_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND and pct == 75.0


def test_traced_descend_records_every_wrapped_call(workdir):
    """A wrapper missing a ``from ... import`` alias would undercount these."""
    runner = run.Runner(workdir, threads=1)
    wl = workloads.build("descend-ghz3", 0, workdir)
    job = runner.job(wl, traced=True)
    assert job["calls"][0]["rc"] == 0
    layers, counts_repeat = run.layer_metrics([job], [job])
    assert counts_repeat
    assert layers["codespace.image_set.calls"] == 452
    assert layers["codespace.image_set.distinct"] == 2
    assert layers["descend.substitute.calls"] == 225
    assert layers["descend.kept"] == 225 and layers["descend.accepted"] == 71
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
