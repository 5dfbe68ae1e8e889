"""Record the reference outputs the checks compare against.

Usage: python bench/record_references.py

Runs each workload's CLI calls once (cap-scale at seed 0) and writes their
standard output to ``bench/reference/``.  Re-record only when a change is
meant to alter the CLI output, and say so in the change.
"""
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from checks import REF, REF_SEED

FILES = {
    ("audit-catalog", "audit"): "audit.json",
    ("descend-ghz3", "descend"): "descend-ghz3.json",
    ("cap-scale", "images"): "cap-images.json",
    ("cap-scale", "lhv"): "cap-lhv-seed0.json",
    ("cap-scale", "quantum"): "cap-quantum-seed0.json",
    ("cap-scale", "separable"): "cap-separable-seed0.json",
}


def main() -> None:
    REF.mkdir(exist_ok=True)
    env = {"PYTHONPATH": str(workloads.SRC)}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name in workloads.NAMES:
            wl = workloads.build(name, REF_SEED, Path(tmp))
            for label, argv in wl.calls:
                proc = subprocess.run([sys.executable, "-m", "stabhom.cli", *argv],
                                      capture_output=True, env=env, check=False)
                if proc.returncode != 0:
                    sys.exit(f"{name}/{label} exited {proc.returncode}: {proc.stderr.decode()}")
                (REF / FILES[name, label]).write_bytes(proc.stdout)
                print(f"recorded {FILES[name, label]}")


if __name__ == "__main__":
    main()
