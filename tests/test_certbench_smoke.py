"""Smoke test of the certified-discovery benchmark's traced run.

Performance changes are judged by ``certbench/run.py --trace 1``; it exits
non-zero when a span it expects records no call.  This runs each workload
briefly so that a change to the package that breaks the benchmark's seams
fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["plain-mesh", "star-chain", "sim-route"])
def test_certbench_traced_run(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "certbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0.5",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    # Each adder update is 9 XOR and 5 AND he-ops; star mode fires 4 identity
    # and 14 universal gates of 5 he-ops each.  A walker that skips or
    # double-counts an op, or hides one from the tracer, moves this.
    expected_ops = 90 if workload == "star-chain" else 14
    assert metrics["circuits.he_ops_per_update"]["value"] == expected_ops
    assert metrics["circuits.max_noise_over_eta"]["value"] < 1
    if workload == "sim-route":
        assert metrics["sim.build_nodes.calls"]["value"] == 1.0
    else:
        # Each accumulator ciphertext goes on the wire once; what repeats is
        # only a chance collision of small fresh encryptions at low lam.
        assert metrics["protocol.duplicate_ciphertexts_per_request"]["value"] < 1
