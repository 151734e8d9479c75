"""Smoke test of the certified-discovery benchmark, traced and untraced.

Performance changes are judged on the untraced output of ``certbench/run.py``,
whose metrics are the ``end_to_end`` names of ``BENCHMARK.json``; the traced
run (``--trace 1``) exits non-zero when a span it expects records no call.
This runs each workload briefly both ways so that a change to the package
that breaks the benchmark's seams fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


WORKLOADS = ["plain-mesh", "star-chain", "sim-route"]


def run_certbench(workload: str, trace: int) -> dict:
    """One half-second run of ``workload``; the result line, after checking
    that the run exited 0 and every attempted discovery was certified."""
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "certbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0.5",
            "--trace", str(trace),
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
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_certbench_untraced_run_reports_the_end_to_end_metrics(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = run_certbench(workload, trace=0)["metrics"]
    assert set(metrics) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_certbench_traced_run(workload):
    metrics = run_certbench(workload, trace=1)["metrics"]
    # Each adder update is 9 XOR and 5 AND he-ops; star mode fires its 14
    # gates as universal gates of 5 he-ops each.  A walker that skips or
    # double-counts an op, or hides one from the tracer, moves this.
    expected_ops = 70 if workload == "star-chain" else 14
    assert metrics["circuits.he_ops_per_update"]["value"] == expected_ops
    assert metrics["circuits.max_noise_over_eta"]["value"] < 1
    if workload == "sim-route":
        assert metrics["sim.build_nodes.calls"]["value"] == 1.0
    else:
        # Each accumulator ciphertext goes on the wire once; what repeats is
        # only a chance collision of small fresh encryptions at low lam.
        assert metrics["protocol.duplicate_ciphertexts_per_request"]["value"] < 1
        # Each request carries exactly its 4 accumulator ciphertexts: the
        # source's zeros, which no hop reads, stay off the wire.
        assert metrics["protocol.ciphertexts_per_request"]["value"] == 4
