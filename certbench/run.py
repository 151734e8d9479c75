"""Certified route-discovery benchmark for enctrust.

Usage, from the repository root:

    python3 certbench/run.py --workload plain-mesh --seed 1 --seconds 30 --trace 0

Each workload is one process, one thread and one closed-loop client: the
next discovery starts when the previous one ends.  Every discovery is
certified: eta comes from ``sim.required_eta`` and the result is checked
against ``sim.plaintext_oracle``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every input once untraced and once traced and
reports the per-layer metrics plus the tracing overhead.  Timings are CPU
times scaled to a nominal host speed, which a fixed reference task
(``reference.py``) timed all through the run measures.  The last line of
standard output is the JSON result; the line before it, prefixed
``detail``, holds the sample counts, input fingerprint, self-check, exact
counts and host facts.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import enctrust
    except ImportError as exc:
        sys.exit(f"certbench: cannot import enctrust from {SRC}: {exc}")
    if not Path(enctrust.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"certbench: enctrust was imported from {enctrust.__file__}, not {SRC}")


_import_package()

from enctrust import circuits, protocol, she, sim  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WIDTH, Case  # noqa: E402

SETUP_REPEATS = 9
SETUP_MIN_S = 0.02
SETUP_SPACING = 10
REFERENCE_INTERVAL_S = 0.25
# The reference task's mean CPU time on the host in NOTES.md, rounded.  Timings
# are reported as if every run had gone at that host speed; the constant fixes
# the unit and must never change, or results stop being comparable.
REFERENCE_NOMINAL_S = 0.015
WIRE_SEPARATORS = (",", ":")


@dataclass(frozen=True)
class Outcome:
    status: str
    path: tuple[int, ...]
    trust: int | None
    trusted: bool
    eta: int
    wire_bytes: int = 0
    report: sim.RunReport | None = None


class _Untraced:
    """The probe of an untraced discovery: no spans, no request counts."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def on_request(self, obj: dict, rr: protocol.RouteRequest) -> None:
        pass


UNTRACED = _Untraced()


def wire_discovery(
    case: Case, topo, nodes, probe=UNTRACED, *, star: bool, eta: int | None = None
) -> Outcome:
    """Hop-by-hop protocol run; every request and the reply cross the wire as JSON."""
    if eta is None:
        eta = sim.required_eta(WIDTH, case.updates, case.lam, star)
        if eta == sim.TOO_DEEP:
            raise sim.NoiseBudgetError(f"cannot certify {case.updates} updates at lam {case.lam}")
    params = she.SecurityParams.from_lambda(case.lam, eta=eta)
    rng = random.Random(case.seed)

    def iface(node_id: int):
        return nodes[node_id].interface

    keys, rr = protocol.source_initiate(nodes[case.source], case.destination, params, rng, iface)
    wire = 0
    current = rr.next_hop
    for _ in range(2 * len(nodes) + 2):
        with probe.span("protocol.encode"):
            data = json.dumps(protocol.rr_to_json(rr), separators=WIRE_SEPARATORS).encode()
        with probe.span("protocol.decode"):
            obj = json.loads(data)
            rr = protocol.rr_from_json(obj)
        wire += len(data)
        probe.on_request(obj, rr)
        decision = protocol.process_rr(nodes[current], rr, rng, star, iface)
        if isinstance(decision, protocol.ForwardUpdated):
            rr = decision.rr
            current = rr.next_hop
        elif isinstance(decision, protocol.ForwardUnchanged):
            current = decision.next_hop
        elif isinstance(decision, protocol.Drop):
            return Outcome(sim.DROPPED, rr.path, None, False, eta, wire)
        else:
            with probe.span("protocol.encode"):
                data = json.dumps(
                    protocol.rp_to_json(decision.reply), separators=WIRE_SEPARATORS
                ).encode()
            with probe.span("protocol.decode"):
                rp = protocol.rp_from_json(json.loads(data))
            wire += len(data)
            result = protocol.source_finalize(keys, rp, params)
            return Outcome(sim.DELIVERED, result.path, result.trust, result.trusted, eta, wire)
    raise RuntimeError("discovery did not terminate")


def sim_discovery(case: Case, topo, nodes, probe=UNTRACED) -> Outcome:
    """``sim.run_discovery`` exactly as ``enctrust route`` calls it, eta automatic."""
    cfg = sim.RunConfig(lam=case.lam, width=WIDTH, seed=case.seed)
    report = sim.run_discovery(topo, case.source, case.destination, cfg)
    return Outcome(
        report.status, report.path, report.decrypted_trust, report.trusted, report.eta,
        report=report,
    )


def output_bytes(out: Outcome) -> int:
    """Wire bytes of a protocol run; for ``sim-route``, the report ``route --out`` writes."""
    if out.report is None:
        return out.wire_bytes
    return len(json.dumps(out.report.to_json(), indent=2, sort_keys=True).encode()) + 1


def check(out: Outcome, case: Case) -> str | None:
    """Why a discovery is not certified-correct, or None if it is."""
    oracle = case.oracle
    if out.status != oracle.status:
        return f"status {out.status}, oracle {oracle.status}"
    if tuple(out.path) != tuple(oracle.path):
        return f"path {list(out.path)}, oracle {list(oracle.path)}"
    if out.status == sim.DELIVERED:
        if not out.trusted:
            return "delivered but not trusted"
        if out.trust != oracle.trust:
            return f"trust {out.trust}, oracle {oracle.trust}"
    return None


def selfcheck() -> dict:
    """Show that the gate can fail: an undersized plain run must be counted failed."""
    topo, case = workloads.selfcheck_case()
    nodes = sim.build_nodes(topo, WIDTH)
    out = wire_discovery(case, topo, nodes, star=False, eta=case.lam**2)
    reason = check(out, case)
    if reason is None:
        sys.exit("certbench: self-check failed: a run at eta = lam**2 passed the correctness gate")
    return {
        "lam": case.lam,
        "eta": out.eta,
        "updates": case.updates,
        "decrypted": out.trust,
        "oracle": case.oracle.trust,
        "failed_as": reason,
    }


_COMMON_SPANS = (
    "bignum.mul",
    "bignum.mod",
    "she.keygen",
    "she.encrypt_bit",
    "she.he_add",
    "she.he_mul",
    "she.decrypt_bit",
    "circuits.adapt",
    "protocol.source_initiate",
    "protocol.process_rr",
    "protocol.source_finalize",
    "sim.required_eta",
)


@dataclass(frozen=True)
class Workload:
    topologies: Callable[[random.Random], list]
    pool: Callable[[random.Random, list], list[list[Case]]]
    discover: Callable[..., Outcome]
    expected_spans: tuple[str, ...]


WORKLOADS = {
    "plain-mesh": Workload(
        workloads.meshes,
        workloads.mesh_pool,
        functools.partial(wire_discovery, star=False),
        _COMMON_SPANS + ("circuits.eval_plain",) + tracing.CODEC,
    ),
    "star-chain": Workload(
        workloads.chains,
        workloads.chain_pool,
        functools.partial(wire_discovery, star=True),
        _COMMON_SPANS
        + ("circuits.eval_star", "circuits.bind_and_continue", "circuits.compile_to_star")
        + tracing.CODEC,
    ),
    "sim-route": Workload(
        workloads.meshes,
        workloads.mesh_pool,
        sim_discovery,
        _COMMON_SPANS + ("circuits.eval_plain", "sim.build_nodes", "sim.run_discovery"),
    ),
}


class Setup:
    """The package-side set-up: ``Topology.from_json`` plus ``build_nodes``.

    One sample repeats the set-up back to back until ``SETUP_MIN_S`` of CPU
    time have passed and records the mean.  A single 3 ms set-up lands in
    either a fast or a slow moment of the host, and the median of such
    samples flipped between the two.  Samples are taken between discoveries
    all through the run, so that they see the same host speeds as the
    discoveries and the reference.
    """

    def __init__(self, topos: list) -> None:
        self.docs = [t.to_json() for t in topos]
        self.samples: list[float] = []

    def __call__(self) -> list:
        t0 = time.process_time()
        builds = 0
        while True:
            built = [sim.build_nodes(sim.Topology.from_json(doc), WIDTH) for doc in self.docs]
            builds += 1
            elapsed = time.process_time() - t0
            if elapsed >= SETUP_MIN_S:
                break
        self.samples.append(elapsed / builds)
        return built


@dataclass
class Run:
    """Discovery times keyed by input; repeats of an input share a key."""

    attempted: int = 0
    untraced_s: dict[tuple, list[float]] = field(default_factory=dict)
    traced_s: dict[tuple, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    output_bytes: list[int] = field(default_factory=list)
    etas: list[int] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def correct(self) -> int:
        return sum(len(v) for v in self.untraced_s.values())

    @property
    def host_scale(self) -> float:
        """Factor that turns this run's CPU times into times at the nominal host speed."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.reference_s)


def measure(
    workload: Workload, topos, nodes, pool, seconds: float, setup: Setup, tracer=None
) -> Run:
    """Closed loop replaying the pool's passes until ``seconds`` of loop time pass.

    Between discoveries, the reference task runs every
    ``REFERENCE_INTERVAL_S`` and the set-up is repeated so that it takes
    about ``1 / SETUP_SPACING`` of the time; neither counts as loop time.
    With a tracer, each input runs once untraced and once traced, the two
    in alternating order.
    """
    run = Run()
    passes = itertools.cycle(pool)
    flip = False
    start = next_setup = next_reference = time.perf_counter()
    probes_s = 0.0
    while time.perf_counter() - start - probes_s < seconds:
        for case in next(passes):
            probe_start = time.perf_counter()
            if probe_start >= next_reference:
                run.reference_s.append(reference.timed())
                next_reference = time.perf_counter() + REFERENCE_INTERVAL_S
            if probe_start >= next_setup:
                t0 = time.perf_counter()
                setup()
                next_setup = time.perf_counter() + SETUP_SPACING * (time.perf_counter() - t0)
            probes_s += time.perf_counter() - probe_start
            flip = not flip
            if tracer is None:
                order = (False,)
            else:
                order = (False, True) if flip else (True, False)
            for traced in order:
                run.attempted += 1
                try:
                    with tracer.installed() if traced else contextlib.nullcontext():
                        t0 = time.process_time()
                        out = workload.discover(
                            case, topos[case.topo], nodes[case.topo], tracer if traced else UNTRACED
                        )
                        elapsed = time.process_time() - t0
                except Exception as exc:  # a failed discovery is counted, and the loop goes on
                    run.failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                reason = check(out, case)
                if reason is not None:
                    run.failures.append(reason)
                    continue
                times = run.traced_s if traced else run.untraced_s
                times.setdefault(case.key, []).append(elapsed)
                if not traced:
                    run.output_bytes.append(output_bytes(out))
                    run.etas.append(out.eta)
    run.wall_s = time.perf_counter() - start - probes_s
    while len(setup.samples) < SETUP_REPEATS:
        setup()
    return run


def per_input(times: dict[tuple, list[float]]) -> list[float]:
    """One time per distinct input: the mean of its repeats.

    The repeats of an input do the same work, spread over the run like the
    reference samples, so their mean and the reference mean see the same
    mix of host speeds.
    """
    return [statistics.fmean(v) for v in times.values()]


def p50(times: dict[tuple, list[float]]) -> float:
    return statistics.median(per_input(times))


def p90(times: dict[tuple, list[float]]) -> float:
    return statistics.quantiles(per_input(times), n=10)[8]


def live_gate_ratio(circuit: circuits.Circuit) -> float:
    """Share of gates on some path to an output."""
    live: set[int] = set()
    pending = [w.index for w in circuit.outputs if w.kind == circuits.GATE]
    while pending:
        g = pending.pop()
        if g in live:
            continue
        live.add(g)
        gate = circuit.gates[g]
        pending.extend(w.index for w in (gate.a, gate.b) if w.kind == circuits.GATE)
    return len(live) / len(circuit.gates)


def timings(run: Run, setup_s: float, scale: float) -> dict[str, tuple[float, str]]:
    """The timing metrics, with CPU times multiplied by ``scale``."""
    return {
        "discovery_p50_s": (p50(run.untraced_s) * scale, "s"),
        "discovery_p90_s": (p90(run.untraced_s) * scale, "s"),
        "discoveries_per_s": (len(run.untraced_s) / sum(per_input(run.untraced_s)) / scale, "1/s"),
        "setup_s": (setup_s * scale, "s"),
    }


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    metrics = timings(run, setup_s, run.host_scale)
    metrics["wire_bytes_per_discovery"] = (statistics.fmean(run.output_bytes), "bytes")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(run: Run, tracer: tracing.Tracer, gate_ratio: float) -> dict:
    n = sum(len(v) for v in run.traced_s.values())
    spans = tracer.spans
    updates = max(tracer.decisions["forward_updated"], 1)
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.TRACED + tracing.CODEC:
        metrics[f"{name}.calls"] = (spans[name].calls / n, "calls/discovery")
        metrics[f"{name}.self_s"] = (spans[name].self_s / n, "s/discovery")
    mul_calls = spans["bignum.mul"].calls
    he_ops = spans["she.he_add"].calls + spans["she.he_mul"].calls
    metrics.update(
        {
            "bignum.mul.bits_mean": (tracer.mul_bits / max(mul_calls, 1), "bits"),
            "she.encrypt_bit.read_ratio": (tracer.fresh_read / max(tracer.fresh_total, 1), "ratio"),
            "she.encrypt_bit.per_update": (spans["she.encrypt_bit"].calls / updates, "enc/update"),
            "circuits.he_ops_per_update": (he_ops / updates, "ops/update"),
            "circuits.live_gate_ratio": (gate_ratio, "ratio"),
            "circuits.max_noise_over_eta": (tracer.max_noise_over_eta, "ratio"),
            "protocol.ciphertexts_per_request": (
                tracer.ciphertexts / max(tracer.requests, 1), "ct/request"
            ),
            "protocol.duplicate_ciphertexts_per_request": (
                tracer.duplicates / max(tracer.requests, 1), "ct/request"
            ),
            "trace.p50_traced_s": (p50(run.traced_s) * run.host_scale, "s"),
            "trace.p50_untraced_s": (p50(run.untraced_s) * run.host_scale, "s"),
            "trace.overhead_ratio": (p50(run.traced_s) / p50(run.untraced_s), "ratio"),
        }
    )
    for decision, count in tracer.decisions.items():
        metrics[f"protocol.decisions.{decision}"] = (count / n, "count/discovery")
    return {name: metrics[name] for name in PER_LAYER}


PER_LAYER = (
    "bignum.mul.calls",
    "bignum.mul.self_s",
    "bignum.mul.bits_mean",
    "bignum.mod.calls",
    "bignum.mod.self_s",
    "she.keygen.calls",
    "she.keygen.self_s",
    "she.encrypt_bit.calls",
    "she.encrypt_bit.self_s",
    "she.encrypt_bit.read_ratio",
    "she.encrypt_bit.per_update",
    "she.he_add.calls",
    "she.he_add.self_s",
    "she.he_mul.calls",
    "she.he_mul.self_s",
    "she.decrypt_bit.self_s",
    "circuits.eval_plain.self_s",
    "circuits.adapt.self_s",
    "circuits.eval_star.self_s",
    "circuits.bind_and_continue.self_s",
    "circuits.compile_to_star.self_s",
    "circuits.he_ops_per_update",
    "circuits.live_gate_ratio",
    "circuits.max_noise_over_eta",
    "protocol.source_initiate.self_s",
    "protocol.process_rr.calls",
    "protocol.process_rr.self_s",
    "protocol.source_finalize.self_s",
    "protocol.encode.self_s",
    "protocol.decode.self_s",
    "protocol.ciphertexts_per_request",
    "protocol.duplicate_ciphertexts_per_request",
    "protocol.decisions.forward_updated",
    "protocol.decisions.forward_unchanged",
    "protocol.decisions.reply",
    "protocol.decisions.drop",
    "sim.required_eta.self_s",
    "sim.build_nodes.calls",
    "sim.build_nodes.self_s",
    "sim.run_discovery.self_s",
    "trace.p50_traced_s",
    "trace.p50_untraced_s",
    "trace.overhead_ratio",
)


def host() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    rng = random.Random(args.seed)
    topos = workload.topologies(rng)
    setup = Setup(topos)
    nodes = setup()
    gate_ratio = statistics.fmean(
        live_gate_ratio(node.circuit) for built in nodes for node in built.values()
    )
    selfcheck_result = selfcheck()
    pool = workload.pool(rng, topos)

    tracer = tracing.Tracer() if args.trace else None
    run = measure(workload, topos, nodes, pool, args.seconds, setup, tracer)
    if not run.untraced_s or (tracer is not None and not run.traced_s):
        sys.exit(f"certbench: no correct discovery completed; failures: {run.failures[:5]}")

    p90_s = p90(run.untraced_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": run.correct,
        "inputs_timed": len(run.untraced_s),
        "inputs_beyond_p90": sum(t > p90_s for t in per_input(run.untraced_s)),
        "failed_ratio": len(run.failures) / run.attempted,
        "wall_discoveries_per_s": run.correct / run.wall_s,
        "failures": run.failures[:5],
        "selfcheck": selfcheck_result,
        "inputs": workloads.fingerprint(topos, [c for p in pool for c in p], run.etas),
        "host": host(),
        "reference": {
            "samples": len(run.reference_s),
            "mean_s": statistics.fmean(run.reference_s),
            "nominal_s": REFERENCE_NOMINAL_S,
            "host_scale": run.host_scale,
        },
        "measured_cpu": {
            name: value
            for name, (value, _) in timings(run, statistics.median(setup.samples), 1.0).items()
        },
    }
    if tracer is None:
        metrics = end_to_end(run, statistics.median(setup.samples))
    else:
        missing = tracer.missing(workload.expected_spans)
        if missing:
            sys.exit(
                f"certbench: trace incomplete on {args.workload}: no calls recorded for {missing}"
            )
        metrics = per_layer(run, tracer, gate_ratio)
        detail["exact_counts"] = {
            name: metrics[name][0]
            for name in (
                "circuits.he_ops_per_update",
                "she.encrypt_bit.per_update",
                "protocol.ciphertexts_per_request",
                "protocol.duplicate_ciphertexts_per_request",
            )
        }
        detail["trace_overhead_ratio"] = metrics["trace.overhead_ratio"][0]
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
