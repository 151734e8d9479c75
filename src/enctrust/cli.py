"""Command-line interface.

Subcommands: ``gen`` (random topology to JSON), ``oracle`` (plaintext greedy
walk), ``route`` (full encrypted discovery), ``bench`` (the paper's
uncertified timing table across security levels, or with ``--certified``
planner-sized wire runs that must each come back trusted and correct), and
``plan`` (secret-key sizing for a target depth).

Exit codes: 0 on success or DELIVERED, 2 when a discovery ends DROPPED, 1 on
any error, including bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .circuits import TOO_DEEP, required_eta
from .protocol import DEFAULT_WIDTH
from .sim import (
    DELIVERED,
    RunConfig,
    benchmark,
    benchmark_to_json,
    format_benchmark_table,
    generate_topology,
    load_topology,
    plaintext_oracle,
    run_discovery,
    save_topology,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; 2 is reserved for
    # DROPPED here, so an argument problem is an error like any other.
    def error(self, message: str) -> None:
        raise ValueError(message)


def _parse_eta(text: str) -> int | None:
    if text.lower() == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"eta must be an integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"eta must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enctrust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a connected random topology")
    gen.add_argument("--nodes", type=int, required=True, help="number of nodes")
    gen.add_argument("--degree", type=float, required=True, help="target average degree")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output topology JSON file")

    oracle = sub.add_parser("oracle", help="plaintext reference walk")
    oracle.add_argument("--topology", required=True)
    oracle.add_argument("--source", type=int, required=True)
    oracle.add_argument("--dest", type=int, required=True)
    oracle.add_argument("--width", type=int, default=DEFAULT_WIDTH)

    route = sub.add_parser("route", help="run one encrypted route discovery")
    route.add_argument("--topology", required=True)
    route.add_argument("--source", type=int, required=True)
    route.add_argument("--dest", type=int, required=True)
    route.add_argument("--lambda", dest="lam", type=int, required=True, help="security level")
    route.add_argument(
        "--eta", type=_parse_eta, default=None,
        help="secret key bits, or 'auto' to size for the run (default auto)",
    )
    route.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    route.add_argument(
        "--star", action="store_true",
        help="evaluate through compiled universal gates instead of plain gates",
    )
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--out", default=None, help="write the full run report JSON here")

    bench = sub.add_parser("bench", help="benchmark discoveries across security levels")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="write benchmark JSON here")
    bench.add_argument(
        "--certified", action="store_true",
        help="planner-sized wire discoveries, plain and star; every row trusted and correct",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="implies --certified: its quick tier, 7-update chains, one repetition",
    )

    plan = sub.add_parser("plan", help="secret-key bits needed for a target depth")
    plan.add_argument("--width", type=int, required=True)
    plan.add_argument("--hops", type=int, required=True)
    plan.add_argument("--lambda", dest="lam", type=int, required=True)
    plan.add_argument("--star", action="store_true")

    return parser


def _write_json(path: str, doc: dict) -> None:
    """The ``--out`` file: ``doc`` as JSON, indented, keys sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    t = generate_topology(args.nodes, args.degree, args.seed)
    save_topology(t, args.out)
    print(f"wrote {len(t.nodes)} nodes, {len(t.edges)} edges to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    t = load_topology(args.topology)
    res = plaintext_oracle(t, args.source, args.dest, args.width)
    print(f"status: {res.status}")
    print(f"path: {' -> '.join(str(n) for n in res.path)}")
    print(f"trust: {res.trust}")
    return 0 if res.status == DELIVERED else 2


def _cmd_route(args: argparse.Namespace) -> int:
    t = load_topology(args.topology)
    cfg = RunConfig(
        lam=args.lam,
        eta=args.eta,
        width=args.width,
        seed=args.seed,
        star_mode=args.star,
    )
    report = run_discovery(t, args.source, args.dest, cfg)
    print(f"status: {report.status}")
    print(f"path: {' -> '.join(str(n) for n in report.path)}")
    if report.status == DELIVERED:
        print(f"decrypted_trust: {report.decrypted_trust}")
        print(f"trusted: {report.trusted}")
    else:
        print(f"dropped_at: {report.dropped_at}")
        print(f"drop_reason: {report.drop_reason}")
    print(f"oracle_trust: {report.oracle_trust}")
    print(f"eta: {report.eta}")
    print(
        f"he_ops: {report.stats.n_he_add} adds, {report.stats.n_he_mul} muls, "
        f"max_noise_bits {report.stats.max_noise_bits}"
    )
    print(f"cpu: {' '.join(f'{k}={v:.4f}s' for k, v in report.cpu.items())}")
    if args.out:
        _write_json(args.out, report.to_json())
        print(f"report written to {args.out}")
    return 0 if report.status == DELIVERED else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    certified = args.certified or args.quick
    if args.quick:
        rows = benchmark(seed=args.seed, updates=(7,), repeats=1)
    elif certified:
        rows = benchmark(seed=args.seed)
    else:
        rows = benchmark(seed=args.seed, updates=(17,), repeats=1, certified=False)
    if certified:
        print("certified: planner-sized eta, JSON wire, every row trusted and correct")
    else:
        print("uncertified: the paper's eta = lambda**2 reproduction, not certified performance")
    print(format_benchmark_table(rows))
    if args.out:
        _write_json(args.out, benchmark_to_json(rows, seed=args.seed, certified=certified))
        print(f"benchmark written to {args.out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    eta = required_eta(args.width, args.hops, args.lam, star_mode=args.star)
    if eta == TOO_DEEP:
        print(TOO_DEEP)
    else:
        print(f"eta: {eta}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
    "route": _cmd_route,
    "bench": _cmd_bench,
    "plan": _cmd_plan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
