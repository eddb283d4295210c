"""Command-line driver tying generation, analysis, verification, and simulation
into reproducible file-based experiments.

Every artifact embeds the tool version and the fully resolved configuration;
all randomness flows from the --seed flag, so a scripted pipeline with fixed
seeds produces byte-identical outputs. Exit codes: 0 ok, 2 usage, 3 input
error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import __version__
# certify_chain stays a module attribute here: the benchmark's tracer
# (perfbench/spans.py) wraps it by name.
from .analytic import certify_chain, chain_grid, expected_receivers, expected_receivers_upper
from .broadcast import CONTENT_MODELS, MAX_K, MAX_K_RECEIVERS, MAX_ROUNDS, POLICIES, BroadcastConfig, run_broadcast
from .errors import BudgetError, InputError
from .instance import InstanceParams, build_radius2, sample_instance
from .model import Radius2Net, load as load_net, save as save_net
from .util import atomic_write_text
from .verifier import (
    ENUMERATION_BUDGET_BITS,
    MAX_RESTARTS,
    max_receptions_exact,
    max_receptions_search,
)

SCHEMA_VERSION = 1
# Read by nothing here; the benchmark (perfbench/workloads.py) still sets it by this name.
WORKERS_ENV = "RADIONET_WORKERS"


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        args.run(args)
        return 0
    except BudgetError as exc:
        _emit_error(exc, "budget")
        return 4
    except (InputError, OSError) as exc:
        _emit_error(exc, "input")
        return 3


def _emit_error(exc: Exception, kind: str) -> None:
    sys.stderr.write(json.dumps({"error": str(exc), "kind": kind}, sort_keys=True) + "\n")


def _tool_line() -> str:
    return f"radionet {__version__}"


def _write_json(path, artifact: dict) -> None:
    text = json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _check_paths(inputs: Iterable[str], outputs: Iterable[Optional[str]]) -> None:
    """Refuse, before any work, an output that cannot be written or would destroy another path.

    Each output given (None is stdout) must be replaceable by
    `atomic_write_text`, and must name neither an input nor another output:
    the same real path, or the same file through a hard link.
    """
    written = [path for path in outputs if path]
    for i, path in enumerate(written):
        directory = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            raise InputError(f"cannot write {path}: it is a directory or its directory is missing or read-only")
        for other in [*inputs, *written[:i]]:
            try:
                same = os.path.samefile(path, other)
            except OSError:  # one of the two does not exist yet
                same = os.path.realpath(path) == os.path.realpath(other)
            if same:
                raise InputError(f"output {path} is the same file as {other}, which the command also uses")


def _write_csv(path, config: dict, header: str, rows: Iterable[str]) -> None:
    """Write the banner, the header and `rows`, one line each, as rows arrive."""
    banner = f"# {_tool_line()} schema={SCHEMA_VERSION} config=" + json.dumps(
        config, sort_keys=True, separators=(",", ":")
    )
    lines = (f"{line}\n" for line in itertools.chain((banner, header), rows))
    if path:
        atomic_write_text(path, lines)
    else:
        sys.stdout.writelines(lines)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> None:
    _check_paths([], [args.out])
    params = InstanceParams(args.n, args.seed)
    core = sample_instance(params)
    net = build_radius2(core, args.n) if args.radius2 else core
    save_net(net, args.out)
    summary = {
        "config": {"n": args.n, "out": args.out, "radius2": args.radius2, "seed": args.seed},
        "receivers": core.receiver_count,
        "senders": core.sender_count,
        "tool": _tool_line(),
        "written": args.out,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


#: The largest sender count `analyze` takes: the grid's cells at n' = 1024
#: take about 10 s, and each doubling about eight times as long.
MAX_GRID_NPRIME = 1 << 10


def _parse_grid(spec: str) -> tuple[int, int]:
    parts = spec.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError as exc:
        raise InputError(f"bad grid {spec!r}; expected N or LO..HI") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"bad grid bounds {lo}..{hi}")
    if hi > MAX_GRID_NPRIME:
        raise BudgetError(f"grid bound {hi} is past the budget of {MAX_GRID_NPRIME} senders")
    return lo, hi


def _cmd_analyze(args) -> None:
    _check_paths([], [args.out])
    lo, hi = _parse_grid(args.grid_nprime)
    sizes = []
    power = 1
    while power <= hi:
        if power >= lo and power >= 2:
            sizes.append(power)
        power *= 2
    _write_csv(
        args.out,
        {"grid_nprime": args.grid_nprime},
        "n_prime,s,delta,p_exact_num,p_exact_den,p_upper,chain_pass",
        _analyze_rows(sizes),
    )


def _analyze_rows(sizes: list[int]) -> Iterator[str]:
    """Check the expectation cap at each size, then yield its bound-chain rows."""
    for n_prime in sizes:
        cap = 10 * n_prime
        upper = expected_receivers_upper(n_prime)
        for s in range(0, n_prime + 1):
            mean = expected_receivers(n_prime, s)
            if not mean < cap:
                raise ArithmeticError(f"expected receivers {mean} >= {cap} at ({n_prime},{s})")
            if not mean <= upper:
                raise ArithmeticError(f"exact {mean} above envelope {upper} at ({n_prime},{s})")
        for s, delta, numerator, denominator, values, passed in chain_grid(n_prime):
            yield (
                f"{n_prime},{s},{delta},{numerator},{denominator},{values[-1]!r},"
                f"{'true' if passed else 'false'}"
            )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_threshold(raw: Optional[str]) -> Optional[Fraction]:
    if raw is None:
        return None
    try:
        threshold = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad threshold {raw!r}; expected a number such as 20, 2.5 or 5/2") from exc
    if threshold <= 0:
        raise InputError(f"threshold factor c must be positive, got {raw!r}")
    return threshold


def _cmd_verify(args) -> None:
    # Flags are checked in both modes, before the maximization, which can be long.
    _check_paths([args.net], [args.out])
    threshold = _parse_threshold(args.threshold)
    if not 0 <= args.seed < 2**64:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    if args.restarts < 1:
        raise InputError(f"restarts must be positive, got {args.restarts}")
    if args.restarts > MAX_RESTARTS:
        raise BudgetError(f"restarts {args.restarts} is past the budget of {MAX_RESTARTS}")
    net = load_net(args.net)
    core = net.core if isinstance(net, Radius2Net) else net
    if threshold is not None:
        bound = threshold * core.sender_count  # c*n', exact
        try:  # the artifact holds c*n' as a float
            float(bound)
        except OverflowError as exc:
            raise InputError(f"threshold {args.threshold!r} times {core.sender_count} senders overflows a float") from exc
    if args.search:
        result = max_receptions_search(core, restarts=args.restarts, seed=args.seed)
    else:
        result = max_receptions_exact(core)
    config = {
        "mode": "search" if args.search else "exact",
        "net": args.net,
        "restarts": args.restarts,
        "seed": args.seed,
        "threshold": args.threshold,
    }
    payload = {
        "best_count": result.best_count,
        "exact": result.method == "exact",
        "method": result.method,
        "receiver_count": core.receiver_count,
        "sender_count": core.sender_count,
        "subsets_examined": result.subsets_examined,
        "witness_hex": format(result.witness, "x"),
    }
    if threshold is not None:
        # The lemma's inequality: no transmit set reaches more than c*n'
        # receivers. Equality passes; at c*n' >= R every net passes trivially.
        receivers = core.receiver_count
        payload.update(
            {
                "fraction": result.best_count / receivers if receivers else None,
                "fraction_bound": float(bound / receivers) if receivers else None,
                "passed": result.best_count <= bound,
                "threshold": float(bound),
                "vacuous": bound >= receivers,
            }
        )
    artifact = {
        "config": config,
        "schema_version": SCHEMA_VERSION,
        "tool": _tool_line(),
        **payload,
    }
    _write_json(args.out, artifact)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> None:
    # Both outputs are checked now: the artifact is written before the series.
    _check_paths([args.net], [args.out, args.series])
    net = load_net(args.net)
    if not isinstance(net, Radius2Net):
        raise InputError("simulate needs a radius-2 network file (gen --radius2)")
    core = net.core
    cfg = BroadcastConfig(
        k=args.k,
        content_model=args.model,
        policy=args.policy,
        p=args.p,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )
    if args.k > MAX_K or args.k * core.receiver_count > MAX_K_RECEIVERS:
        raise BudgetError(
            f"k={args.k} on {core.receiver_count} receivers is past the budget of"
            f" k <= {MAX_K} and k x receivers <= {MAX_K_RECEIVERS}"
        )
    if args.max_rounds > MAX_ROUNDS:
        raise BudgetError(f"max_rounds {args.max_rounds} is past the budget of {MAX_ROUNDS}")
    # The one maximization of the run: exact within the enumeration budget.
    if core.sender_count <= ENUMERATION_BUDGET_BITS:
        best = max_receptions_exact(core)
    else:
        best = max_receptions_search(core, seed=args.seed)
    report = run_broadcast(net, cfg, best.best_count)
    config = {
        "k": args.k,
        "max_rounds": args.max_rounds,
        "model": args.model,
        "net": args.net,
        "p": args.p,
        "policy": args.policy,
        "seed": args.seed,
    }
    artifact = {
        "accounting_lower_bound": report.accounting_lower_bound,
        "config": config,
        "decoded_all": not report.incomplete,
        "incomplete": report.incomplete,
        "k": args.k,
        "maxrec": best.best_count,
        "maxrec_method": best.method,
        "min_receptions": min(report.per_receiver_receptions, default=0),
        "model": args.model,
        "n": net.total_nodes,
        "per_receiver_decoded": list(report.per_receiver_decoded),
        "per_receiver_receptions": list(report.per_receiver_receptions),
        "policy": args.policy,
        "rounds_used": report.rounds_used,
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "throughput": report.throughput,
        "tool": _tool_line(),
        "total_receptions": report.total_receptions,
    }
    _write_json(args.out, artifact)
    if args.series:
        rows = [f"{r},{hits},{rank}" for r, hits, rank in report.series]
        _write_csv(args.series, config, "round,receptions,min_rank", rows)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


#: The JSON types `report` accepts in the fields it reads besides `policy`.
_REPORT_TYPES = {"n": (int,), "seed": (int,), "k": (int,), "rounds_used": (int,),
                 "accounting_lower_bound": (int,), "throughput": (float, type(None))}


def _cmd_report(args) -> None:
    _check_paths(args.inputs, [args.out])
    rows = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise InputError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"{path} is not a simulate artifact: not a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise InputError(
                f"schema-version mismatch in {path}: "
                f"{data.get('schema_version')!r} != {SCHEMA_VERSION}"
            )
        try:
            key = (data["n"], data["seed"], data["policy"], data["k"])
            cells = [data["rounds_used"], data["accounting_lower_bound"], data["throughput"]]
        except KeyError as exc:
            raise InputError(f"{path} is not a simulate artifact: missing {exc}") from exc
        for field, kinds in _REPORT_TYPES.items():
            value = data[field]
            if type(value) not in kinds:  # a bool is no int; a bad cell breaks the row or the sort
                names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
                raise InputError(f"{path} is not a simulate artifact: {field} {value!r} is not {names}")
            if type(value) is float and not math.isfinite(value):  # json reads NaN, Infinity and 1e400
                raise InputError(f"{path} is not a simulate artifact: {field} {value!r} is not finite")
        if key[2] not in POLICIES:
            raise InputError(f"{path} is not a simulate artifact: policy {key[2]!r} is not one of {POLICIES}")
        rendered = ",".join("" if cell is None else str(cell) for cell in cells)
        rows.append((key, f"{key[0]},{key[1]},{key[2]},{key[3]},{rendered}"))
    rows.sort()
    _write_csv(
        args.out,
        {"inputs": list(args.inputs)},
        "n,seed,policy,k,rounds_used,accounting_lower_bound,throughput",
        [text for _, text in rows],
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Built once per process: a parser is a web of reference cycles, about 54 KB
# that only the cyclic garbage collector would free after each dispatch.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radionet",
        description="Radio-network reception limits: generate, analyze, verify, simulate.",
    )
    parser.add_argument("--version", action="version", version=_tool_line())
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample an instance and write it to a net file")
    gen.add_argument("--n", type=int, required=True, help="node budget, a power of 4")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--radius2", action="store_true", help="wrap with source + void nodes to n nodes"
    )
    gen.set_defaults(run=_cmd_gen)

    analyze = sub.add_parser("analyze", help="emit the probability/bound-chain CSV")
    analyze.add_argument("--grid-nprime", default="2..64", help="sender-count range LO..HI")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(run=_cmd_analyze)

    verify = sub.add_parser("verify", help="maximize single-round receptions on a net")
    verify.add_argument("--net", required=True)
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="full enumeration (default)")
    mode.add_argument("--search", action="store_true", help="hill-climbing lower bound")
    verify.add_argument("--restarts", type=int, default=32)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--threshold", default=None, help="reception threshold factor c")
    verify.add_argument("--out", default=None)
    verify.set_defaults(run=_cmd_verify)

    simulate = sub.add_parser("simulate", help="run a k-message broadcast")
    simulate.add_argument("--net", required=True)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--policy", choices=POLICIES, default="round_robin")
    simulate.add_argument("--model", choices=CONTENT_MODELS, default="routing")
    simulate.add_argument("--p", type=float, default=None, help="random_p transmit probability")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-rounds", type=int, default=100_000)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--series", default=None, help="per-round CSV time series path")
    simulate.set_defaults(run=_cmd_simulate)

    report = sub.add_parser("report", help="merge simulate artifacts into one CSV")
    report.add_argument("inputs", nargs="*")
    report.add_argument("--out", default=None)
    report.set_defaults(run=_cmd_report)

    return parser


if __name__ == "__main__":
    main()
