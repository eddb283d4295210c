"""The three workloads: their operations, inputs and output checks.

A workload is a fixed list of operations run in order, one pass at a time,
in a work directory that is the current directory. An operation is either a
CLI step through `radionet.cli.dispatch` or a call into a public function of
`instance`, `model` or `verifier`; both are looked up on the module at call
time, so the spans installed by `spans.Tracer` see them. Every input comes
from the workload seed. Checks run once on the first pass's outputs, grouped
by the operations they need; a group whose operation failed is not checked.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import radionet.cli
import radionet.instance
import radionet.model
import radionet.verifier

import oracles

#: The six simulate configurations: (policy, --p) x content model.
SIMULATIONS = tuple(
    (policy, p, model)
    for policy, p in (("round_robin", None), ("greedy_schedule", None), ("random_p", "0.0625"))
    for model in ("routing", "coding")
)


class OpFailed(Exception):
    """A CLI step exited with a status other than 0."""


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]  # gets the results of the earlier ops of the pass


@dataclass
class Plan:
    ops: list[Op]
    checks: list[tuple[tuple[str, ...], Callable[[dict], list[str]]]]
    prepare: Callable[[], None] = lambda: None
    inputs: dict = field(default_factory=dict)


def cli_op(name: str, argv: list[str], workers: int | None = None) -> Op:
    """One `radionet` subcommand; its stdout is the op's result."""

    def run(results):
        out, err = io.StringIO(), io.StringIO()
        if workers is not None:
            os.environ[radionet.cli.WORKERS_ENV] = str(workers)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = radionet.cli.dispatch(argv)
        finally:
            if workers is not None:
                del os.environ[radionet.cli.WORKERS_ENV]
        if code != 0:
            raise OpFailed(f"radionet {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(name, run)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _pipeline(tag: str, n: int, k: int, gen_seed: int, simulations, verify: list[str]):
    """gen --radius2 -> verify -> simulate runs -> report, with its checks.

    `simulations` holds (policy, p, model, seed) for each simulate run."""
    net, verify_out, report_out = f"{tag}.net", f"{tag}.verify.json", f"{tag}.report.csv"
    sims = [f"{tag}.{policy}.{model}.{seed}.json" for policy, _, model, seed in simulations]
    ops = [
        cli_op(f"{tag}.gen", ["gen", "--n", str(n), "--seed", str(gen_seed), "--out", net, "--radius2"]),
        cli_op(f"{tag}.verify", ["verify", "--net", net, *verify, "--out", verify_out]),
    ]
    for (policy, p, model, seed), out in zip(simulations, sims):
        argv = ["simulate", "--net", net, "--k", str(k), "--policy", policy, "--model", model,
                "--seed", str(seed), "--out", out]
        ops.append(cli_op(out, argv + (["--p", p] if p else [])))
    ops.append(cli_op(f"{tag}.report", ["report", *sims, "--out", report_out]))

    def check(results):
        text = _read(net)
        problems = oracles.check_gen(results[f"{tag}.gen"], text, n)
        artifact = json.loads(_read(verify_out))
        if "--exact" in verify:
            found, maxrec = oracles.check_verify_exact(artifact, text)
        else:
            found, maxrec = oracles.check_verify_search(artifact, text), None
        problems += found
        receivers = len(oracles.parse_net(text)[1])
        artifacts = [json.loads(_read(out)) for out in sims]
        for artifact in artifacts:
            problems += oracles.check_simulate(artifact, k, receivers, maxrec)
        return problems + oracles.check_report(_read(report_out), artifacts)

    return ops, (tuple(op.name for op in ops), check)


def exact(seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"exact/{seed}")
    n, k, nets, pool_senders, pool_classes = (64, 4, 2, 10, 3) if smoke else (256, 16, 3, 20, 4)
    ops, checks = [], []
    gen_seeds = []
    for i in range(nets):
        gen_seeds.append(rng.getrandbits(32))
        sim_seed = rng.getrandbits(32)
        simulations = [(*config, sim_seed) for config in SIMULATIONS]
        pipe_ops, pipe_check = _pipeline(f"net{i}", n, k, gen_seeds[-1], simulations, ["--exact"])
        ops += pipe_ops
        checks.append(pipe_check)
    # The only step that runs the process pool: more than 8 senders and 2 workers.
    pool_net = oracles.class_structured_net(rng, pool_senders, pool_classes)
    ops.append(cli_op("pool.verify", ["verify", "--net", "pool.net", "--exact", "--out", "pool.json"], workers=2))

    def check_pool(results):
        return oracles.check_verify_exact(json.loads(_read("pool.json")), pool_net)[0]

    checks.append((("pool.verify",), check_pool))
    return Plan(
        ops,
        checks,
        prepare=lambda: Path("pool.net").write_text(pool_net, encoding="utf-8"),
        inputs={"n": n, "k": k, "gen_seeds": gen_seeds, "pool_senders": pool_senders},
    )


def broadcast_4096(seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"broadcast-4096/{seed}")
    n, k = (256, 4) if smoke else (4096, 16)
    gen_seed, sim_seed, search_seed = (rng.getrandbits(32) for _ in range(3))
    simulations = [(*config, sim_seed) for config in SIMULATIONS]
    ops, check = _pipeline("b", n, k, gen_seed, simulations, ["--search", "--seed", str(search_seed)])
    return Plan(ops, [check], inputs={"n": n, "k": k, "gen_seed": gen_seed, "sim_seed": sim_seed})


def certify(seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"certify/{seed}")
    grid_hi, mc_n, trials, radius_ns = (16, 16, 200, (64, 256)) if smoke else (256, 256, 1000, (1024, 1024, 4096))
    s = rng.randint(1, math.isqrt(mc_n) // 2)
    mc_seed = rng.getrandbits(32)
    ops = [
        cli_op("analyze", ["analyze", "--grid-nprime", f"2..{grid_hi}", "--out", "chains.csv"]),
        Op("monte_carlo", lambda results: radionet.verifier.monte_carlo_expectation(
            radionet.instance.InstanceParams(mc_n), s, trials, mc_seed)),
    ]
    checks = [
        (("analyze",), lambda results: oracles.check_analyze(_read("chains.csv"), 2, grid_hi)),
        (("monte_carlo",), lambda results: oracles.check_monte_carlo(results["monte_carlo"], mc_n, s, trials)),
    ]
    wrapper_seeds = []
    for j, size in enumerate(radius_ns):
        wrapper_seeds.append(rng.getrandbits(32))
        ops += [
            Op(f"wrap{j}", lambda results, size=size, wseed=wrapper_seeds[-1]: radionet.instance.build_radius2(
                radionet.instance.sample_instance(radionet.instance.InstanceParams(size, wseed)), size)),
            Op(f"radius{j}", lambda results, j=j: radionet.model.radius(results[f"wrap{j}"])),
        ]
        checks.append(((f"wrap{j}", f"radius{j}"), lambda results, j=j, size=size: oracles.check_radius(
            results[f"wrap{j}"], size, results[f"radius{j}"])))
    return Plan(ops, checks, inputs={"grid": f"2..{grid_hi}", "mc_n": mc_n, "mc_s": s, "mc_trials": trials,
                                     "radius_n": list(radius_ns), "wrapper_seeds": wrapper_seeds})


def build(workload: str, seed: int, smoke: bool) -> Plan:
    return {"exact": exact, "broadcast-4096": broadcast_4096, "certify": certify}[workload](seed, smoke)
