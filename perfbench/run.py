"""Benchmark for radionet: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --workload all --smoke  # toy sizes, every check, seconds

A run times whole passes over the workload's operations until `--seconds`
have gone by (at least two passes), checks the outputs of the first pass
against independent oracles, and checks that every later pass wrote the same
bytes. With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer metrics
of the traced ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a result file with the full
detail goes to `--out` (default perfbench/out).

The program is imported from the `src/` directory next to this one, never
from an installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact", "broadcast-4096", "certify")
SETUP_PROBES = 7

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for testing the benchmark")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for result files")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import radionet from ./src, refusing any other copy."""
    if not (SRC / "radionet" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no radionet sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import radionet.cli

    if Path(radionet.cli.__file__).resolve().parent != SRC / "radionet":
        sys.stderr.write(f"perfbench: imported radionet from {radionet.cli.__file__}, not {SRC}\n")
        sys.exit(2)


def _child_argv(args, workload, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out, *extra]
    return argv + (["--smoke"] if args.smoke else [])


def _measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import radionet and prepare inputs."""
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        started = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms, which
        # would round every probe up to the next step.
        subprocess.run(_child_argv(args, args.workload, "--probe-setup"), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _probe_setup(args) -> int:
    import workloads

    plan = workloads.build(args.workload, args.seed, args.smoke)
    work = Path(args.out) / f"probe-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        plan.prepare()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    return 0


def _run_pass(plan) -> tuple[float, dict, dict]:
    results, failed = {}, {}
    started = time.perf_counter()
    for op in plan.ops:
        try:
            results[op.name] = op.run(results)
        except Exception as exc:  # an operation of the program failed; count it, keep going
            failed[op.name] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, results, failed


def _snapshot(results: dict) -> dict:
    """Every file the pass left in the work directory, and every result."""
    files = {path.name: path.read_bytes() for path in sorted(Path(".").iterdir())}
    return {"files": files, "results": {name: repr(value) for name, value in results.items()}}


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _run_workload(args) -> int:
    import numpy
    import spans
    import workloads

    plan = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = None if args.trace else _measure_setup(args)
    out_dir = Path(args.out).resolve()
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = spans.Tracer()
    walls, traced_flags, problems = [], [], []
    attempted = failed = 0
    failures = {}
    first = None
    home = os.getcwd()
    os.chdir(work)
    try:
        plan.prepare()
        started = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - started < args.seconds:
            traced = bool(args.trace) and len(walls) % 2 == 1
            if traced:
                tracer.install(len(walls))
            try:
                wall, results, pass_failed = _run_pass(plan)
            finally:
                tracer.uninstall()
            walls.append(wall)
            traced_flags.append(traced)
            attempted += len(plan.ops)
            failed += len(pass_failed)
            failures.update(pass_failed)
            snapshot = _snapshot(results)
            if first is None:
                first = (results, pass_failed, snapshot)
            elif snapshot != first[2]:
                before, after = first[2]["files"], snapshot["files"]
                changed = sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))
                problems.append(f"pass {len(walls)} output differs from pass 1: files {changed}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results, first_failed, _ = first
        for needs, check in plan.checks:
            if any(name in first_failed for name in needs):
                continue
            try:
                problems += check(results)
            except Exception as exc:  # output too malformed to check is wrong output
                problems.append(f"checking {needs[0]}: {type(exc).__name__}: {exc}")
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    untraced = [w for w, t in zip(walls, traced_flags) if not t]
    if args.trace:
        traced_walls = [w for w, t in zip(walls, traced_flags) if t]
        values = tracer.layer_metrics(untraced, traced_walls)
        units = dict(spans.LAYER_METRICS)
    else:
        values = {"wall_s": statistics.median(untraced), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "inputs": plan.inputs,
        "pass_wall_s": walls,
        "pass_traced": traced_flags,
        "problems": problems,
        "failures": failures,
    }
    if args.trace:
        detail["span_summary"] = tracer.summary()
        detail["spans"] = tracer.records()
    suffix = "-smoke" if args.smoke else ""
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )

    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, failure in failures.items():
        print(f"FAILED {name}: {failure}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {attempted} failed {failed} passes {len(walls)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(_child_argv(args, workload), stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {done.returncode})")
            merged["correct"] = False
            status = 1
            continue
        status = status or done.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def _stop_children() -> None:
    """Stop and wait for every process this one started that is still running.

    The pooled verify runs a spawn-context process pool. The pool joins its
    workers, but the multiprocessing resource tracker it starts stays up
    until it is told to stop, and would otherwise outlive this process."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> list[int]:
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in children.read_text().split()]
        except OSError:
            pass
    return pids


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # two passes
    _import_program()
    os.environ.pop("RADIONET_WORKERS", None)
    try:
        if args.probe_setup:
            return _probe_setup(args)
        if args.workload == "all":
            return _run_all(args)
        return _run_workload(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
