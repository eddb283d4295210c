"""Tests of the benchmark itself: the smoke run, the refusal to run without
sources, and that the oracles reject wrong answers."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_every_workload(tmp_path, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    want = {f"{w}.{name}": unit for w in workloads for name, unit in declared.items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want

    for workload in workloads:
        detail = json.loads((tmp_path / f"{workload}-seed1-trace{trace}-smoke.json").read_text())
        assert {"git_sha", "python", "numpy", "nproc", "seed"} <= set(detail)
        assert detail["problems"] == [] and len(detail["pass_wall_s"]) == 2
        if trace:
            assert detail["pass_traced"] == [False, True] and detail["spans"]
    assert not list(tmp_path.glob("work-*")) and not list(tmp_path.glob("probe-*"))


def _session_members(sid: int) -> list[int]:
    """Pids of the live processes whose session id is `sid`, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_running(tmp_path):
    # The pooled verify starts a process pool and its resource tracker; the
    # run must have stopped and waited for both by the time it exits.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact", "--smoke",
         "--trace", "0", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
    )
    output = proc.communicate(timeout=600)[0].decode()
    assert proc.returncode == 0, output
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_oracles_reject_wrong_answers():
    net = oracles.class_structured_net(random.Random(5), 6, 2)
    senders, receivers, _ = oracles.parse_net(net)
    best, witness = oracles.brute_force_maxrec(senders, receivers)
    assert best == max(oracles.reception_count(receivers, m) for m in range(1 << senders))
    assert oracles.reception_count(receivers, witness) == best
    assert all(oracles.reception_count(receivers, m) < best for m in range(witness))

    right = {"best_count": best, "witness_hex": format(witness, "x"), "exact": True,
             "subsets_examined": 1 << senders}
    assert oracles.check_verify_exact(right, net)[0] == []
    assert oracles.check_verify_exact({**right, "best_count": best - 1}, net)[0]
    assert oracles.check_verify_search({**right, "exact": False, "best_count": best + 1}, net)

    receptions = [4] * 12
    sim = {"policy": "round_robin", "model": "routing", "decoded_all": True, "incomplete": False,
           "per_receiver_decoded": [True] * 12, "per_receiver_receptions": receptions,
           "min_receptions": 4, "total_receptions": 48, "rounds_used": 24, "throughput": 4 / 24,
           "maxrec": best, "accounting_lower_bound": -(-48 // best)}
    assert oracles.check_simulate(sim, 4, 12, best) == []
    assert oracles.check_simulate({**sim, "total_receptions": 47}, 4, 12, best)
    assert oracles.check_simulate({**sim, "rounds_used": 1, "throughput": 4.0}, 4, 12, best)
    assert oracles.check_simulate(sim, 5, 12, best)
