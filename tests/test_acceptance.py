"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and time budget is pinned here, not configurable.
"""

import json
import math
import random
import time

from radionet.analytic import (
    certify_chain,
    chernoff_tail,
    expected_receivers,
    expected_receivers_upper,
    p_delta,
    union_failure_bound,
)
from radionet.broadcast import BroadcastConfig, run_broadcast
from radionet.cli import dispatch
from radionet.instance import InstanceParams, build_radius2, sample_instance
from radionet.model import radius, save
from radionet.verifier import (
    max_receptions_exact,
    max_receptions_search,
    monte_carlo_expectation,
)

from layout import SOURCE, distances, layout_neighbors
from shared import reception_probability_by_enumeration

N256_SEED = 2026  # fixed n=256 instance used by criteria 6 and 9


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_exact_probability_vs_enumeration():
    started = time.monotonic()
    cells = [
        (n_prime, s, 1 << i)
        for n_prime in (2, 4, 8, 16)
        for i in range(1, n_prime.bit_length())
        for s in range(1, n_prime + 1)
    ]
    exact_everywhere = all(p_delta(*cell) == reception_probability_by_enumeration(*cell) for cell in cells)
    elapsed = time.monotonic() - started
    _report(
        1,
        exact_everywhere and elapsed < 10.0,
        f"{len(cells)} (n',s,delta) cells match brute-force enumeration exactly "
        f"in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_probability_monte_carlo_agreement():
    started = time.monotonic()
    samples = 100_000
    rng = random.Random(515)
    worst = 0.0
    agreed = True
    for s in (1, 4, 8):
        for delta in (2, 4, 8, 16):
            exact = float(p_delta(16, s, delta))
            hits = 0
            for _ in range(samples):
                neighbor_set = rng.sample(range(16), delta)
                hits += sum(1 for u in neighbor_set if u < s) == 1
            estimate = hits / samples
            stderr = math.sqrt(estimate * (1 - estimate) / samples)
            gap = abs(estimate - exact)
            if gap > 4 * stderr:
                agreed = False
            if stderr:
                worst = max(worst, gap / stderr)
    elapsed = time.monotonic() - started
    _report(
        2,
        agreed and elapsed < 30.0,
        f"12 cells within 4 standard errors at 1e5 samples (worst {worst:.2f} SE) "
        f"in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_inequality_chain_certification():
    started = time.monotonic()
    failures = 0
    checked = 0
    for n_prime in range(1, 65):
        for s in range(1, n_prime + 1):
            for delta in range(1, n_prime - s + 2):
                *_, passed = certify_chain(n_prime, s, delta)
                if not passed:
                    failures += 1
                checked += 1
    elapsed = time.monotonic() - started
    _report(
        3,
        failures == 0 and elapsed < 60.0,
        f"{checked} chains certified, {failures} failures in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_04_expectation_bounds():
    ok = True
    cells = 0
    n_prime = 2
    while n_prime <= 64:
        cap = 10 * n_prime
        upper = expected_receivers_upper(n_prime)
        for s in range(0, n_prime + 1):
            mean = expected_receivers(n_prime, s)
            if not mean < cap:
                ok = False
            if not float(mean) <= upper:
                ok = False
            cells += 1
        n_prime *= 2
    _report(4, ok, f"{cells} (n',s) cells: exact mean < 10n' and <= closed-form envelope")


def test_criterion_05_tail_bounds():
    ok = True
    for n_prime in range(1, 65):
        if not chernoff_tail(10 * n_prime, 20 * n_prime) <= math.exp(-3 * n_prime):
            ok = False
        if not union_failure_bound(n_prime) < math.exp(-2 * n_prime):
            ok = False
    _report(5, ok, "n' = 1..64: tail <= exp(-3n') and union bound < exp(-2n')")


def test_criterion_06_exhaustive_verification_n256(tmp_path):
    net = sample_instance(InstanceParams(256, seed=N256_SEED))
    started = time.monotonic()
    exact = max_receptions_exact(net)
    enum_elapsed = time.monotonic() - started
    enum_ok = enum_elapsed < 5.0 and exact.subsets_examined == 65536

    matches = sum(
        1
        for seed in range(100)
        if max_receptions_search(net, restarts=32, seed=seed).best_count == exact.best_count
    )
    net_file, out = tmp_path / "h.net", tmp_path / "verify.json"
    save(net, str(net_file))
    argv = ["verify", "--net", str(net_file), "--exact", "--threshold", "20", "--out", str(out)]
    verdict = json.loads(out.read_text()) if dispatch(argv) == 0 else {}
    threshold_ok = (
        verdict.get("vacuous") is True
        and verdict["threshold"] == 320
        and verdict["receiver_count"] == 64
        and verdict["best_count"] == exact.best_count
    )
    _report(
        6,
        enum_ok and matches >= 95 and threshold_ok,
        f"all 65536 subsets in {enum_elapsed:.2f}s (< 5s), best={exact.best_count}; "
        f"search matched on {matches}/100 seeds (>= 95); threshold 320 >= 64 flagged vacuous",
    )


def test_criterion_07_monte_carlo_expectation_over_graphs():
    ok = True
    details = []
    for s in (1, 2):
        estimate = monte_carlo_expectation(InstanceParams(16), s, trials=10_000, seed=s)
        exact = float(expected_receivers(4, s))
        gap = abs(estimate.mean - exact)
        if gap > 4 * estimate.std_error:
            ok = False
        details.append(f"s={s}: |{estimate.mean:.3f} - {exact:.3f}| <= 4*{estimate.std_error:.4f}")
    _report(7, ok, "; ".join(details))


def _radius_is_two_by_bfs(net) -> bool:
    """An O(n) certificate over the test-local layout, independent of `radius`.

    A BFS from the source reaches every node with a largest distance of 2,
    so the radius is at most 2; no node has n-1 neighbours, so no node has
    eccentricity 1.
    """
    nbrs = layout_neighbors(net)
    dist = distances(nbrs, SOURCE)
    universal = max(len(neighbours) for neighbours in nbrs.values()) == len(nbrs) - 1
    return len(dist) == len(nbrs) and max(dist.values()) == 2 and not universal


def test_criterion_08_radius_always_two():
    sizes = (64, 256, 1024)
    ok = True
    for trial in range(100):
        n = sizes[trial % len(sizes)]
        net = build_radius2(sample_instance(InstanceParams(n, seed=trial)), n)
        if not _radius_is_two_by_bfs(net) or radius(net) != 2:
            ok = False
    _report(8, ok, "100 random wrappers over n in {64, 256, 1024} all have radius 2 by BFS")


def test_criterion_09_broadcast_accounting():
    core = sample_instance(InstanceParams(256, seed=N256_SEED))
    net = build_radius2(core, 256)
    maxrec = max_receptions_exact(core).best_count
    receiver_count = core.receiver_count
    ok = True
    runs = 0
    for k in (1, 4, 16):
        bound = -(-(k * receiver_count) // maxrec)
        for policy, p in (("round_robin", None), ("greedy_schedule", None), ("random_p", 0.0625)):
            for model in ("routing", "coding"):
                cfg = BroadcastConfig(k=k, content_model=model, policy=policy, p=p, seed=k)
                report = run_broadcast(net, cfg, maxrec=maxrec)
                runs += 1
                if report.incomplete or report.rounds_used < bound:
                    ok = False
                if min(report.per_receiver_receptions) < k:
                    ok = False
                if model == "coding" and report.series[-1][2] != k:
                    ok = False  # decoding must land at rank exactly k
    _report(
        9,
        ok,
        f"{runs} runs (k in {{1,4,16}} x 3 policies x 2 models): rounds >= ceil(k*R/maxrec), "
        f"min receptions >= k, coding rank = k",
    )


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    def pipeline(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        commands = [
            ["gen", "--n", "256", "--seed", "7", "--out", "h.net", "--radius2"],
            ["verify", "--net", "h.net", "--exact", "--threshold", "20", "--out", "verify.json"],
            ["simulate", "--net", "h.net", "--k", "4", "--policy", "greedy_schedule",
             "--model", "coding", "--seed", "11", "--out", "sim.json", "--series", "series.csv"],
            ["report", "sim.json", "--out", "merged.csv"],
        ]
        for argv in commands:
            assert dispatch(argv) == 0, argv
        names = ("h.net", "verify.json", "sim.json", "series.csv", "merged.csv")
        return {name: (workdir / name).read_bytes() for name in names}

    baseline = pipeline(tmp_path / "run0")
    _report(
        10,
        all(pipeline(tmp_path / f"run{i}") == baseline for i in (1, 2)),
        "gen -> verify -> simulate -> report byte-identical across 3 runs",
    )
