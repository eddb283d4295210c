"""Checks of radionet's outputs against computations made apart from it.

Nothing here calls radionet code to produce an expected value: net files
are parsed by `parse_net`, maxima come from a numpy brute force over every
transmit set, probabilities from `math.comb`, expectations from enumerating
neighbour sets, and the radius from an O(n) certificate. Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

#: Brute force enumerates 2**n' masks; past this it is not attempted.
BRUTE_FORCE_MAX_SENDERS = 20


def parse_net(text: str) -> tuple[int, list[tuple[int, ...]], int | None]:
    """Sender count, receiver neighbour lists and the radius-2 total (or None)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    senders, receiver_count = int(lines[0][2]), int(lines[0][3])
    receivers = [tuple(int(u) for u in fields[1:]) for fields in lines[1 : 1 + receiver_count]]
    footer = lines[1 + receiver_count :]
    total = int(footer[0][1]) if footer else None
    return senders, receivers, total


def class_structured_net(rng, senders: int, classes: int) -> str:
    """A `radionet v1` net: `senders` receivers per class i, each adjacent to
    a uniform random 2**i-subset of the senders."""
    lines = [f"radionet v1 {senders} {senders * classes}"]
    for class_index in range(1, classes + 1):
        for _ in range(senders):
            neighbors = sorted(rng.sample(range(senders), 1 << class_index))
            lines.append(" ".join(str(v) for v in (class_index, *neighbors)))
    return "\n".join(lines) + "\n"


def _neighbor_mask(neighbors) -> int:
    mask = 0
    for u in neighbors:
        mask |= 1 << u
    return mask


def reception_count(receivers, transmit_mask: int) -> int:
    """Receivers with exactly one transmitting neighbour."""
    return sum((_neighbor_mask(nbrs) & transmit_mask).bit_count() == 1 for nbrs in receivers)


def brute_force_maxrec(senders: int, receivers) -> tuple[int, int]:
    """(best reception count, smallest mask reaching it) over all 2**senders masks."""
    if senders > BRUTE_FORCE_MAX_SENDERS:
        raise ValueError(f"{senders} senders is past the brute-force limit")
    masks = np.arange(1 << senders, dtype=np.uint32)
    counts = np.zeros(1 << senders, dtype=np.int32)
    for nbrs in receivers:
        counts += np.bitwise_count(masks & np.uint32(_neighbor_mask(nbrs))) == 1
    witness = int(np.argmax(counts))  # first maximum, so the smallest mask
    return int(counts[witness]), witness


def check_gen(stdout: str, net_text: str, n: int) -> list[str]:
    senders, receivers, total = parse_net(net_text)
    n_prime = math.isqrt(n)
    classes = (n.bit_length() - 1) // 2
    summary = json.loads(stdout)
    problems = []
    if (senders, len(receivers), total) != (n_prime, n_prime * classes, n):
        problems.append(f"gen n={n}: net has {senders} senders, {len(receivers)} receivers, total {total}")
    if (summary["senders"], summary["receivers"]) != (senders, len(receivers)):
        problems.append(f"gen n={n}: summary {summary} disagrees with the net file")
    for i, nbrs in enumerate(receivers):
        degree = 1 << (1 + i // n_prime)
        if len(set(nbrs)) != degree or not all(0 <= u < senders for u in nbrs):
            problems.append(f"gen n={n}: receiver {i} has neighbours {nbrs}, not a {degree}-subset")
            break
    return problems


def check_verify_exact(artifact: dict, net_text: str) -> tuple[list[str], int]:
    """Problems, and the oracle maximum for the simulate checks."""
    senders, receivers, _ = parse_net(net_text)
    best, witness = brute_force_maxrec(senders, receivers)
    problems = []
    got = (artifact["best_count"], artifact["witness_hex"], artifact["exact"], artifact["subsets_examined"])
    want = (best, format(witness, "x"), True, 1 << senders)
    if got != want:
        problems.append(f"verify --exact: (best, witness, exact, subsets) {got} != brute force {want}")
    return problems, best


def check_verify_search(artifact: dict, net_text: str) -> list[str]:
    senders, receivers, _ = parse_net(net_text)
    witness = int(artifact["witness_hex"], 16)
    count = reception_count(receivers, witness)
    problems = []
    if count != artifact["best_count"]:
        problems.append(f"verify --search: witness reaches {count}, artifact says {artifact['best_count']}")
    if artifact["exact"] or witness >> senders:
        problems.append("verify --search: claims exactness or has a witness past the senders")
    return problems


def check_simulate(artifact: dict, k: int, receivers: int, maxrec: int | None) -> list[str]:
    """Simulate invariants; `maxrec` is the oracle maximum where one exists."""
    per_receiver = artifact["per_receiver_receptions"]
    upper = maxrec if maxrec is not None else receivers
    problems = []
    name = f"simulate {artifact['policy']}/{artifact['model']}"
    if not artifact["decoded_all"] or artifact["incomplete"] or not all(artifact["per_receiver_decoded"]):
        problems.append(f"{name}: not every receiver decoded")
    if len(per_receiver) != receivers or min(per_receiver) != artifact["min_receptions"]:
        problems.append(f"{name}: per-receiver receptions disagree with min_receptions")
    if artifact["min_receptions"] < k:
        problems.append(f"{name}: min_receptions {artifact['min_receptions']} < k={k}")
    if sum(per_receiver) != artifact["total_receptions"]:
        problems.append(f"{name}: receptions sum {sum(per_receiver)} != total {artifact['total_receptions']}")
    floor = -(-k * receivers // upper)
    if artifact["rounds_used"] < floor:
        problems.append(f"{name}: {artifact['rounds_used']} rounds < ceil(k*R/U) = {floor}")
    if artifact["throughput"] != k / artifact["rounds_used"]:
        problems.append(f"{name}: throughput {artifact['throughput']} != k/rounds")
    if maxrec is not None and (artifact["maxrec"], artifact["accounting_lower_bound"]) != (maxrec, floor):
        problems.append(
            f"{name}: (maxrec, bound) {(artifact['maxrec'], artifact['accounting_lower_bound'])}"
            f" != oracle {(maxrec, floor)}"
        )
    return problems


def check_report(csv_text: str, artifacts: list[dict]) -> list[str]:
    lines = csv_text.splitlines()
    rows = list(csv.reader(lines[2:]))
    want = Counter(
        (
            str(a["n"]), str(a["seed"]), a["policy"], str(a["k"]), str(a["rounds_used"]),
            "" if a["accounting_lower_bound"] is None else str(a["accounting_lower_bound"]),
            repr(a["throughput"]),
        )
        for a in artifacts
    )
    problems = []
    if not lines[0].startswith("# radionet") or lines[1] != (
        "n,seed,policy,k,rounds_used,accounting_lower_bound,throughput"
    ):
        problems.append(f"report: unexpected banner or header {lines[:2]}")
    if len(rows) != len(artifacts) or Counter(tuple(r) for r in rows) != want:
        problems.append(f"report: rows {rows} do not match the {len(artifacts)} artifacts")
    return problems


def check_analyze(csv_text: str, lo: int, hi: int) -> list[str]:
    """Every (n', s, delta) cell present, p_delta exact, chain passed, envelope above."""
    rows = list(csv.reader(csv_text.splitlines()[2:]))
    cells = [
        (n_prime, s, delta)
        for n_prime in (1 << e for e in range(1, hi.bit_length()))
        if lo <= n_prime <= hi
        for s in range(1, n_prime + 1)
        for delta in range(1, n_prime - s + 2)
    ]
    if len(rows) != len(cells):
        return [f"analyze: {len(rows)} rows, expected {len(cells)}"]
    for row, (n_prime, s, delta) in zip(rows, cells):
        p = Fraction(s * math.comb(n_prime - s, delta - 1), math.comb(n_prime, delta))
        want = [str(n_prime), str(s), str(delta), str(p.numerator), str(p.denominator)]
        if row[:5] != want or row[6] != "true" or Fraction(float(row[5])) < p:
            return [f"analyze: row {row} fails for p_delta={p}"]
    return []


def exact_expected_receivers(n: int, s: int) -> Fraction:
    """Mean receptions when the first `s` senders transmit, over all neighbour sets."""
    n_prime = math.isqrt(n)
    total = Fraction(0)
    for class_index in range(1, (n.bit_length() - 1) // 2 + 1):
        subsets = list(combinations(range(n_prime), 1 << class_index))
        hearing = sum(sum(u < s for u in subset) == 1 for subset in subsets)
        total += Fraction(n_prime * hearing, len(subsets))
    return total


def check_monte_carlo(estimate, n: int, s: int, trials: int) -> list[str]:
    exact = exact_expected_receivers(n, s)
    gap = abs(Fraction(estimate.mean) - exact)
    if estimate.trials != trials or not estimate.std_error > 0 or gap > 4 * Fraction(estimate.std_error):
        return [
            f"monte carlo n={n} s={s}: mean {estimate.mean} +- {estimate.std_error} "
            f"over {estimate.trials} trials is not within 4 SE of {float(exact)}"
        ]
    return []


def check_radius(net, n: int, value) -> list[str]:
    """Radius 2, certified in O(n): the source has eccentricity 2 and no node
    is adjacent to all others, so no node has eccentricity below 2."""
    adjacency = net.adjacency
    dist = [-1] * len(adjacency)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    problems = []
    if len(adjacency) != n or min(dist) < 0 or max(dist) != 2:
        problems.append(f"radius n={n}: source eccentricity is not 2 on {len(adjacency)} nodes")
    if max(len(nbrs) for nbrs in adjacency) >= n - 1:
        problems.append(f"radius n={n}: some node is adjacent to every other")
    if value != 2:
        problems.append(f"radius n={n}: model.radius returned {value}, certificate says 2")
    return problems
