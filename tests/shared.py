"""Helpers that two or more test files use: the toy net, the instance checks,
a `report` input and the enumeration oracle of the reception probability."""

from fractions import Fraction
from itertools import combinations
from math import comb

from radionet.cli import SCHEMA_VERSION
from radionet.model import BipartiteRadioNet, Receiver, bit_mask, dumps, loads


def toy_net():
    """Senders {a=0, b=1}; r1 hears only a, r2 hears both."""
    return BipartiteRadioNet(2, (Receiver(0, bit_mask((0,))), Receiver(1, bit_mask((0, 1)))))


def class_degree_problems(net):
    """Receivers whose degree is not 2**class_index; hand-built nets may have them."""
    return [
        f"receiver {i}: degree {r.neighbors.bit_count()} != 2^{r.class_index}"
        for i, r in enumerate(net.receivers)
        if r.neighbors.bit_count() != 1 << r.class_index
    ]


def instance_problems(net):
    """Every way a net falls short of a generated instance. It must come
    back equal from its file, whose structure `loads` checks; then every
    class-degree problem is listed."""
    assert loads(dumps(net)) == net
    return class_degree_problems(net)


def simulate_artifact(**fields):
    """A well-formed `simulate` artifact as `report` reads it, with `fields` replaced."""
    return {"schema_version": SCHEMA_VERSION, "n": 16, "seed": 3, "policy": "round_robin", "k": 2,
            "rounds_used": 9, "accounting_lower_bound": 4, "throughput": 0.25, **fields}


def reception_probability_by_enumeration(n_prime: int, s: int, delta: int) -> Fraction:
    """Oracle: enumerate every delta-subset of senders and count the ones
    containing exactly one of the first s senders."""
    hits = sum(
        1
        for neighbor_set in combinations(range(n_prime), delta)
        if sum(1 for u in neighbor_set if u < s) == 1
    )
    return Fraction(hits, comb(n_prime, delta))
