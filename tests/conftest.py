"""Test-local checks of the invariants a generated instance keeps, as fixtures."""

import pytest

from radionet.model import dumps, loads


def _class_degree_problems(net):
    return [
        f"receiver {i}: degree {r.neighbors.bit_count()} != 2^{r.class_index}"
        for i, r in enumerate(net.receivers)
        if r.neighbors.bit_count() != 1 << r.class_index
    ]


@pytest.fixture
def class_degree_problems():
    """Receivers whose degree is not 2**class_index; hand-built nets may have them."""
    return _class_degree_problems


@pytest.fixture
def instance_problems():
    """Every way a net falls short of a generated instance. It must come
    back equal from its file, whose structure `loads` checks; the fixture
    then lists every class-degree problem."""

    def problems(net):
        assert loads(dumps(net)) == net
        return _class_degree_problems(net)

    return problems
