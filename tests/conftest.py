"""Test-local checks of the invariants a generated instance keeps, as fixtures."""

import pytest

from radionet.model import _structure_problems


def _class_degree_problems(net):
    return [
        f"receiver {i}: degree {len(r.neighbors)} != 2^{r.class_index}"
        for i, r in enumerate(net.receivers)
        if r.class_index >= 0 and len(r.neighbors) != 1 << r.class_index
    ]


@pytest.fixture
def class_degree_problems():
    """Receivers whose degree is not 2**class_index; hand-built nets may have them."""
    return _class_degree_problems


@pytest.fixture
def instance_problems():
    """Every way a net falls short of a generated instance: the structure
    problems `loads` rejects, then every class-degree problem."""
    return lambda net: _structure_problems(net) + _class_degree_problems(net)
