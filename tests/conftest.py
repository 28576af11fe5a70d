import os

import pytest

from qdc.algebra import QuantumGroup, load_rmatrix
from qdc.calculus import assemble, DEFAULT_RMATRIX


@pytest.fixture(scope="session")
def calc():
    return assemble()


def _assemble_config(name, **kwargs):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return assemble(fh.read(), **kwargs)


@pytest.fixture(scope="session")
def calc3():
    """SL_q(3) at grade cap 1."""
    return _assemble_config("slq3.rmatrix", grade_cap=1)


@pytest.fixture(scope="session")
def calc4():
    """SL_q(4) at grade cap 1 and degree bound 1, below the quartic
    determinant rule."""
    return _assemble_config("slq4.rmatrix", grade_cap=1, degree_bound=1)


@pytest.fixture(scope="session")
def qg(calc):
    return calc.qg


@pytest.fixture(scope="session")
def dual(calc):
    return calc.dual


@pytest.fixture(scope="session")
def qg_gl():
    return QuantumGroup(load_rmatrix(DEFAULT_RMATRIX), sl_mode=False)
