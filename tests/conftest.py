import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pasplearn.parsing import parse_interpretations, parse_program
from pasplearn.stable import StableSolver
from pasplearn.sympoly import PolyStack

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

EXAMPLE_GRAPH = """\
0.2::edge(1,2).
0.3::edge(2,4).
0.9::edge(1,3).
path(X,Y) :- connected(X,Z), path(Z,Y).
path(X,Y) :- connected(X,Y).
connected(X,Y) :- edge(X,Y), not nconnected(X,Y).
nconnected(X,Y) :- edge(X,Y), not connected(X,Y).
"""


def stable_models(gp, world_facts=(), solved=None) -> list[frozenset]:
    """The package solver's stable models of ``gp`` in one world, as atom sets.

    ``world_facts`` are the probabilistic atoms true in the world; the
    sets come in the solver's ascending row order.  ``solved`` is
    ``StableSolver(gp).all_worlds()``: pass it when asking for many
    worlds of one program, so that the worlds are solved once.
    """
    n = len(gp.prob_atom_ids)
    world = 0
    for atom in world_facts:
        j = gp.atom_index[atom]
        assert j < n, f"{atom} is not a probabilistic fact"
        world |= 1 << (n - 1 - j)
    counts, rows = StableSolver(gp).all_worlds() if solved is None else solved
    first = int(counts[:world].sum())
    return [
        frozenset(a for a, bit in zip(gp.atoms, row) if bit)
        for row in world_rows(gp, rows[first : first + counts[world]])
    ]


def stack_gradient(p, theta) -> np.ndarray:
    """Exact gradient of one polynomial, from a one-polynomial ``PolyStack``."""
    theta = np.asarray(theta, dtype=float)
    stack = PolyStack([p], p.nvars)
    return stack.gradient_rows(theta, *stack.evaluate(theta)[1:])[0]


def world_rows(gp, rows) -> list[bytes]:
    """The solver's packed ``rows`` as one byte per atom, one ``bytes`` per model."""
    return [row.tobytes() for row in np.unpackbits(rows, axis=1, count=gp.n_atoms)]


@pytest.fixture
def graph_program():
    """Three-edge reachability program: exact bounds known by hand."""
    return parse_program(EXAMPLE_GRAPH)


@pytest.fixture
def learnable_graph_program():
    return parse_program(
        EXAMPLE_GRAPH.replace("0.2::", "learnable(0.5)::")
        .replace("0.3::", "learnable(0.5)::")
        .replace("0.9::", "learnable(0.5)::")
    )


@pytest.fixture
def graph_interpretations():
    return parse_interpretations("path(1,3), not path(1,4).\npath(1,4).\n")
