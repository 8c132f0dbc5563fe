import hashlib

import numpy as np
import pytest

from pasplearn.credal import check_consistency, credal_query, world_models
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import SpecOutOfRange
from pasplearn.grounding import ground
from pasplearn.model import Literal, query_from_literals
from pasplearn.parsing import interpretations_to_text, program_to_text
from pasplearn.rng import SplitMix64
from pasplearn.stable import StableSolver

LENGTH_RANGES = {"coloring": (3, 4), "path": (1, 3), "shop": (1, 10), "smoke": (1, 3)}
OBSERVABLES = {  # (functor, arity)
    "coloring": {("red", 1), ("green", 1), ("blue", 1), ("valid", 0)},
    "path": {("path", 2)},
    "shop": {("bought", 1)},
    "smoke": {("ill", 1)},
}


def _signature(atom):
    return atom.functor, len(atom.args)


def spec(family, size, n=5, seed=0, init=0.5):
    return DatasetSpec(family, size, n, seed, init)


def test_size_bounds_enforced():
    for family, bad in (("coloring", 7), ("path", 4), ("shop", 13), ("smoke", 1)):
        with pytest.raises(SpecOutOfRange):
            spec(family, bad)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("parity", 3, 5, 0)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("path", 5, 0, 0)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("path", 5, 5, 0, init_prob=1.5)


_BAD_INTEGERS = [1.5, 4.0, True, False, "4", None]


def _spec_with(**field):
    args = {"family": "shop", "size": 4, "num_interpretations": 3, "seed": 1} | field
    return DatasetSpec(**args)


def _assert_integer_field(name: str) -> None:
    for bad in _BAD_INTEGERS:
        with pytest.raises(SpecOutOfRange, match=f"^{name} must be an integer, got {bad!r}$"):
            _spec_with(**{name: bad})
    good = _spec_with(**{name: np.int64(2)})  # numpy integers are integers
    assert generate(good) == generate(_spec_with(**{name: 2}))


def test_size_must_be_an_integer():
    _assert_integer_field("size")


def test_num_interpretations_must_be_an_integer():
    _assert_integer_field("num_interpretations")


def test_seed_must_be_an_integer():
    _assert_integer_field("seed")
    assert generate(_spec_with(seed=-1)) != generate(_spec_with(seed=1))


def test_coloring_shape():
    program, interps = generate(spec("coloring", 4, n=10, seed=7))
    learnables = program.learnable_facts()
    assert len(learnables) == 6  # complete K4
    assert all(pf.atom.functor == "edge" for pf in learnables)
    proper_rules = [r for r in program.rules if r.body]
    assert len(proper_rules) == 9
    node_facts = [r for r in program.rules if not r.body and r.head is not None]
    assert [str(r.head) for r in node_facts] == ["node(1)", "node(2)", "node(3)", "node(4)"]
    assert len(interps) == 10


def test_path_shape_and_connectivity():
    program, _ = generate(spec("path", 10, seed=3))
    edges = [pf.atom.args for pf in program.learnable_facts()]
    assert len(edges) == 10
    # undirected traversal reaches every node
    nodes = {u for e in edges for u in e}
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, frontier = {next(iter(nodes))}, [next(iter(nodes))]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert seen == nodes


def test_shop_shape():
    program, _ = generate(spec("shop", 4, seed=1))
    assert len(program.learnable_facts()) == 4
    constraint = [r for r in program.rules if r.head is None]
    assert len(constraint) == 1
    # persons alternate between steak and beans alternatives
    alts = {
        r.head.args[0]
        for r in program.rules
        if r.head is not None and r.head.functor == "bought" and len(r.head.args) == 2
    }
    assert alts == {"spaghetti", "steak", "beans"}


def test_smoke_shape():
    program, _ = generate(spec("smoke", 3, seed=2))
    learnables = program.learnable_facts()
    assert len(learnables) == 6  # ordered person pairs
    assert all(pf.atom.functor == "influences" for pf in learnables)
    fixed = [pf for pf in program.prob_facts if not pf.learnable]
    assert len(fixed) == 10  # 3 per person + predisposition
    assert {pf.prob for pf in fixed} == {0.1, 0.4, 0.3, 0.2}


def test_interpretation_lengths_and_observables():
    for family, size in (("coloring", 4), ("path", 8), ("shop", 5), ("smoke", 4)):
        program, interps = generate(spec(family, size, n=8, seed=11))
        lo, hi = LENGTH_RANGES[family]
        # generate clips the range to the number of observable ground atoms.
        observable = [a for a in ground(program).atoms if _signature(a) in OBSERVABLES[family]]
        h = min(hi, len(observable))
        for interp in interps:
            assert min(lo, h) <= len(interp.literals) <= h
            assert {_signature(l.atom) for l in interp.literals} <= OBSERVABLES[family]
            atoms = [l.atom for l in interp.literals]
            assert len(set(atoms)) == len(atoms)  # no contradictions possible


def test_generation_deterministic():
    a = generate(spec("path", 7, n=6, seed=123))
    b = generate(spec("path", 7, n=6, seed=123))
    assert a == b
    c = generate(spec("path", 7, n=6, seed=124))
    assert c != a


def test_init_prob_applied_to_learnables_only():
    program, _ = generate(spec("smoke", 2, seed=0, init=0.25))
    assert all(pf.prob == 0.25 for pf in program.learnable_facts())
    assert all(pf.prob != 0.25 for pf in program.prob_facts if not pf.learnable)


def test_generated_programs_consistent():
    for family, size in (("coloring", 3), ("path", 6), ("shop", 3), ("smoke", 2)):
        program, _ = generate(spec(family, size, n=3, seed=5))
        assert check_consistency(program) == 0


def test_generated_interpretations_possible():
    # every interpretation must have positive upper probability
    for family, size in (("coloring", 4), ("path", 7), ("shop", 4), ("smoke", 2)):
        program, interps = generate(spec(family, size, n=6, seed=9))
        for interp in interps:
            q = query_from_literals(interp.literals)
            assert credal_query(program, q).upper > 0.0, f"{family}: {interp}"


_ENUMERABLE_CELLS = (
    [("coloring", n) for n in (3, 4)]
    + [("path", n) for n in range(5, 9)]
    + [("shop", n) for n in range(2, 7)]
    + [("smoke", n) for n in (2, 3)]
)


@pytest.mark.parametrize(
    "family,size", _ENUMERABLE_CELLS, ids=[f"{f}{n}" for f, n in _ENUMERABLE_CELLS]
)
def test_satisfiable_equals_world_pass(family, size):
    # Random literal sets over the observables, rejected ones included:
    # the existence search must agree with the all-worlds pass.
    program, _ = generate(spec(family, size, n=1))
    gp = ground(program)
    solver = StableSolver(gp)
    wm = world_models(program)
    observable = [a for a in gp.atoms if _signature(a) in OBSERVABLES[family]]
    rng = SplitMix64(size)
    answers = set()
    for _ in range(100):
        atoms = rng.sample(observable, rng.randint(1, min(4, len(observable))))
        literals = [Literal(a, positive=rng.randint(0, 1) == 0) for a in atoms]
        possible = wm.satisfaction(query_from_literals(literals))[1].any()
        got = solver.satisfiable([(gp.atom_index[l.atom], l.positive) for l in literals])
        assert got == possible, literals
        answers.add(got)
    # Every sign pattern of ill/1 over distinct persons has a witness.
    assert answers == ({True} if family == "smoke" else {True, False})


# SHA-256 of program_to_text + interpretations_to_text, 10 interpretations,
# at each family's smallest and largest size.  A change to the generator
# must leave every dataset byte-for-byte as it is.
_DATASET_DIGESTS = {
    ("coloring", 3, 0): "5ca610e1707e320a9c41ba0a46da743c3f945c67758d045247eeacac1b33b12a",
    ("coloring", 3, 1): "8e66f24c71c2819160cf1cf6ef09837f6274548e6b0120ad2e5e8afdf5113154",
    ("coloring", 6, 0): "71561c1ad566dcb564e8be367f49a5536732855dac8cf7c0b00f1aad29093406",
    ("coloring", 6, 1): "fa0db80bae3a0fd611577701cb982739f3195302df781934042444ecdfda7e30",
    ("path", 5, 0): "c20f5bd690531e511fa4e98b1b750882d80d0cdcc063a2c3c71b915f9c78ffc9",
    ("path", 5, 1): "98528204b797e5cb24562ebd88159f6db78157c21a4d01bab4d37e1819b3cfc9",
    ("path", 20, 0): "feb76efa42711704d2cf27ce1ea35212817d61d5fb8abaa1756f440ac047ae63",
    ("path", 20, 1): "2efd98834c956bb45de0d1540e162f7556a75bb47d7f5f0b5f6b7408c71ca4c1",
    ("shop", 2, 0): "6f794ef1c93823512fe201925fb04a23b95252723bb5d4f9812910e3043c559a",
    ("shop", 2, 1): "2d01607cf0ccbc8bb7bf560d9c729efa1dd9237afc2b86572c166c8c5baf4184",
    ("shop", 12, 0): "7aa48d893bdeb031dc380a64ea303745d61da4268d5b35224e5799460db43788",
    ("shop", 12, 1): "ac2018122bc29cfbfc275b98887dddb203208c776540397b0decba67c897fd3a",
    ("smoke", 2, 0): "f10438c546f371836fb9caaf3433f68d832e2aa792f2942d4cda19ae5ccf6e16",
    ("smoke", 2, 1): "4c40e92988d61c216f0560443db8ac7fa6d1f62b455d1d919f92f8d70d4d64e6",
    ("smoke", 6, 0): "2d9f3ae630a07abfdb6428b4ceb121188a86c7805b641dda96cda62c6a58b0d6",
    ("smoke", 6, 1): "2452aabd404f363ada7c34c41270f82828f0e90373f37d36d0174d4cc4b10639",
}


@pytest.mark.parametrize(
    "family,size,seed", list(_DATASET_DIGESTS), ids=[f"{f}{n}-s{s}" for f, n, s in _DATASET_DIGESTS]
)
def test_generated_datasets_match_digest(family, size, seed):
    program, interps = generate(spec(family, size, n=10, seed=seed))
    text = program_to_text(program) + interpretations_to_text(interps)
    assert hashlib.sha256(text.encode()).hexdigest() == _DATASET_DIGESTS[family, size, seed]
