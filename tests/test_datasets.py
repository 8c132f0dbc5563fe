import pytest

from pasplearn.credal import check_consistency, credal_query
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import SpecOutOfRange
from pasplearn.grounding import ground
from pasplearn.model import query_from_literals

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
