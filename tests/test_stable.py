import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasplearn import stable
from pasplearn.credal import world_models
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.grounding import ground
from pasplearn.parsing import parse_program
from pasplearn.stable import StableSolver

from conftest import stable_models, world_rows
from oracles import (
    is_stable,
    rule_universe,
    sorted_key,
    stable_models_brute,
    worlds_brute,
)
from randprog import random_ground_program


def _models(text: str, world_facts=()):
    program = parse_program(text)
    gp = ground(program)
    return [{str(a) for a in m} for m in stable_models(gp, world_facts)]


def test_stratified_program_single_model():
    assert _models("a.\nb :- a.\nc :- b, not d.") == [{"a", "b", "c"}]


def test_even_negative_loop_two_models():
    models = _models("a :- not b.\nb :- not a.")
    assert models == [{"a"}, {"b"}] or models == [{"b"}, {"a"}]
    assert len(models) == 2


def test_odd_negative_loop_no_model():
    assert _models("a :- not a.") == []


def test_positive_loop_unfounded():
    # mutual positive support is not a justification
    assert _models("a :- b.\nb :- a.") == [set()]


def test_positive_loop_with_external_support():
    assert _models("a :- b.\nb :- a.\nb :- c.\nc.") == [{"a", "b", "c"}]


def test_constraint_filters_models():
    models = _models("a :- not b.\nb :- not a.\n:- a.")
    assert models == [{"b"}]


def test_constraint_can_wipe_all_models():
    assert _models("a.\n:- a.") == []


@pytest.mark.parametrize(
    "text,expected",
    [
        # Cyclic: the loop a/b loses its outside support c only at the
        # last decision, so unfounded-set pruning must run on the total
        # assignment or {a, b, d} is reported too.
        (
            "a :- b.\nb :- a.\na :- c.\nc :- not d.\nd :- not c.",
            [{"d"}, {"a", "b", "c"}],
        ),
        # Tight: the true atom a loses its last support when c turns
        # false; without that conflict {a, d} is reported too.
        ("a :- c.\nc :- not d.\nd :- not c.", [{"d"}, {"a", "c"}]),
    ],
    ids=["cyclic", "tight"],
)
def test_propagation_alone_proves_stability(text, expected):
    assert _models(text) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        # The outer loop a/b is supported only through x, which needs the
        # inner loop c/d; c/d is supported only while e is false.  With
        # e true, a/b loses its support only after c/d is falsified.
        (
            "a :- b.\nb :- a.\na :- x.\nx :- c.\nc :- d.\nd :- c.\n"
            "c :- not e.\ne :- not c.",
            [{"e"}, {"a", "b", "c", "d", "x"}],
        ),
        # The same program with e ahead of c and x in atom order: a/b is
        # true when e is decided, so only a second unfounded-set check,
        # after propagation has falsified x, rejects {a, b, e}.
        (
            "a :- b.\nb :- a.\ne :- not c.\na :- x.\nx :- c.\nc :- d.\n"
            "d :- c.\nc :- not e.",
            [{"e"}, {"a", "b", "c", "d", "x"}],
        ),
        ("a :- a.\nb :- not a.", [{"b"}]),
        ("a :- a, not b.\nb :- not a.", [{"b"}]),
    ],
    ids=[
        "chained-loops",
        "chained-loops-outer-first",
        "self-loop",
        "self-loop-negative-body",
    ],
)
def test_unfounded_loops(text, expected):
    assert _models(text) == expected


@pytest.mark.parametrize(
    "family,size", [("path", 8), ("shop", 8), ("coloring", 4)]
)
def test_tight_cells_skip_unfounded_check(family, size, monkeypatch):
    def refuse(self, state, refuted):
        raise AssertionError("unfounded-set check ran on a tight program")

    monkeypatch.setattr(StableSolver, "_unfounded", refuse)
    program, _ = generate(DatasetSpec(family, size, 1, 0))
    solver = StableSolver(ground(program))
    assert not solver.cyclic
    counts, _rows = solver.all_worlds()
    assert sum(counts) > 0


def test_cyclic_cell_runs_unfounded_check(monkeypatch):
    # The patch point above is live: a cyclic program goes through it.
    calls = []
    check = StableSolver._unfounded

    def counted(self, state, refuted):
        calls.append(1)
        return check(self, state, refuted)

    monkeypatch.setattr(StableSolver, "_unfounded", counted)
    program, _ = generate(DatasetSpec("smoke", 2, 1, 0))
    solver = StableSolver(ground(program))
    assert solver.cyclic
    counts, _rows = solver.all_worlds()
    assert calls and sum(counts) > 0


def _digest(gp, counts, rows) -> str:
    """SHA-256 of the counts and of the rows at one byte per atom."""
    unpacked = np.unpackbits(rows, axis=1, count=gp.n_atoms)
    return hashlib.sha256(repr(counts.tolist()).encode() + unpacked.tobytes()).hexdigest()


# _digest at generator seed 0.  Any change to the solver must leave every
# row bit-identical.
_ROW_DIGESTS = {
    ("path", 8): "562292a52345402fe1eaf4132a8ed85149ee9668f736bb0556ab481d63a5dc95",
    ("shop", 8): "ff524fdf0608c196f4e9643f49b8d94c899ed3941f609033b45c32796521c564",
    ("smoke", 2): "f2d4b3a555309e2524dfed2daeb4be01420b2f695ee9b94167602d3d6b65d0a2",
    ("coloring", 4): "e953b889783c1629449cd5daf437afa43267c2c16108b221de1f7b3a822bb42a",
    # 65,536 worlds and 165,328 rows: the frontier crosses many lane caps.
    ("smoke", 3): "dddf918f5625ae933d3b1fa99a3c8b00865238d0f8d50fc248eb9bf5c54d6fcd",
}


@pytest.mark.parametrize(
    "family,size", list(_ROW_DIGESTS), ids=[f"{f}-{n}" for f, n in _ROW_DIGESTS]
)
def test_all_worlds_rows_match_parent_digest(family, size):
    program, _ = generate(DatasetSpec(family, size, 1, 0))
    gp = ground(program)
    assert _digest(gp, *StableSolver(gp).all_worlds()) == _ROW_DIGESTS[family, size]


@pytest.mark.parametrize(
    "family,size", [("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)]
)
def test_all_worlds_rows_match_parent_digest_across_chunks(family, size, monkeypatch):
    # Eight lanes: every cell packs its rows in many small blocks.
    monkeypatch.setattr(stable, "_LANES", 8)
    test_all_worlds_rows_match_parent_digest(family, size)


# Programs where propagation fixes a probabilistic fact, so the search
# never decides it and the worlds of its other value get no model: at the
# root, and below the decision on another fact.  _digest as above.
_FIXED_FACT_DIGESTS = {
    "at-root": (
        "0.5::a.\n0.5::b.\nc :- a, not d.\nd :- not c.\ne :- b.\n:- not a.\n",
        "938e023e8b400eb4bb2ac7b82638ae6fa45810742a06f798b7317f5dc8255cb3",
    ),
    "below-decision": (
        "0.5::a.\n0.5::b.\n0.5::c.\nx :- b, not y.\ny :- not x.\n"
        "p :- q.\nq :- p.\np :- c, x.\n:- a, not b.\n",
        "c68f23dfe61960787c861784649f635d0ce0211740e11efc42553ff39995a936",
    ),
}


@pytest.mark.parametrize("name", list(_FIXED_FACT_DIGESTS))
def test_fixed_fact_rows_match_recorded_digest(name):
    text, expected = _FIXED_FACT_DIGESTS[name]
    gp = ground(parse_program(text))
    counts, rows = StableSolver(gp).all_worlds()
    assert 0 in counts
    assert _digest(gp, counts, rows) == expected


@pytest.mark.parametrize("name", list(_FIXED_FACT_DIGESTS))
def test_fixed_fact_rows_match_recorded_digest_across_chunks(name, monkeypatch):
    # With two lanes every split overflows the cap and runs in halves.
    monkeypatch.setattr(stable, "_LANES", 2)
    test_fixed_fact_rows_match_recorded_digest(name)


@pytest.mark.parametrize(
    "make,shape",
    [
        pytest.param(lambda: parse_program(""), (1, 0), id="empty"),
        pytest.param(
            lambda: parse_program(
                "0.5::f.\na :- f, not b.\nb :- f, not a.\nc :- a.\nd :- b.\n"
                "e :- c.\ng :- d.\nh :- e, g.\n"
            ),
            (3, 1),
            id="eight-atoms",
        ),
        pytest.param(
            lambda: parse_program("0.5::f.\na :- not a.\n"), (0, 1), id="all-inconsistent"
        ),
        pytest.param(
            lambda: generate(DatasetSpec("path", 8, 1, 0))[0], (6561, 5), id="path-8"
        ),
    ],
)
def test_all_worlds_returns_world_models_arrays(make, shape):
    program = make()
    gp = ground(program)
    counts, rows = StableSolver(gp).all_worlds()
    assert counts.dtype == np.int64 and counts.shape == (1 << len(gp.prob_atom_ids),)
    assert rows.dtype == np.uint8 and rows.flags.c_contiguous
    assert rows.shape == shape == (counts.sum(), -(-gp.n_atoms // 8))
    wm = world_models(program)
    assert np.array_equal(wm.counts, counts) and np.array_equal(wm.rows, rows)


def test_world_facts_change_models():
    text = "0.5::f.\na :- f, not b.\nb :- f, not a.\n"
    program = parse_program(text)
    gp = ground(program)
    f = program.prob_facts[0].atom
    assert len(stable_models(gp, [f])) == 2
    assert stable_models(gp, []) == [frozenset()]


def test_models_sorted_lexicographically():
    program = parse_program("a :- not b.\nb :- not a.\nc :- a.\nc :- b.")
    gp = ground(program)
    counts, rows = StableSolver(gp).all_worlds()
    assert counts.tolist() == [2]
    models = world_rows(gp, rows)
    assert models == sorted(models)


def test_exhaustive_oracle_matches_fast_path():
    text = "0.5::f.\na :- not b, f.\nb :- not a.\nc :- a, b.\n:- c."
    program = parse_program(text)
    gp = ground(program)
    rules = list(program.rules)
    f = program.prob_facts[0].atom
    universe = rule_universe(rules, {f})
    for facts in (frozenset(), frozenset({f})):
        fast = stable_models(gp, facts)
        slow = stable_models_brute(rules, facts, universe)
        assert sorted(fast, key=sorted_key) == slow


@settings(max_examples=120)
@given(st.integers(min_value=0, max_value=50_000))
@example(4742)  # lost {b, c, d} when a conflict left rule counters half-applied
def test_solver_matches_brute_force_oracle(seed):
    _check_against_brute_force_oracle(seed)


@settings(max_examples=120)
@given(st.integers(min_value=0, max_value=50_000))
@example(4742)
def test_solver_matches_brute_force_oracle_across_chunks(seed):
    # With two lanes every split overflows the cap and runs in halves.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stable, "_LANES", 2)
        _check_against_brute_force_oracle(seed)


def _check_against_brute_force_oracle(seed):
    program = random_ground_program(seed)
    gp = ground(program)
    rules = list(program.rules)
    prob_atoms = {pf.atom for pf in program.prob_facts}
    universe = rule_universe(rules, prob_atoms)
    solved = StableSolver(gp).all_worlds()
    for bits, chosen, _p in worlds_brute(program):
        world = [pf.atom for pf, b in zip(program.prob_facts, bits) if b]
        fast = set(stable_models(gp, world, solved))
        brute = {
            frozenset(m) for m in stable_models_brute(rules, chosen, universe)
        }
        assert fast == brute, f"world {bits}"


@pytest.mark.parametrize(
    "family,size", [("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)]
)
def test_every_row_is_stable_on_generated_cells(family, size):
    # The solver does not recheck its leaves; the oracle's reduct does.
    program, _ = generate(DatasetSpec(family, size, 1, 0))
    gp = ground(program)
    rules = list(gp.rules)
    prob = frozenset(gp.atoms[j] for j in gp.prob_atom_ids)
    counts, rows = StableSolver(gp).all_worlds()
    models = world_rows(gp, rows)
    first = 0
    for count in counts:
        world = models[first : first + count]
        first += count
        assert all(x < y for x, y in zip(world, world[1:]))
        for row in world:
            m = frozenset(a for a, bit in zip(gp.atoms, row) if bit)
            assert is_stable(rules, m & prob, m), sorted(map(str, m))
