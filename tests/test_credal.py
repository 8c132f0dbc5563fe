import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn import credal
from pasplearn.credal import (
    CredalBounds,
    _world_models,
    check_consistency,
    conditional_flags,
    conditional_from_joints,
    credal_conditional,
    credal_query,
    world_models,
    world_weights,
)
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import CapExceeded, InconsistentWorld, UndefinedConditional
from pasplearn.learning import LearnConfig, learn_em, learn_opt
from pasplearn.model import Atom, Query, Rule, query_from_literals
from pasplearn.parsing import parse_program, parse_query
from pasplearn.sympoly import extract_poly

from oracles import conditional_flags_ref, credal_brute, satisfaction_ref, world_weights_ref
from randprog import _DERIVED_POOL, random_ground_program, random_query_literals


def q(text: str) -> Query:
    return query_from_literals(parse_query(text))


def test_graph_query_bounds(graph_program):
    b = credal_query(graph_program, q("path(1,4)"))
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(0.06, abs=1e-12)


def test_equal_programs_share_one_world_cache_entry(monkeypatch):
    text = "0.3::e.\nlearnable(0.5)::f.\na :- e, not b.\nb :- f, not a.\n"
    first, second = parse_program(text), parse_program(text)
    assert first is not second and first == second
    assert hash(first) == hash((first.prob_facts, first.rules))
    _world_models.cache_clear()
    assert world_models(first) is world_models(second)
    info = _world_models.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    # Each program hashed its rules once; a lookup does not hash them again.
    def refuse(rule):
        raise AssertionError("a program's rules were hashed again")

    monkeypatch.setattr(Rule, "__hash__", refuse)
    assert world_models(second) is world_models(first)


def test_program_copy_rehashes_and_shares_the_world_cache():
    original = parse_program("0.3::e.\nlearnable(0.5)::f.\na :- e, not b.\nb :- f, not a.\n")
    original_hash = hash(original)
    assert "_hash" in original.__dict__
    copy = pickle.loads(pickle.dumps(original))
    # The cached hash is left out of the pickle: the copy computes its own.
    assert "_hash" not in copy.__dict__
    assert copy == original and hash(copy) == original_hash
    assert world_models(copy) is world_models(original)


def test_graph_conditional_bounds(graph_program):
    b = credal_conditional(graph_program, q("path(1,4)"), q("edge(2,4)"))
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(0.2, abs=1e-12)


def test_world_probabilities_product_form(graph_program):
    probs = list(world_weights([(1 - pf.prob, pf.prob) for pf in graph_program.prob_facts]))
    assert probs == pytest.approx(
        [0.056, 0.504, 0.024, 0.216, 0.014, 0.126, 0.006, 0.054], abs=1e-15
    )
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_lower_at_most_upper_on_fixture(graph_program):
    for text in ("path(1,3)", "path(1,2)", "edge(1,3)", "path(1,3), not path(1,4)"):
        b = credal_query(graph_program, q(text))
        assert 0.0 <= b.lower <= b.upper <= 1.0


def test_deterministic_query_has_tight_bounds():
    program = parse_program("0.3::a.\nq :- a.")
    b = credal_query(program, q("q"))
    assert b.lower == b.upper == pytest.approx(0.3)


def test_inconsistent_world_raises_with_location():
    program = parse_program("0.5::a.\n:- a.")
    with pytest.raises(InconsistentWorld) as exc:
        credal_query(program, q("a"))
    assert exc.value.world_index == 1
    assert exc.value.selection == (1,)


def test_check_consistency_counts_bad_worlds():
    program = parse_program("0.5::a.\n0.5::b.\n:- a.")
    assert check_consistency(program) == 2
    assert check_consistency(parse_program("0.5::a.\nq :- a.")) == 0


def test_undefined_conditional():
    program = parse_program("0.5::a.\nq :- a.")
    with pytest.raises(UndefinedConditional):
        # impossible evidence: r is never derivable
        credal_conditional(program, q("q"), q("r"))


def test_degenerate_lower_denominator_forces_one():
    # evidence == query: lowP(q,e)+upP(¬q,e) can vanish while upP(q,e)>0
    program = parse_program("0.5::a.\nq :- a.")
    b = credal_conditional(program, q("q"), q("q"))
    assert b.lower == 1.0 and b.upper == 1.0


def test_degenerate_upper_denominator_forces_zero():
    program = parse_program("0.5::a.\nq :- a.")
    b = credal_conditional(program, q("not q"), q("q"))
    assert b.lower == 0.0 and b.upper == 0.0


def test_conditional_from_joints_clauses():
    assert tuple(conditional_from_joints(0.0, 0.3, 0.0, 0.0)) == (1.0, 1.0)
    assert tuple(conditional_from_joints(0.0, 0.0, 0.0, 0.4)) == (0.0, 0.0)
    with pytest.raises(UndefinedConditional):
        conditional_from_joints(0.0, 0.0, 0.0, 0.0)
    b = conditional_from_joints(0.06, 0.06, 0.24, 0.3)
    assert b.lower == pytest.approx(0.06 / 0.36)
    assert b.upper == pytest.approx(0.2)


def test_world_cap_respected(monkeypatch):
    monkeypatch.setenv("PASP_WORLD_CAP", "3")
    facts = "\n".join(f"0.5::f{i}." for i in range(4))
    program = parse_program(facts)
    with pytest.raises(CapExceeded):
        credal_query(program, q("f0"))


def test_conjunction_never_widens_bounds(graph_program):
    base = credal_query(graph_program, q("path(1,3)"))
    tight = credal_query(graph_program, q("path(1,3), path(1,4)"))
    assert tight.upper <= base.upper + 1e-15
    assert tight.lower <= base.lower + 1e-15


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=60_000))
def test_complement_of_atom_query_flips_bounds(seed):
    program = random_ground_program(seed)
    atom = program.prob_facts[0].atom
    pos = query_from_literals(parse_query(str(atom)))
    neg = Query((), (atom,))
    try:
        b_pos = credal_query(program, pos)
    except InconsistentWorld:
        return
    b_neg = credal_query(program, neg)
    assert b_neg.lower == pytest.approx(1.0 - b_pos.upper, abs=1e-12)
    assert b_neg.upper == pytest.approx(1.0 - b_pos.lower, abs=1e-12)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=60_000))
def test_agreement_with_naive_implementation(seed):
    program = random_ground_program(seed)
    pos, neg = random_query_literals(seed, program)
    expected = credal_brute(program, pos, neg)
    query = Query(tuple(pos), tuple(neg))
    if expected is None:
        with pytest.raises(InconsistentWorld):
            credal_query(program, query)
        return
    got = credal_query(program, query)
    assert got.lower == pytest.approx(expected[0], abs=1e-9)
    assert got.upper == pytest.approx(expected[1], abs=1e-9)


# -- packed-row flags against the per-answer-set loops --------------------

_OUTSIDE = Atom("outside_the_base")


def _random_queries(rng: random.Random, pool, n: int) -> list[Query]:
    """``n`` queries of 1–3 literals over ``pool``, then the edge cases:
    the empty query, a contradictory ``a, not a`` and both signs of an
    atom outside the ground base."""
    queries = []
    for _ in range(n):
        pos, neg = set(), set()
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(pool)
            (pos if rng.random() < 0.5 else neg).add(atom)
        queries.append(Query(tuple(sorted(pos, key=str)), tuple(sorted(neg, key=str))))
    a = pool[0]
    queries += [Query(), Query((a,), (a,)), Query((_OUTSIDE,)), Query((), (_OUTSIDE,))]
    return queries


def _assert_flags_match_loops(program, rng: random.Random, n_queries: int) -> bool:
    """All six flags equal the loops' on every query; False if inconsistent."""
    wm = world_models(program)
    pool = list(wm.gp.atoms) + list(_DERIVED_POOL) + [_OUTSIDE]
    queries = _random_queries(rng, pool, n_queries)
    try:
        satisfaction_ref(wm, queries[0])
    except InconsistentWorld as want:
        for call in (
            lambda: wm.satisfaction(queries[0]),
            lambda: conditional_flags(wm, queries[0], queries[1]),
        ):
            with pytest.raises(InconsistentWorld) as got:
                call()
            assert got.value.world_index == want.world_index
            assert got.value.selection == want.selection
        return False
    for k, q in enumerate(queries):
        e = queries[(k + 1) % len(queries)]
        got = wm.satisfaction(q) + conditional_flags(wm, q, e)
        want = satisfaction_ref(wm, q) + conditional_flags_ref(wm, q, e)
        for name, g, w in zip(("all", "some", "all qe", "some qe", "all nqe", "some nqe"), got, want):
            assert g.dtype == bool and np.array_equal(g, w), f"{name} of {q} | {e}"
    return True


def test_flags_match_per_model_loops_on_random_programs():
    rng = random.Random(5)
    consistent = sum(
        _assert_flags_match_loops(random_ground_program(seed), rng, 6)
        for seed in range(0, 4000, 10)
    )
    assert consistent >= 100  # most draws are consistent, so the flags are compared


@pytest.mark.parametrize("family,size", [("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)])
def test_flags_match_per_model_loops_on_generated_cells(family, size):
    program, _ = generate(DatasetSpec(family, size, 1, 0))
    assert _assert_flags_match_loops(program, random.Random(size), 30)


# -- edge cases of the per-world row layout --------------------------------


def test_empty_ground_base():
    program = parse_program("")
    assert credal_query(program, q("a")) == CredalBounds(0.0, 0.0)
    assert credal_query(program, Query()) == CredalBounds(1.0, 1.0)
    assert credal_conditional(program, q("a"), Query()) == CredalBounds(0.0, 0.0)
    assert check_consistency(program) == 0
    assert world_models(program).model_masks == ((0,),)


_THREE_FACTS = "0.5::a.\n0.5::b.\n0.5::c.\nd :- a.\n"


@pytest.mark.parametrize(
    "constraint,index",
    [(":- not a, not b, not c.", 0), (":- not a, b, c.", 3), (":- a, b, c.", 7)],
    ids=["first", "middle", "last"],
)
def test_inconsistent_world_raises_at_any_index(constraint, index):
    # The per-world reductions need every world to hold a row; an empty
    # world in the middle or at the end must raise, not yield flags.
    program = parse_program(_THREE_FACTS + constraint)
    wm = world_models(program)
    selection = tuple(index >> (2 - j) & 1 for j in range(3))
    for call in (
        lambda: wm.satisfaction(q("d")),
        lambda: conditional_flags(wm, q("d"), q("b")),
        lambda: extract_poly(program, q("d"), "lower"),
        lambda: extract_poly(program, q("d"), "upper"),
        lambda: credal_query(program, q("d")),
        lambda: credal_conditional(program, q("d"), q("b")),
    ):
        with pytest.raises(InconsistentWorld) as exc:
            call()
        assert exc.value.world_index == index
        assert exc.value.selection == selection
    assert check_consistency(program) == 1


def test_check_consistency_counts_first_middle_and_last_world():
    constraints = ":- not a, not b, not c.\n:- not a, b, c.\n:- a, b, c.\n"
    program = parse_program(_THREE_FACTS + constraints)
    assert check_consistency(program) == 3
    with pytest.raises(InconsistentWorld) as exc:
        credal_query(program, q("d"))
    assert exc.value.world_index == 0


@pytest.mark.parametrize("theta", [[1.0], [1.0, 1.0, 0.0]], ids=["short", "long"])
@pytest.mark.parametrize(
    "bounds",
    [
        lambda program, theta: credal_query(program, q("c"), theta=theta),
        lambda program, theta: credal_conditional(program, q("c"), q("a"), theta=theta),
    ],
    ids=["query", "conditional"],
)
def test_theta_of_wrong_length_rejected(bounds, theta):
    program = parse_program("learnable(0.5)::a.\nlearnable(0.5)::b.\nc :- a, b.")
    with pytest.raises(ValueError, match="expected theta of length 2"):
        bounds(program, theta)


@pytest.mark.parametrize("theta", [[1.5, 0.5], [-0.1, 0.5], [math.nan, 0.5]])
@pytest.mark.parametrize(
    "bounds",
    [
        lambda program, theta: credal_query(program, q("c"), theta=theta),
        lambda program, theta: credal_conditional(program, q("c"), q("b"), theta=theta),
    ],
    ids=["query", "conditional"],
)
def test_theta_outside_unit_interval_rejected(bounds, theta):
    program = parse_program("learnable(0.5)::a.\nlearnable(0.5)::b.\nc :- a, b.")
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        bounds(program, theta)
    assert bounds(program, [0.0, 1.0]) == CredalBounds(0.0, 0.0)


# -- the cached world weights ------------------------------------------------


@pytest.mark.parametrize("n", range(13))
def test_world_weights_equal_outer_products(n):
    rng = random.Random(n)
    probs = [rng.random() for _ in range(n)]
    for free in (set(), set(range(0, n, 2)), set(range(1, n, 3)), set(range(n))):
        factors = [(1.0, 1.0) if j in free else (1.0 - p, p) for j, p in enumerate(probs)]
        got, want = world_weights(factors), world_weights_ref(factors)
        assert got.dtype == want.dtype and got.shape == want.shape == (1 << n,)
        assert got.tobytes() == want.tobytes()


def _assert_bounds_from_fresh_weights(program, queries) -> bool:
    """Every bound, cached or at the initial θ, is the sum with fresh weights."""
    wm = world_models(program)
    try:
        wm.raise_if_inconsistent()
    except InconsistentWorld:
        return False
    weights = world_weights_ref([(1.0 - pf.prob, pf.prob) for pf in program.prob_facts])
    theta0 = program.initial_theta()
    for k, q in enumerate(queries):
        e = queries[(k + 1) % len(queries)]
        want = repr(CredalBounds(*(float(weights @ f) for f in wm.satisfaction(q))))
        assert repr(credal_query(program, q)) == want
        assert repr(credal_query(program, q, theta=theta0)) == want
        joints = [float(weights @ f) for f in conditional_flags(wm, q, e)]
        try:
            want = repr(conditional_from_joints(*joints))
        except UndefinedConditional:
            for theta in (None, theta0):
                with pytest.raises(UndefinedConditional, match=re.escape(f": {q} | {e}") + "$"):
                    credal_conditional(program, q, e, theta=theta)
            continue
        assert repr(credal_conditional(program, q, e)) == want
        assert repr(credal_conditional(program, q, e, theta=theta0)) == want
    return True


def test_cached_bounds_equal_fresh_weight_sums_on_random_programs():
    rng = random.Random(7)
    consistent = 0
    for seed in range(0, 4000, 10):
        program = random_ground_program(seed)
        pool = [pf.atom for pf in program.prob_facts] + list(_DERIVED_POOL)
        consistent += _assert_bounds_from_fresh_weights(program, _random_queries(rng, pool, 4))
    assert consistent >= 100


@pytest.mark.parametrize("family,size", [("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)])
def test_cached_bounds_equal_fresh_weight_sums_on_generated_cells(family, size):
    program, _ = generate(DatasetSpec(family, size, 1, 0))
    pool = list(world_models(program).gp.atoms)
    assert _assert_bounds_from_fresh_weights(program, _random_queries(random.Random(size), pool, 20))


def test_weights_are_built_once_read_only_and_only_without_theta(monkeypatch):
    program = parse_program("0.3::a.\nlearnable(0.6)::b.\nc :- a, b.\n")
    _world_models.cache_clear()
    wm = world_models(program)
    assert "weights" not in vars(wm)  # built on first use, not with the answer sets
    built = []
    build = credal._probability_weights
    monkeypatch.setattr(
        credal, "_probability_weights", lambda *args: built.append(args) or build(*args)
    )
    first = credal_query(program, q("c"))
    weights = wm.weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0
    assert credal_query(program, q("c")) == first
    credal_conditional(program, q("c"), q("a"))
    assert wm.weights is weights and len(built) == 1
    credal_query(program, q("c"), theta=[0.5])
    credal_conditional(program, q("c"), q("a"), theta=[0.5])
    assert wm.weights is weights and len(built) == 3


def test_learners_never_build_weights():
    program, interps = generate(DatasetSpec("shop", 4, 3, 0))
    _world_models.cache_clear()
    learn_opt(program, interps, LearnConfig(max_iters=3, restarts=1))
    learn_em(program, interps, LearnConfig(method="em", max_iters=3))
    assert "weights" not in vars(world_models(program))


def test_cached_verdict_names_the_first_empty_world_every_time():
    constraints = ":- not a, b, c.\n:- a, b, c.\n"
    program = parse_program(_THREE_FACTS + constraints)
    wm = world_models(program)
    assert wm.first_empty == 3
    for _ in range(2):
        for call in (
            wm.raise_if_inconsistent,
            lambda: credal_query(program, q("d")),
            lambda: credal_conditional(program, q("d"), q("b")),
        ):
            with pytest.raises(InconsistentWorld, match="^world w3 [(]selection 011[)] has") as exc:
                call()
            assert (exc.value.world_index, exc.value.selection) == (3, (0, 1, 1))
    assert world_models(parse_program(_THREE_FACTS)).first_empty is None
