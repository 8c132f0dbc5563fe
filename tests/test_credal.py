import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn.credal import (
    check_consistency,
    conditional_from_joints,
    credal_conditional,
    credal_query,
    world_weights,
)
from pasplearn.errors import CapExceeded, InconsistentWorld, UndefinedConditional
from pasplearn.model import Query, query_from_literals
from pasplearn.parsing import parse_program, parse_query

from oracles import credal_brute
from randprog import random_ground_program, random_query_literals


def q(text: str) -> Query:
    return query_from_literals(parse_query(text))


def test_graph_query_bounds(graph_program):
    b = credal_query(graph_program, q("path(1,4)"))
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(0.06, abs=1e-12)


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
