from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn.credal import credal_query
from pasplearn.errors import InconsistentWorld
from pasplearn.model import Query, query_from_literals
from pasplearn.parsing import parse_program, parse_query
from pasplearn.rng import SplitMix64
from pasplearn.sympoly import (
    PolyStack,
    SymPoly,
    _support,
    extract_poly,
    poly_eval,
    poly_from_world_flags,
    poly_grad,
    poly_to_text,
)

from oracles import poly_as_dict, poly_from_dict
from randprog import random_ground_program, random_query_literals


def mono(nvars, items):
    return poly_from_dict(nvars, {frozenset(k): v for k, v in items})


def test_eval_constant_and_var():
    assert poly_eval(mono(3, [((), 2.5)]), [0.1, 0.2, 0.3]) == 2.5
    assert poly_eval(mono(3, [((1,), 1.0)]), [0.1, 0.2, 0.3]) == 0.2


def test_eval_multilinear_combination():
    p = mono(2, [((), 0.5), ((0,), -1.0), ((0, 1), 2.0)])
    # 0.5 - x0 + 2 x0 x1 at (0.5, 0.25)
    assert poly_eval(p, [0.5, 0.25]) == pytest.approx(0.5 - 0.5 + 2 * 0.125)


def test_malformed_input_raises_value_error():
    for pattern in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            SymPoly(2, [pattern], [1.0])
    with pytest.raises(ValueError, match="patterns for"):
        SymPoly(2, [1, 2], [1.0])
    with pytest.raises(ValueError, match="stack of 2"):
        PolyStack([mono(2, [((0,), 1.0)]), mono(3, [((2,), 1.0)])], 2)
    with pytest.raises(ValueError, match="theta of length 2"):
        poly_eval(mono(2, [((1,), 1.0)]), [0.5])
    program = parse_program("learnable(0.5)::a.\n0.2::b.\nq :- a, b.")
    with pytest.raises(ValueError, match="expected 4 world flags"):
        poly_from_world_flags(program, [True, False])


def test_stack_keeps_equal_polynomials_once():
    p = mono(2, [((), 0.5), ((0,), -1.0), ((0, 1), 2.0)])
    q = mono(2, [((), 0.5), ((0,), -1.0), ((0, 1), 2.5)])  # p's monomials, one coefficient off
    p_copy = SymPoly(2, p.patterns.copy(), p.coeffs.copy())
    stack = PolyStack([p, q, p_copy, p], 2)
    assert len(stack) == 4
    assert stack.index.tolist() == [0, 1, 0, 0]
    assert stack.coefs.tolist() == p.coeffs.tolist() + q.coeffs.tolist()
    theta = [0.3, 0.7]
    assert stack.distinct_values(theta) == [poly_eval(p, theta), poly_eval(q, theta)]
    want = [poly_eval(x, theta) for x in (p, q, p, p)]
    assert stack.values(theta) == want
    values, grads = stack.gradients(theta)
    assert values == want
    assert grads.tolist() == [poly_grad(x, theta).tolist() for x in (p, q, p, p)]


def test_rendering_style():
    p = mono(2, [((1,), 0.4), ((0, 1), 0.6)])
    assert poly_to_text(p) == "0.4*p1 + 0.6*p0*p1"
    assert poly_to_text(poly_from_dict(2, {})) == "0"
    assert poly_to_text(mono(2, [((0,), 1.0), ((1,), -0.25)])) == "p0 - 0.25*p1"


@st.composite
def polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=5))
    n_terms = draw(st.integers(min_value=0, max_value=6))
    coeffs = {}
    for _ in range(n_terms):
        support = frozenset(
            draw(st.lists(st.integers(0, nvars - 1), max_size=nvars))
        )
        coeffs[support] = draw(
            st.floats(min_value=-3, max_value=3, allow_nan=False)
        )
    return poly_from_dict(nvars, coeffs)


@settings(max_examples=150)
@given(polys(), st.integers(0, 10_000))
def test_gradient_matches_finite_differences(p, seed):
    rng = SplitMix64(seed)
    theta = np.array([rng.random() for _ in range(p.nvars)])
    grad = poly_grad(p, theta)
    h = 1e-6
    for j in range(p.nvars):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (poly_eval(p, up) - poly_eval(p, dn)) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-5, rel=1e-5)


@settings(max_examples=100)
@given(polys())
def test_gradient_exact_at_boundary_thetas(p):
    # zero-aware path: derivative at {0,1} corners matches evaluation of
    # the formal partial derivative
    for corner in ([0.0] * p.nvars, [1.0] * p.nvars):
        grad = poly_grad(p, corner)
        for j in range(p.nvars):
            partial = sum(
                c
                * np.prod([corner[i] for i in s if i != j])
                for s, c in poly_as_dict(p).items()
                if j in s
            )
            assert grad[j] == pytest.approx(float(partial), abs=1e-12)


def test_extracted_poly_for_graph_upper(learnable_graph_program):
    q = query_from_literals(parse_query("path(1,4)"))
    up = extract_poly(learnable_graph_program, q, "upper")
    assert poly_as_dict(up) == {frozenset({0, 1}): pytest.approx(1.0)}
    lo = extract_poly(learnable_graph_program, q, "lower")
    assert poly_as_dict(lo) == {}


def test_extraction_folds_fixed_facts():
    program = parse_program("0.2::a.\nlearnable(0.5)::b.\nq :- a, b.")
    up = extract_poly(program, query_from_literals(parse_query("q")), "upper")
    assert poly_as_dict(up) == {frozenset({0}): pytest.approx(0.2)}


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=60_000), st.integers(0, 1_000))
def test_extraction_agrees_with_direct_query(seed, tseed):
    """poly_eval∘extract_poly == credal_query for random theta."""
    program = random_ground_program(seed)
    pos, neg = random_query_literals(seed, program)
    query = Query(tuple(pos), tuple(neg))
    try:
        up = extract_poly(program, query, "upper")
        lo = extract_poly(program, query, "lower")
    except InconsistentWorld:
        return
    rng = SplitMix64(tseed)
    learnables = program.learnable_indices()
    theta = [rng.random() for _ in learnables]
    direct = credal_query(program, query, theta=theta)
    assert poly_eval(up, theta) == pytest.approx(direct.upper, abs=1e-9)
    assert poly_eval(lo, theta) == pytest.approx(direct.lower, abs=1e-9)


def test_coefficients_below_epsilon_dropped():
    # upper(q) = 0.3*0.2*(1 - p0) + 0.06*p0: the p0 coefficient cancels
    # up to float rounding (about 7e-18) and is dropped
    program = parse_program(
        "learnable(0.5)::a.\n0.06::b.\n0.3::c.\n0.2::d.\nq :- a, b.\nq :- not a, c, d."
    )
    up = extract_poly(program, query_from_literals(parse_query("q")), "upper")
    assert list(poly_as_dict(up)) == [frozenset()]
    assert poly_as_dict(up)[frozenset()] == pytest.approx(0.06, abs=1e-15)


@pytest.mark.parametrize("nvars", range(13))
def test_support_order_matches_combinations(nvars):
    # Canonical order: each size's variable lists in ascending order.
    program = parse_program(
        "".join(f"learnable(0.5)::f{j}.\n" for j in range(nvars)) + "0.3::g.\n"
    )
    expected = [
        sum(1 << j for j in c)
        for size in range(nvars + 1)
        for c in combinations(range(nvars), size)
    ]
    order = _support(program)[2]
    assert order.dtype == np.int64
    assert order.tolist() == expected
