import gc
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn import credal
from pasplearn.credal import credal_query, world_models
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import CapExceeded, InconsistentWorld
from pasplearn.learning import _em_points
from pasplearn.model import Query, interpretation_query, query_from_literals
from pasplearn.parsing import parse_program, parse_query
from pasplearn.rng import SplitMix64
from pasplearn.stable import StableSolver
from pasplearn import sympoly
from pasplearn.sympoly import (
    BOUNDS,
    PolyStack,
    SymPoly,
    _support,
    bound_polys,
    extract_poly,
    poly_eval,
    poly_from_world_flags,
    poly_to_text,
)

from conftest import stack_gradient
from oracles import poly_as_dict, poly_coefficients_exact, poly_from_dict
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
    assert stack.index.tolist() == [0, 1, 0, 0]
    assert [c.tolist() for c, _ in stack._slices] == [p.coeffs.tolist(), q.coeffs.tolist()]
    theta = np.array([0.3, 0.7])
    values, gathered, prods = stack.evaluate(theta)
    assert values == [poly_eval(p, theta), poly_eval(q, theta)]
    rows = stack.gradient_rows(theta, gathered, prods)
    assert rows.tolist() == [stack_gradient(x, theta).tolist() for x in (p, q)]
    # Through index, one value and one gradient row per input polynomial.
    assert [values[k] for k in stack.index] == [poly_eval(x, theta) for x in (p, q, p, p)]
    assert rows[stack.index].tolist() == [
        stack_gradient(x, theta).tolist() for x in (p, q, p, p)
    ]


def _many_point_stacks():
    """(name, stack) of lower+upper stacks: generated cells, random programs,
    the empty stack and one holding a polynomial of no monomials."""
    for family, size in (("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)):
        program, data = generate(DatasetSpec(family, size, 10, 0))
        lower, upper = bound_polys(program, [interpretation_query(i) for i in data], BOUNDS)
        yield f"{family}{size}", PolyStack(lower + upper, len(program.learnable_indices()))
    for seed in range(0, 400, 7):
        program = random_ground_program(seed)
        queries = []
        for k in range(3):
            pos, neg = random_query_literals(seed + 1000 * k, program)
            queries.append(Query(tuple(pos), tuple(neg)))
        try:
            lower, upper = bound_polys(program, queries, BOUNDS)
        except InconsistentWorld:
            continue
        yield f"random{seed}", PolyStack(lower + upper, len(program.learnable_indices()))
    yield "empty", PolyStack([], 3)
    p = mono(3, [((), 0.5), ((0,), -1.0), ((0, 2), 2.0)])
    yield "no monomials", PolyStack([SymPoly(3, [], []), p, SymPoly(3, [], [])], 3)


def _many_point_cases(nvars, seed):
    """k = 1 and k = 2·L+1 point sets, with exact 0.0, −0.0 and 1.0 components."""
    rng = SplitMix64(seed)
    rand = np.array([rng.random() for _ in range(nvars)])
    corners = np.array([(0.0, -0.0, 1.0)[j % 3] for j in range(nvars)])
    mixed = np.where(np.arange(nvars) % 2 == 1, corners, rand)
    for theta in (rand, corners, mixed):
        yield theta[None, :]
        yield _em_points(theta)


def _ladder_points(theta, seed):
    """The five points of a gradient ascent ladder from theta, along a random
    direction; clipping leaves exact 0.0 and 1.0 where a step overshoots."""
    rng = SplitMix64(seed).split(5)
    g = np.array([4.0 * rng.random() - 2.0 for _ in theta])
    return np.clip(theta + np.ldexp(1.0, -np.arange(5))[:, None] * g, 0.0, 1.0)


def test_evaluate_many_equals_evaluate_row_by_row():
    # Values, gathered factors and products: each row is evaluate's, bit
    # for bit, so gradient_rows can take a row of the last two.
    seen = {"stacks": 0, "k=1": 0, "odd nvars": 0, "+0.0": 0, "-0.0": 0}
    for name, stack in _many_point_stacks():
        seen["stacks"] += 1
        seen["odd nvars"] += stack.nvars % 2
        for points in _many_point_cases(stack.nvars, seen["stacks"]):
            for pts in (points, _ladder_points(points[-1], seen["stacks"])):
                values, gathered, prods = stack.evaluate_many(pts)
                assert values.shape == (len(pts), len(stack._slices)), name
                assert gathered.shape == (len(pts), len(stack.flat)), name
                for r, theta in enumerate(pts):
                    want, want_gathered, want_prods = stack.evaluate(theta)
                    want = np.array(want, dtype=float)
                    assert values[r].tobytes() == want.tobytes(), (name, theta)
                    assert gathered[r].tobytes() == want_gathered.tobytes(), (name, theta)
                    assert prods[r].tobytes() == want_prods.tobytes(), (name, theta)
                    signs = np.copysign(1.0, theta[theta == 0.0])
                    seen["+0.0"] += (signs > 0).any()
                    seen["-0.0"] += (signs < 0).any()
            seen["k=1"] += len(points) == 1
    assert seen["stacks"] > 40 and all(seen.values()), seen


def test_evaluate_many_without_vecdot_gives_the_same_bytes(monkeypatch):
    cases = [
        (stack, points)
        for k, (_, stack) in enumerate(_many_point_stacks())
        for points in _many_point_cases(stack.nvars, k)
    ]
    want = [stack.evaluate_many(points)[0].tobytes() for stack, points in cases]
    # numpy before 2.0 has no np.vecdot; the stack then takes one dot per row.
    monkeypatch.setattr(sympoly, "_vecdot", sympoly._dot_rows)
    assert [stack.evaluate_many(points)[0].tobytes() for stack, points in cases] == want


def test_stacked_dot_operands_start_aligned():
    # The SSE kernels' ddot adds in an order that depends on alignment;
    # a polynomial stacked alone starts at offset 0 of fresh arrays.
    for name, stack in _many_point_stacks():
        prods = stack.evaluate(np.full(stack.nvars, 0.5))[2]
        # An even slot count keeps every row of evaluate_many's products aligned too.
        assert len(prods) % 2 == 0, name
        for coefs, s in stack._slices:
            assert coefs.ctypes.data % 16 == 0 and prods[s].ctypes.data % 16 == 0, name


def test_rounding_zeros_tell_residues_from_small_values():
    # 0.1 + 0.2 - 0.3 at (1, 1) leaves a rounding residue; 0.02^10·θ0 is
    # smaller still, but no residue: nothing in it cancels.
    cancel = mono(2, [((0,), 0.1), ((1,), 0.2), ((0, 1), -0.3)])
    tiny = mono(2, [((0,), 0.02**10)])
    stack = PolyStack([cancel, tiny, SymPoly(2, [], [])], 2)
    points = np.array([[1.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
    values, _, prods = stack.evaluate_many(points)
    assert 0.0 < values[0, stack.index[1]] < values[0, stack.index[0]] < 1e-15
    zero = stack.rounding_zeros(values, prods)[:, stack.index]
    assert zero.tolist() == [[True, False, True], [False, False, True], [False, True, True]]


def test_evaluate_many_checks_its_points():
    stack = PolyStack([mono(2, [((1,), 1.0)])], 2)
    for bad in ([0.5, 0.5], [[0.5]], np.zeros((2, 3))):
        with pytest.raises(ValueError, match=r"points of shape \(k, 2\)"):
            stack.evaluate_many(bad)


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
    grad = stack_gradient(p, theta)
    h = 1e-6
    for j in range(p.nvars):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (poly_eval(p, up) - poly_eval(p, dn)) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-5, rel=1e-5)


def test_gradient_of_polynomial_without_monomials_is_float():
    grad = stack_gradient(SymPoly(2, [], []), [0.5, 0.5])
    assert grad.dtype == np.float64 and grad.tolist() == [0.0, 0.0]


@settings(max_examples=100)
@given(polys())
def test_gradient_exact_at_boundary_thetas(p):
    # zero-aware path: derivative at {0,1} corners matches evaluation of
    # the formal partial derivative
    for corner in ([0.0] * p.nvars, [1.0] * p.nvars):
        grad = stack_gradient(p, corner)
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


def test_bound_polys_build_each_distinct_query_once(learnable_graph_program, monkeypatch):
    program = learnable_graph_program
    qs = [query_from_literals(parse_query(t)) for t in ("path(1,4)", "not path(1,3)", "path(1,4)")]
    built = []

    def recording(program, flags):
        built.append(flags)
        return poly_from_world_flags(program, flags)

    # Through the module global, where a tracer wrapping it sees the calls.
    monkeypatch.setattr(sympoly, "poly_from_world_flags", recording)
    lower, upper = bound_polys(program, qs, BOUNDS)
    assert len(built) == 4
    assert lower[0] is lower[2] and upper[0] is upper[2]
    wm = world_models(program)
    for q, lo, up in zip(qs, lower, upper):
        all_sat, some_sat = wm.satisfaction(q)
        assert poly_as_dict(lo) == poly_as_dict(poly_from_world_flags(program, all_sat))
        assert poly_as_dict(up) == poly_as_dict(poly_from_world_flags(program, some_sat))
        assert poly_as_dict(lo) == poly_as_dict(extract_poly(program, q, "lower"))
        assert poly_as_dict(up) == poly_as_dict(extract_poly(program, q, "upper"))
    (alone,) = bound_polys(program, qs, ["upper"])
    assert [poly_as_dict(p) for p in alone] == [poly_as_dict(p) for p in upper]
    assert bound_polys(program, [], BOUNDS) == [[], []]


_TABLES_PROGRAM = "learnable(0.5)::a.\n0.2::b.\nlearnable(0.7)::c.\nq :- a, b.\nr :- not c.\n"


def test_extraction_tables_are_built_once_per_program(monkeypatch):
    program = parse_program(_TABLES_PROGRAM)
    credal._world_models.cache_clear()
    built = []  # k_w is the one world_weights table extraction builds
    build = sympoly.world_weights
    monkeypatch.setattr(sympoly, "world_weights", lambda f: built.append(f) or build(f))
    qs = [query_from_literals(parse_query(t)) for t in ("q", "not r", "q, r")]
    for _ in range(2):
        bound_polys(program, qs, BOUNDS)
        extract_poly(program, qs[0], "upper")
        poly_from_world_flags(program, world_models(program).satisfaction(qs[1])[0])
    assert len(built) == 1
    assert world_models(program).extraction is _support(program)


def test_extraction_tables_leave_with_the_world_models_entry():
    program = parse_program(_TABLES_PROGRAM)
    extract_poly(program, query_from_literals(parse_query("q")), "lower")
    refs = [weakref.ref(table) for table in _support(program)]
    credal._world_models.cache_clear()
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, True]


def test_wrong_flags_fail_before_any_world_pass(monkeypatch):
    program = parse_program(_TABLES_PROGRAM)
    credal._world_models.cache_clear()
    passes = []
    all_worlds = StableSolver.all_worlds
    monkeypatch.setattr(
        StableSolver, "all_worlds", lambda solver: passes.append(solver) or all_worlds(solver)
    )
    for flags in ([True] * 7, [True] * 9, np.ones((2, 4), dtype=bool)):
        with pytest.raises(ValueError, match="expected 8 world flags"):
            poly_from_world_flags(program, flags)
    assert passes == []
    poly_from_world_flags(program, [True] * 8)  # the count sees a pass that does run
    assert len(passes) == 1


def test_extraction_keeps_the_world_cap(monkeypatch):
    monkeypatch.setenv("PASP_WORLD_CAP", "2")
    with pytest.raises(CapExceeded):
        poly_from_world_flags(parse_program(_TABLES_PROGRAM), [True] * 8)


@pytest.mark.parametrize("bad", ["middle", "Lower", None])
def test_bound_names_checked(learnable_graph_program, bad):
    q = query_from_literals(parse_query("path(1,4)"))
    with pytest.raises(ValueError, match="bound must be one of"):
        bound_polys(learnable_graph_program, [q], ["lower", bad])
    with pytest.raises(ValueError, match="bound must be one of"):
        extract_poly(learnable_graph_program, q, bad)


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


# Ten fixed facts at 0.02 scale q's only coefficient to 0.02^10 ≈ 1e-17,
# far below any absolute threshold, yet it is no rounding residue.
_SMALL_COEFFICIENT = (
    "".join(f"0.02::f{i}.\n" for i in range(10))
    + "learnable(0.5)::g.\nq :- g, "
    + ", ".join(f"f{i}" for i in range(10))
    + ".\n"
)


def test_small_coefficients_kept():
    program = parse_program(_SMALL_COEFFICIENT)
    query = query_from_literals(parse_query("q"))
    up = extract_poly(program, query, "upper")
    assert list(poly_as_dict(up)) == [frozenset({0})]
    assert up.coeffs[0] == pytest.approx(0.02**10, rel=1e-14)
    assert poly_eval(up, [0.5]) == credal_query(program, query).upper


def _assert_exact_extraction(program, flags) -> None:
    """Kept monomials are the exact non-zero ones, each within its error bound."""
    got = poly_from_world_flags(program, flags)
    decimal, _ = poly_coefficients_exact(program, flags)
    assert got.patterns.tolist() == [t for t in _support(program)[2].tolist() if decimal[t]]
    binary, scales = poly_coefficients_exact(program, flags, decimal=False)
    n, nvars = program.n_prob_facts, got.nvars
    bound = (n + nvars + 2 ** (n - nvars)) * Fraction(2) ** -53
    for t, c in zip(got.patterns.tolist(), got.coeffs.tolist()):
        assert abs(Fraction(c) - binary[t]) <= bound * scales[t], (t, c, binary[t])


def test_extraction_matches_exact_coefficients_on_random_programs():
    checked = 0
    for seed in range(0, 6000, 5):
        program = random_ground_program(seed)
        pos, neg = random_query_literals(seed, program)
        try:
            flags = world_models(program).satisfaction(Query(tuple(pos), tuple(neg)))
        except InconsistentWorld:
            continue
        for f in flags:
            _assert_exact_extraction(program, f)
        checked += 1
    assert checked >= 600


@pytest.mark.parametrize("family,size", [("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)])
def test_extraction_matches_exact_coefficients_on_generated_cells(family, size):
    program, interps = generate(DatasetSpec(family, size, 10, 0))
    wm = world_models(program)
    for interp in interps:
        for f in wm.satisfaction(interpretation_query(interp)):
            _assert_exact_extraction(program, f)


@pytest.mark.parametrize(
    "text",
    [
        _SMALL_COEFFICIENT,
        "learnable(0.5)::a.\n0.06::b.\n0.3::c.\n0.2::d.\nq :- a, b.\nq :- not a, c, d.",
    ],
    ids=["small", "residue"],
)
def test_extraction_matches_exact_coefficients_at_the_drop_threshold(text):
    program = parse_program(text)
    for f in world_models(program).satisfaction(query_from_literals(parse_query("q"))):
        _assert_exact_extraction(program, f)


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
