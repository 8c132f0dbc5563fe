import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn.credal import check_consistency, conditional_from_joints
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import NoLearnableFacts, UndefinedConditional
from pasplearn.learning import (
    EMExpectations,
    LearnConfig,
    _clip01,
    _Likelihood,
    em_expectation,
    em_maximization,
    learn_em,
    learn_opt,
    ll_objective,
)
from pasplearn.model import (
    Interpretation,
    Literal,
    ProbFact,
    Program,
    query_from_literals,
)
from pasplearn.parsing import parse_interpretations, parse_program, parse_query
from pasplearn.rng import SplitMix64
from pasplearn.sympoly import PolyStack, extract_poly, poly_eval, poly_to_text

from conftest import stack_gradient
from oracles import (
    credal_brute,
    expectations_ref,
    learn_em_ref,
    learn_opt_ref,
    ll_gradient_ref,
    ll_objective_ref,
    poly_as_dict,
    poly_eval_ref,
    poly_from_dict,
    poly_grad_ref,
)
from randprog import random_ground_program, random_query_literals

COIN = "learnable(0.5)::a.\n"
COIN_DATA = "a.\nnot a.\n"

TWO_RULE = """\
learnable(0.4)::a.
learnable(0.6)::b.
q :- a, b, not nq.
nq :- a, b, not q.
"""


def interps(text):
    return parse_interpretations(text)


def ll_gradient(polys, theta, floor_prob=1e-12):
    """Gradient of ``ll_objective``, as the learners take it from ``_Likelihood``."""
    theta = np.asarray(theta, dtype=float)
    lik = _Likelihood(PolyStack(polys, len(theta)), floor_prob)
    return lik.gradient(lik.at(theta)[1])


# -- config / objective --------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(max_iters=0)
    with pytest.raises(ValueError):
        LearnConfig(eps_ll=0.0)
    with pytest.raises(ValueError):
        LearnConfig(floor_prob=0.5)
    with pytest.raises(ValueError):
        LearnConfig(target="middle")
    # A float or bool count would fail later as an untyped TypeError in range().
    for field in ("max_iters", "restarts"):
        for bad in (2.5, 2.0, True, "3", 0, -1):
            with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
                LearnConfig(**{field: bad})
    assert LearnConfig(max_iters=np.int64(3), restarts=np.int64(2)).restarts == 2
    # A float seed would fail later in SplitMix64 as an untyped TypeError; True would seed as 1.
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            LearnConfig(seed=bad)
    program, data = parse_program(TWO_RULE), interps("q.\nnot q.\nq.\n")
    for seed in (-1, np.int64(-1), np.int64(7)):
        got = learn_opt(program, data, LearnConfig(seed=seed))
        assert repr(got) == repr(learn_opt(program, data, LearnConfig(seed=int(seed))))


def test_learners_refuse_config_of_the_other_method():
    program, data = parse_program(COIN), interps(COIN_DATA)
    with pytest.raises(ValueError, match="learn_em"):
        learn_opt(program, data, LearnConfig(method="em"))


def test_em_refuses_opt_config():
    program, data = parse_program(COIN), interps(COIN_DATA)
    with pytest.raises(ValueError, match="learn_opt"):
        learn_em(program, data, LearnConfig(method="opt"))


def test_ll_objective_values(learnable_graph_program):
    program = learnable_graph_program
    qs = [
        query_from_literals(parse_query("path(1,3), not path(1,4)")),
        query_from_literals(parse_query("path(1,4)")),
    ]
    polys = [extract_poly(program, q, "upper") for q in qs]
    assert ll_objective(polys, [1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    coin_poly = extract_poly(
        parse_program(COIN), query_from_literals(parse_query("a")), "upper"
    )
    assert ll_objective([coin_poly], [0.5]) == pytest.approx(math.log(0.5))
    assert ll_objective([coin_poly], [0.0]) == pytest.approx(math.log(1e-12))
    with pytest.raises(ValueError) as exc:
        ll_objective([coin_poly], [0.5, 0.5])
    assert str(exc.value) == "expected theta of length 1, got (2,)"


# -- optimization --------------------------------------------------------


def test_opt_single_positive_interpretation():
    res = learn_opt(parse_program(COIN), interps("a.\n"), LearnConfig())
    assert res.params[0] == pytest.approx(1.0, abs=1e-9)
    assert res.final_ll == pytest.approx(0.0, abs=1e-9)


def test_opt_coin_analytic_optimum():
    res = learn_opt(parse_program(COIN), interps(COIN_DATA), LearnConfig())
    assert res.params[0] == pytest.approx(0.5, abs=1e-4)
    assert res.final_ll == pytest.approx(2 * math.log(0.5), abs=1e-6)


def test_opt_coin_derivative_free_backend():
    cfg = LearnConfig(opt_backend="derivativeFree")
    res = learn_opt(parse_program(COIN), interps(COIN_DATA), cfg)
    assert res.params[0] == pytest.approx(0.5, abs=1e-4)
    assert res.final_ll == pytest.approx(2 * math.log(0.5), abs=1e-6)


def test_opt_graph_example_reaches_zero_ll(
    learnable_graph_program, graph_interpretations
):
    res = learn_opt(learnable_graph_program, graph_interpretations, LearnConfig())
    assert res.final_ll >= -1e-6
    assert all(p >= 1 - 1e-6 for p in res.params)


def test_opt_requires_learnable_facts(graph_program, graph_interpretations):
    with pytest.raises(NoLearnableFacts):
        learn_opt(graph_program, graph_interpretations, LearnConfig())


def test_result_trace_contract(learnable_graph_program, graph_interpretations):
    for cfg in (LearnConfig(), LearnConfig(method="em")):
        run = learn_opt if cfg.method == "opt" else learn_em
        res = run(learnable_graph_program, graph_interpretations, cfg)
        assert len(res.ll_trace) >= 1
        assert res.ll_trace[-1] == res.final_ll
        assert res.final_ll <= 0.0
        assert all(0.0 <= p <= 1.0 for p in res.params)


# -- EM pieces -----------------------------------------------------------


def test_em_expectation_coin_balanced():
    e = em_expectation(parse_program(COIN), interps(COIN_DATA), [0.5])
    assert e.e1[0] == pytest.approx(1.0)
    assert e.e0[0] == pytest.approx(1.0)


def test_em_expectation_independent_fact_falls_back_to_prior():
    program = parse_program("learnable(0.3)::a.\nlearnable(0.6)::b.\n")
    e = em_expectation(program, interps("b.\n"), [0.3, 0.6])
    assert e.e1[0] == pytest.approx(0.3)
    assert e.e0[0] == pytest.approx(0.7)


def test_em_expectation_empty_interps_zero():
    e = em_expectation(parse_program(COIN), [], [0.5])
    assert e.e0 == (0.0,) and e.e1 == (0.0,)


def test_learning_from_no_interpretations_gives_float_zero():
    program = parse_program(COIN)
    em = learn_em(program, [], LearnConfig(method="em"))
    opt = learn_opt(program, [], LearnConfig())
    for got in (em.final_ll, *em.ll_trace, opt.final_ll, *opt.ll_trace, ll_objective([], [0.5])):
        assert type(got) is float and math.copysign(1.0, got) == 1.0 and got == 0.0


def test_em_evaluates_its_stack_once_per_iteration(monkeypatch):
    # The 2·L pinned points and θ go through one evaluate_many call.
    calls = {"evaluate_many": 0, "evaluate": 0}
    for name in calls:
        method = getattr(PolyStack, name)

        def counted(stack, points, name=name, method=method):
            calls[name] += 1
            return method(stack, points)

        monkeypatch.setattr(PolyStack, name, counted)
    program, data = generate(DatasetSpec("smoke", 2, 10, 0))
    result = learn_em(program, data, LearnConfig(method="em"))
    assert result.iterations > 1
    assert calls == {"evaluate_many": result.iterations + 1, "evaluate": 0}


def test_em_expectation_without_learnable_facts_is_empty():
    program = parse_program("0.4::a.\nq :- a.\n")
    assert em_expectation(program, interps("q.\nnot q.\n"), []) == EMExpectations((), ())


def test_em_expectation_undefined_conditional_context():
    # q and q2 exclude each other, so the interpretation {q, q2} has
    # zero upper probability in every world
    program = parse_program(
        "learnable(0.5)::a.\nq :- a, not q2.\nq2 :- a, not q."
    )
    with pytest.raises(UndefinedConditional) as exc:
        em_expectation(program, interps("q, q2.\n"), [0.5])
    assert "interpretation" in str(exc.value)
    # the same call with skipping enabled contributes nothing
    e = em_expectation(program, interps("q, q2.\n"), [0.5], skip_undefined=True)
    assert e.e0 == (0.0,) and e.e1 == (0.0,)


def test_em_expectation_undefined_conditional_names_first_offender_when_repeated():
    # {q, q2} is impossible, so both facts' conditionals are undefined on it;
    # the error names the first fact and the interpretation, however often
    # the interpretation recurs.
    program = parse_program(
        "learnable(0.5)::a.\nlearnable(0.5)::b.\nq :- a, not q2.\nq2 :- a, not q.\nr :- b."
    )
    want = (
        "conditional probability is undefined (evidence has zero upper probability): "
        "fact a, interpretation query q,q2"
    )
    for text in ("r.\nq, q2.\n", "r.\nq, q2.\nr.\nq, q2.\n", "q, q2.\nr.\nq, q2.\n"):
        with pytest.raises(UndefinedConditional) as exc:
            em_expectation(program, interps(text), [0.5, 0.5])
        assert str(exc.value) == want


def test_gradient_adds_one_fact_terms_in_interpretation_order():
    # With one learnable fact each term is a single number; the terms of
    # many interpretations must still be added one after another, as the
    # one-polynomial formula does, not pairwise.
    program = parse_program("learnable(0.3)::a.\n0.6::c.\nb :- a.\nd :- c, not a.\n")
    data = interps("b.\nnot b.\nd.\nb.\nnot d.\nb, not d.\nnot b.\nd.\nb.\nnot b.\nb.\n")
    polys = [extract_poly(program, query_from_literals(i.literals), "upper") for i in data]
    rng = SplitMix64(5)
    for _ in range(200):
        theta = [rng.random()]
        assert ll_gradient(polys, theta).tobytes() == ll_gradient_ref(polys, theta).tobytes()


def test_estep_adds_one_fact_terms_in_interpretation_order():
    # The E-step's counterpart of the gradient test above: one fact's
    # conditionals of eleven interpretations, added one after another.
    program = parse_program("learnable(0.3)::a.\n0.6::c.\nb :- a.\nd :- c, not a.\n")
    data = interps("b.\nnot b.\nd.\nb.\nnot d.\nb, not d.\nnot b.\nd.\nb.\nnot b.\nb.\n")
    queries = [query_from_literals(i.literals) for i in data]
    pairs = [[extract_poly(program, q, b) for b in ("lower", "upper")] for q in queries]
    rng = SplitMix64(9)
    for _ in range(200):
        theta = [rng.random()]
        for target in ("lower", "upper"):
            got = em_expectation(program, data, theta, target)
            assert (got.e0, got.e1) == expectations_ref(pairs, theta, target)


def test_all_empty_lower_stack_has_float_gradients():
    # coloring4's lower polynomials have no monomials.
    program, data = generate(DatasetSpec("coloring", 4, 10, 0))
    lower = [extract_poly(program, query_from_literals(i.literals), "lower") for i in data]
    assert not any(len(p.patterns) for p in lower)
    theta = np.full(len(program.learnable_indices()), 0.5)
    stack = PolyStack(lower, len(theta))
    rows = stack.gradient_rows(theta, *stack.evaluate(theta)[1:])
    assert rows.shape == (1, len(theta))
    for got in (rows, ll_gradient(lower, theta)):
        assert got.dtype == np.float64 and not got.any()


def _with_theta(program, theta):
    """The program with its learnable probabilities set to theta."""
    facts = list(program.prob_facts)
    for t, j in zip(theta, program.learnable_indices()):
        facts[j] = ProbFact(facts[j].atom, t, learnable=True)
    return Program(tuple(facts), program.rules)


def _brute_expectations(program, pos, neg, theta, target):
    """Per learnable fact, (P(a | I), P(not a | I)) from brute-force joints.

    None when the conditional is undefined.
    """
    fixed = _with_theta(program, theta)
    out = []
    for j in program.learnable_indices():
        atom = program.prob_facts[j].atom
        joint_a = credal_brute(fixed, set(pos) | {atom}, neg)
        joint_na = credal_brute(fixed, pos, set(neg) | {atom})
        try:
            cond_a = conditional_from_joints(*joint_a, *joint_na)
            cond_na = conditional_from_joints(*joint_na, *joint_a)
        except UndefinedConditional:
            return None
        out.append((getattr(cond_a, target), getattr(cond_na, target)))
    return out


def test_em_expectation_matches_brute_force_joints():
    checks = undefined = 0
    seed = 0
    while checks < 300:
        seed += 1
        program = random_ground_program(seed)
        if not program.learnable_indices():
            continue
        pos, neg = random_query_literals(seed, program)
        if set(pos) & set(neg) or credal_brute(program, pos, neg) is None:
            continue  # contradictory interpretation or inconsistent program
        interp = Interpretation(
            tuple(Literal(a) for a in pos) + tuple(Literal(a, False) for a in neg)
        )
        rng = SplitMix64(seed).split(3)
        theta = [rng.random() for _ in program.learnable_indices()]
        for target in ("lower", "upper"):
            expected = _brute_expectations(program, pos, neg, theta, target)
            if expected is None:
                with pytest.raises(UndefinedConditional):
                    em_expectation(program, [interp], theta, target)
                undefined += 1
                continue
            got = em_expectation(program, [interp], theta, target)
            for j, (cond_a, cond_na) in enumerate(expected):
                assert got.e1[j] == pytest.approx(cond_a, abs=1e-9), (seed, target, j)
                assert got.e0[j] == pytest.approx(cond_na, abs=1e-9), (seed, target, j)
                checks += 1
    assert undefined > 0


def test_em_maximization_update_and_retention():
    assert em_maximization(EMExpectations((1.0,), (1.0,)), (0.9,)) == (0.5,)
    assert em_maximization(EMExpectations((0.0,), (2.0,)), (0.9,)) == (1.0,)
    assert em_maximization(EMExpectations((0.0,), (0.0,)), (0.3,)) == (0.3,)


@pytest.mark.parametrize(
    "theta, message",
    [
        ([], r"expected theta of length 2, got \(0,\)"),
        ([0.5], r"expected theta of length 2, got \(1,\)"),
        ([0.5] * 3, r"expected theta of length 2, got \(3,\)"),
        ([1.5, 0.5], r"theta must lie in \[0, 1\]"),
        ([math.nan, 0.5], r"theta must lie in \[0, 1\]"),
    ],
    ids=["empty", "short", "long", "above-one", "nan"],
)
def test_em_expectation_rejects_bad_theta(theta, message):
    program = parse_program(TWO_RULE)
    with pytest.raises(ValueError, match=message):
        em_expectation(program, interps("q.\n"), theta)


def test_em_maximization_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        em_maximization(EMExpectations((1.0,), (1.0,)), (0.2, 0.3))


def test_em_single_positive_one_update():
    program = parse_program("learnable(0.5)::a.\nq :- a.")
    res = learn_em(program, interps("q.\n"), LearnConfig(method="em"))
    assert res.params == (1.0,)
    assert res.ll_trace[1] == pytest.approx(0.0, abs=1e-12)
    assert res.final_ll == pytest.approx(0.0, abs=1e-12)


def test_em_coin_fixed_point():
    res = learn_em(parse_program(COIN), interps(COIN_DATA), LearnConfig(method="em"))
    assert res.params[0] == pytest.approx(0.5, abs=1e-9)
    assert res.final_ll == pytest.approx(2 * math.log(0.5), abs=1e-9)
    assert res.converged


def test_em_trace_never_degrades(learnable_graph_program, graph_interpretations):
    res = learn_em(
        learnable_graph_program, graph_interpretations, LearnConfig(method="em")
    )
    assert res.final_ll >= res.ll_trace[0] - 1e-6


# -- target choice and reproducibility ------------------------------------


def test_lower_vs_upper_target_differ():
    program = parse_program(TWO_RULE)
    data = interps("q.\n")
    up = learn_opt(program, data, LearnConfig(target="upper"))
    assert up.params == pytest.approx((1.0, 1.0), abs=1e-9)
    assert up.final_ll == pytest.approx(0.0, abs=1e-9)
    lo = learn_opt(program, data, LearnConfig(target="lower"))
    # lower bound is identically zero: objective pinned at the floor
    assert lo.final_ll == pytest.approx(math.log(1e-12))
    assert lo.params == (0.4, 0.6)


def test_em_lower_target_identically_zero():
    program = parse_program(TWO_RULE)
    res = learn_em(program, interps("q.\n"), LearnConfig(method="em", target="lower"))
    floor = math.log(1e-12)
    assert res.params == (1.0, 1.0)
    assert res.final_ll == floor
    assert res.ll_trace == (floor, floor)
    assert res.iterations == 1 and res.converged


def test_bit_for_bit_reproducibility(learnable_graph_program, graph_interpretations):
    for cfg in (
        LearnConfig(seed=7, restarts=3),
        LearnConfig(seed=7, method="em"),
        LearnConfig(seed=7, opt_backend="derivativeFree"),
    ):
        run = learn_opt if cfg.method == "opt" else learn_em
        a = run(learnable_graph_program, graph_interpretations, cfg)
        b = run(learnable_graph_program, graph_interpretations, cfg)
        assert a == b


def test_opt_dominates_initial_objective(
    learnable_graph_program, graph_interpretations
):
    program = learnable_graph_program
    polys = [
        extract_poly(program, query_from_literals(i.literals), "upper")
        for i in graph_interpretations
    ]
    initial = ll_objective(polys, list(program.initial_theta()))
    res = learn_opt(program, graph_interpretations, LearnConfig())
    assert res.final_ll >= initial - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_opt_meets_or_beats_em_on_random_programs(seed):
    program = random_ground_program(seed, max_facts=3, max_rules=4)
    if not program.learnable_indices():
        return
    from pasplearn.credal import check_consistency

    if check_consistency(program) != 0:
        return
    data = interps(f"{program.prob_facts[0].atom}.\n")
    try:
        opt = learn_opt(program, data, LearnConfig(restarts=2, seed=seed))
        em = learn_em(program, data, LearnConfig(method="em", seed=seed))
    except UndefinedConditional:
        return
    assert opt.final_ll >= em.final_ll - 1e-3


# -- stacked evaluation is bit-for-bit the one-polynomial formulas --------


def _theta_cases(nvars, seed):
    """Random θ in (0, 1); θ of exact 0s and 1s; a mix; θ whose terms floor;
    θ with −0.0 at every even index (a zero like +0.0)."""
    rng = SplitMix64(seed).split(7)
    rand = [rng.random() for _ in range(nvars)]
    corners = [float(rng.randint(0, 1)) for _ in range(nvars)]
    mixed = [c if k % 2 else r for k, (r, c) in enumerate(zip(rand, corners))]
    tiny = [r * 1e-6 for r in rand]
    negzero = [r if k % 2 else -0.0 for k, r in enumerate(rand)]
    return [rand, corners, mixed, tiny, negzero]


def _assert_same_numbers(program, data, seed, seen):
    """Stacked objective, gradient and E-step == the one-polynomial oracle."""
    nvars = len(program.learnable_indices())
    queries = [query_from_literals(i.literals) for i in data]
    lower = [extract_poly(program, q, "lower") for q in queries]
    upper = [extract_poly(program, q, "upper") for q in queries]
    empty = poly_from_dict(nvars, {})
    # The last set repeats and reorders polynomials that the stack keeps once.
    poly_sets = [lower, upper, upper + [empty] + lower, [empty] * 3, upper + lower + upper[::-1]]
    twice = data + data[::-1]
    for theta in _theta_cases(nvars, seed):
        seen["zero"] += 0.0 in theta
        for polys in poly_sets:
            for floor in (1e-12, 5e-4):
                assert ll_objective(polys, theta, floor) == ll_objective_ref(polys, theta, floor)
                got = ll_gradient(polys, theta, floor)
                assert got.tolist() == ll_gradient_ref(polys, theta, floor).tolist()
            stack = PolyStack(polys, nvars)
            values, gathered, prods = stack.evaluate(theta)
            rows = stack.gradient_rows(np.array(theta), gathered, prods)
            assert [values[k] for k in stack.index] == [poly_eval_ref(p, theta) for p in polys]
            assert rows[stack.index].tolist() == [poly_grad_ref(p, theta).tolist() for p in polys]
            for p in polys:
                value = poly_eval(p, theta)
                assert value == poly_eval_ref(p, theta)
                assert stack_gradient(p, theta).tolist() == poly_grad_ref(p, theta).tolist()
                seen["floored"] += value <= 1e-12
                seen["empty"] += not poly_as_dict(p)
        for target in ("lower", "upper"):
            for skip in (False, True):
                try:
                    want = expectations_ref(zip(lower, upper), theta, target, skip)
                except UndefinedConditional:
                    with pytest.raises(UndefinedConditional) as once:
                        em_expectation(program, data, theta, target)
                    with pytest.raises(UndefinedConditional) as again:
                        em_expectation(program, twice, theta, target)
                    assert str(again.value) == str(once.value)
                    continue
                got = em_expectation(program, data, theta, target, skip_undefined=skip)
                assert (got.e0, got.e1) == want
                got = em_expectation(program, twice, theta, target, skip_undefined=skip)
                want = expectations_ref(
                    zip(lower + lower[::-1], upper + upper[::-1]), theta, target, skip
                )
                assert (got.e0, got.e1) == want
                seen["estep"] += 1


def _random_learning_cases(count):
    """(seed, program, interpretations) of consistent random programs with learnable facts."""
    seed = 0
    while count:
        seed += 1
        program = random_ground_program(seed)
        if not program.learnable_indices() or check_consistency(program) != 0:
            continue
        data = []
        for k in range(3):
            pos, neg = random_query_literals(seed + 1000 * k, program)
            if not set(pos) & set(neg):
                data.append(
                    Interpretation(
                        tuple(Literal(a) for a in pos) + tuple(Literal(a, False) for a in neg)
                    )
                )
        yield seed, program, data
        count -= 1


def test_stacked_numbers_equal_one_polynomial_formulas_on_random_programs():
    seen = {"zero": 0, "floored": 0, "empty": 0, "estep": 0}
    for seed, program, data in _random_learning_cases(40):
        _assert_same_numbers(program, data, seed, seen)
    assert all(seen.values()), seen


@pytest.mark.parametrize("family,size", [("path", 8), ("shop", 8), ("smoke", 2)])
def test_stacked_numbers_equal_one_polynomial_formulas_on_generated_cells(family, size):
    program, data = generate(
        DatasetSpec(family=family, size=size, num_interpretations=10, seed=0)
    )
    seen = {"zero": 0, "floored": 0, "empty": 0, "estep": 0}
    _assert_same_numbers(program, data, 0, seen)
    assert seen["zero"] and seen["floored"] and seen["estep"], seen


# SHA-256 of every interpretation's lower and upper poly_to_text, then
# repr of the default upper-target learn_opt and learn_em results, one
# per line (10 interpretations, generator seed 0).  A change to
# extraction, stacking or the learners must leave every number
# bit-for-bit as it is.
_LEARN_DIGESTS = {
    ("path", 8): "640c07104aadb1f58cf6eec5ecb8ecc4f92f9974378c576c19cbbd76fc2ae206",
    ("shop", 8): "dc8f7ef5e7575469dfb52f7f24b316e73cfba73a191e006a0c349a91173ec014",
    ("smoke", 2): "bc544dc3949b21cab78ed67a2ba6ea221ae2c438de793dc77c747e6211e3bab2",
    ("coloring", 4): "e49d3a60730e8c989374325aea1a050da92f2ec97d636c9cc65bf0fea3820f29",
}


@pytest.mark.parametrize(
    "family,size", list(_LEARN_DIGESTS), ids=[f"{f}-{n}" for f, n in _LEARN_DIGESTS]
)
def test_learning_matches_parent_digest(family, size):
    program, data = generate(
        DatasetSpec(family=family, size=size, num_interpretations=10, seed=0)
    )
    lines = []
    for interp in data:
        q = query_from_literals(interp.literals)
        lines += [poly_to_text(extract_poly(program, q, b)) for b in ("lower", "upper")]
    lines.append(repr(learn_opt(program, data, LearnConfig(method="opt"))))
    lines.append(repr(learn_em(program, data, LearnConfig(method="em"))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _LEARN_DIGESTS[family, size]


# -- learn_opt is the original line search, evaluation for evaluation -----


def _generated_learning_cases():
    for family, size in (("path", 8), ("shop", 8), ("smoke", 2), ("coloring", 4)):
        spec = DatasetSpec(family=family, size=size, num_interpretations=10, seed=0)
        yield f"{family}{size}", *generate(spec)


def test_learn_opt_equals_original_line_search(monkeypatch):
    # Count which way each gradient went: from the accepted point's
    # products, or by the zero-aware recomputation at a θ with a 0.
    seen = {"reuse": 0, "zero": 0}
    rows = PolyStack.gradient_rows

    def counted(stack, theta, gathered, prods):
        seen["zero" if 0.0 in theta.tolist() else "reuse"] += 1
        return rows(stack, theta, gathered, prods)

    monkeypatch.setattr(PolyStack, "gradient_rows", counted)
    cases = [*_random_learning_cases(30), *_generated_learning_cases()]
    for name, program, data in cases:
        for target in ("lower", "upper"):
            for backend in ("gradient", "derivativeFree"):
                cfg = LearnConfig(target=target, opt_backend=backend)
                got = learn_opt(program, data, cfg)
                assert repr(got) == repr(learn_opt_ref(program, data, cfg)), (name, cfg)
    assert seen["reuse"] and seen["zero"], seen


def test_learn_em_equals_one_polynomial_em():
    seen = {"learned": 0, "undefined": 0}
    cases = [*_random_learning_cases(30), *_generated_learning_cases()]
    for name, program, data in cases:
        for target in ("lower", "upper"):
            for skip in (False, True):
                cfg = LearnConfig(method="em", target=target, skip_undefined=skip)
                try:
                    want = learn_em_ref(program, data, cfg)
                except UndefinedConditional:
                    with pytest.raises(UndefinedConditional):
                        learn_em(program, data, cfg)
                    seen["undefined"] += 1
                    continue
                assert repr(learn_em(program, data, cfg)) == repr(want), (name, cfg)
                seen["learned"] += 1
    assert seen["learned"] and seen["undefined"], seen


def test_clip01_is_np_clip_bit_for_bit():
    special = [-0.0, 0.0, 5e-324, -1e-300, 1.0, 1.5, -np.inf, np.inf, np.nan]
    v = np.array(special)
    assert _clip01(v).tobytes() == np.clip(v, 0.0, 1.0).tobytes()
    # Every length a θ can have, and every position, in case a vector
    # loop and its scalar tail treat the specials differently.
    rng = SplitMix64(11)
    for n in range(1, 40):
        for _ in range(10):
            v = np.array([special[rng.randint(0, len(special) - 1)] for _ in range(n)])
            assert _clip01(v).tobytes() == np.clip(v, 0.0, 1.0).tobytes(), v
