"""Parameter learning from partial interpretations.

Both learners maximize the log-likelihood of a set of partial
interpretations, where each interpretation's probability is the chosen
credal bound (lower or upper) of its interpretation query:

* :func:`learn_opt` — box-constrained maximization of the symbolic
  objective, with a projected-gradient backend (exact polynomial
  gradients, Armijo backtracking) and a derivative-free coordinate
  search backend, both multi-started.
* :func:`learn_em` — Expectation Maximization: expected counts are
  conditional bounds of each learnable fact given each interpretation,
  and the update is the closed-form ratio e1/(e0+e1).

All query bounds are extracted once as multilinear polynomials (one
world pass per program, cached; one extraction per distinct
interpretation query), so iterations only evaluate polynomials and
never re-enumerate answer sets.  Each learner stacks its polynomials
once into a :class:`~pasplearn.sympoly.PolyStack`, which keeps each
distinct polynomial once: the objective is one gather and one
``reduceat`` over the distinct monomials plus a dot product and a
logarithm per distinct polynomial, and the gradient adds one
``bincount`` and one division per distinct polynomial.  The
per-interpretation terms are then summed in interpretation order.
EM needs no further polynomials: a bound P of an interpretation q is
linear in each θ_j, so the joint bounds of fact j with q are
θ_j·P[θ_j=1] for a_j ∧ q and (1−θ_j)·P[θ_j=0] for ¬a_j ∧ q.  An E-step
evaluates the stack of every lower and upper polynomial once at each of
the 2·L points with one θ_j pinned to 1 or to 0, and forms the
conditionals once per distinct pair of lower and upper polynomials.

The stacked numbers are bit-for-bit those of evaluating one polynomial
at a time.  This matters: on a flat likelihood ridge, changes in the
last bits alter the optimizer's path, its iteration count and its
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .credal import conditional_from_joints, world_models
from .errors import NoLearnableFacts, UndefinedConditional
from .model import Interpretation, Program, interpretation_query
from .rng import SplitMix64
from .sympoly import PolyStack, SymPoly, poly_from_world_flags

_TARGETS = ("lower", "upper")
_METHODS = ("opt", "em")
#: Optimization backends: command-line name -> ``LearnConfig.opt_backend``.
BACKENDS = {"gradient": "gradient", "dfree": "derivativeFree"}

#: Joint-bound evaluations below this magnitude are snapped to exact
#: zero before forming conditionals, so that boundary thetas hit the
#: degenerate clauses instead of dividing by collection noise.
_SNAP_EPS = 1e-15


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the two learners; each learner reads only some of them.

    Both read ``target``, ``floor_prob`` and ``method``, which must name
    the learner it is passed to (``"opt"`` for :func:`learn_opt`,
    ``"em"`` for :func:`learn_em`).  :func:`learn_opt` also reads
    ``restarts``, ``seed`` and ``opt_backend``, and not ``eps_ll`` or
    ``max_iters``: each of its runs stops after at most 500 iterations
    (sweeps for the derivative-free backend) at a fixed tolerance of
    1e-6.  :func:`learn_em` also reads ``eps_ll``, ``max_iters`` and
    ``skip_undefined``, and not ``restarts``, ``seed`` or
    ``opt_backend``.
    """

    target: str = "upper"
    method: str = "opt"
    eps_ll: float = 5e-4
    max_iters: int = 1000
    floor_prob: float = 1e-12
    restarts: int = 4
    seed: int = 0
    opt_backend: str = "gradient"
    skip_undefined: bool = False

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of {_TARGETS}, got {self.target!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.opt_backend not in BACKENDS.values():
            raise ValueError(
                f"opt_backend must be one of {tuple(BACKENDS.values())}, "
                f"got {self.opt_backend!r}"
            )
        if not self.eps_ll > 0:
            raise ValueError(f"eps_ll must be positive, got {self.eps_ll}")
        if not 0 < self.floor_prob < 1e-3:
            raise ValueError(f"floor_prob must be in (0, 1e-3), got {self.floor_prob}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def _check_method(cfg: LearnConfig, method: str) -> None:
    """Refuse a config that names the other learner."""
    if cfg.method != method:
        raise ValueError(
            f"LearnConfig(method={cfg.method!r}) passed to learn_{method}; "
            f"call learn_{cfg.method} or set method={method!r}"
        )


@dataclass(frozen=True)
class LearnResult:
    params: tuple[float, ...]
    final_ll: float
    iterations: int
    converged: bool
    ll_trace: tuple[float, ...]


@dataclass(frozen=True)
class EMExpectations:
    e0: tuple[float, ...]
    e1: tuple[float, ...]


def _stacked(polys, theta) -> PolyStack:
    """polys as a :class:`PolyStack` (a list of SymPoly is stacked here)."""
    if isinstance(polys, PolyStack):
        return polys
    polys = list(polys)
    return PolyStack(polys, polys[0].nvars if polys else len(theta))


def ll_objective(polys, theta, floor_prob: float = 1e-12) -> float:
    """Σ_k log(max(polys[k](theta), floor_prob)); at most 0 when values ≤ 1.

    ``polys`` is a :class:`PolyStack` or a list of :class:`SymPoly`.
    The logarithm is taken once per distinct polynomial.
    """
    stack = _stacked(polys, theta)
    logs = [math.log(max(v, floor_prob)) for v in stack.distinct_values(theta)]
    return sum(logs[k] for k in stack.index.tolist())


def ll_gradient(polys, theta, floor_prob: float = 1e-12) -> np.ndarray:
    """Gradient of :func:`ll_objective`; floored terms contribute zero.

    Each distinct polynomial's gradient is divided by its value once.
    """
    stack = _stacked(polys, theta)
    values, rows = stack.distinct_gradients(theta)
    values = np.array(values)
    kept = values > floor_prob
    # Floored rows are left out below; dividing them by 1.0 keeps 0/0 away.
    rows = rows / np.where(kept, values, 1.0)[:, None]
    terms = rows[stack.index[kept[stack.index]]]
    # One row after another from 0.0, in input order.  cumsum adds in
    # that order; add.reduce would sum a lone column (one variable) pairwise.
    return np.cumsum(np.concatenate([np.zeros((1, rows.shape[1])), terms]), axis=0)[-1]


# -- constrained optimization ------------------------------------------


def _gradient_ascent(objective, gradient, x0, max_inner=500, tol=1e-6):
    """Projected gradient ascent with Armijo backtracking on [0,1]^L."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    ll = objective(x)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, max_inner + 1):
        g = gradient(x)
        if np.linalg.norm(np.clip(x + g, 0.0, 1.0) - x) < tol:
            converged = True
            break
        iterations = it
        step = 1.0
        accepted = False
        while step > 1e-18:
            xn = np.clip(x + step * g, 0.0, 1.0)
            lln = objective(xn)
            if lln >= ll + 1e-4 * float(g @ (xn - x)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, ll = xn, lln
        trace.append(ll)
    return x, ll, iterations, converged, trace


def _coordinate_search(objective, x0, max_sweeps=500, start_step=0.25, tol=1e-6):
    """Derivative-free coordinate descent (ascent) with shrinking step."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    ll = objective(x)
    trace = [ll]
    converged = False
    iterations = 0
    step = start_step
    for sweep in range(1, max_sweeps + 1):
        if step < tol:
            converged = True
            break
        iterations = sweep
        improved = False
        for j in range(len(x)):
            for delta in (step, -step):
                xn = x.copy()
                xn[j] = min(1.0, max(0.0, x[j] + delta))
                if xn[j] == x[j]:
                    continue
                lln = objective(xn)
                if lln > ll:
                    x, ll = xn, lln
                    improved = True
                    break
        trace.append(ll)
        if not improved:
            step *= 0.5
    return x, ll, iterations, converged, trace


def learn_opt(
    program: Program,
    interps: list[Interpretation],
    cfg: LearnConfig,
) -> LearnResult:
    """Maximize the log-likelihood over [0,1]^L by multi-start search.

    The first start is the program's declared initial probabilities;
    the remaining ``cfg.restarts - 1`` starts are drawn from
    ``cfg.seed``.  The best run wins (ties keep the earliest);
    ``iterations`` and ``converged`` describe the winning run.
    """
    _check_method(cfg, "opt")
    nvars = len(program.learnable_indices())
    if nvars == 0:
        raise NoLearnableFacts("program declares no learnable facts")
    queries = [interpretation_query(i) for i in interps]
    polys = PolyStack(_bound_polys(program, queries, [cfg.target])[0], nvars)

    def objective(theta):
        return ll_objective(polys, theta, cfg.floor_prob)

    def gradient(theta):
        return ll_gradient(polys, theta, cfg.floor_prob)

    starts = [np.array(program.initial_theta())]
    root = SplitMix64(cfg.seed)
    for r in range(1, cfg.restarts):
        gen = root.split(r)
        starts.append(np.array([gen.random() for _ in range(nvars)]))

    best = None
    for x0 in starts:
        if cfg.opt_backend == "gradient":
            run = _gradient_ascent(objective, gradient, x0)
        else:
            run = _coordinate_search(objective, x0)
        if best is None or run[1] > best[1]:
            best = run
    x, ll, iterations, converged, trace = best
    return LearnResult(
        params=tuple(float(v) for v in x),
        final_ll=ll,
        iterations=iterations,
        converged=converged,
        ll_trace=tuple(trace),
    )


# -- expectation maximization ------------------------------------------


def _bound_polys(program: Program, queries, bounds) -> list[list[SymPoly]]:
    """For each of ``bounds`` (``"lower"``/``"upper"``), every query's polynomial.

    Each distinct query's world flags are computed once, and its
    polynomials built from them.  Raises
    :class:`~pasplearn.errors.InconsistentWorld` if a world has no
    answer set.
    """
    wm = world_models(program)
    polys = {}
    for q in queries:
        if q not in polys:
            flags = dict(zip(_TARGETS, wm.satisfaction(q)))
            polys[q] = [poly_from_world_flags(program, flags[b]) for b in bounds]
    return [[polys[q][j] for q in queries] for j in range(len(bounds))]


def _expectations(
    program: Program, queries, bounds: PolyStack, theta, target: str, skip_undefined: bool
) -> EMExpectations:
    """Expected counts from each interpretation's two bound polynomials.

    ``bounds`` stacks the lower polynomials of ``queries`` and then
    their upper ones.  A bound P is linear in θ_i, so the joint bounds
    of fact i with the interpretation are θ_i·P[θ_i=1] (fact true) and
    (1−θ_i)·P[θ_i=0] (fact false): the stack's distinct polynomials are
    evaluated once at each of the 2·L points with one θ_i pinned.  The
    conditionals are formed once per distinct (lower, upper) pair and
    added in interpretation order.
    """
    theta = np.asarray(theta, dtype=float)
    at_one = []
    at_zero = []
    for i in range(len(theta)):
        point = theta.copy()
        point[i] = 1.0
        at_one.append(bounds.distinct_values(point))
        point[i] = 0.0
        at_zero.append(bounds.distinct_values(point))
    ts = theta.tolist()
    index = bounds.index.tolist()
    n = len(queries)
    conds = {}
    e0 = [0.0] * len(ts)
    e1 = [0.0] * len(ts)
    for k, q in enumerate(queries):
        pair = index[k], index[n + k]
        if pair not in conds:
            conds[pair] = [
                _fact_conditionals(t, at_one[i], at_zero[i], *pair, target)
                for i, t in enumerate(ts)
            ]
        for i, c in enumerate(conds[pair]):
            if c is None:
                if skip_undefined:
                    continue
                atom = program.prob_facts[program.learnable_indices()[i]].atom
                raise UndefinedConditional(f"fact {atom}, interpretation query {q}")
            e1[i] += c[0]
            e0[i] += c[1]
    return EMExpectations(tuple(e0), tuple(e1))


def _fact_conditionals(t, at_one, at_zero, low, up, target):
    """``target`` bounds of P(a | q) and P(not a | q), or None where undefined.

    ``t`` is the fact's θ; ``at_one``/``at_zero`` are the stack's
    distinct values with that θ pinned to 1 and to 0; ``low`` and ``up``
    index the interpretation's lower and upper polynomials in them.
    """
    low_a = _snap(t * at_one[low])
    up_a = _snap(t * at_one[up])
    low_na = _snap((1.0 - t) * at_zero[low])
    up_na = _snap((1.0 - t) * at_zero[up])
    try:
        cond_a = conditional_from_joints(low_a, up_a, low_na, up_na)
        cond_na = conditional_from_joints(low_na, up_na, low_a, up_a)
    except UndefinedConditional:
        return None
    if target == "lower":
        return cond_a.lower, cond_na.lower
    return cond_a.upper, cond_na.upper


def _snap(v: float) -> float:
    """Clamp collection noise so boundary thetas give exact-zero bounds."""
    if abs(v) < _SNAP_EPS:
        return 0.0
    return min(max(v, 0.0), 1.0)


def em_expectation(
    program: Program,
    interps: list[Interpretation],
    theta,
    target: str = "upper",
    skip_undefined: bool = False,
) -> EMExpectations:
    """Expected counts: e1_i = Σ_I P(a_i | I), e0_i = Σ_I P(not a_i | I).

    Conditionals are the chosen bound's conditional probabilities,
    evaluated from each interpretation's lower and upper polynomials.
    """
    queries = [interpretation_query(i) for i in interps]
    lower, upper = _bound_polys(program, queries, _TARGETS)
    bounds = PolyStack(lower + upper, len(program.learnable_indices()))
    return _expectations(program, queries, bounds, theta, target, skip_undefined)


def em_maximization(e: EMExpectations, prev_theta) -> tuple[float, ...]:
    """Closed-form update θ_i = e1_i/(e0_i+e1_i); 0/0 keeps the previous θ_i."""
    out = []
    for e0, e1, prev in zip(e.e0, e.e1, prev_theta):
        s = e0 + e1
        if s == 0.0:
            out.append(float(prev))
        else:
            out.append(min(max(e1 / s, 0.0), 1.0))
    return tuple(out)


def learn_em(
    program: Program,
    interps: list[Interpretation],
    cfg: LearnConfig,
) -> LearnResult:
    """EM loop: expectations / update / log-likelihood until |ΔLL| < eps_ll.

    ``ll_trace[0]`` is the log-likelihood at the initial parameters; one
    entry is appended per EM iteration.
    """
    _check_method(cfg, "em")
    nvars = len(program.learnable_indices())
    if nvars == 0:
        raise NoLearnableFacts("program declares no learnable facts")
    queries = [interpretation_query(i) for i in interps]
    lower, upper = _bound_polys(program, queries, _TARGETS)
    bounds = PolyStack(lower + upper, nvars)
    polys = PolyStack(lower if cfg.target == "lower" else upper, nvars)

    theta = tuple(program.initial_theta())
    ll = ll_objective(polys, theta, cfg.floor_prob)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        exp = _expectations(program, queries, bounds, theta, cfg.target, cfg.skip_undefined)
        theta = em_maximization(exp, theta)
        prev_ll, ll = ll, ll_objective(polys, theta, cfg.floor_prob)
        trace.append(ll)
        iterations = it
        if abs(ll - prev_ll) < cfg.eps_ll:
            converged = True
            break
    return LearnResult(
        params=theta,
        final_ll=ll,
        iterations=iterations,
        converged=converged,
        ll_trace=tuple(trace),
    )
