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

:data:`LEARNERS` maps each ``LearnConfig.method`` name to its learner.

All query bounds are extracted once as multilinear polynomials by
:func:`~pasplearn.sympoly.bound_polys` (one cached world pass per
program; one extraction per distinct interpretation query), so
iterations only evaluate polynomials and never re-enumerate answer
sets.  Each learner stacks its polynomials
once into a :class:`~pasplearn.sympoly.PolyStack`, which keeps each
distinct polynomial once, and evaluates them only through the stack's
methods.  ``evaluate`` gives :func:`learn_opt`'s objective: one gather
and one ``reduceat`` over the distinct monomials plus a dot product and
a logarithm per distinct polynomial, with the per-interpretation terms
summed in interpretation order.  ``gradient_rows`` gives the gradient
at the same point from that evaluation's gathered factors and
products: one quotient per factor, one ``bincount`` and one division
per distinct polynomial.  :func:`learn_opt`'s line search tries the step
lengths 1, 1/2, 1/4, ... in ladders of five, each ladder one stacked
``evaluate_many`` call whose rows are bit for bit ``evaluate``'s.  The
rows are tested in order, a row's log-likelihood is taken only when it
is tested, and the gradient at the accepted point reuses that row's
gathered factors and products.
EM needs no further polynomials: a bound P of an interpretation q is
linear in each θ_j, so the joint bounds of fact j with q are
θ_j·P[θ_j=1] for a_j ∧ q and (1−θ_j)·P[θ_j=0] for ¬a_j ∧ q.  Each EM
iteration is one stacked evaluation of every lower and upper
polynomial, ``evaluate_many``, at 2·L+1 points: the 2·L with one θ_j
pinned to 1 or to 0, and θ itself, whose target half gives the
log-likelihood.  It takes one gather and one ``reduceat`` for all
points, and one ``np.vecdot`` per block of distinct polynomials of
equal length; ``np.vecdot`` calls the BLAS ``ddot`` of a one-point dot
product on operands aligned alike, so every value keeps its bits.  The
rest of an E-step is array operations over (fact × interpretation):
one product for every joint bound, one division for both conditionals
of the target, and one ``add.accumulate`` that adds each fact's terms
in interpretation order.  A joint bound whose polynomial value is zero
up to that evaluation's rounding error (``PolyStack.rounding_zeros``)
is exactly zero.

The stacked numbers are bit-for-bit those of evaluating one polynomial
at a time.  This matters: on a flat likelihood ridge, changes in the
last bits alter the optimizer's path, its iteration count and its
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import NoLearnableFacts, UndefinedConditional
from .model import Interpretation, Program, check_theta, interpretation_query
from .rng import SplitMix64
from .sympoly import BOUNDS, PolyStack, SymPoly, bound_polys

#: Optimization backends: command-line name -> ``LearnConfig.opt_backend``.
BACKENDS = {"gradient": "gradient", "dfree": "derivativeFree"}

#: An optimizer run stops after ``_MAX_STEPS`` iterations (sweeps), or once
#: its step is shorter than ``_TOL``; coordinate search starts at ``_START_STEP``.
#: Gradient ascent tries its step lengths ``_LADDER`` at a time.
_MAX_STEPS, _TOL, _START_STEP, _LADDER = 500, 1e-6, 0.25, 5

#: The gradient ascent's step lengths, 2^0, 2^-1, ..., 2^-59 (every power
#: of two above 1e-18), as (ladders × _LADDER × 1) to scale a gradient by.
_STEPS = np.ldexp(1.0, -np.arange(60)).reshape(-1, _LADDER, 1)


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
        if self.target not in BOUNDS:
            raise ValueError(f"target must be one of {BOUNDS}, got {self.target!r}")
        if self.method not in LEARNERS:
            raise ValueError(f"method must be one of {tuple(LEARNERS)}, got {self.method!r}")
        if self.opt_backend not in BACKENDS.values():
            raise ValueError(
                f"opt_backend must be one of {tuple(BACKENDS.values())}, "
                f"got {self.opt_backend!r}"
            )
        for name in ("eps_ll", "floor_prob"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, Real):
                raise ValueError(f"{name} must be a real number, got {x!r}")
        # An infinite eps_ll would stop EM after one iteration as converged.
        if not 0 < self.eps_ll < math.inf:
            raise ValueError(f"eps_ll must be positive and finite, got {self.eps_ll}")
        if not 0 < self.floor_prob < 1e-3:
            raise ValueError(f"floor_prob must be in (0, 1e-3), got {self.floor_prob}")
        for name in ("max_iters", "restarts"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.skip_undefined, (bool, np.bool_)):
            raise ValueError(f"skip_undefined must be a bool, got {self.skip_undefined!r}")


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


class _Likelihood:
    """Σ_k log(max(P_k(θ), floor_prob)) over a stack's input polynomials.

    :meth:`at` evaluates a point once and returns its log-likelihood
    with the point itself: θ and the stack's values, gathered factors
    and products there.  :meth:`ladder` does the same for the points
    along a gradient ascent step, several in one stacked evaluation.
    :meth:`gradient` at a point from either reuses them.
    ``index`` picks the input polynomials among the stack's distinct
    ones; it defaults to all of them, ``stack.index``.
    """

    def __init__(self, stack: PolyStack, floor_prob: float, index=None):
        self.stack = stack
        self.floor_prob = floor_prob
        self._index = (stack.index if index is None else index).tolist()

    def log_sum(self, values) -> float:
        """Log-likelihood from the distinct polynomials' values, a list of floats.

        The terms are added one by one in input order, from 0.0, on every
        Python: the built-in ``sum`` compensates float additions from 3.12.
        """
        floor_prob = self.floor_prob
        logs = [math.log(max(v, floor_prob)) for v in values]
        total = 0.0
        for k in self._index:
            total += logs[k]
        return total

    def at(self, theta: np.ndarray) -> tuple[float, tuple]:
        """Log-likelihood and point at theta, a float array."""
        values, gathered, prods = self.stack.evaluate(theta)
        return self.log_sum(values), (theta, values, gathered, prods)

    def ladder(self, ladders: np.ndarray):
        """Log-likelihood and point, as :meth:`at` gives them, at each
        point of ``ladders``, a (ladders × ``_LADDER`` × nvars) array, in turn.

        Each ladder of ``_LADDER`` points is one ``evaluate_many`` call,
        whose rows are bit for bit :meth:`at`'s; a point's log-likelihood
        is taken only when the caller asks for the point.
        """
        for points in ladders:
            values, gathered, prods = self.stack.evaluate_many(points)
            for r, theta in enumerate(points):
                row = values[r].tolist()
                yield self.log_sum(row), (theta, row, gathered[r], prods[r])

    def gradient(self, point) -> np.ndarray:
        """Gradient at a point from :meth:`at`; floored terms contribute zero.

        Each distinct polynomial's gradient is divided by its value once.
        """
        theta, values, gathered, prods = point
        rows = self.stack.gradient_rows(theta, gathered, prods)
        # NaN is not above the floor, so its row is left out too.
        kept = [v > self.floor_prob for v in values]
        # Floored rows are left out below; dividing them by 1.0 keeps 0/0 away.
        rows /= np.array([v if k else 1.0 for v, k in zip(values, kept)])[:, None]
        chosen = [k for k in self._index if kept[k]]
        terms = np.zeros((len(chosen) + 1, self.stack.nvars))
        rows.take(chosen, axis=0, out=terms[1:], mode="clip")
        # One row after another from 0.0, in input order.  accumulate adds
        # in that order; add.reduce would sum a lone column (one variable)
        # pairwise.
        return np.add.accumulate(terms, axis=0)[-1]


def ll_objective(polys: list[SymPoly], theta, floor_prob: float = 1e-12) -> float:
    """Σ_k log(max(polys[k](theta), floor_prob)); at most 0 when values ≤ 1.

    The logarithm is taken once per distinct polynomial.
    """
    theta = np.asarray(theta, dtype=float)
    stack = PolyStack(polys, polys[0].nvars if polys else len(theta))
    return _Likelihood(stack, floor_prob).at(theta)[0]


# -- constrained optimization ------------------------------------------


def _clip01(v: np.ndarray) -> np.ndarray:
    """``np.clip(v, 0.0, 1.0)`` bit for bit, without clip's wrapper cost.

    The scalar goes first, which gives −0.0 and NaN the same bits as clip.
    """
    return np.minimum(np.maximum(0.0, v), 1.0)


def _gradient_ascent(lik: _Likelihood, x0):
    """Projected gradient ascent with Armijo backtracking on [0,1]^L.

    Each iteration projects the points of the step lengths 1, 1/2, 1/4,
    ... down to 2^-59 at once and takes the first, in that order, that
    passes the Armijo test.  :meth:`_Likelihood.ladder` evaluates them
    ``_LADDER`` at a time in one stacked pass, so a step that needs a
    few halvings costs one evaluation, and the gradient at the accepted
    point reuses its row of that evaluation.
    """
    x = _clip01(np.asarray(x0, dtype=float))
    ll, point = lik.at(x)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, _MAX_STEPS + 1):
        g = lik.gradient(point)
        # Every step length's projected point; steps·g is step·g
        # elementwise, and 1.0·g is g, so the first is the full step.
        ladders = _clip01(x + _STEPS * g)
        d = ladders[0, 0] - x
        # np.linalg.norm of a 1-D float array is this sqrt of a dot.
        if math.sqrt(d.dot(d)) < _TOL:
            converged = True
            break
        iterations = it
        for lln, point_n in lik.ladder(ladders):
            xn = point_n[0]
            # A projected step moves each θ_j the way g_j points, so
            # g·(xn − x) ≥ 0, and a point below ll fails the test anyway.
            if lln >= ll and lln >= ll + 1e-4 * float(g @ (xn - x)):
                break
        else:  # no step length passed the test
            break
        x, ll, point = xn, lln, point_n
        trace.append(ll)
    return x, ll, iterations, converged, trace


def _coordinate_search(at, x0):
    """Derivative-free coordinate descent (ascent) with shrinking step."""
    x = _clip01(np.asarray(x0, dtype=float))
    ll = at(x)[0]
    trace = [ll]
    converged = False
    iterations = 0
    step = _START_STEP
    for sweep in range(1, _MAX_STEPS + 1):
        if step < _TOL:
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
                lln = at(xn)[0]
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
    lik = _Likelihood(
        PolyStack(bound_polys(program, queries, [cfg.target])[0], nvars), cfg.floor_prob
    )

    starts = [np.array(program.initial_theta())]
    root = SplitMix64(cfg.seed)
    for r in range(1, cfg.restarts):
        gen = root.split(r)
        starts.append(np.array([gen.random() for _ in range(nvars)]))

    best = None
    for x0 in starts:
        if cfg.opt_backend == "gradient":
            run = _gradient_ascent(lik, x0)
        else:
            run = _coordinate_search(lik.at, x0)
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


def _em_points(theta: np.ndarray) -> np.ndarray:
    """The E-step's points: θ with θ_i pinned to 1 (row i) and to 0 (row L+i), then θ."""
    nvars = len(theta)
    points = np.empty((2 * nvars + 1, nvars))
    points[...] = theta
    # Every (nvars+1)-th element of an (nvars × nvars) block is its diagonal.
    points[:nvars].reshape(-1)[:: nvars + 1] = 1.0
    points[nvars:-1].reshape(-1)[:: nvars + 1] = 0.0
    return points


def _em_batch(stack: PolyStack, theta) -> tuple[np.ndarray, np.ndarray]:
    """The stack's values and products at :func:`_em_points` of theta.

    The gathered factors, which no E-step reads, are dropped at once:
    they are the largest of the three arrays.
    """
    values, _, prods = stack.evaluate_many(_em_points(np.asarray(theta, dtype=float)))
    return values, prods


def _expectations(
    program: Program, queries, stack, theta, pinned, target: str, skip_undefined: bool
) -> EMExpectations:
    """Expected counts from each interpretation's two bound polynomials.

    The lower polynomials of ``queries`` and then their upper ones are
    distinct polynomials ``stack.index`` of ``stack``, and ``pinned``
    holds that stack's values and products at the first 2·L rows of
    :func:`_em_points`.  A bound P is linear in θ_i, so the joint bounds
    of fact i with the interpretation are θ_i·P[θ_i=1] (fact true) and
    (1−θ_i)·P[θ_i=0] (fact false); a joint whose P is zero up to
    rounding error is exactly zero, so that boundary thetas hit the
    degenerate clauses instead of dividing by rounding residues.  Array
    operations over (fact × interpretation) then give every joint, both
    conditionals of the target and their sums in interpretation order.
    """
    theta = np.asarray(theta, dtype=float)
    nvars = len(theta)
    if not nvars:
        return EMExpectations((), ())
    values, prods = pinned
    values = np.where(stack.rounding_zeros(values, prods), 0.0, values)
    # Rows a_i, then not a_i; columns each interpretation's lower bound,
    # then its upper one.
    joints = _clip01(np.concatenate((theta, 1.0 - theta))[:, None] * values[:, stack.index])
    # joints[e, i, b, k]: bound b of event e of fact i jointly with query k.
    joints = joints.reshape(2, nvars, 2, len(queries))
    low, up = joints[:, :, 0], joints[:, :, 1]
    # Where both upper joints of fact i with query k are zero.
    undefined = ~up.any(axis=0)
    any_undefined = undefined.any()
    if any_undefined and not skip_undefined:
        k, i = np.argwhere(undefined.T)[0]
        atom = program.prob_facts[program.learnable_indices()[i]].atom
        raise UndefinedConditional(f"fact {atom}, interpretation query {queries[k]}")
    # lower P(e | q) = low_e / (low_e + up_not_e), upper P(e | q) =
    # up_e / (up_e + low_not_e); a zero denominator gives 1 or 0.  A zero
    # column first: the sums start from 0.0.
    num, other = (low, up) if target == "lower" else (up, low)
    den = num + other[::-1]
    terms = np.zeros((2, nvars, len(queries) + 1))
    ratios = terms[:, :, 1:]
    ratios.fill(1.0 if target == "lower" else 0.0)
    np.divide(num, den, out=ratios, where=den > 0.0)
    if any_undefined:
        ratios[:, undefined] = 0.0
    # accumulate adds in interpretation order; add.reduce would sum
    # eight or more terms pairwise.
    e1, e0 = np.add.accumulate(terms, axis=2)[:, :, -1].tolist()
    return EMExpectations(tuple(e0), tuple(e1))


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
    Raises ``ValueError`` unless ``theta`` holds one probability in
    [0, 1] per learnable fact.
    """
    theta = check_theta(program, theta)
    queries = [interpretation_query(i) for i in interps]
    lower, upper = bound_polys(program, queries, BOUNDS)
    bounds = PolyStack(lower + upper, len(theta))
    values, prods = _em_batch(bounds, theta)
    pinned = values[:-1], prods[:-1]
    return _expectations(program, queries, bounds, theta, pinned, target, skip_undefined)


def em_maximization(e: EMExpectations, prev_theta) -> tuple[float, ...]:
    """Closed-form update θ_i = e1_i/(e0_i+e1_i); 0/0 keeps the previous θ_i."""
    out = []
    for e0, e1, prev in zip(e.e0, e.e1, prev_theta, strict=True):
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
    lower, upper = bound_polys(program, queries, BOUNDS)
    bounds = PolyStack(lower + upper, nvars)
    # The log-likelihood reads the target half of the stack.
    n = len(queries)
    target = bounds.index[:n] if cfg.target == "lower" else bounds.index[n:]
    lik = _Likelihood(bounds, cfg.floor_prob, target)

    theta = tuple(program.initial_theta())
    values, prods = _em_batch(bounds, theta)
    ll = lik.log_sum(values[-1].tolist())
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        pinned = values[:-1], prods[:-1]
        exp = _expectations(
            program, queries, bounds, theta, pinned, cfg.target, cfg.skip_undefined
        )
        theta = em_maximization(exp, theta)
        values, prods = _em_batch(bounds, theta)
        prev_ll, ll = ll, lik.log_sum(values[-1].tolist())
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


#: The learners by ``LearnConfig.method``.
LEARNERS = {"opt": learn_opt, "em": learn_em}
