"""Slow reference implementations used to cross-check the fast paths.

Everything here works directly on ``Atom``/``Rule`` objects with
brute-force enumeration: full Herbrand instantiation for grounding,
all-subsets reduct checking for stable models, and world-by-world
summation for credal bounds.  Nothing is shared with the package's
solver internals.  :func:`is_stable` is the one Gelfond–Lifschitz
check: ``stable_models_brute`` filters candidates with it, and the
stable-model tests check every row the package's solver reports
against it, since the solver itself does not recheck its leaves.
:func:`satisfiable_brute` answers the solver's existence search world
by world.

The flag section keeps the per-answer-set loops that once computed the
per-world query flags, reading the atom masks of
``WorldModels.model_masks``; the package's packed-row column tests must
give the same flags.

:func:`world_weights_ref` is the product measure as one ``np.outer``
per fact, which the package's strided build must equal byte for byte.
:func:`poly_from_world_flags_ref` extracts a polynomial from per-world
pattern and weight tables decoded from every world index, which the
package's extraction from the index bits must equal byte for byte.

The polynomial section at the end converts between the package's
bit-pattern polynomials and ``{frozenset of variables: coefficient}``
dicts, computes extracted coefficients exactly in rational arithmetic
(:func:`poly_coefficients_exact`), and keeps the original
one-polynomial numpy formulas for evaluation, gradient, log-likelihood
and the EM E-step.  The package's
stacked evaluation must reproduce them bit for bit, because the
optimizer's path on a flat likelihood ridge follows the last bits of
these numbers.  :func:`learn_opt_ref` drives the original
projected-gradient and coordinate searches with those formulas, one
objective and one gradient call at a time; :func:`learn_em_ref` runs
the EM loop on the same E-step and log-likelihood formulas.
:func:`gradient_ascent_sequential` is the package's gradient ascent on
its own ``_Likelihood``, with one evaluation per step length: the
reference for the stacked ladders of step lengths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from pasplearn.credal import conditional_from_joints
from pasplearn.errors import InconsistentWorld, UndefinedConditional
from pasplearn.learning import (
    _MAX_STEPS,
    _TOL,
    EMExpectations,
    LearnResult,
    _clip01,
    em_maximization,
)
from pasplearn.model import Atom, Literal, Program, Rule, interpretation_query, is_variable
from pasplearn.rng import SplitMix64
from pasplearn.sympoly import SymPoly, extract_poly


def herbrand_constants(program: Program) -> list:
    seen: dict = {}
    for pf in program.prob_facts:
        for t in pf.atom.args:
            seen.setdefault(t, None)
    for rule in program.rules:
        atoms = ([] if rule.head is None else [rule.head]) + [
            l.atom for l in rule.body
        ]
        for atom in atoms:
            for t in atom.args:
                if not is_variable(t):
                    seen.setdefault(t, None)
    return list(seen)


def substitute(atom: Atom, binding: dict) -> Atom:
    """``atom`` with each variable that ``binding`` maps replaced by its value."""
    return Atom(atom.functor, tuple(binding.get(a, a) if is_variable(a) else a for a in atom.args))


def naive_ground(program: Program) -> list[Rule]:
    """Every instantiation of every rule over all constant tuples."""
    consts = herbrand_constants(program) or [1]
    out: dict[Rule, None] = {}
    for rule in program.rules:
        variables = sorted(rule.variables())
        if not variables:
            out.setdefault(rule, None)
            continue
        for combo in iproduct(consts, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            head = None if rule.head is None else substitute(rule.head, binding)
            body = tuple(Literal(substitute(l.atom, binding), l.positive) for l in rule.body)
            out.setdefault(Rule(head, body), None)
    return list(out)


def _least_model(positive_rules, facts: frozenset) -> frozenset:
    model = set(facts)
    changed = True
    while changed:
        changed = False
        for head, pos in positive_rules:
            if head not in model and all(p in model for p in pos):
                model.add(head)
                changed = True
    return frozenset(model)


def is_stable(rules: list[Rule], chosen: frozenset, m: frozenset) -> bool:
    """Gelfond–Lifschitz check: ``m`` is a stable model of ``rules`` with
    the world's included probabilistic atoms ``chosen`` as facts.

    ``m`` must equal the least model of the reduct, and no integrity
    constraint of the reduct may fire in it.
    """
    reduct = [
        (r.head, [l.atom for l in r.body if l.positive])
        for r in rules
        if all(l.atom not in m for l in r.body if not l.positive)
    ]
    least = _least_model([(h, pos) for h, pos in reduct if h is not None], chosen)
    if least != m:
        return False
    return not any(h is None and all(p in least for p in pos) for h, pos in reduct)


def stable_models_brute(
    rules: list[Rule], chosen: frozenset, universe: list[Atom]
) -> list[frozenset]:
    """All stable models: try every subset of derivable atoms.

    ``chosen`` holds the world's included probabilistic atoms (treated
    as facts); ``universe`` the candidate derived atoms.
    """
    models = []
    n = len(universe)
    for bits in range(1 << n):
        m = chosen | frozenset(universe[i] for i in range(n) if bits >> i & 1)
        if is_stable(rules, chosen, m):
            models.append(m)
    models.sort(key=sorted_key)
    return models


def satisfiable_brute(program: Program, assumptions: dict) -> bool:
    """Whether some world has a stable model meeting every assumption.

    ``assumptions`` maps atoms, probabilistic or derived, to the value
    they must take.  Worlds that disagree with an assumed fact are
    skipped; the others are searched with :func:`stable_models_brute`.
    """
    rules = list(program.rules)
    prob_atoms = {pf.atom for pf in program.prob_facts}
    universe = rule_universe(rules, prob_atoms)
    for _bits, chosen, _p in worlds_brute(program):
        if any(a in prob_atoms and (a in chosen) != v for a, v in assumptions.items()):
            continue
        for m in stable_models_brute(rules, chosen, universe):
            if all((a in m) == v for a, v in assumptions.items()):
                return True
    return False


def sorted_key(model: frozenset):
    return sorted(str(a) for a in model)


def rule_universe(rules: list[Rule], prob_atoms: set[Atom]) -> list[Atom]:
    out: dict[Atom, None] = {}
    for r in rules:
        if r.head is not None and r.head not in prob_atoms:
            out.setdefault(r.head, None)
        for l in r.body:
            if l.atom not in prob_atoms:
                out.setdefault(l.atom, None)
    return list(out)


def worlds_brute(program: Program):
    """(selection tuple, chosen atom set, probability) per world."""
    facts = program.prob_facts
    for bits in iproduct((0, 1), repeat=len(facts)):
        chosen = frozenset(pf.atom for pf, b in zip(facts, bits) if b)
        p = 1.0
        for pf, b in zip(facts, bits):
            p *= pf.prob if b else 1.0 - pf.prob
        yield bits, chosen, p


def credal_brute(program: Program, pos, neg):
    """(lower, upper) for a conjunctive query, or None if some world
    has no stable model."""
    rules = naive_ground(program)
    prob_atoms = {pf.atom for pf in program.prob_facts}
    universe = rule_universe(rules, prob_atoms)
    pos = frozenset(pos)
    neg = frozenset(neg)
    lower = upper = 0.0
    for _bits, chosen, p in worlds_brute(program):
        models = stable_models_brute(rules, chosen, universe)
        if not models:
            return None
        sat = [pos <= m and not (neg & m) for m in models]
        if any(sat):
            upper += p
            if all(sat):
                lower += p
    return lower, upper


# -- per-world flags, one answer set at a time ---------------------------


def _raise_on_empty_world(wm) -> None:
    masks = wm.model_masks
    if () in masks:
        i = masks.index(())
        n = wm.program.n_prob_facts
        raise InconsistentWorld(i, tuple(i >> (n - 1 - j) & 1 for j in range(n)))


def query_masks_ref(wm, query):
    """(positive mask, negative mask, satisfiable) over ``model_masks`` bits.

    Query atoms outside the relevant ground base are never true in any
    model: a positive occurrence makes the query unsatisfiable, a
    negative occurrence is vacuously satisfied and dropped.
    """
    n = wm.n_atoms
    idx = wm.gp.atom_index
    pos_mask = 0
    for atom in query.positives:
        i = idx.get(atom)
        if i is None:
            return 0, 0, False
        pos_mask |= 1 << (n - 1 - i)
    neg_mask = 0
    for atom in query.negatives:
        i = idx.get(atom)
        if i is not None:
            neg_mask |= 1 << (n - 1 - i)
    return pos_mask, neg_mask, True


def satisfaction_ref(wm, query):
    """Per-world (all answer sets satisfy, some answer set satisfies)."""
    _raise_on_empty_world(wm)
    pos_mask, neg_mask, possible = query_masks_ref(wm, query)
    masks_per_world = wm.model_masks
    all_sat = np.zeros(len(masks_per_world), dtype=bool)
    some_sat = np.zeros(len(masks_per_world), dtype=bool)
    if possible:
        for i, masks in enumerate(masks_per_world):
            every, some = True, False
            for m in masks:
                if m & pos_mask == pos_mask and m & neg_mask == 0:
                    some = True
                else:
                    every = False
            all_sat[i] = every
            some_sat[i] = some
    return all_sat, some_sat


def conditional_flags_ref(wm, q, e):
    """Per-world (all q∧e, some q∧e, all ¬q∧e, some ¬q∧e)."""
    _raise_on_empty_world(wm)
    q_pos, q_neg, q_possible = query_masks_ref(wm, q)
    e_pos, e_neg, e_possible = query_masks_ref(wm, e)
    masks_per_world = wm.model_masks
    flags = tuple(np.zeros(len(masks_per_world), dtype=bool) for _ in range(4))
    all_qe_f, some_qe_f, all_nqe_f, some_nqe_f = flags
    for i, masks in enumerate(masks_per_world):
        all_qe = all_nqe = True
        some_qe = some_nqe = False
        for m in masks:
            sat_e = e_possible and m & e_pos == e_pos and m & e_neg == 0
            sat_q = q_possible and m & q_pos == q_pos and m & q_neg == 0
            if sat_e and sat_q:
                some_qe = True
            else:
                all_qe = False
            if sat_e and not sat_q:
                some_nqe = True
            else:
                all_nqe = False
        all_qe_f[i] = all_qe and some_qe
        some_qe_f[i] = some_qe
        all_nqe_f[i] = all_nqe and some_nqe
        some_nqe_f[i] = some_nqe
    return flags


# -- world weights -----------------------------------------------------------


def world_weights_ref(factors) -> np.ndarray:
    """The product measure of ``credal.world_weights``, one ``np.outer`` per fact."""
    weights = np.ones(1)
    for absent, present in factors:
        weights = np.outer(weights, (absent, present)).ravel()
    return weights


# -- one polynomial at a time ---------------------------------------------


def poly_from_dict(nvars: int, coeffs: dict) -> SymPoly:
    """SymPoly from ``{frozenset of variables: coefficient}``, in canonical order."""
    order = sorted(coeffs, key=lambda m: (len(m), sorted(m)))
    return SymPoly(
        nvars, [sum(1 << j for j in m) for m in order], [coeffs[m] for m in order]
    )


def poly_as_dict(p: SymPoly) -> dict:
    """``{frozenset of variables: coefficient}`` of a SymPoly."""
    return {
        frozenset(j for j in range(p.nvars) if pattern >> j & 1): c
        for pattern, c in zip(p.patterns.tolist(), p.coeffs.tolist())
    }


def poly_coefficients_exact(program: Program, flags, decimal: bool = True):
    """(coefficients, scales) of ``poly_from_world_flags``, exact, indexed by pattern.

    World by world in rational arithmetic: each flagged world adds the
    product of its fixed facts' factors to its learnable pattern's
    entry c_b, and the signed subset sum gives coefficient t.
    ``scales[t]`` is Σ_{b⊆t} |c_b|.  With ``decimal`` each probability
    is the decimal the program states, ``Fraction(repr(p))``, so a
    cancellation such as 0.3·0.2 against 0.06 is exactly zero.
    Otherwise it is the float's own value, with ``1 − p`` rounded as in
    the package, which leaves only the package's rounding in products
    and sums between its coefficients and these.
    """
    facts = program.prob_facts
    n = len(facts)
    learnable = program.learnable_indices()
    table = [Fraction(0)] * (1 << len(learnable))
    for w in np.flatnonzero(np.asarray(flags, dtype=bool)).tolist():
        weight, pattern = Fraction(1), 0
        for j, pf in enumerate(facts):
            present = w >> (n - 1 - j) & 1
            if pf.learnable:
                pattern |= present << learnable.index(j)
            elif decimal:
                p = Fraction(repr(pf.prob))
                weight *= p if present else 1 - p
            else:
                weight *= Fraction(pf.prob if present else 1.0 - pf.prob)
        table[pattern] += weight
    coeffs, scales = list(table), [abs(c) for c in table]
    for k in range(len(learnable)):
        for t in range(len(table)):
            if t >> k & 1:
                coeffs[t] -= coeffs[t ^ 1 << k]
                scales[t] += scales[t ^ 1 << k]
    return coeffs, scales


def poly_from_world_flags_ref(program: Program, flags) -> SymPoly:
    """``sympoly.poly_from_world_flags`` from per-world tables, 2^n each.

    World i's learnable pattern (bit k = learnable k) and its fixed-fact
    weight ``k_w`` are decoded from its index; ``np.add.at`` then sums
    each pattern's weights in world order, a butterfly per variable
    gives the Möbius table, and the canonical patterns are gathered out
    of it with the same drop test.  The package's coefficients must
    equal these byte for byte.
    """
    mask = np.asarray(flags, dtype=bool)
    facts = program.prob_facts
    n = len(facts)
    idx = np.arange(1 << n, dtype=np.int64)
    patterns = np.zeros(1 << n, dtype=np.int64)
    learnable = program.learnable_indices()
    for k, j in enumerate(learnable):
        patterns |= ((idx >> (n - 1 - j)) & 1) << k
    k_w = world_weights_ref(
        [(1.0, 1.0) if pf.learnable else (1.0 - pf.prob, pf.prob) for pf in facts]
    )
    nvars = len(learnable)
    every = np.arange(1 << nvars, dtype=np.int64)
    popcount = np.zeros_like(every)
    reversed_bits = np.zeros_like(every)
    for j in range(nvars):
        bit = every >> j & 1
        popcount += bit
        reversed_bits |= bit << (nvars - 1 - j)
    order = every[np.lexsort((-reversed_bits, popcount))]
    arr = np.zeros(1 << nvars)
    np.add.at(arr, patterns[mask], k_w[mask])
    scale = np.abs(arr)
    for k in range(nvars):
        arr = arr.reshape(-1, 2, 1 << k)
        arr[:, 1, :] -= arr[:, 0, :]
        scale = scale.reshape(-1, 2, 1 << k)
        scale[:, 1, :] += scale[:, 0, :]
    coeffs = arr.reshape(-1)[order]
    tol = (n + nvars + 2.0 ** (n - nvars)) * 2.0**-53
    keep = np.abs(coeffs) > tol * scale.reshape(-1)[order]
    return SymPoly(nvars, order[keep], coeffs[keep])


@lru_cache(maxsize=64)
def _poly_arrays(p):
    """(coefs, flat var indices, segment offsets, segment lengths).

    Cached per polynomial object (a SymPoly hashes by identity), so that
    the reference learner does not rebuild them at every call.
    """
    coeffs = poly_as_dict(p)
    order = sorted(coeffs, key=lambda m: (len(m), sorted(m)))
    coefs = np.array([coeffs[m] for m in order], dtype=float)
    flat: list[int] = []
    offsets: list[int] = []
    for mono in order:
        offsets.append(len(flat))
        flat.extend(sorted(mono) or [p.nvars])
    lengths = np.diff(offsets + [len(flat)])
    return coefs, np.array(flat, dtype=np.intp), np.array(offsets, dtype=np.intp), lengths


def poly_eval_ref(p, theta, absolute: bool = False) -> float:
    """p(theta); with ``absolute``, p with every coefficient replaced by its magnitude."""
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (p.nvars,)
    if not len(p.coeffs):
        return 0.0
    coefs, flat, offsets, _ = _poly_arrays(p)
    ext = np.append(theta, 1.0)
    prods = np.multiply.reduceat(ext[flat], offsets)
    return float((np.abs(coefs) if absolute else coefs) @ prods)


def poly_grad_ref(p, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (p.nvars,)
    grad = np.zeros(p.nvars + 1)
    if not len(p.coeffs):
        return grad[: p.nvars]
    coefs, flat, offsets, lengths = _poly_arrays(p)
    ext = np.append(theta, 1.0)
    vals = ext[flat]
    zero = vals == 0.0
    nz_vals = np.where(zero, 1.0, vals)
    seg_nz_prod = np.multiply.reduceat(nz_vals, offsets)
    seg_zeros = np.add.reduceat(zero.astype(np.int64), offsets)
    el_nz_prod = np.repeat(seg_nz_prod, lengths)
    el_zeros = np.repeat(seg_zeros, lengths)
    el_coef = np.repeat(coefs, lengths)
    others = np.where(
        el_zeros == 0,
        el_nz_prod / nz_vals,
        np.where((el_zeros == 1) & zero, el_nz_prod, 0.0),
    )
    np.add.at(grad, flat, el_coef * others)
    return grad[: p.nvars]


def ll_objective_ref(polys, theta, floor_prob: float = 1e-12) -> float:
    # One addition at a time from 0.0: the built-in sum compensates its
    # float additions from Python 3.12 on.
    total = 0.0
    for p in polys:
        total += math.log(max(poly_eval_ref(p, theta), floor_prob))
    return total


def ll_gradient_ref(polys, theta, floor_prob: float = 1e-12) -> np.ndarray:
    grad = np.zeros(len(theta))
    for p in polys:
        v = poly_eval_ref(p, theta)
        if v > floor_prob:
            grad += poly_grad_ref(p, theta) / v
    return grad


def _joint(t: float, p, theta) -> float:
    """t·p(theta) clipped to [0, 1], or 0.0 where p(theta) is zero up to rounding.

    That is a value at most (nvars + monomials)·2^-53 times p's value
    with every coefficient replaced by its magnitude.
    """
    v = poly_eval_ref(p, theta)
    if v <= (p.nvars + len(p.coeffs)) * 2.0**-53 * poly_eval_ref(p, theta, absolute=True):
        return 0.0
    return min(max(t * v, 0.0), 1.0)


def expectations_ref(bounds, theta, target: str, skip_undefined: bool = False):
    """(e0, e1) from (lower, upper) polynomial pairs, one poly_eval at a time.

    Raises :class:`UndefinedConditional` where the E-step does.
    """
    theta = np.asarray(theta, dtype=float)
    L = len(theta)
    at_one = np.tile(theta, (L, 1))
    np.fill_diagonal(at_one, 1.0)
    at_zero = np.tile(theta, (L, 1))
    np.fill_diagonal(at_zero, 0.0)
    e0 = [0.0] * L
    e1 = [0.0] * L
    for low, up in bounds:
        for i, t in enumerate(theta.tolist()):
            low_a = _joint(t, low, at_one[i])
            up_a = _joint(t, up, at_one[i])
            low_na = _joint(1.0 - t, low, at_zero[i])
            up_na = _joint(1.0 - t, up, at_zero[i])
            try:
                cond_a = conditional_from_joints(low_a, up_a, low_na, up_na)
                cond_na = conditional_from_joints(low_na, up_na, low_a, up_a)
            except UndefinedConditional:
                if skip_undefined:
                    continue
                raise
            e1[i] += getattr(cond_a, target)
            e0[i] += getattr(cond_na, target)
    return tuple(e0), tuple(e1)


# -- the multi-start searches, one objective and one gradient call at a time


def gradient_ascent_sequential(lik, x0):
    """``learning._gradient_ascent`` evaluating one step length at a time.

    ``lik`` is a ``learning._Likelihood``; each candidate point takes one
    ``lik.at``.  ``_gradient_ascent`` evaluates its step lengths in
    stacked ladders, with the same test in the same order, so both
    return the same bits.
    """
    x = _clip01(np.asarray(x0, dtype=float))
    ll, point = lik.at(x)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, _MAX_STEPS + 1):
        g = lik.gradient(point)
        xn = _clip01(x + g)
        d = xn - x
        if math.sqrt(d.dot(d)) < _TOL:
            converged = True
            break
        iterations = it
        step = 1.0
        while step > 1e-18:
            lln, point_n = lik.at(xn)
            if lln >= ll and lln >= ll + 1e-4 * float(g @ (xn - x)):
                break
            step *= 0.5
            xn = _clip01(x + step * g)
        else:
            break
        x, ll, point = xn, lln, point_n
        trace.append(ll)
    return x, ll, iterations, converged, trace


def _gradient_ascent_ref(objective, gradient, x0, max_inner=500, tol=1e-6):
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


def _coordinate_search_ref(objective, x0, max_sweeps=500, start_step=0.25, tol=1e-6):
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


def learn_opt_ref(program: Program, interps, cfg) -> LearnResult:
    """``learn_opt`` with every objective and gradient from the one-polynomial formulas."""
    polys = [extract_poly(program, interpretation_query(i), cfg.target) for i in interps]
    nvars = len(program.learnable_indices())

    def objective(theta):
        return ll_objective_ref(polys, theta, cfg.floor_prob)

    def gradient(theta):
        return ll_gradient_ref(polys, theta, cfg.floor_prob)

    starts = [np.array(program.initial_theta())]
    root = SplitMix64(cfg.seed)
    for r in range(1, cfg.restarts):
        gen = root.split(r)
        starts.append(np.array([gen.random() for _ in range(nvars)]))
    best = None
    for x0 in starts:
        if cfg.opt_backend == "gradient":
            run = _gradient_ascent_ref(objective, gradient, x0)
        else:
            run = _coordinate_search_ref(objective, x0)
        if best is None or run[1] > best[1]:
            best = run
    x, ll, iterations, converged, trace = best
    return LearnResult(tuple(float(v) for v in x), ll, iterations, converged, tuple(trace))


def learn_em_ref(program: Program, interps, cfg) -> LearnResult:
    """``learn_em`` with every E-step and log-likelihood from the one-polynomial formulas.

    Raises :class:`UndefinedConditional` where ``learn_em`` does (without
    its message).
    """
    queries = [interpretation_query(i) for i in interps]
    lower = [extract_poly(program, q, "lower") for q in queries]
    upper = [extract_poly(program, q, "upper") for q in queries]
    polys = lower if cfg.target == "lower" else upper
    theta = tuple(program.initial_theta())
    ll = ll_objective_ref(polys, theta, cfg.floor_prob)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        e0, e1 = expectations_ref(zip(lower, upper), theta, cfg.target, cfg.skip_undefined)
        theta = em_maximization(EMExpectations(e0, e1), theta)
        prev_ll, ll = ll, ll_objective_ref(polys, theta, cfg.floor_prob)
        trace.append(ll)
        iterations = it
        if abs(ll - prev_ll) < cfg.eps_ll:
            converged = True
            break
    return LearnResult(theta, ll, iterations, converged, tuple(trace))
