"""Exact credal inference by world enumeration.

Every total choice over the probabilistic facts is one world; a query's
lower probability sums the worlds where *all* answer sets satisfy it,
the upper probability the worlds where *some* answer set does.  The
semantics requires every world to have at least one answer set;
evaluation fails fast with :class:`InconsistentWorld` on the first
world violating this (:func:`check_consistency` counts them instead).

The per-world answer sets depend only on the program structure, not on
the probability values, so they are computed once per program and
reused across queries, bounds, parameter values, and learning passes.
Every number then follows from per-world flags: a bound is the dot
product of the flags with the world weights of :func:`world_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, InconsistentWorld, UndefinedConditional
from .grounding import GroundProgram, ground
from .model import Program, Query, world_cap
from .stable import StableSolver


@dataclass(frozen=True)
class CredalBounds:
    lower: float
    upper: float

    def __iter__(self):
        return iter((self.lower, self.upper))


@dataclass(eq=False)
class WorldModels:
    """All answer sets of all worlds, in world-index order.

    ``model_masks[i]`` holds the stable models of world ``i``, sorted
    ascending and possibly empty (:meth:`raise_if_inconsistent` fails
    fast on such a world, :func:`check_consistency` counts them).  A
    model is an atom mask: ground atom ``k`` of ``gp`` is in it iff bit
    ``n_atoms - 1 - k`` is set.
    """

    program: Program
    gp: GroundProgram
    model_masks: tuple[tuple[int, ...], ...]
    _support: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        return self.gp.n_atoms

    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per world: learnable inclusion pattern and fixed-fact product.

        ``patterns[i]`` packs the learnable facts included in world ``i``
        (bit k = learnable k, declaration order); ``k_w[i]`` is the
        product of the fixed facts' probability factors.
        """
        if self._support is None:
            facts = self.program.prob_facts
            n = len(facts)
            idx = np.arange(1 << n, dtype=np.int64)
            patterns = np.zeros(1 << n, dtype=np.int64)
            k = 0
            for j, pf in enumerate(facts):
                if pf.learnable:
                    patterns |= ((idx >> (n - 1 - j)) & 1) << k
                    k += 1
            k_w = world_weights(
                [(1.0, 1.0) if pf.learnable else (1.0 - pf.prob, pf.prob) for pf in facts]
            )
            self._support = (patterns, k_w)
        return self._support

    def raise_if_inconsistent(self) -> None:
        """Raise :class:`InconsistentWorld` on the first world without answer sets."""
        try:
            i = self.model_masks.index(())
        except ValueError:
            return
        n = self.program.n_prob_facts
        raise InconsistentWorld(i, tuple(i >> (n - 1 - j) & 1 for j in range(n)))

    def query_masks(self, query: Query) -> tuple[int, int, bool]:
        """(positive mask, negative mask, satisfiable) for mask testing.

        Query atoms outside the relevant ground base are never true in
        any model: a positive occurrence makes the query unsatisfiable,
        a negative occurrence is vacuously satisfied and dropped.
        """
        n = self.n_atoms
        idx = self.gp.atom_index
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

    def satisfaction(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Per-world flags (all answer sets satisfy, some answer set satisfies).

        Raises :class:`InconsistentWorld` on the first world without
        answer sets.
        """
        self.raise_if_inconsistent()
        pos_mask, neg_mask, possible = self.query_masks(query)
        n_worlds = len(self.model_masks)
        all_sat = bytearray(n_worlds)
        some_sat = bytearray(n_worlds)
        if possible:
            for i, masks in enumerate(self.model_masks):
                every, some = True, False
                for m in masks:
                    if m & pos_mask == pos_mask and m & neg_mask == 0:
                        some = True
                    else:
                        every = False
                all_sat[i] = every
                some_sat[i] = some
        return np.frombuffer(all_sat, dtype=bool), np.frombuffer(some_sat, dtype=bool)


@lru_cache(maxsize=8)
def _world_models(program: Program) -> WorldModels:
    gp = ground(program)
    solver = StableSolver(gp)
    masks = tuple(solver.models_for_world(i) for i in range(1 << program.n_prob_facts))
    return WorldModels(program, gp, masks)


def world_models(program: Program) -> WorldModels:
    """Cached all-worlds answer-set pass for a program.

    Raises :class:`CapExceeded`, before any world is solved, when the
    program has more probabilistic facts than :func:`world_cap` allows.
    """
    n, cap = program.n_prob_facts, world_cap()
    if n > cap:
        raise CapExceeded(n, cap)
    return _world_models(program)


def world_weights(factors) -> np.ndarray:
    """Product measure of every world, in world-index order.

    ``factors[j]`` is the pair (weight when fact ``j`` is excluded,
    weight when it is included); world ``i`` weighs the product of its
    facts' entries.  ``(1−p_j, p_j)`` pairs give P(w); a ``(1, 1)`` pair
    leaves fact ``j`` out of the product.
    """
    weights = np.ones(1)
    # Fact 0 is the most significant bit of the world index.
    for absent, present in factors:
        weights = np.outer(weights, (absent, present)).ravel()
    return weights


def _probability_weights(program: Program, theta=None) -> np.ndarray:
    """P(w) for every world; ``theta`` overrides the learnable probabilities."""
    probs = [pf.prob for pf in program.prob_facts]
    if theta is not None:
        for t, j in zip(theta, program.learnable_indices()):
            probs[j] = float(t)
    return world_weights([(1.0 - p, p) for p in probs])


def credal_query(program: Program, q: Query, theta=None) -> CredalBounds:
    """Lower/upper probability of a conjunctive query."""
    all_sat, some_sat = world_models(program).satisfaction(q)
    weights = _probability_weights(program, theta)
    return CredalBounds(float(weights @ all_sat), float(weights @ some_sat))


def conditional_flags(
    wm: WorldModels, q: Query, e: Query
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-world flags (all q∧e, some q∧e, all ¬q∧e, some ¬q∧e).

    ¬q of a conjunction is not itself a conjunction, so the complement
    flags are computed directly from per-model satisfaction.
    """
    wm.raise_if_inconsistent()
    q_pos, q_neg, q_possible = wm.query_masks(q)
    e_pos, e_neg, e_possible = wm.query_masks(e)
    n = len(wm.model_masks)
    flags = tuple(bytearray(n) for _ in range(4))
    all_qe_f, some_qe_f, all_nqe_f, some_nqe_f = flags
    for i, masks in enumerate(wm.model_masks):
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
    return tuple(np.frombuffer(f, dtype=bool) for f in flags)


def _conditional_joints(
    program: Program, q: Query, e: Query, theta=None
) -> tuple[float, float, float, float]:
    """(lowP(q,e), upP(q,e), lowP(¬q,e), upP(¬q,e))."""
    flags = conditional_flags(world_models(program), q, e)
    weights = _probability_weights(program, theta)
    return tuple(float(weights @ flag) for flag in flags)


def conditional_from_joints(
    low_qe: float, up_qe: float, low_nqe: float, up_nqe: float, context: str = ""
) -> CredalBounds:
    """Conditional bounds from the four joint bounds, with the
    degenerate clauses: a zero lower denominator with positive joint
    upper forces the bound to 1 (resp. 0), and the conditional is
    undefined when both joint uppers vanish."""
    if up_qe == 0.0 and up_nqe == 0.0:
        raise UndefinedConditional(context)
    denom_low = low_qe + up_nqe
    if denom_low > 0.0:
        lower = low_qe / denom_low
    else:
        lower = 1.0  # up_qe > 0 here since the undefined case was excluded
    denom_up = up_qe + low_nqe
    if denom_up > 0.0:
        upper = up_qe / denom_up
    else:
        upper = 0.0  # up_nqe > 0 here
    return CredalBounds(lower, upper)


def credal_conditional(program: Program, q: Query, e: Query, theta=None) -> CredalBounds:
    """Conditional lower/upper probability of q given evidence e."""
    joints = _conditional_joints(program, q, e, theta)
    return conditional_from_joints(*joints, context=f"{q} | {e}")


def check_consistency(program: Program) -> int:
    """Number of worlds with no answer set (0 = semantics applies)."""
    return world_models(program).model_masks.count(())
