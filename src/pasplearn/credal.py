"""Exact credal inference by world enumeration.

Every total choice over the probabilistic facts is one world; a query's
lower probability sums the worlds where *all* answer sets satisfy it,
the upper probability the worlds where *some* answer set does.  The
semantics requires every world to have at least one answer set;
evaluation fails fast with :class:`InconsistentWorld` on the first
world violating this (:func:`check_consistency` counts them instead).

The per-world answer sets depend only on the program structure, not on
the probability values, so one pass of the solver computes them once
per program, and they are reused across queries, bounds, parameter
values, and learning passes.  They are stored as packed bit rows, one
per answer set, grouped by world.  A query's per-row truth is one
column test per literal, and its per-world flags are ``logical_and``
and ``logical_or`` reductions over each world's rows.  Every number
then follows from per-world flags: a bound is the dot product of the
flags with the world weights of :func:`world_weights`.  P(w) under the
declared probabilities depends only on the program too, so
:attr:`WorldModels.weights` builds it once, on the first query or
conditional that needs it, and keeps it read-only beside the answer
sets; a θ passed explicitly gets freshly built weights.  The cache
keeps the last 8 programs' entries, and :class:`WorldModels` lists the
tables each one holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, InconsistentWorld, UndefinedConditional
from .grounding import GroundProgram, ground
from .model import Program, Query, check_theta, world_cap
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

    ``counts`` and ``rows`` are exactly what
    :meth:`pasplearn.stable.StableSolver.all_worlds` returns; nothing
    converts them.  ``counts`` is an int64 array with one entry per
    world: world ``i`` has ``counts[i]`` answer sets, possibly none
    (:meth:`raise_if_inconsistent` fails fast on such a world,
    :func:`check_consistency` counts them).  ``rows`` is a C-contiguous
    uint8 array of shape ``(counts.sum(), ceil(n_atoms / 8))``, one row
    per answer set.  World ``i``'s are rows ``starts[i]`` to
    ``starts[i] + counts[i] - 1``, in ascending order.  A row packs one
    answer set with ``np.packbits``: ground atom ``k`` of ``gp`` is in
    it iff bit ``0x80 >> (k & 7)`` of byte ``k >> 3`` is set.  The
    index of the first world without answer sets, which
    :meth:`raise_if_inconsistent` reports, is found once, at
    construction.

    An entry holds these tables, for n probabilistic facts (a 2^n table
    of 8-byte entries is 4 KB at n = 9 and 128 MiB at the default cap
    of 24):

    - ``counts`` and ``starts``: int64, 2^n each, from construction.
    - ``rows``: uint8, ``ceil(n_atoms / 8)`` bytes per answer set.
    - :attr:`weights`: P(w) under the declared probabilities, float64,
      2^n, built read-only on the first query or conditional that needs
      it.  The learners never build it.

    All of them leave memory when the entry leaves the cache.
    """

    program: Program
    gp: GroundProgram
    counts: np.ndarray
    rows: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)
    first_empty: int | None = field(init=False, repr=False)

    def __post_init__(self):
        self.starts = np.cumsum(self.counts) - self.counts
        # argmin gives the first world with the fewest answer sets.
        i = int(np.argmin(self.counts))
        self.first_empty = i if self.counts[i] == 0 else None

    @cached_property
    def weights(self) -> np.ndarray:
        """P(w) of every world under the declared probabilities (read-only)."""
        weights = _probability_weights(self.program)
        weights.flags.writeable = False
        return weights

    @property
    def n_atoms(self) -> int:
        return self.gp.n_atoms

    @property
    def model_masks(self) -> tuple[tuple[int, ...], ...]:
        """Every world's answer sets as atom masks, rebuilt on each access.

        Ground atom ``k`` is in a mask iff bit ``n_atoms - 1 - k`` is
        set.  This is a view for inspection and for counting answer
        sets; the package itself reads ``counts`` and ``rows``.
        """
        shift = 8 * self.rows.shape[1] - self.n_atoms
        masks = [int.from_bytes(row, "big") >> shift for row in map(bytes, self.rows)]
        return tuple(
            tuple(masks[s : s + c]) for s, c in zip(self.starts.tolist(), self.counts.tolist())
        )

    def raise_if_inconsistent(self) -> None:
        """Raise :class:`InconsistentWorld` on the first world without answer sets."""
        i = self.first_empty
        if i is None:
            return
        n = self.program.n_prob_facts
        raise InconsistentWorld(i, tuple(i >> (n - 1 - j) & 1 for j in range(n)))

    def satisfying_rows(self, query: Query) -> np.ndarray:
        """Per answer set: does it satisfy the conjunctive query?

        One column test per literal.  Query atoms outside the relevant
        ground base are in no answer set: a positive occurrence makes
        every row fail, a negative one holds in every row.
        """
        idx = self.gp.atom_index
        sat = np.ones(len(self.rows), dtype=bool)
        for atom in query.positives:
            k = idx.get(atom)
            if k is None:
                return np.zeros(len(self.rows), dtype=bool)
            sat &= (self.rows[:, k >> 3] & (0x80 >> (k & 7))) != 0
        for atom in query.negatives:
            k = idx.get(atom)
            if k is not None:
                sat &= (self.rows[:, k >> 3] & (0x80 >> (k & 7))) == 0
        return sat

    def all_and_some(self, row_flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per world: do all of its rows hold, does some row hold?

        Only for a program whose every world has an answer set: the
        reduction over an empty world would read the next world's first
        row, or fail past the last one, so callers check
        :meth:`raise_if_inconsistent` first.
        """
        return (
            np.logical_and.reduceat(row_flags, self.starts),
            np.logical_or.reduceat(row_flags, self.starts),
        )

    def satisfaction(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Per-world flags (all answer sets satisfy, some answer set satisfies).

        Raises :class:`InconsistentWorld` on the first world without
        answer sets.
        """
        self.raise_if_inconsistent()
        return self.all_and_some(self.satisfying_rows(query))


@lru_cache(maxsize=8)
def _world_models(program: Program) -> WorldModels:
    gp = ground(program)
    return WorldModels(program, gp, *StableSolver(gp).all_worlds())


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
    leaves fact ``j`` out of the product.  Each world's product runs in
    fact order, left to right.
    """
    # From the empty product, each fact doubles the table: entry i becomes
    # entries 2i (fact excluded) and 2i+1 (included), so fact 0 ends as
    # the most significant bit of the world index.
    weights = np.ones(1)
    for absent, present in factors:
        doubled = np.empty(2 * len(weights))
        np.multiply(weights, absent, out=doubled[0::2])
        np.multiply(weights, present, out=doubled[1::2])
        weights = doubled
    return weights


def _probability_weights(program: Program, theta=None) -> np.ndarray:
    """P(w) for every world; ``theta`` overrides the learnable probabilities.

    Raises ``ValueError`` unless ``theta`` holds one probability in
    [0, 1] per learnable fact.
    """
    probs = [pf.prob for pf in program.prob_facts]
    if theta is not None:
        for t, j in zip(check_theta(program, theta).tolist(), program.learnable_indices()):
            probs[j] = t
    return world_weights([(1.0 - p, p) for p in probs])


def _weights(wm: WorldModels, theta) -> np.ndarray:
    """The cached P(w), or P(w) built for an explicit ``theta``."""
    return wm.weights if theta is None else _probability_weights(wm.program, theta)


def credal_query(program: Program, q: Query, theta=None) -> CredalBounds:
    """Lower/upper probability of a conjunctive query."""
    wm = world_models(program)
    all_sat, some_sat = wm.satisfaction(q)
    weights = _weights(wm, theta)
    return CredalBounds(float(weights @ all_sat), float(weights @ some_sat))


def conditional_flags(
    wm: WorldModels, q: Query, e: Query
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-world flags (all q∧e, some q∧e, all ¬q∧e, some ¬q∧e).

    ¬q of a conjunction is not itself a conjunction, so the complement
    flags come from the per-answer-set rows: e holds and q does not.
    Raises :class:`InconsistentWorld` on the first world without
    answer sets.
    """
    wm.raise_if_inconsistent()
    sat_e = wm.satisfying_rows(e)
    sat_q = wm.satisfying_rows(q)
    return wm.all_and_some(sat_e & sat_q) + wm.all_and_some(sat_e & ~sat_q)


def conditional_from_joints(
    low_qe: float, up_qe: float, low_nqe: float, up_nqe: float
) -> CredalBounds:
    """Conditional bounds from the four joint bounds, with the
    degenerate clauses: a zero lower denominator with positive joint
    upper forces the bound to 1 (resp. 0), and the conditional is
    undefined when both joint uppers vanish."""
    if up_qe == 0.0 and up_nqe == 0.0:
        raise UndefinedConditional()
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
    wm = world_models(program)
    flags = conditional_flags(wm, q, e)
    weights = _weights(wm, theta)
    try:
        # lowP(q,e), upP(q,e), lowP(¬q,e), upP(¬q,e)
        return conditional_from_joints(*(float(weights @ flag) for flag in flags))
    except UndefinedConditional:
        # Rendering q and e is a sizeable share of a warm conditional; only here.
        raise UndefinedConditional(f"{q} | {e}") from None


def check_consistency(program: Program) -> int:
    """Number of worlds with no answer set (0 = semantics applies)."""
    return int(np.count_nonzero(world_models(program).counts == 0))
