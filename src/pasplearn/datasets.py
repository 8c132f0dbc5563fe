"""Benchmark-family generators: coloring, path, shop, smoke.

Each family builds a program with learnable facts at a configurable
initial probability plus its fixed rule set, then draws random partial
interpretations over the family's observable atoms (uniform atoms,
uniform sign flips).  Interpretations that no world can satisfy (their
upper probability is zero for every theta) are redrawn, up to 100
attempts each.  :meth:`pasplearn.stable.StableSolver.satisfiable`
decides each candidate exactly: it keeps one iff some world has an
answer set that satisfies it.  That search leaves the probabilistic
facts open instead of listing the worlds, so the world cap does not
apply and the larger smoke instances, whose fact counts exceed any
enumerable cap, generate as the small ones do.

Everything known about a family is one :class:`_Family` row of the
``_FAMILIES`` table: sizes, interpretation lengths, observables and
builder.

Generation is deterministic: all randomness flows from SplitMix64
streams split off the spec seed (stream 1 = graph structure, stream 2 =
interpretations).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

from .errors import GenerationError, SpecOutOfRange
from .grounding import ground
from .model import Atom, Interpretation, Literal, ProbFact, Program, Rule
from .parsing import parse_program
from .rng import SplitMix64
from .stable import StableSolver

_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class DatasetSpec:
    family: str
    size: int
    num_interpretations: int
    seed: int
    init_prob: float = 0.5

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SpecOutOfRange(f"unknown family {self.family!r}")
        for name in ("size", "num_interpretations", "seed"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, Integral):
                raise SpecOutOfRange(f"{name} must be an integer, got {n!r}")
        lo, hi = _FAMILIES[self.family].sizes
        if not lo <= self.size <= hi:
            raise SpecOutOfRange(
                f"{self.family} size must be in [{lo}, {hi}], got {self.size}"
            )
        if self.num_interpretations < 1:
            raise SpecOutOfRange(
                f"need at least one interpretation, got {self.num_interpretations}"
            )
        if not 0.0 <= self.init_prob <= 1.0:
            raise SpecOutOfRange(f"init_prob must be in [0,1], got {self.init_prob}")


# -- coloring ----------------------------------------------------------

_COLORING_RULES = """
red(X) :- node(X), not green(X), not blue(X).
green(X) :- node(X), not red(X), not blue(X).
blue(X) :- node(X), not red(X), not green(X).
e(X,Y) :- edge(X,Y).
e(Y,X) :- edge(Y,X).
c0 :- e(X,Y), red(X), red(Y).
c1 :- e(X,Y), green(X), green(Y).
c2 :- e(X,Y), blue(X), blue(Y).
valid :- not c0, not c1, not c2.
"""


def _build_coloring(size: int, init_prob: float, rng: SplitMix64) -> Program:
    facts = [
        ProbFact(Atom("edge", (i, j)), init_prob, learnable=True)
        for i in range(1, size + 1)
        for j in range(i + 1, size + 1)
    ]
    rules = [Rule(Atom("node", (i,))) for i in range(1, size + 1)]
    rules.extend(parse_program(_COLORING_RULES).rules)
    return Program(tuple(facts), tuple(rules))


# -- path --------------------------------------------------------------

_PATH_RULES = """
path(X,Y) :- connected(X,Z), path(Z,Y).
path(X,Y) :- connected(X,Y).
connected(X,Y) :- edge(X,Y), not nconnected(X,Y).
nconnected(X,Y) :- edge(X,Y), not connected(X,Y).
"""


def _path_node_count(edges: int) -> int:
    return max(4, 7 * edges // 10 + 1)


def _build_path(size: int, init_prob: float, rng: SplitMix64) -> Program:
    n = _path_node_count(size)
    undirected: list[tuple[int, int]] = []
    # Random recursive tree keeps the graph connected.
    for i in range(2, n + 1):
        undirected.append((rng.randint(1, i - 1), i))
    tree = set(undirected)
    remaining = [
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in tree
    ]
    undirected.extend(rng.sample(remaining, size - (n - 1)))
    edges = [(a, b) if rng.randint(0, 1) == 0 else (b, a) for a, b in undirected]
    facts = [
        ProbFact(Atom("edge", pair), init_prob, learnable=True) for pair in edges
    ]
    return Program(tuple(facts), parse_program(_PATH_RULES).rules)


# -- shop ----------------------------------------------------------------

_SHOP_ALTERNATIVES = ("steak", "beans")  # odd persons steak, even persons beans


def _build_shop(size: int, init_prob: float, rng: SplitMix64) -> Program:
    persons = [f"p{i}" for i in range(1, size + 1)]
    facts = [
        ProbFact(Atom("shops", (p,)), init_prob, learnable=True) for p in persons
    ]
    rules: list[Rule] = []
    for i, person in enumerate(persons, start=1):
        alt = _SHOP_ALTERNATIVES[(i - 1) % 2]
        shops = Literal(Atom("shops", (person,)))
        b_sp = Atom("bought", ("spaghetti", person))
        b_alt = Atom("bought", (alt, person))
        rules.append(Rule(b_sp, (shops, Literal(b_alt, positive=False))))
        rules.append(Rule(b_alt, (shops, Literal(b_sp, positive=False))))
    rules.append(
        Rule(Atom("bought", ("spaghetti",)), (Literal(Atom("bought", ("spaghetti", "_X"))),))
    )
    rules.append(
        Rule(Atom("bought", ("steak",)), (Literal(Atom("bought", ("steak", "_X"))),))
    )
    rules.append(
        Rule(
            None,
            (
                Literal(Atom("bought", ("spaghetti",))),
                Literal(Atom("bought", ("steak",))),
            ),
        )
    )
    return Program(tuple(facts), tuple(rules))


# -- smoke ---------------------------------------------------------------

_SMOKE_RULES = """
smokes(X) :- stress(X).
smokes(X) :- influences(Y, X), smokes(Y).
asthma_rule(X) :- smokes(X), asthma_fact(X).
asthma(X) :- asthma_f(X).
asthma(X) :- asthma_rule(X).
ill(X) :- smokes(X), asthma(X), not n_ill(X).
n_ill(X) :- smokes(X), asthma(X), predisposition, not ill(X).
"""


def _build_smoke(size: int, init_prob: float, rng: SplitMix64) -> Program:
    facts: list[ProbFact] = []
    for i in range(1, size + 1):
        facts.append(ProbFact(Atom("asthma_f", (i,)), 0.1))
        facts.append(ProbFact(Atom("asthma_fact", (i,)), 0.4))
        facts.append(ProbFact(Atom("stress", (i,)), 0.3))
    facts.append(ProbFact(Atom("predisposition"), 0.2))
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i != j:
                facts.append(
                    ProbFact(Atom("influences", (i, j)), init_prob, learnable=True)
                )
    return Program(tuple(facts), parse_program(_SMOKE_RULES).rules)


# -- the family table ----------------------------------------------------


@dataclass(frozen=True)
class _Family:
    sizes: tuple[int, int]  # accepted sizes, inclusive
    lengths: tuple[int, int]  # interpretation lengths, clipped to the observables
    observables: frozenset[tuple[str, int]]  # (functor, arity) of observable atoms
    build: Callable[[int, float, SplitMix64], Program]  # (size, init_prob, rng)


# Size counts coloring's complete-graph nodes, path's edges, shop's and smoke's people.
_FAMILIES = {
    "coloring": _Family(
        (3, 6),
        (3, 4),
        frozenset({("red", 1), ("green", 1), ("blue", 1), ("valid", 0)}),
        _build_coloring,
    ),
    "path": _Family((5, 20), (1, 3), frozenset({("path", 2)}), _build_path),
    "shop": _Family((2, 12), (1, 10), frozenset({("bought", 1)}), _build_shop),
    "smoke": _Family((2, 6), (1, 3), frozenset({("ill", 1)}), _build_smoke),
}
FAMILIES = tuple(_FAMILIES)


def generate(spec: DatasetSpec) -> tuple[Program, list[Interpretation]]:
    """Program plus random partial interpretations for a dataset spec."""
    root = SplitMix64(spec.seed)
    rng_structure = root.split(1)
    rng_interp = root.split(2)

    family = _FAMILIES[spec.family]
    program = family.build(spec.size, spec.init_prob, rng_structure)

    gp = ground(program)
    solver = StableSolver(gp)
    observables = [a for a in gp.atoms if (a.functor, len(a.args)) in family.observables]
    lo, hi = family.lengths
    hi = min(hi, len(observables))
    lo = min(lo, hi)

    interps: list[Interpretation] = []
    for _ in range(spec.num_interpretations):
        for _attempt in range(_MAX_ATTEMPTS):
            length = rng_interp.randint(lo, hi)
            atoms = rng_interp.sample(observables, length)
            literals = tuple(
                Literal(a, positive=rng_interp.randint(0, 1) == 0) for a in atoms
            )
            if solver.satisfiable((gp.atom_index[l.atom], l.positive) for l in literals):
                interps.append(Interpretation(literals))
                break
        else:
            raise GenerationError(
                f"no satisfiable interpretation found in {_MAX_ATTEMPTS} attempts "
                f"for {spec.family}{spec.size} (seed {spec.seed})"
            )
    return program, interps
