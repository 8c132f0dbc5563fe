"""Benchmark-family generators: coloring, path, shop, smoke.

Each family writes its program as text: the learnable facts at a
configurable initial probability (plus smoke's fixed facts), then its
rules.  :func:`generate` parses that text once with
:func:`pasplearn.parsing.parse_program`, so a generated program is
exactly what ``pasplearn learn`` reads back from the ``.pasp`` file that
``pasplearn gen`` writes.  It then draws random partial
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
from numbers import Integral, Real
from typing import Callable

from .errors import GenerationError, SpecOutOfRange
from .grounding import ground
from .model import Interpretation, Literal, Program, format_prob
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
        p = self.init_prob
        if isinstance(p, bool) or not isinstance(p, Real):
            raise SpecOutOfRange(f"init_prob must be a real number, got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise SpecOutOfRange(f"init_prob must be in [0,1], got {p}")


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


def _build_coloring(size: int, learnable: str, rng: SplitMix64) -> str:
    nodes = range(1, size + 1)
    lines = [f"{learnable}::edge({i},{j})." for i in nodes for j in nodes if i < j]
    lines += [f"node({i})." for i in nodes]
    return "\n".join(lines) + _COLORING_RULES


# -- path --------------------------------------------------------------

_PATH_RULES = """
path(X,Y) :- connected(X,Z), path(Z,Y).
path(X,Y) :- connected(X,Y).
connected(X,Y) :- edge(X,Y), not nconnected(X,Y).
nconnected(X,Y) :- edge(X,Y), not connected(X,Y).
"""


def _path_node_count(edges: int) -> int:
    return max(4, 7 * edges // 10 + 1)


def _build_path(size: int, learnable: str, rng: SplitMix64) -> str:
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
    return "\n".join(f"{learnable}::edge({a},{b})." for a, b in edges) + _PATH_RULES


# -- shop ----------------------------------------------------------------

_SHOP_ALTERNATIVES = ("steak", "beans")  # odd persons steak, even persons beans

_SHOP_RULES = """
bought(spaghetti) :- bought(spaghetti,_X).
bought(steak) :- bought(steak,_X).
:- bought(spaghetti), bought(steak).
"""


def _build_shop(size: int, learnable: str, rng: SplitMix64) -> str:
    persons = range(1, size + 1)
    lines = [f"{learnable}::shops(p{i})." for i in persons]
    for i in persons:
        alt = _SHOP_ALTERNATIVES[(i - 1) % 2]
        lines.append(f"bought(spaghetti,p{i}) :- shops(p{i}), not bought({alt},p{i}).")
        lines.append(f"bought({alt},p{i}) :- shops(p{i}), not bought(spaghetti,p{i}).")
    return "\n".join(lines) + _SHOP_RULES


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


def _build_smoke(size: int, learnable: str, rng: SplitMix64) -> str:
    persons = range(1, size + 1)
    lines: list[str] = []
    for i in persons:
        lines += [f"0.1::asthma_f({i}).", f"0.4::asthma_fact({i}).", f"0.3::stress({i})."]
    lines.append("0.2::predisposition.")
    lines += [
        f"{learnable}::influences({i},{j})." for i in persons for j in persons if i != j
    ]
    return "\n".join(lines) + _SMOKE_RULES


# -- the family table ----------------------------------------------------


@dataclass(frozen=True)
class _Family:
    sizes: tuple[int, int]  # accepted sizes, inclusive
    lengths: tuple[int, int]  # interpretation lengths, clipped to the observables
    observables: frozenset[tuple[str, int]]  # (functor, arity) of observable atoms
    build: Callable[[int, str, SplitMix64], str]  # (size, "learnable(p)", rng) -> text


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
    learnable = f"learnable({format_prob(float(spec.init_prob))})"
    program = parse_program(family.build(spec.size, learnable, rng_structure))

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
