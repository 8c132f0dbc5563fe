"""Benchmark-family generators: coloring, path, shop, smoke.

Each family builds a program with learnable facts at a configurable
initial probability plus its fixed rule set, then draws random partial
interpretations over the family's observable atoms (uniform atoms,
uniform sign flips).  Interpretations that no world can satisfy (their
upper probability is zero for every theta) are redrawn, up to 100
attempts each; satisfiability is certified constructively per family
(building a witness world and answer set) so generation never needs to
enumerate worlds — essential for the larger smoke instances whose
probabilistic-fact count exceeds any enumerable cap.

Everything known about a family is one :class:`_Family` row of the
``_FAMILIES`` table: sizes, interpretation lengths, observables,
builder and certifier.

Generation is deterministic: all randomness flows from SplitMix64
streams split off the spec seed (stream 1 = graph structure, stream 2 =
interpretations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import GenerationError, SpecOutOfRange
from .grounding import ground
from .model import Atom, Interpretation, Literal, ProbFact, Program, Rule
from .parsing import parse_program
from .rng import SplitMix64

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


def _coloring_satisfiable(program: Program, interp: Interpretation, size: int) -> bool:
    """Exact: build a coloring + edge set realizing the interpretation.

    Any per-node color choice is an answer set of some world (each node
    is a free 3-way choice; c0..c2/valid then follow), so satisfiability
    reduces to picking compatible colors and, for ``not valid``, one
    same-colorable adjacent pair (the world keeps exactly that edge).
    """
    colors = ("red", "green", "blue")
    forced: dict[int, str] = {}
    banned: dict[int, set[str]] = {}
    want_valid = None
    for lit in interp.literals:
        f = lit.atom.functor
        if f == "valid":
            want_valid = lit.positive
            continue
        node = lit.atom.args[0]
        if lit.positive:
            if forced.get(node, f) != f:
                return False  # two colors forced on one node
            forced[node] = f
        else:
            banned.setdefault(node, set()).add(f)
    for node, bans in banned.items():
        allowed = [c for c in colors if c not in bans]
        if node in forced and forced[node] in bans:
            return False
        if not allowed:
            return False  # all three colors excluded
    if want_valid is False:
        # Need one monochromatic edge: any node pair colorable alike.
        def allows(node: int, c: str) -> bool:
            if node in forced:
                return forced[node] == c
            return c not in banned.get(node, set())

        for a in range(1, size + 1):
            for b in range(a + 1, size + 1):
                if any(allows(a, c) and allows(b, c) for c in colors):
                    return True
        return False
    # valid (or unmentioned) holds in the empty-edge world.
    return True


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
    remaining = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if (a, b) not in set(undirected)
    ]
    undirected.extend(rng.sample(remaining, size - (n - 1)))
    edges = [(a, b) if rng.randint(0, 1) == 0 else (b, a) for a, b in undirected]
    facts = [
        ProbFact(Atom("edge", pair), init_prob, learnable=True) for pair in edges
    ]
    return Program(tuple(facts), parse_program(_PATH_RULES).rules)


def _reachable(adj: dict[int, list[int]], src: int) -> set[int]:
    seen = {src}
    frontier = [src]
    while frontier:
        u = frontier.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _path_satisfiable(program: Program, interp: Interpretation, size: int) -> bool:
    """Witness search: pick the connected-edge subset directly.

    In any world, each included edge independently ends up connected or
    not in some answer set, and path/2 is the reachability closure of
    the connected edges; so satisfiability means choosing an edge subset
    whose closure covers the positive literals and avoids the negative
    ones.  Tries the full set, then a cover built from one shortest path
    per positive literal; a miss regenerates (conservative for rare
    overlapping-route cases).
    """
    edges = [pf.atom.args for pf in program.prob_facts]
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    pos = [l.atom.args for l in interp.literals if l.positive]
    neg = [l.atom.args for l in interp.literals if not l.positive]

    def reaches(frm, to, graph) -> bool:
        # path(a,a) needs a directed cycle through a, not the trivial stay.
        return any(to in _reachable(graph, nxt) for nxt in graph.get(frm, ()))

    def check(graph) -> bool:
        return all(reaches(a, b, graph) for a, b in pos) and not any(
            reaches(a, b, graph) for a, b in neg
        )

    if check(adj):
        return True
    if not all(reaches(a, b, adj) for a, b in pos):
        return False  # some positive literal is impossible in every world
    # Candidate 2: cover positives with one BFS route each, nothing else.
    chosen: set[tuple[int, int]] = set()
    for a, b in pos:
        route = _bfs_route(adj, a, b)
        if route is None:
            return False
        chosen |= set(route)
    sub: dict[int, list[int]] = {}
    for u, v in chosen:
        sub.setdefault(u, []).append(v)
    return check(sub)


def _bfs_route(adj, src, dst):
    """Edge list of a shortest directed path src→dst of length ≥ 1."""
    prev: dict[int, int] = {}
    frontier = []
    for v in adj.get(src, ()):
        if v not in prev:
            prev[v] = src
            frontier.append(v)
    while frontier and dst not in prev:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                # Re-entering src is only useful when closing a cycle.
                if v not in prev and (v != src or v == dst):
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    if dst not in prev:
        return None
    route = []
    node = dst
    while True:
        p = prev[node]
        route.append((p, node))
        if p == src:
            return list(reversed(route))
        node = p


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


def _shop_satisfiable(program: Program, interp: Interpretation, size: int) -> bool:
    """Exact: realizable bought/1 sets are those without both conflict
    products; a witness has one shopper per required product."""
    pos = {l.atom.args[0] for l in interp.literals if l.positive}
    if "spaghetti" in pos and "steak" in pos:
        return False  # the joint constraint kills every such answer set
    return True


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


def _smoke_satisfiable(program: Program, interp: Interpretation, size: int) -> bool:
    # Persons are independent once no influences fact is included:
    # ill(i) is forced by {stress(i), asthma_f(i)} without predisposition
    # and impossible without smokes(i), so every sign pattern over
    # distinct persons has a witness world.
    return True


# -- the family table ----------------------------------------------------


@dataclass(frozen=True)
class _Family:
    sizes: tuple[int, int]  # accepted sizes, inclusive
    lengths: tuple[int, int]  # interpretation lengths, clipped to the observables
    observables: frozenset[tuple[str, int]]  # (functor, arity) of observable atoms
    build: Callable[[int, float, SplitMix64], Program]  # (size, init_prob, rng)
    satisfiable: Callable[[Program, Interpretation, int], bool]  # (program, interp, size)


# Size counts coloring's complete-graph nodes, path's edges, shop's and smoke's people.
_FAMILIES = {
    "coloring": _Family(
        (3, 6),
        (3, 4),
        frozenset({("red", 1), ("green", 1), ("blue", 1), ("valid", 0)}),
        _build_coloring,
        _coloring_satisfiable,
    ),
    "path": _Family((5, 20), (1, 3), frozenset({("path", 2)}), _build_path, _path_satisfiable),
    "shop": _Family((2, 12), (1, 10), frozenset({("bought", 1)}), _build_shop, _shop_satisfiable),
    "smoke": _Family((2, 6), (1, 3), frozenset({("ill", 1)}), _build_smoke, _smoke_satisfiable),
}
FAMILIES = tuple(_FAMILIES)


def generate(spec: DatasetSpec) -> tuple[Program, list[Interpretation]]:
    """Program plus random partial interpretations for a dataset spec."""
    root = SplitMix64(spec.seed)
    rng_structure = root.split(1)
    rng_interp = root.split(2)

    family = _FAMILIES[spec.family]
    program = family.build(spec.size, spec.init_prob, rng_structure)

    observables = [
        a for a in ground(program).atoms if (a.functor, len(a.args)) in family.observables
    ]
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
            interp = Interpretation(literals)
            if family.satisfiable(program, interp, spec.size):
                interps.append(interp)
                break
        else:
            raise GenerationError(
                f"no satisfiable interpretation found in {_MAX_ATTEMPTS} attempts "
                f"for {spec.family}{spec.size} (seed {spec.seed})"
            )
    return program, interps
