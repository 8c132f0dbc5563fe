"""Variable instantiation: from a program with variables to a ground one.

Grounding is relevance-filtered: variables only bind to atoms that are
bottom-up derivable (seeded by deterministic facts and probabilistic
atoms, iterated to fixpoint, treating negated literals as
always-possibly-true).  Atoms that can never be derived are false in
every stable model, so instances pruned this way cannot change the
answer sets; the property suite cross-checks this against a naive
full-instantiation grounder.

Body literals that are already ground are kept without a derivability
check, so grounding a ground program is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HeadIsProbFact, UnsafeRule
from .model import Atom, Literal, Program, Rule, Term, is_variable


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """Ground rules over a densely indexed relevant Herbrand base."""

    rules: tuple[Rule, ...]
    atoms: tuple[Atom, ...]
    atom_index: dict[Atom, int]
    prob_atom_ids: tuple[int, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def check_safety(rule: Rule) -> None:
    """Every head / negated-literal variable must occur in a positive literal."""
    bound: set[str] = set()
    for lit in rule.body:
        if lit.positive:
            bound |= lit.atom.variables()
    for var in sorted(rule.variables() - bound):
        raise UnsafeRule(rule, var)


class _CompiledRule:
    """One rule's variables as slots of a value list, worked out once.

    The positive body literals are joined in body order.  A literal with
    a variable that no earlier literal binds is a *join*: it binds its
    new variables from a derivable atom of its functor and arity.  Every
    other positive literal is ground under the binding that reaches it
    and is kept without a derivability check.  Slot ``k`` of ``values``
    holds the ``k``-th variable in binding order; the rule's constants
    follow the slots, so every argument is one index into ``values``.
    """

    def __init__(self, rule: Rule):
        slots: dict[str, int] = {}
        for lit in rule.body:
            if lit.positive:
                for a in lit.atom.args:
                    if is_variable(a):
                        slots.setdefault(a, len(slots))
        self.values: list[Term] = [None] * len(slots)

        def index(term: Term) -> int:
            if is_variable(term):
                return slots[term]
            self.values.append(term)
            return len(self.values) - 1

        def args(atom: Atom) -> tuple[int, ...] | None:
            return None if atom.is_ground else tuple(index(a) for a in atom.args)

        #: Per join: its (functor, arity) and, per argument, (position,
        #: index, whether it binds its slot or compares against it).
        self.joins: list[tuple[tuple[str, int], tuple[tuple[int, int, bool], ...]]] = []
        #: Per body literal: the literal, the join that matched it or -1,
        #: and its argument indices, or None if it is ground as written.
        self.body: list[tuple[Literal, int, tuple[int, ...] | None]] = []
        bound: set[str] = set()
        for lit in rule.body:
            new = lit.atom.variables() - bound if lit.positive else ()
            if not new:
                self.body.append((lit, -1, args(lit.atom)))
                continue
            checks = []
            for pos, a in enumerate(lit.atom.args):
                checks.append((pos, index(a), a in new and a not in bound))
                if a in new:
                    bound.add(a)
            self.body.append((lit, len(self.joins), None))
            self.joins.append(((lit.atom.functor, len(lit.atom.args)), tuple(checks)))
        self.head = rule.head
        self.head_args = None if rule.head is None else args(rule.head)

    def bindings(self, by_key, snapshot, earlier, first: bool):
        """This sweep's new bindings, each as the list of its joined atoms.

        ``values`` holds the binding while a list is yielded.  Atoms of
        key ``k`` at positions below ``snapshot[k]`` are joined.  Those
        below ``earlier[k]`` were joined by the sweep before, so a binding
        that takes only such atoms is skipped, and a rule without joins
        yields once, in the first sweep.
        """
        joins, values = self.joins, self.values
        last = len(joins) - 1
        matched: list[Atom] = [None] * len(joins)

        def walk(level: int, fresh: bool):
            if level > last:
                if fresh:
                    yield matched
                return
            key, checks = joins[level]
            atoms = by_key.get(key, ())
            old = earlier.get(key, 0)
            # With only old atoms before it, the last join must take a new one.
            start = old if level == last and not fresh else 0
            for i in range(start, snapshot.get(key, 0)):
                args = atoms[i].args
                for pos, k, binds in checks:
                    if binds:
                        values[k] = args[pos]
                    elif args[pos] != values[k]:
                        break
                else:
                    matched[level] = atoms[i]
                    yield from walk(level + 1, fresh or i >= old)

        return walk(0, first)

    def instantiate(self, matched: list[Atom]) -> Rule:
        """The ground rule under the current binding.

        A joined literal reuses its matched atom and a literal that is
        ground as written is reused whole.
        """
        get = self.values.__getitem__
        head = self.head
        if self.head_args is not None:
            head = Atom(head.functor, tuple(map(get, self.head_args)))
        body = []
        for lit, join, args in self.body:
            if join >= 0:
                lit = Literal(matched[join])
            elif args is not None:
                lit = Literal(Atom(lit.atom.functor, tuple(map(get, args))), lit.positive)
            body.append(lit)
        return Rule(head, tuple(body))


def ground(program: Program) -> GroundProgram:
    """Instantiate all rules; deterministic output order.

    Sweeps to fixpoint: each sweep joins every rule, in program order,
    against the atoms derivable when the sweep began, in derivation
    order.  A binding whose joined atoms were all derivable a sweep
    earlier was instantiated then, so a sweep enumerates only bindings
    with at least one newer atom, and the ground rules come out in the
    order a full re-enumeration of every sweep would first find them.

    Raises :class:`UnsafeRule` for unsafe rules and
    :class:`HeadIsProbFact` if instantiation puts a probabilistic atom
    in a head position.
    """
    for rule in program.rules:
        check_safety(rule)

    prob_atoms = {pf.atom: None for pf in program.prob_facts}
    # Derivable overapproximation, insertion-ordered for determinism.
    derivable: dict[Atom, None] = dict(prob_atoms)
    for rule in program.rules:
        if rule.is_fact and rule.head.is_ground:
            derivable.setdefault(rule.head, None)
    # The derivable atoms of each (functor, arity), in derivation order.
    by_key: dict[tuple[str, int], list[Atom]] = {}
    for atom in derivable:
        by_key.setdefault((atom.functor, len(atom.args)), []).append(atom)

    ground_rules: dict[Rule, None] = {}
    compiled = [_CompiledRule(rule) for rule in program.rules]
    # Per key, how many atoms the current and the previous sweep join.
    snapshot: dict[tuple[str, int], int] = {}
    first = True
    while True:
        earlier, snapshot = snapshot, {key: len(atoms) for key, atoms in by_key.items()}
        n_derivable = len(derivable)
        for comp in compiled:
            for matched in comp.bindings(by_key, snapshot, earlier, first):
                grule = comp.instantiate(matched)
                n_rules = len(ground_rules)
                ground_rules[grule] = None  # a known rule keeps its place
                if len(ground_rules) == n_rules:
                    continue
                head = grule.head
                if head is not None:
                    if head in prob_atoms:
                        raise HeadIsProbFact(
                            f"probabilistic atom {head} appears as a rule head"
                        )
                    if head not in derivable:
                        derivable[head] = None
                        by_key.setdefault((head.functor, len(head.args)), []).append(head)
        # No new atom: a further sweep would find only known bindings.
        if len(derivable) == n_derivable:
            break
        first = False

    # Dense atom index: probabilistic atoms first (declaration order =
    # world bit order), then first appearance across the ground rules.
    atom_index: dict[Atom, int] = {}
    for atom in prob_atoms:
        atom_index[atom] = len(atom_index)
    for grule in ground_rules:
        if grule.head is not None and grule.head not in atom_index:
            atom_index[grule.head] = len(atom_index)
        for lit in grule.body:
            if lit.atom not in atom_index:
                atom_index[lit.atom] = len(atom_index)

    return GroundProgram(
        rules=tuple(ground_rules),
        atoms=tuple(atom_index),
        atom_index=atom_index,
        prob_atom_ids=tuple(range(len(prob_atoms))),
    )
