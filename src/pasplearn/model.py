"""Core data model: atoms, rules, programs, worlds, interpretations.

A program is a set of probabilistic facts plus a normal logic program.
Each total choice over the probabilistic facts (a *world*) induces an
ordinary answer set program; credal bounds aggregate over worlds.

Conventions used throughout the package:

* Terms are strings or ints.  A string term starting with an uppercase
  letter or ``_`` is a variable; everything else is a constant.  Each
  ``_`` of a text is its own variable, named by
  :func:`anonymous_variable` and printed as ``_``.
* Worlds are numbered by reading the selection vector as a binary
  number, most-significant bit first: world ``i`` includes fact ``j``
  iff bit ``n-1-j`` of ``i`` is set.  World 0 is the empty selection,
  world ``2^n - 1`` includes every probabilistic fact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

import numpy as np

Term = Union[str, int]

#: Default bound on the number of probabilistic facts for exhaustive
#: world enumeration; the PASP_WORLD_CAP environment variable overrides it.
DEFAULT_WORLD_CAP = 24


def is_variable(term: Term) -> bool:
    return isinstance(term, str) and (term[:1].isupper() or term.startswith("_"))


def anonymous_variable(k: int) -> str:
    """The k-th ``_`` of a text: ``#`` keeps the name out of any program's text."""
    return f"_#{k}"


def term_text(term: Term) -> str:
    """A term as program text; an anonymous variable is ``_`` again."""
    return "_" if isinstance(term, str) and term.startswith("_#") else str(term)


@dataclass(frozen=True, order=True)
class Atom:
    functor: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({','.join(map(term_text, self.args))})"

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def variables(self) -> set[str]:
        return {a for a in self.args if is_variable(a)}


@dataclass(frozen=True, order=True)
class Literal:
    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Rule:
    """``head :- body``; ``head is None`` encodes an integrity constraint."""

    head: Atom | None
    body: tuple[Literal, ...] = ()

    def __str__(self) -> str:
        body = ", ".join(str(l) for l in self.body)
        if self.head is None:
            return f":- {body}."
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {body}."

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    def variables(self) -> set[str]:
        out: set[str] = set()
        if self.head is not None:
            out |= self.head.variables()
        for lit in self.body:
            out |= lit.atom.variables()
        return out


def format_prob(p: float) -> str:
    """Shortest fixed-point decimal that round-trips to ``p``.

    ``repr`` gives the shortest round-tripping digits; the program
    grammar has no scientific notation, so :class:`Decimal` writes them
    out without an exponent (``1e-05`` becomes ``0.00001``).
    """
    return format(Decimal(repr(float(p))), "f")


@dataclass(frozen=True)
class ProbFact:
    """A ground probabilistic fact ``p::atom`` with optional learnable flag."""

    atom: Atom
    prob: float
    learnable: bool = False

    def __str__(self) -> str:
        if self.learnable:
            return f"learnable({format_prob(self.prob)})::{self.atom}."
        return f"{format_prob(self.prob)}::{self.atom}."


@dataclass(frozen=True)
class Program:
    """Probabilistic facts (declaration order) plus normal rules.

    The hash is computed once per object: the world-pass cache looks a
    program up on every query and every ``bound_polys`` call, and
    hashing every rule, literal and atom again would cost more than a
    warm query.
    """

    prob_facts: tuple[ProbFact, ...]
    rules: tuple[Rule, ...]

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.prob_facts, self.rules))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # String hashes differ between interpreters; a copy rehashes.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __str__(self) -> str:
        lines = [str(pf) for pf in self.prob_facts]
        lines += [str(r) for r in self.rules]
        return "\n".join(lines)

    @property
    def n_prob_facts(self) -> int:
        return len(self.prob_facts)

    def learnable_indices(self) -> tuple[int, ...]:
        """Indices into ``prob_facts`` of learnable facts, declaration order."""
        return tuple(j for j, pf in enumerate(self.prob_facts) if pf.learnable)

    def learnable_facts(self) -> tuple[ProbFact, ...]:
        return tuple(pf for pf in self.prob_facts if pf.learnable)

    def initial_theta(self) -> tuple[float, ...]:
        return tuple(pf.prob for pf in self.prob_facts if pf.learnable)


def check_theta(program: Program, theta) -> np.ndarray:
    """``theta`` as a float array; ``ValueError`` unless it holds one
    probability in [0, 1] per learnable fact of the program (NaN is none)."""
    theta = np.asarray(theta, dtype=float)
    n = len(program.learnable_indices())
    if theta.shape != (n,):
        raise ValueError(f"expected theta of length {n}, got {theta.shape}")
    if not np.all((theta >= 0.0) & (theta <= 1.0)):
        raise ValueError(f"theta must lie in [0, 1], got {theta.tolist()}")
    return theta


def world_cap() -> int:
    """Effective world cap: PASP_WORLD_CAP if set, else the default.

    Raises ``ValueError`` naming the variable when it is set to anything
    but a non-negative integer.
    """
    env = os.environ.get("PASP_WORLD_CAP")
    if env is None:
        return DEFAULT_WORLD_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"PASP_WORLD_CAP must be a non-negative integer, got {env!r}")
    return cap


@dataclass(frozen=True)
class Interpretation:
    """A partial interpretation: a consistent set of ground literals."""

    literals: tuple[Literal, ...]

    def __str__(self) -> str:
        return ",".join(str(l) for l in self.literals) + "."

    def __len__(self) -> int:
        return len(self.literals)


@dataclass(frozen=True)
class Query:
    """A conjunction of ground literals, split by sign and sorted."""

    positives: tuple[Atom, ...] = ()
    negatives: tuple[Atom, ...] = ()

    def __str__(self) -> str:
        parts = [str(a) for a in self.positives]
        parts += [f"not {a}" for a in self.negatives]
        return ",".join(parts)


def query_from_literals(literals) -> Query:
    pos = sorted({l.atom for l in literals if l.positive}, key=str)
    neg = sorted({l.atom for l in literals if not l.positive}, key=str)
    return Query(tuple(pos), tuple(neg))


def interpretation_query(interp: Interpretation) -> Query:
    """The conjunctive query asserting every literal of the interpretation."""
    return query_from_literals(interp.literals)
