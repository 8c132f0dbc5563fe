"""Exception hierarchy shared across the package.

Every error that callers are expected to catch derives from
:class:`PaspError`.  Parse-time errors carry a :class:`SourceSpan`
pointing at the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """1-based (line, column) position of a token in an input file."""

    line: int
    column: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError(f"source span must be positive, got {self}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class PaspError(Exception):
    """Base class for all library errors."""


class PaspSyntaxError(PaspError):
    """Malformed program or interpretation text."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class DuplicateProbFact(PaspSyntaxError):
    """The same ground atom was declared probabilistic twice."""


class ProbOutOfRange(PaspSyntaxError):
    """A probability annotation falls outside [0, 1]."""


class HeadIsProbFact(PaspSyntaxError):
    """A probabilistic atom appears as a rule head."""


class NonGroundInterpretation(PaspSyntaxError):
    """An interpretation literal contains variables."""


class ContradictoryInterpretation(PaspSyntaxError):
    """An atom occurs both as true and as false in one interpretation."""


class UnsafeRule(PaspError):
    """A head or negated-body variable does not occur in a positive body literal."""

    def __init__(self, rule, variable: str):
        self.rule = rule
        self.variable = variable
        super().__init__(f"unsafe rule (variable {variable!r} unbound): {rule}")


class CapExceeded(PaspError):
    """The program has more probabilistic facts than the world cap allows."""

    def __init__(self, n_facts: int, cap: int):
        self.n_facts = n_facts
        self.cap = cap
        super().__init__(
            f"{n_facts} probabilistic facts exceed the world cap {cap} "
            f"(2^{n_facts} worlds); set PASP_WORLD_CAP to raise it"
        )


class InconsistentWorld(PaspError):
    """A world has no answer set, so credal bounds are undefined."""

    def __init__(self, world_index: int, selection: tuple[int, ...]):
        self.world_index = world_index
        self.selection = selection
        super().__init__(
            f"world w{world_index} (selection {''.join(map(str, selection))}) "
            f"has no answer set"
        )


class UndefinedConditional(PaspError):
    """Both joint upper bounds are zero: the conditional has no value."""

    def __init__(self, context: str = ""):
        self.context = context
        msg = "conditional probability is undefined (evidence has zero upper probability)"
        if context:
            msg = f"{msg}: {context}"
        super().__init__(msg)


class NoLearnableFacts(PaspError):
    """Learning was requested for a program without learnable facts."""


class SpecOutOfRange(PaspError):
    """A dataset specification is malformed or violates its family's bounds."""


class GenerationError(PaspError):
    """Dataset generation failed (e.g. no satisfiable interpretation found)."""
