"""Text formats: program files (``.pasp``) and interpretation files (``.int``).

Program grammar::

    0.2::edge(1,2).            % fixed probabilistic fact
    learnable::shops(john).    % learnable fact, initial probability 0.5
    learnable(0.7)::a.         % learnable fact, explicit initial probability
    path(X,Y) :- edge(X,Y).    % rule
    :- bought(spaghetti), bought(steak).   % integrity constraint
    person(john).              % deterministic fact

``not `` prefixes negated body literals, identifiers starting with an
uppercase letter are variables, ``_`` is the anonymous variable, and
``%`` starts a comment running to end of line.

Interpretation files hold one partial interpretation per line: a
comma-separated conjunction of ground literals terminated by ``.``,
where ``not a`` places ``a`` in the negative part.

One regex pass turns a text into tokens, each a kind, a lexeme and an
offset into the text.  A :class:`SourceSpan` is computed from a token's
offset only when an error is raised: the line is the first line plus
the newlines before the offset, and the column counts characters
from the last of them.
"""

from __future__ import annotations

import re

from .errors import (
    ContradictoryInterpretation,
    DuplicateProbFact,
    HeadIsProbFact,
    NonGroundInterpretation,
    PaspSyntaxError,
    ProbOutOfRange,
    SourceSpan,
)
from .model import Atom, Interpretation, Literal, ProbFact, Program, Rule, Term

#: One alternative per token kind; whitespace and comments match no group.
#: ``BAD`` takes any other character, so the matches tile the text.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | %[^\n]*
  | (?P<NUMBER>\d+\.\d+|\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<DCOLON>::)
  | (?P<IMPL>:-)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)
#: Kind of the sentinel token that ends every token list.
_END = "END"


def _span(text: str, offset: int, first_line: int) -> SourceSpan:
    """1-based line and column of ``offset``; only errors ask for one."""
    return SourceSpan(
        first_line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)
    )


class _Parser:
    """Recursive-descent parser over one text's tokens.

    The tokens are three parallel lists, kind, text and offset, ended by
    an ``_END`` sentinel, so lookahead needs no bounds check.  The
    sentinel's offset is the input's length, so an error at end of input
    points at the end of the input.
    """

    def __init__(self, text: str, first_line: int = 1):
        self.source = text
        self.first_line = first_line
        kinds: list[str] = []
        texts: list[str] = []
        offsets: list[int] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "BAD":
                raise PaspSyntaxError(
                    f"unexpected character {m.group()!r}",
                    _span(text, m.start(), first_line),
                )
            kinds.append(kind)
            texts.append(m.group())
            offsets.append(m.start())
        kinds.append(_END)
        texts.append("")
        offsets.append(len(text))
        self.kinds, self.texts, self.offsets = kinds, texts, offsets
        self.pos = 0
        self._anon_counter = 0

    # -- token plumbing ------------------------------------------------

    def _span_at(self, i: int) -> SourceSpan:
        return _span(self.source, self.offsets[i], self.first_line)

    def _peek_kind(self, offset: int = 0) -> str:
        return self.kinds[self.pos + offset]

    def _advance(self) -> int:
        """Consume one token and return its index."""
        i = self.pos
        if self.kinds[i] == _END:
            raise PaspSyntaxError("unexpected end of input", self._span_at(i))
        self.pos = i + 1
        return i

    def _expect(self, kind: str, what: str) -> int:
        i = self.pos
        found = self.kinds[i]
        if found == _END:
            raise PaspSyntaxError(f"expected {what}, found end of input", self._span_at(i))
        if found != kind:
            raise PaspSyntaxError(f"expected {what}, found {self.texts[i]!r}", self._span_at(i))
        self.pos = i + 1
        return i

    @property
    def done(self) -> bool:
        return self.kinds[self.pos] == _END

    # -- grammar productions -------------------------------------------

    def _fresh_anon(self) -> str:
        self._anon_counter += 1
        return f"_G{self._anon_counter}"

    def _parse_term(self) -> Term:
        i = self._advance()
        kind, text = self.kinds[i], self.texts[i]
        if kind == "NUMBER":
            if "." in text:
                raise PaspSyntaxError("non-integer term", self._span_at(i))
            return int(text)
        if kind == "NAME":
            if text == "_":
                # Anonymous variables are distinct per occurrence.
                return self._fresh_anon()
            return text
        raise PaspSyntaxError(f"expected term, found {text!r}", self._span_at(i))

    def _parse_atom(self) -> Atom:
        i = self._expect("NAME", "predicate name")
        name = self.texts[i]
        if name == "not" or name == "_":
            raise PaspSyntaxError(f"{name!r} is not a valid predicate", self._span_at(i))
        if name[0].isupper():
            raise PaspSyntaxError(
                f"predicate {name!r} may not start uppercase", self._span_at(i)
            )
        args: list[Term] = []
        if self.kinds[self.pos] == "LPAREN":
            self.pos += 1
            args.append(self._parse_term())
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self._parse_term())
            self._expect("RPAREN", "')'")
        return Atom(name, tuple(args))

    def _parse_literal(self) -> Literal:
        if self.texts[self.pos] == "not" and self.kinds[self.pos] == "NAME":
            self.pos += 1
            return Literal(self._parse_atom(), positive=False)
        return Literal(self._parse_atom(), positive=True)

    def _parse_body(self) -> tuple[Literal, ...]:
        body = [self._parse_literal()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            body.append(self._parse_literal())
        return tuple(body)

    def _parse_number(self, what: str) -> tuple[float, int]:
        """A number and its token index."""
        i = self._expect("NUMBER", what)
        return float(self.texts[i]), i

    def _at_learnable_decl(self) -> bool:
        """Lookahead: ``learnable::`` or ``learnable(<number>)::``.

        The chain stops at the first mismatch, so it never reads past
        the ``_END`` sentinel.
        """
        if self.texts[self.pos] != "learnable" or self._peek_kind() != "NAME":
            return False
        if self._peek_kind(1) == "DCOLON":
            return True
        return (
            self._peek_kind(1) == "LPAREN"
            and self._peek_kind(2) == "NUMBER"
            and self._peek_kind(3) == "RPAREN"
            and self._peek_kind(4) == "DCOLON"
        )

    def _prob_fact(self, prob: float, at: int, learnable: bool) -> ProbFact:
        """The ``:: atom.`` tail of a probabilistic fact; errors point at token ``at``."""
        self._expect("DCOLON", "'::'")
        atom = self._parse_atom()
        self._expect("DOT", "'.'")
        if not (0.0 <= prob <= 1.0):
            raise ProbOutOfRange(f"probability {prob} outside [0,1]", self._span_at(at))
        if not atom.is_ground:
            raise PaspSyntaxError(
                f"probabilistic fact {atom} must be ground", self._span_at(at)
            )
        return ProbFact(atom, prob, learnable=learnable)

    def parse_statement(self):
        """One statement: returns a ProbFact or a Rule."""
        kind = self._peek_kind()
        if kind == "NUMBER":
            prob, at = self._parse_number("probability")
            return self._prob_fact(prob, at, learnable=False)
        if self._at_learnable_decl():
            at = self._advance()  # 'learnable'
            prob = 0.5
            if self._peek_kind() == "LPAREN":
                self.pos += 1
                prob, at = self._parse_number("initial probability")
                self._expect("RPAREN", "')'")
            return self._prob_fact(prob, at, learnable=True)
        if kind == "IMPL":
            self.pos += 1
            body = self._parse_body()
            self._expect("DOT", "'.'")
            return Rule(None, body)
        head = self._parse_atom()
        if self._peek_kind() == "IMPL":
            self.pos += 1
            body = self._parse_body()
            self._expect("DOT", "'.'")
            return Rule(head, body)
        self._expect("DOT", "'.'")
        return Rule(head, ())

    def parse_conjunction(self) -> tuple[Literal, ...]:
        """Comma-separated literals, an optional ``.``, then end of input."""
        body = self._parse_body()
        if self._peek_kind() == "DOT":
            self.pos += 1
        if not self.done:
            raise PaspSyntaxError(
                f"trailing input {self.texts[self.pos]!r}", self._span_at(self.pos)
            )
        return body


def parse_program(text: str) -> Program:
    """Parse program text into a :class:`Program`.

    Probabilistic facts keep declaration order (which fixes both world
    bit positions and learnable parameter indices).
    """
    parser = _Parser(text)
    prob_facts: list[ProbFact] = []
    seen: dict[Atom, int] = {}
    rules: list[Rule] = []
    while not parser.done:
        stmt = parser.parse_statement()
        if isinstance(stmt, ProbFact):
            if stmt.atom in seen:
                raise DuplicateProbFact(
                    f"atom {stmt.atom} declared probabilistic twice"
                )
            seen[stmt.atom] = len(prob_facts)
            prob_facts.append(stmt)
        else:
            rules.append(stmt)
    for rule in rules:
        if rule.head is not None and rule.head in seen:
            raise HeadIsProbFact(
                f"probabilistic atom {rule.head} appears as a rule head"
            )
    return Program(tuple(prob_facts), tuple(rules))


def _check_interpretation(literals: tuple[Literal, ...], line: int) -> Interpretation:
    span = SourceSpan(line, 1)
    pos, neg = set(), set()
    for lit in literals:
        if not lit.atom.is_ground:
            raise NonGroundInterpretation(
                f"interpretation literal {lit} contains variables", span
            )
        (pos if lit.positive else neg).add(lit.atom)
    if pos & neg:
        culprit = sorted(pos & neg, key=str)[0]
        raise ContradictoryInterpretation(
            f"atom {culprit} occurs both positively and negatively", span
        )
    return Interpretation(literals)


def parse_interpretations(text: str) -> list[Interpretation]:
    """Parse an interpretation file: one conjunction of ground literals per line.

    Only a line feed ends a line; other line breaks are whitespace.
    """
    out: list[Interpretation] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parser = _Parser(raw, first_line=lineno)
        if parser.done:
            continue
        out.append(_check_interpretation(parser.parse_conjunction(), lineno))
    return out


def parse_query(text: str) -> tuple[Literal, ...]:
    """Parse a CLI query/evidence string: ground literals, comma-separated."""
    parser = _Parser(text)
    if parser.done:
        raise PaspSyntaxError("empty query", SourceSpan(1, 1))
    literals = parser.parse_conjunction()
    for lit in literals:
        if not lit.atom.is_ground:
            raise PaspSyntaxError(f"query literal {lit} contains variables", SourceSpan(1, 1))
    return literals


def program_to_text(program: Program) -> str:
    return str(program) + "\n"


def interpretations_to_text(interps) -> str:
    return "".join(str(i) + "\n" for i in interps)
