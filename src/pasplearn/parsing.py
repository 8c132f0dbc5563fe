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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<NUMBER>\d+\.\d+|\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<DCOLON>::)
  | (?P<IMPL>:-)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = first_line, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PaspSyntaxError(
                f"unexpected character {text[pos]!r}", SourceSpan(line, col)
            )
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, lexeme, SourceSpan(line, col)))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self._anon_counter = 0

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _peek_kind(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.tokens[i].kind if i < len(self.tokens) else None

    def _last_span(self) -> SourceSpan:
        if self.tokens:
            return self.tokens[min(self.pos, len(self.tokens) - 1)].span
        return SourceSpan(1, 1)

    def _advance(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise PaspSyntaxError("unexpected end of input", self._last_span())
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok is None:
            raise PaspSyntaxError(f"expected {what}, found end of input", self._last_span())
        if tok.kind != kind:
            raise PaspSyntaxError(f"expected {what}, found {tok.text!r}", tok.span)
        return self._advance()

    @property
    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- grammar productions -------------------------------------------

    def _fresh_anon(self) -> str:
        self._anon_counter += 1
        return f"_G{self._anon_counter}"

    def _parse_term(self) -> Term:
        tok = self._advance()
        if tok.kind == "NUMBER":
            if "." in tok.text:
                raise PaspSyntaxError("non-integer term", tok.span)
            return int(tok.text)
        if tok.kind == "NAME":
            if tok.text == "_":
                # Anonymous variables are distinct per occurrence.
                return self._fresh_anon()
            return tok.text
        raise PaspSyntaxError(f"expected term, found {tok.text!r}", tok.span)

    def _parse_atom(self) -> Atom:
        tok = self._expect("NAME", "predicate name")
        if tok.text == "not" or tok.text == "_":
            raise PaspSyntaxError(f"{tok.text!r} is not a valid predicate", tok.span)
        if tok.text[0].isupper():
            raise PaspSyntaxError(
                f"predicate {tok.text!r} may not start uppercase", tok.span
            )
        args: list[Term] = []
        if self._peek_kind() == "LPAREN":
            self._advance()
            args.append(self._parse_term())
            while self._peek_kind() == "COMMA":
                self._advance()
                args.append(self._parse_term())
            self._expect("RPAREN", "')'")
        return Atom(tok.text, tuple(args))

    def _parse_literal(self) -> Literal:
        tok = self._peek()
        if tok is not None and tok.kind == "NAME" and tok.text == "not":
            self._advance()
            return Literal(self._parse_atom(), positive=False)
        return Literal(self._parse_atom(), positive=True)

    def _parse_body(self) -> tuple[Literal, ...]:
        body = [self._parse_literal()]
        while self._peek_kind() == "COMMA":
            self._advance()
            body.append(self._parse_literal())
        return tuple(body)

    def _parse_number(self, what: str) -> tuple[float, SourceSpan]:
        tok = self._expect("NUMBER", what)
        return float(tok.text), tok.span

    def _at_learnable_decl(self) -> bool:
        """Lookahead: ``learnable::`` or ``learnable(<number>)::``."""
        tok = self._peek()
        if tok is None or tok.kind != "NAME" or tok.text != "learnable":
            return False
        if self._peek_kind(1) == "DCOLON":
            return True
        return (
            self._peek_kind(1) == "LPAREN"
            and self._peek_kind(2) == "NUMBER"
            and self._peek_kind(3) == "RPAREN"
            and self._peek_kind(4) == "DCOLON"
        )

    def _prob_fact(self, prob: float, span: SourceSpan, learnable: bool) -> ProbFact:
        """The ``:: atom.`` tail of a probabilistic fact; errors point at ``span``."""
        self._expect("DCOLON", "'::'")
        atom = self._parse_atom()
        self._expect("DOT", "'.'")
        if not (0.0 <= prob <= 1.0):
            raise ProbOutOfRange(f"probability {prob} outside [0,1]", span)
        if not atom.is_ground:
            raise PaspSyntaxError(f"probabilistic fact {atom} must be ground", span)
        return ProbFact(atom, prob, learnable=learnable)

    def parse_statement(self):
        """One statement: returns a ProbFact or a Rule."""
        tok = self._peek()
        assert tok is not None
        if tok.kind == "NUMBER":
            prob, span = self._parse_number("probability")
            return self._prob_fact(prob, span, learnable=False)
        if self._at_learnable_decl():
            span = self._advance().span  # 'learnable'
            prob = 0.5
            if self._peek_kind() == "LPAREN":
                self._advance()
                prob, span = self._parse_number("initial probability")
                self._expect("RPAREN", "')'")
            return self._prob_fact(prob, span, learnable=True)
        if tok.kind == "IMPL":
            self._advance()
            body = self._parse_body()
            self._expect("DOT", "'.'")
            return Rule(None, body)
        head = self._parse_atom()
        if self._peek_kind() == "IMPL":
            self._advance()
            body = self._parse_body()
            self._expect("DOT", "'.'")
            return Rule(head, body)
        self._expect("DOT", "'.'")
        return Rule(head, ())


def parse_program(text: str) -> Program:
    """Parse program text into a :class:`Program`.

    Probabilistic facts keep declaration order (which fixes both world
    bit positions and learnable parameter indices).
    """
    parser = _Parser(_tokenize(text))
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


def _parse_conjunction(tokens: list[_Token]) -> tuple[Literal, ...]:
    parser = _Parser(tokens)
    body = parser._parse_body()
    if parser._peek_kind() == "DOT":
        parser._advance()
    if not parser.done:
        tok = parser._peek()
        raise PaspSyntaxError(f"trailing input {tok.text!r}", tok.span)
    return body


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
    """Parse an interpretation file: one conjunction of ground literals per line."""
    out: list[Interpretation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, first_line=lineno)
        if not tokens:
            continue
        literals = _parse_conjunction(tokens)
        out.append(_check_interpretation(literals, lineno))
    return out


def parse_query(text: str) -> tuple[Literal, ...]:
    """Parse a CLI query/evidence string: ground literals, comma-separated."""
    tokens = _tokenize(text)
    if not tokens:
        raise PaspSyntaxError("empty query", SourceSpan(1, 1))
    literals = _parse_conjunction(tokens)
    for lit in literals:
        if not lit.atom.is_ground:
            raise PaspSyntaxError(f"query literal {lit} contains variables", SourceSpan(1, 1))
    return literals


def program_to_text(program: Program) -> str:
    return str(program) + "\n"


def interpretations_to_text(interps) -> str:
    return "".join(str(i) + "\n" for i in interps)
