import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pasplearn.errors import (
    ContradictoryInterpretation,
    DuplicateProbFact,
    HeadIsProbFact,
    NonGroundInterpretation,
    PaspError,
    PaspSyntaxError,
    ProbOutOfRange,
    SourceSpan,
)
from pasplearn.model import Atom, Literal, format_prob
from pasplearn.parsing import (
    interpretations_to_text,
    parse_interpretations,
    parse_program,
    parse_query,
    program_to_text,
)

from randprog import random_ground_program, random_var_program


def test_parse_basic_program():
    p = parse_program("0.4::a.\nlearnable(0.7)::b.\nq :- a, not b.\n:- q, b.")
    assert p.n_prob_facts == 2
    assert p.prob_facts[0].prob == 0.4 and not p.prob_facts[0].learnable
    assert p.prob_facts[1].learnable and p.prob_facts[1].prob == 0.7
    assert len(p.rules) == 2
    assert p.rules[1].head is None


def test_learnable_without_initial_prob_defaults_to_half():
    p = parse_program("learnable::coin.")
    assert p.prob_facts[0].prob == 0.5
    assert p.prob_facts[0].learnable


def test_comments_and_whitespace_ignored():
    p = parse_program("% intro\n0.4::a. % trailing\n\n  q :- a.\n")
    assert p.n_prob_facts == 1 and len(p.rules) == 1


def test_arity_overloading_allowed():
    p = parse_program("0.2::f(1).\nq :- f(1), not f(1,2).\n0.3::f(1,2).")
    assert {str(pf.atom) for pf in p.prob_facts} == {"f(1)", "f(1,2)"}


def test_duplicate_prob_fact_rejected():
    with pytest.raises(DuplicateProbFact):
        parse_program("0.4::a.\n0.5::a.")


def test_prob_out_of_range_rejected():
    with pytest.raises(ProbOutOfRange) as exc:
        parse_program("1.5::a.")
    assert exc.value.span == SourceSpan(1, 1)
    with pytest.raises(ProbOutOfRange) as exc:
        parse_program("learnable(1.01)::a.")
    assert exc.value.span == SourceSpan(1, 11)


def test_boundary_probabilities_accepted():
    p = parse_program("0.0::a.\n1.0::b.")
    assert [pf.prob for pf in p.prob_facts] == [0.0, 1.0]


def test_prob_fact_as_head_rejected():
    with pytest.raises(HeadIsProbFact):
        parse_program("0.4::a.\na :- b.")


def test_nonground_prob_fact_rejected():
    for text, column in [
        ("0.4::f(X).", 1),
        ("learnable::f(X).", 1),
        ("learnable(0.3)::f(X).", 11),
    ]:
        with pytest.raises(PaspSyntaxError, match="must be ground") as exc:
            parse_program(text)
        assert exc.value.span == SourceSpan(1, column)


def test_syntax_error_carries_position():
    with pytest.raises(PaspSyntaxError) as exc:
        parse_program("0.4::a.\nq :- ,")
    assert exc.value.span is not None
    assert exc.value.span.line == 2


def test_uppercase_functor_rejected():
    with pytest.raises(PaspSyntaxError):
        parse_program("q :- Foo.")


def test_parse_interpretations_lines():
    interps = parse_interpretations("a, not b.\n% comment line\nc.\n")
    assert len(interps) == 2
    assert str(interps[0]) == "a,not b."
    assert len(interps[1]) == 1


@pytest.mark.parametrize(
    "brk",
    ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\r"],
    ids=["form-feed", "vertical-tab", "file-separator", "next-line", "line-separator", "cr"],
)
def test_interpretation_lines_end_at_newline_only(brk):
    # Any other line break is whitespace, as it is to the program parser.
    assert parse_interpretations(f"a,{brk}b.\n") == parse_interpretations("a, b.\n")
    assert len(parse_interpretations(f"a.\r\n{brk}\nb.\r\n")) == 2


def test_interpretation_must_be_ground():
    with pytest.raises(NonGroundInterpretation):
        parse_interpretations("f(X).")


def test_interpretation_contradiction_rejected():
    with pytest.raises(ContradictoryInterpretation):
        parse_interpretations("a, not a.")


def test_parse_query_handles_optional_dot_and_negation():
    lits = parse_query("path(1,4), not edge(2,4).")
    assert lits == parse_query("path(1,4), not edge(2,4)")
    assert [l.positive for l in lits] == [True, False]


def test_parse_query_requires_ground_literals():
    with pytest.raises(PaspSyntaxError):
        parse_query("path(X,4)")


# (name, parser, text, error type, str(error)): positions count from
# 1, lines by "\n" only, and columns by characters, a tab or "\r" as one.
_ERROR_TEXTS = [
    ('comment-lines', parse_program, '% header\n% more\n0.4::a.\nq :- a b.\n',
     PaspSyntaxError, "4:8: expected '.', found 'b'"),
    ('crlf', parse_program, '0.4::a.\r\nq :- a.\r\nr :- q,, a.\r\n',
     PaspSyntaxError, "3:8: expected predicate name, found ','"),
    ('tabs', parse_program, '0.4::a.\n\tq\t:-\ta,\t.\n',
     PaspSyntaxError, "2:10: expected predicate name, found '.'"),
    ('bad-char-mid-line', parse_program, '0.4::a.\nq(1) :- a, r$s.\n',
     PaspSyntaxError, "2:13: unexpected character '$'"),
    ('bad-char-after-comment', parse_program, '% 0.4::a.\n\n  p :- q. % ok\n  @p.\n',
     PaspSyntaxError, "4:3: unexpected character '@'"),
    ('end-of-input', parse_program, '0.4::a.\nq :- a',
     PaspSyntaxError, "2:7: expected '.', found end of input"),
    ('end-of-input-after-comment', parse_program, '0.4::a.\nq :- \n% trailing\n',
     PaspSyntaxError, '4:1: expected predicate name, found end of input'),
    ('prob-out-of-range', parse_program, '% p\n\t1.5::a.\n',
     ProbOutOfRange, '2:2: probability 1.5 outside [0,1]'),
    ('learnable-out-of-range', parse_program, '\r\nlearnable(1.01)::a.\n',
     ProbOutOfRange, '2:11: probability 1.01 outside [0,1]'),
    ('non-integer-term', parse_program, '% x\nq(1.5) :- a.\n',
     PaspSyntaxError, '2:3: non-integer term'),
    ('nonground-prob-fact', parse_program, '0.1::a.\r\n\tlearnable(0.3)::f(X).\r\n',
     PaspSyntaxError, '2:12: probabilistic fact f(X) must be ground'),
    ('uppercase-predicate', parse_program, 'a.\n  q :- Foo.\n',
     PaspSyntaxError, "2:8: predicate 'Foo' may not start uppercase"),
    ('duplicate-prob-fact', parse_program, '0.4::a.\n0.5::a.\n',
     DuplicateProbFact, 'atom a declared probabilistic twice'),
    ('head-is-prob-fact', parse_program, '0.4::a.\na :- b.\n',
     HeadIsProbFact, 'probabilistic atom a appears as a rule head'),
    ('interp-line-3', parse_interpretations, 'a, not b.\n% c\nc(1), d(.\n',
     PaspSyntaxError, "3:9: expected term, found '.'"),
    ('interp-line-3-bad-char', parse_interpretations, 'a.\r\nb.\r\nc, #d.\r\n',
     PaspSyntaxError, "3:4: unexpected character '#'"),
    ('interp-line-3-nonground', parse_interpretations, 'a.\n\nf(X), b.\n',
     NonGroundInterpretation, '3:1: interpretation literal f(X) contains variables'),
    ('interp-line-3-contradiction', parse_interpretations, 'a.\nb.\nnot c, c.\n',
     ContradictoryInterpretation, '3:1: atom c occurs both positively and negatively'),
    ('interp-line-3-trailing', parse_interpretations, 'a.\nb.\nc. d.\n',
     PaspSyntaxError, "3:4: trailing input 'd'"),
    ('interp-form-feed-inside-line', parse_interpretations, 'a.\x0cb.\n',
     PaspSyntaxError, "1:4: trailing input 'b'"),
    ('query-empty', parse_query, '  ',
     PaspSyntaxError, '1:1: empty query'),
    ('query-variable', parse_query, 'path(X,4)',
     PaspSyntaxError, '1:1: query literal path(X,4) contains variables'),
    ('query-trailing', parse_query, 'bought(steak) bought(spaghetti)',
     PaspSyntaxError, "1:15: trailing input 'bought'"),
    ('query-bad-char', parse_query, 'bought(steak);',
     PaspSyntaxError, "1:14: unexpected character ';'"),
    ('evidence-end-of-input', parse_query, 'not bought(spaghetti),',
     PaspSyntaxError, '1:23: expected predicate name, found end of input'),
    ('evidence-not-predicate', parse_query, 'not not a',
     PaspSyntaxError, "1:5: 'not' is not a valid predicate"),
]


@pytest.mark.parametrize(
    "parse,text,error,message", [c[1:] for c in _ERROR_TEXTS], ids=[c[0] for c in _ERROR_TEXTS]
)
def test_error_text_is_exact(parse, text, error, message):
    with pytest.raises(PaspError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_format_prob_round_trips(p):
    assert float(format_prob(p)) == p
    assert "e" not in format_prob(p)  # stays inside the grammar


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@example(0.014041700164018955)  # needs 18 places: once printed as 52 characters
@example(1e-20)
def test_format_prob_is_shortest(p):
    assert format_prob(p) == np.format_float_positional(p, unique=True, trim="0")


@given(st.integers(min_value=0, max_value=10_000))
def test_ground_program_text_round_trip(seed):
    program = random_ground_program(seed)
    assert parse_program(program_to_text(program)) == program


@given(st.integers(min_value=0, max_value=10_000))
def test_var_program_text_round_trip(seed):
    program = random_var_program(seed)
    assert parse_program(program_to_text(program)) == program


def test_interpretations_round_trip():
    text = "a, not b.\nc.\n"
    interps = parse_interpretations(text)
    assert parse_interpretations(interpretations_to_text(interps)) == interps


def test_anonymous_variables_are_distinct():
    p = parse_program("q(X) :- e(X,_), f(_).")
    (rule,) = p.rules
    anon = [a for a in rule.variables() if a.startswith("_")]
    assert len(set(anon)) == 2


def test_negated_literal_rendering():
    lit = Literal(Atom("f", (1, "X")), positive=False)
    assert str(lit) == "not f(1,X)"
