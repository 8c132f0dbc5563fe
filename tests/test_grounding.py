import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasplearn.datasets import _FAMILIES, FAMILIES, DatasetSpec, generate
from pasplearn.errors import HeadIsProbFact, UnsafeRule
from pasplearn.grounding import ground
from pasplearn.parsing import parse_program, program_to_text
from pasplearn.stable import StableSolver

from conftest import stable_models
from oracles import naive_ground, rule_universe, stable_models_brute, worlds_brute
from randprog import random_ground_program, random_var_program


def test_ground_instantiates_over_derivable_atoms():
    gp = ground(parse_program("0.5::p(1).\n0.5::p(2).\nq(X) :- p(X)."))
    heads = {str(r.head) for r in gp.rules}
    assert heads == {"q(1)", "q(2)"}


def test_ground_atom_order_prob_facts_first():
    gp = ground(parse_program("0.5::b.\n0.5::a.\nq :- a, not c.\nc :- b."))
    assert [str(a) for a in gp.atoms[:2]] == ["b", "a"]
    assert gp.prob_atom_ids == (0, 1)
    # dense, gap-free indexing
    assert sorted(gp.atom_index.values()) == list(range(gp.n_atoms))


def test_unsafe_head_variable():
    with pytest.raises(UnsafeRule) as exc:
        ground(parse_program("q(X) :- not p(X)."))
    assert exc.value.variable == "X"


def test_unsafe_negated_variable():
    with pytest.raises(UnsafeRule):
        ground(parse_program("0.5::p(1).\nq :- p(1), not r(Y)."))


def test_instantiated_head_hitting_prob_fact_rejected():
    with pytest.raises(HeadIsProbFact):
        ground(parse_program("0.5::p(1).\n0.5::q.\np(X) :- e(X).\ne(1)."))


def test_irrelevant_rules_dropped():
    # r's body can never be derived, so no instance of it survives.
    gp = ground(parse_program("0.5::a.\nq :- a.\nr(X) :- zz(X)."))
    assert all(r.head is None or r.head.functor != "r" for r in gp.rules)


@given(st.integers(min_value=0, max_value=5_000))
def test_grounding_ground_programs_is_identity(seed):
    program = random_ground_program(seed)
    gp = ground(program)
    kept = set(gp.rules)
    assert kept <= set(program.rules)
    # only rules the relevance filter can discard may be missing
    assert len(kept) <= len(set(program.rules))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=5_000))
def test_ground_models_match_naive_grounding(seed):
    """Relevance filtering must not change any world's stable models."""
    program = random_var_program(seed)
    gp = ground(program)
    naive_rules = naive_ground(program)
    prob_atoms = {pf.atom for pf in program.prob_facts}
    universe = rule_universe(naive_rules, prob_atoms)
    if len(universe) > 10:
        return
    solved = StableSolver(gp).all_worlds()
    for bits, chosen, _p in worlds_brute(program):
        world = [pf.atom for pf, b in zip(program.prob_facts, bits) if b]
        fast = set(stable_models(gp, world, solved))
        brute = {frozenset(m) for m in stable_models_brute(naive_rules, chosen, universe)}
        assert fast == brute


# SHA-256 of repr((program, rules, atoms, prob_atom_ids)) after parsing
# the text of every family's three smallest sizes (seeds 0-2) and of
# random_var_program seeds 0-499.  It pins rule and atom order, which
# fix the solver's bit layout.
_FRONT_END_DIGEST = "5625443147f145b0447c39559bc9eb6b0a8f4881987b60c393f14c51cd8a744f"


def test_front_end_output_matches_recorded_digest():
    texts = []
    for family in FAMILIES:
        lo = _FAMILIES[family].sizes[0]
        for size in range(lo, lo + 3):
            for seed in range(3):
                texts.append(program_to_text(generate(DatasetSpec(family, size, 10, seed))[0]))
    texts += [program_to_text(random_var_program(seed)) for seed in range(500)]
    digest = hashlib.sha256()
    for text in texts:
        program = parse_program(text)
        gp = ground(program)
        digest.update(repr((program, gp.rules, gp.atoms, gp.prob_atom_ids)).encode())
    assert digest.hexdigest() == _FRONT_END_DIGEST
