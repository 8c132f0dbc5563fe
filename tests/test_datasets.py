import hashlib

import numpy as np
import pytest

from pasplearn.credal import check_consistency, credal_query, world_models
from pasplearn.datasets import DatasetSpec, generate
from pasplearn.errors import SpecOutOfRange
from pasplearn.grounding import ground
from pasplearn.model import Literal, query_from_literals
from pasplearn.parsing import interpretations_to_text, parse_program, program_to_text
from pasplearn.rng import SplitMix64
from pasplearn.stable import StableSolver

LENGTH_RANGES = {"coloring": (3, 4), "path": (1, 3), "shop": (1, 10), "smoke": (1, 3)}
OBSERVABLES = {  # (functor, arity)
    "coloring": {("red", 1), ("green", 1), ("blue", 1), ("valid", 0)},
    "path": {("path", 2)},
    "shop": {("bought", 1)},
    "smoke": {("ill", 1)},
}


def _signature(atom):
    return atom.functor, len(atom.args)


def spec(family, size, n=5, seed=0, init=0.5):
    return DatasetSpec(family, size, n, seed, init)


def test_size_bounds_enforced():
    for family, bad in (("coloring", 7), ("path", 4), ("shop", 13), ("smoke", 1)):
        with pytest.raises(SpecOutOfRange):
            spec(family, bad)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("parity", 3, 5, 0)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("path", 5, 0, 0)
    with pytest.raises(SpecOutOfRange):
        DatasetSpec("path", 5, 5, 0, init_prob=1.5)


_BAD_INTEGERS = [1.5, 4.0, True, False, "4", None]


def _spec_with(**field):
    args = {"family": "shop", "size": 4, "num_interpretations": 3, "seed": 1} | field
    return DatasetSpec(**args)


def _assert_integer_field(name: str) -> None:
    for bad in _BAD_INTEGERS:
        with pytest.raises(SpecOutOfRange, match=f"^{name} must be an integer, got {bad!r}$"):
            _spec_with(**{name: bad})
    good = _spec_with(**{name: np.int64(2)})  # numpy integers are integers
    assert generate(good) == generate(_spec_with(**{name: 2}))


def test_size_must_be_an_integer():
    _assert_integer_field("size")


def test_num_interpretations_must_be_an_integer():
    _assert_integer_field("num_interpretations")


def test_seed_must_be_an_integer():
    _assert_integer_field("seed")
    assert generate(_spec_with(seed=-1)) != generate(_spec_with(seed=1))


@pytest.mark.parametrize(
    "bad",
    [True, False, "0.5", None, 0.5j, np.True_],
    ids=["True", "False", "str", "None", "complex", "numpy-bool"],
)
def test_init_prob_must_be_real(bad):
    with pytest.raises(SpecOutOfRange, match=f"^init_prob must be a real number, got {bad!r}$"):
        _spec_with(init_prob=bad)


_SIZE_EDGES = [
    ("coloring", 3), ("coloring", 6), ("path", 5), ("path", 20),
    ("shop", 2), ("shop", 12), ("smoke", 2), ("smoke", 6),
]


@pytest.mark.parametrize(
    "init", [0.5, 0.123456789, 1, np.float32(0.1)], ids=["half", "nine-digits", "int", "float32"]
)
def test_generated_program_is_its_text(init):
    # Facts carry Python floats, and the .pasp text reads back as the program.
    for family, size in _SIZE_EDGES:
        program, _ = generate(spec(family, size, n=3, init=init))
        assert all(type(pf.prob) is float for pf in program.prob_facts)
        assert {pf.prob for pf in program.learnable_facts()} == {float(init)}
        assert repr(parse_program(program_to_text(program))) == repr(program)


def test_coloring_shape():
    program, interps = generate(spec("coloring", 4, n=10, seed=7))
    learnables = program.learnable_facts()
    assert len(learnables) == 6  # complete K4
    assert all(pf.atom.functor == "edge" for pf in learnables)
    proper_rules = [r for r in program.rules if r.body]
    assert len(proper_rules) == 9
    node_facts = [r for r in program.rules if not r.body and r.head is not None]
    assert [str(r.head) for r in node_facts] == ["node(1)", "node(2)", "node(3)", "node(4)"]
    assert len(interps) == 10


def test_path_shape_and_connectivity():
    program, _ = generate(spec("path", 10, seed=3))
    edges = [pf.atom.args for pf in program.learnable_facts()]
    assert len(edges) == 10
    # undirected traversal reaches every node
    nodes = {u for e in edges for u in e}
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, frontier = {next(iter(nodes))}, [next(iter(nodes))]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert seen == nodes


def test_shop_shape():
    program, _ = generate(spec("shop", 4, seed=1))
    assert len(program.learnable_facts()) == 4
    constraint = [r for r in program.rules if r.head is None]
    assert len(constraint) == 1
    # persons alternate between steak and beans alternatives
    alts = {
        r.head.args[0]
        for r in program.rules
        if r.head is not None and r.head.functor == "bought" and len(r.head.args) == 2
    }
    assert alts == {"spaghetti", "steak", "beans"}


def test_smoke_shape():
    program, _ = generate(spec("smoke", 3, seed=2))
    learnables = program.learnable_facts()
    assert len(learnables) == 6  # ordered person pairs
    assert all(pf.atom.functor == "influences" for pf in learnables)
    fixed = [pf for pf in program.prob_facts if not pf.learnable]
    assert len(fixed) == 10  # 3 per person + predisposition
    assert {pf.prob for pf in fixed} == {0.1, 0.4, 0.3, 0.2}


def test_interpretation_lengths_and_observables():
    for family, size in (("coloring", 4), ("path", 8), ("shop", 5), ("smoke", 4)):
        program, interps = generate(spec(family, size, n=8, seed=11))
        lo, hi = LENGTH_RANGES[family]
        # generate clips the range to the number of observable ground atoms.
        observable = [a for a in ground(program).atoms if _signature(a) in OBSERVABLES[family]]
        h = min(hi, len(observable))
        for interp in interps:
            assert min(lo, h) <= len(interp.literals) <= h
            assert {_signature(l.atom) for l in interp.literals} <= OBSERVABLES[family]
            atoms = [l.atom for l in interp.literals]
            assert len(set(atoms)) == len(atoms)  # no contradictions possible


def test_generation_deterministic():
    a = generate(spec("path", 7, n=6, seed=123))
    b = generate(spec("path", 7, n=6, seed=123))
    assert a == b
    c = generate(spec("path", 7, n=6, seed=124))
    assert c != a


def test_init_prob_applied_to_learnables_only():
    program, _ = generate(spec("smoke", 2, seed=0, init=0.25))
    assert all(pf.prob == 0.25 for pf in program.learnable_facts())
    assert all(pf.prob != 0.25 for pf in program.prob_facts if not pf.learnable)


def test_generated_programs_consistent():
    for family, size in (("coloring", 3), ("path", 6), ("shop", 3), ("smoke", 2)):
        program, _ = generate(spec(family, size, n=3, seed=5))
        assert check_consistency(program) == 0


def test_generated_interpretations_possible():
    # every interpretation must have positive upper probability
    for family, size in (("coloring", 4), ("path", 7), ("shop", 4), ("smoke", 2)):
        program, interps = generate(spec(family, size, n=6, seed=9))
        for interp in interps:
            q = query_from_literals(interp.literals)
            assert credal_query(program, q).upper > 0.0, f"{family}: {interp}"


_ENUMERABLE_CELLS = (
    [("coloring", n) for n in (3, 4)]
    + [("path", n) for n in range(5, 9)]
    + [("shop", n) for n in range(2, 7)]
    + [("smoke", n) for n in (2, 3)]
)


@pytest.mark.parametrize(
    "family,size", _ENUMERABLE_CELLS, ids=[f"{f}{n}" for f, n in _ENUMERABLE_CELLS]
)
def test_satisfiable_equals_world_pass(family, size):
    # Random literal sets over the observables, rejected ones included:
    # the existence search must agree with the all-worlds pass.
    program, _ = generate(spec(family, size, n=1))
    gp = ground(program)
    solver = StableSolver(gp)
    wm = world_models(program)
    observable = [a for a in gp.atoms if _signature(a) in OBSERVABLES[family]]
    rng = SplitMix64(size)
    answers = set()
    for _ in range(100):
        atoms = rng.sample(observable, rng.randint(1, min(4, len(observable))))
        literals = [Literal(a, positive=rng.randint(0, 1) == 0) for a in atoms]
        possible = wm.satisfaction(query_from_literals(literals))[1].any()
        got = solver.satisfiable([(gp.atom_index[l.atom], l.positive) for l in literals])
        assert got == possible, literals
        answers.add(got)
    # Every sign pattern of ill/1 over distinct persons has a witness.
    assert answers == ({True} if family == "smoke" else {True, False})


# SHA-256 of program_to_text + interpretations_to_text, 10 interpretations:
# init_prob 0.5 at each family's smallest and largest size, and 0.123456789
# at every size, so a fact or rule out of order in any builder shows.  A
# change to the generator must leave every dataset byte-for-byte as it is.
_DATASET_DIGESTS = {
    ("coloring", 3, 0, 0.5): "5ca610e1707e320a9c41ba0a46da743c3f945c67758d045247eeacac1b33b12a",
    ("coloring", 3, 1, 0.5): "8e66f24c71c2819160cf1cf6ef09837f6274548e6b0120ad2e5e8afdf5113154",
    ("coloring", 6, 0, 0.5): "71561c1ad566dcb564e8be367f49a5536732855dac8cf7c0b00f1aad29093406",
    ("coloring", 6, 1, 0.5): "fa0db80bae3a0fd611577701cb982739f3195302df781934042444ecdfda7e30",
    ("path", 5, 0, 0.5): "c20f5bd690531e511fa4e98b1b750882d80d0cdcc063a2c3c71b915f9c78ffc9",
    ("path", 5, 1, 0.5): "98528204b797e5cb24562ebd88159f6db78157c21a4d01bab4d37e1819b3cfc9",
    ("path", 20, 0, 0.5): "feb76efa42711704d2cf27ce1ea35212817d61d5fb8abaa1756f440ac047ae63",
    ("path", 20, 1, 0.5): "2efd98834c956bb45de0d1540e162f7556a75bb47d7f5f0b5f6b7408c71ca4c1",
    ("shop", 2, 0, 0.5): "6f794ef1c93823512fe201925fb04a23b95252723bb5d4f9812910e3043c559a",
    ("shop", 2, 1, 0.5): "2d01607cf0ccbc8bb7bf560d9c729efa1dd9237afc2b86572c166c8c5baf4184",
    ("shop", 12, 0, 0.5): "7aa48d893bdeb031dc380a64ea303745d61da4268d5b35224e5799460db43788",
    ("shop", 12, 1, 0.5): "ac2018122bc29cfbfc275b98887dddb203208c776540397b0decba67c897fd3a",
    ("smoke", 2, 0, 0.5): "f10438c546f371836fb9caaf3433f68d832e2aa792f2942d4cda19ae5ccf6e16",
    ("smoke", 2, 1, 0.5): "4c40e92988d61c216f0560443db8ac7fa6d1f62b455d1d919f92f8d70d4d64e6",
    ("smoke", 6, 0, 0.5): "2d9f3ae630a07abfdb6428b4ceb121188a86c7805b641dda96cda62c6a58b0d6",
    ("smoke", 6, 1, 0.5): "2452aabd404f363ada7c34c41270f82828f0e90373f37d36d0174d4cc4b10639",
    ("coloring", 3, 0, 0.123456789): "d31ca7e81911fb457746d2fe9ad3583fdb8d8e382cb365377980bf1eeb65309e",
    ("coloring", 4, 0, 0.123456789): "6bd6de3fd81f4cc1c736c9f57aff51f5f26493170c468dc6f64057bacef51c8a",
    ("coloring", 5, 0, 0.123456789): "6b7224371e4788f55c7cb95b5a53e8acf07d3c40fb65c964aa01381253ab2a15",
    ("coloring", 6, 0, 0.123456789): "4b350bfc9c7101065e7f7ba2c688993f26caebeaba3f9678a79f8feeb78c5bf2",
    ("path", 5, 0, 0.123456789): "2791b2f8a15d0bb66704244cdca0fdff4999ef5876f8d85d01a9e47ac335b53b",
    ("path", 6, 0, 0.123456789): "22b131321787b9cd327999f66b841138642d11fbb6f9c41a593919b6f7cf8ae7",
    ("path", 7, 0, 0.123456789): "9626f420a20dda62a29cd49aa94d6bb78fabeeb7e06566d44a971bf265b6b7b6",
    ("path", 8, 0, 0.123456789): "9c656f3c6532dd907ce607f1017d487348621f34e2de7a32873378456f12a0e2",
    ("path", 9, 0, 0.123456789): "0080d896594b2d0d311f49d89a14e4daa128b76a0faa268903e3114581774045",
    ("path", 10, 0, 0.123456789): "aeecb5ed12519e1dd655ade1e7dec0b2a0e7a36b0874b78d246dbd332280f526",
    ("path", 11, 0, 0.123456789): "d9ccdc8569d98af8e39ab21bc1ba206ad8004c4ede0ca892637a08ef2aae0c23",
    ("path", 12, 0, 0.123456789): "07e82e79ecdf0ee7e3d00dd65e9ae546da5ead9f861a1abd90535e1d1578aa5c",
    ("path", 13, 0, 0.123456789): "c2c039fb89e82b8b950f31db36732a151de659d5b28c926c6e8b449d45c686d9",
    ("path", 14, 0, 0.123456789): "fe5a971e4320c1c6efd60c1fb1799f15509d92651715ac62a7522d87ae002c62",
    ("path", 15, 0, 0.123456789): "2455c73733c0555c59d318111d0ba2f9057c92df606ff58d3a436d08c5c33ae4",
    ("path", 16, 0, 0.123456789): "d8ea72462d8d949c3d2a43109b15f2e0d5805eb4dbe3cf7578533e9477df3d2a",
    ("path", 17, 0, 0.123456789): "605c4960b91759236e56397a09a59cd37da34c637f2fbf94a68242322afd246c",
    ("path", 18, 0, 0.123456789): "d257aeeb3c1b94a878dff3b6d2d561378de29ab2858a94b02968ce62f572502c",
    ("path", 19, 0, 0.123456789): "22cdce23ccd3e2fba54047a2257b1014f8e943b06e2f0ff976a1b6b6559ce484",
    ("path", 20, 0, 0.123456789): "0272aba1d9a89363cdb3ecee23d4c15673462f0bacbbfe426465c2cf2f221145",
    ("shop", 2, 0, 0.123456789): "ffe027aa23441922b51ec9ae6550db28ef456c594bd1e88a362b0e74293cf54b",
    ("shop", 3, 0, 0.123456789): "0144b3f0422b5dd0754dca5f7e909cfca59689a912cc81b29cb457de94774428",
    ("shop", 4, 0, 0.123456789): "32a1008c9f148a77ba97a5121df145a5792186fb01a4fd283f63c592f863993a",
    ("shop", 5, 0, 0.123456789): "c2fe94e5a079af9a4ce960e8657978823712b00306e74b02ead1b527ffa096b4",
    ("shop", 6, 0, 0.123456789): "5c37c316427bdfdcaa4c24682287556bffdcbf513a0dda466fe4c597dfb0052d",
    ("shop", 7, 0, 0.123456789): "70b4ad05ca1a416d64d09eff36a33e31cdd0e45cb780cc4d95aadc7d658b42d0",
    ("shop", 8, 0, 0.123456789): "7f754b02fda53171d1835c9e77ad74f39c85f3cc693411bca83fff0563142068",
    ("shop", 9, 0, 0.123456789): "8fc0d8474b721f88b1dfa1b0017991dcef9f27e9fc8fd6935ac9f335b1940062",
    ("shop", 10, 0, 0.123456789): "0fa6c0b5ac6ce1db38bb486ed6cae357d91754ee545f4773cc166c9b6d18d493",
    ("shop", 11, 0, 0.123456789): "835aa02272089b200343094afc5017de010e8f4e6654311c325efe81092dee98",
    ("shop", 12, 0, 0.123456789): "1428309737f7744b51cb5de5d1a575e5379255cac323b4d6b5975bbf636d5538",
    ("smoke", 2, 0, 0.123456789): "f72671615cc365874f639de4dfad950f73489d2cbb5741f3aa70ea2b8f75cadf",
    ("smoke", 3, 0, 0.123456789): "19c0ba352ad5e4e1abb08124b7ada6ecad8d025a58d213823fcbd0665b106208",
    ("smoke", 4, 0, 0.123456789): "d747e6b3bff29e63c41ff243437306283e98fe885aa64a2dabf816b7d2561269",
    ("smoke", 5, 0, 0.123456789): "9a313ee9e19017dd88356b32027cb049affedbecf8b0c7a78a6c657138fd8037",
    ("smoke", 6, 0, 0.123456789): "5653ed26e4c342fb6fe48281c260a6c44bec509719308a5ad286ae51acb7c68b",
}


def _digest_id(family, size, seed, init):
    return f"{family}{size}-s{seed}" + ("" if init == 0.5 else f"-p{init}")


@pytest.mark.parametrize(
    "family,size,seed,init", list(_DATASET_DIGESTS), ids=[_digest_id(*k) for k in _DATASET_DIGESTS]
)
def test_generated_datasets_match_digest(family, size, seed, init):
    program, interps = generate(spec(family, size, n=10, seed=seed, init=init))
    text = program_to_text(program) + interpretations_to_text(interps)
    assert hashlib.sha256(text.encode()).hexdigest() == _DATASET_DIGESTS[family, size, seed, init]
