import concurrent.futures
import csv
import json
import os
import subprocess
import sys

import pytest

import pasplearn
from pasplearn import cli
from pasplearn.cli import main
from pasplearn.errors import (
    CapExceeded,
    ContradictoryInterpretation,
    DuplicateProbFact,
    GenerationError,
    HeadIsProbFact,
    InconsistentWorld,
    NoLearnableFacts,
    NonGroundInterpretation,
    PaspSyntaxError,
    ProbOutOfRange,
    SpecOutOfRange,
    UndefinedConditional,
    UnsafeRule,
)
from pasplearn.learning import LEARNERS, LearnConfig, LearnResult
from pasplearn.stable import StableSolver

from conftest import EXAMPLE_GRAPH

COIN = "learnable(0.3)::heads.\n"
COIN_DATA = "heads.\nnot heads.\n"


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.pasp"
    p.write_text(EXAMPLE_GRAPH, encoding="utf-8")
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_infer_text_output(graph_file, capsys):
    assert main(["infer", "--program", graph_file, "--query", "path(1,4)"]) == 0
    assert capsys.readouterr().out == "lower=0.000000 upper=0.060000\n"


def test_infer_conditional(graph_file, capsys):
    rc = main(
        [
            "infer",
            "--program",
            graph_file,
            "--query",
            "path(1,4)",
            "--evidence",
            "edge(2,4)",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == "lower=0.000000 upper=0.200000\n"


def test_infer_json(graph_file, capsys):
    assert main(["infer", "--program", graph_file, "--query", "path(1,4)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"lower": pytest.approx(0.0), "upper": pytest.approx(0.06)}


def test_infer_equations_text(tmp_path, capsys):
    learnable = write(
        tmp_path, "lg.pasp", EXAMPLE_GRAPH.replace("0.2::", "learnable(0.2)::")
    )
    rc = main(
        ["infer", "--program", learnable, "--query", "path(1,4)", "--show-equations"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# p0 = edge(1,2)" in lines
    assert "up(q) = 0.3*p0" in lines  # fixed edge(2,4) folded, edge(1,2) symbolic
    assert lines[-1] == "lower=0.000000 upper=0.060000"


def test_infer_conditional_equations_text(tmp_path, capsys):
    learnable = write(
        tmp_path, "lg.pasp", EXAMPLE_GRAPH.replace("0.2::", "learnable(0.2)::")
    )
    argv = ["infer", "--program", learnable, "--query", "path(1,4)"]
    assert main(argv + ["--evidence", "edge(2,4)", "--show-equations"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# p0 = edge(1,2)",
        "low(q,e) = 0",
        "up(q,e) = 0.3*p0",
        "low(not q,e) = 0.3 - 0.3*p0",
        "up(not q,e) = 0.3",
        "lower=0.000000 upper=0.200000",
    ]


def test_infer_equations_constant_without_learnables(graph_file, capsys):
    rc = main(
        ["infer", "--program", graph_file, "--query", "path(1,4)", "--show-equations"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "up(q) = 0.06" in lines


def test_infer_equations_json_go_to_stderr(graph_file, capsys):
    rc = main(
        [
            "infer",
            "--program",
            graph_file,
            "--query",
            "path(1,4)",
            "--show-equations",
            "--json",
        ]
    )
    assert rc == 0
    out, err = capsys.readouterr()
    json.loads(out)  # stdout stays machine-readable
    assert "up(q) = " in err


def test_infer_parse_error_exit_1(tmp_path, capsys):
    bad = write(tmp_path, "bad.pasp", "0.5::a\n")  # missing final dot
    assert main(["infer", "--program", bad, "--query", "a"]) == 1
    assert "error:" in capsys.readouterr().err


def test_infer_missing_file_exit_1(tmp_path):
    assert main(["infer", "--program", str(tmp_path / "nope.pasp"), "--query", "a"]) == 1


def test_infer_inconsistent_exit_2(tmp_path, capsys):
    prog = write(tmp_path, "incon.pasp", "0.5::a.\n:- a.\n")
    assert main(["infer", "--program", prog, "--query", "a"]) == 2
    assert capsys.readouterr().err == "error: world w1 (selection 1) has no answer set\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["infer", "--program", "p", "--query", "a", "--bogus"], "arguments: --bogus"),
        (["infer", "--program", "p", "--query", "a", "--check"], "arguments: --check"),
        (["learn", "--program", "p", "--interpretations", "d", "--method", "sgd"], "invalid choice"),
        (["learn", "--program", "p", "--interpretations", "d", "--max-iters", "x"], "invalid int"),
        ([], "required: command"),
    ],
    ids=["unknown-option", "removed-check", "bad-choice", "bad-type", "no-command"],
)
def test_usage_errors_exit_1(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pasplearn")
    assert err.splitlines()[-1].startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["learn", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_infer_empty_evidence_exit_1_like_empty_query(tmp_path, capsys):
    prog = write(tmp_path, "ab.pasp", "0.4::a.\nlearnable::b.\nc :- a, b.\n")
    assert main(["infer", "--program", prog, "--query", "", "--evidence", "c"]) == 1
    assert capsys.readouterr().err == "error: --query: 1:1: empty query\n"
    assert main(["infer", "--program", prog, "--query", "c", "--evidence", ""]) == 1
    assert capsys.readouterr().err == "error: --evidence: 1:1: empty query\n"


_ERRORS = [
    (PaspSyntaxError("syntax"), 1),
    (DuplicateProbFact("duplicate"), 1),
    (ProbOutOfRange("range"), 1),
    (HeadIsProbFact("head"), 1),
    (NonGroundInterpretation("ground"), 1),
    (ContradictoryInterpretation("contradiction"), 1),
    (UnsafeRule("a(X) :- not b(X).", "X"), 1),
    (CapExceeded(40, 20), 1),
    (SpecOutOfRange("size"), 1),
    (GenerationError("attempts"), 1),
    (OSError("disk"), 1),
    (ValueError("value"), 1),
    (InconsistentWorld(1, (1,)), 2),
    (UndefinedConditional("q | e"), 3),
    (NoLearnableFacts("none"), 4),
]


@pytest.mark.parametrize(
    "exc,code", _ERRORS, ids=[type(exc).__name__ for exc, _ in _ERRORS]
)
def test_error_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_infer", fail)
    assert main(["infer", "--program", "p.pasp", "--query", "q"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_infer_undefined_conditional_exit_3(tmp_path):
    prog = write(tmp_path, "undef.pasp", "0.5::a.\nq :- a.\n")
    rc = main(["infer", "--program", prog, "--query", "q", "--evidence", "r"])
    assert rc == 3


def test_infer_world_cap_env(graph_file, monkeypatch, capsys):
    monkeypatch.setenv("PASP_WORLD_CAP", "2")
    assert main(["infer", "--program", graph_file, "--query", "path(1,4)"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "PASP_WORLD_CAP" in err
    monkeypatch.setenv("PASP_WORLD_CAP", "3")
    assert main(["infer", "--program", graph_file, "--query", "path(1,4)"]) == 0


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_infer_world_cap_env_rejects_bad_values(graph_file, monkeypatch, capsys, value):
    monkeypatch.setenv("PASP_WORLD_CAP", value)
    assert main(["infer", "--program", graph_file, "--query", "path(1,4)"]) == 1
    assert capsys.readouterr().err == (
        f"error: PASP_WORLD_CAP must be a non-negative integer, got {value!r}\n"
    )


def test_learn_text_output(tmp_path, capsys):
    prog = write(tmp_path, "coin.pasp", COIN)
    data = write(tmp_path, "coin.int", COIN_DATA)
    rc = main(["learn", "--program", prog, "--interpretations", data, "--method", "em"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "heads 0.500000"
    assert lines[1].startswith("finalLL ")
    assert lines[2].startswith("iterations ")
    assert lines[3] in ("converged true", "converged false")


def test_learn_json_schema(tmp_path, capsys):
    prog = write(tmp_path, "coin.pasp", COIN)
    data = write(tmp_path, "coin.int", COIN_DATA)
    rc = main(
        ["learn", "--program", prog, "--interpretations", data, "--json", "--seed", "7"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"params", "finalLL", "iterations", "converged", "llTrace"}
    assert payload["params"] == [{"atom": "heads", "prob": pytest.approx(0.5, abs=1e-3)}]
    assert payload["llTrace"][-1] == payload["finalLL"]


def test_learn_empty_interpretation_file_prints_float_ll(tmp_path, capsys):
    prog = write(tmp_path, "coin.pasp", COIN)
    data = write(tmp_path, "empty.int", "")
    for method, trace in (("em", [0.0, 0.0]), ("opt", [0.0])):
        argv = ["learn", "--program", prog, "--interpretations", data, "--method", method]
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        assert '"finalLL": 0.0' in out
        payload = json.loads(out)
        assert payload["llTrace"] == trace
        assert all(type(v) is float for v in [payload["finalLL"], *payload["llTrace"]])


def test_learn_equations_listed_per_interpretation(tmp_path, capsys):
    prog = write(tmp_path, "coin.pasp", COIN)
    data = write(tmp_path, "coin.int", COIN_DATA)
    rc = main(
        [
            "learn",
            "--program",
            prog,
            "--interpretations",
            data,
            "--show-equations",
            "--method",
            "em",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "upper(I0) = p0" in out
    assert "upper(I1) = 1.0 - p0" in out


def test_learn_defaults_are_learn_config_defaults(tmp_path, monkeypatch):
    seen = []

    def learner(program, interps, cfg):
        seen.append(cfg)
        return LearnResult((0.5,), -1.0, 1, True, (-1.0,))

    for name in LEARNERS:
        monkeypatch.setitem(LEARNERS, name, learner)
    prog = write(tmp_path, "coin.pasp", COIN)
    data = write(tmp_path, "coin.int", COIN_DATA)
    assert main(["learn", "--program", prog, "--interpretations", data]) == 0
    assert seen == [LearnConfig()]


def test_learn_no_learnables_exit_4(tmp_path):
    prog = write(tmp_path, "fixed.pasp", "0.5::a.\n")
    data = write(tmp_path, "fixed.int", "a.\n")
    assert main(["learn", "--program", prog, "--interpretations", data]) == 4


def test_learn_reproducible_json(tmp_path, capsys):
    prog = write(tmp_path, "g.pasp", EXAMPLE_GRAPH.replace("0.2::", "learnable(0.2)::"))
    data = write(tmp_path, "g.int", "path(1,3), not path(1,4).\npath(1,4).\n")
    argv = ["learn", "--program", prog, "--interpretations", data, "--json", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(
        [
            "gen",
            "--family",
            "shop",
            "--size",
            "3",
            "--interpretations",
            "4",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out / "instance.pasp"), str(out / "instance.int")]
    assert (out / "instance.pasp").exists()
    interps = (out / "instance.int").read_text(encoding="utf-8")
    assert len([l for l in interps.splitlines() if l.strip()]) == 4


def test_gen_deterministic_bytes(tmp_path, capsys):
    args = ["gen", "--family", "path", "--size", "6", "--interpretations", "3", "--seed", "9"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    for name in ("instance.pasp", "instance.int"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_bad_size_exit_1(tmp_path, capsys):
    rc = main(
        [
            "gen",
            "--family",
            "path",
            "--size",
            "4",
            "--interpretations",
            "2",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def bench_argv(out, **over):
    opts = {
        "families": "shop",
        "sizes": "2,3",
        "interpretations": "2",
        "methods": "em,opt-gradient",
        "seeds": "0",
        "out": out,
    }
    opts.update(over)
    argv = ["bench"]
    for key, val in opts.items():
        argv += [f"--{key}", str(val)]
    return argv


def test_bench_csv_shape(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(bench_argv(out)) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "family",
        "size",
        "n_interps",
        "method",
        "seed",
        "final_ll",
        "iterations",
        "wall_seconds",
        "converged",
    ]
    assert len(rows) == 1 + 2 * 2  # sizes × methods
    # cartesian order: size-major, then method
    assert [(r[1], r[3]) for r in rows[1:]] == [
        ("2", "em"),
        ("2", "opt-gradient"),
        ("3", "em"),
        ("3", "opt-gradient"),
    ]
    for row in rows[1:]:
        assert row[8] in ("true", "false")
        float(row[5])


def test_bench_failure_becomes_status_row(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(bench_argv(out, sizes="2,99")) == 0  # 99 out of range for shop
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    bad = [r for r in rows[1:] if r[1] == "99"]
    assert len(bad) == 2
    for row in bad:
        assert row[5] == "" and row[6] == ""
        assert row[8] == "SpecOutOfRange"


def test_bench_unknown_method_exit_1(tmp_path, capsys):
    rc = main(bench_argv(str(tmp_path / "x.csv"), methods="annealing"))
    assert rc == 1
    assert "unknown method" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.csv")


def test_bench_parallel_matches_sequential(tmp_path):
    seq = str(tmp_path / "seq.csv")
    par = str(tmp_path / "par.csv")
    assert main(bench_argv(seq)) == 0
    assert main(bench_argv(par) + ["--jobs", "2"]) == 0

    def stable(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return [r[:7] + r[8:] for r in csv.reader(fh)]  # drop wall_seconds

    assert stable(seq) == stable(par)


def test_bench_mean_ll_summary_on_stderr(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    assert main(bench_argv(out, sizes="2,3,99")) == 0  # 99 fails for shop
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "mean final LL per (family, method):"
    assert len(lines) == 3
    for line, method in zip(lines[1:], ("em", "opt-gradient")):
        lls = [float(r[5]) for r in rows if r[3] == method and r[5]]
        assert len(lls) == 2  # the failed size-99 cell is left out
        assert line == f"  shop      {method:<13} {sum(lls) / len(lls): .6f}  (n=2)"


def _recording_pool(monkeypatch) -> list[int]:
    """Replace the bench's process pool by one that records ``max_workers``
    and runs the cells in this process, starting no worker."""
    made: list[int] = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    # cmd_bench imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return made


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("methods", ["opt-gradient,em", "em,opt-gradient"])
def test_bench_cells_each_run_their_own_world_pass(tmp_path, monkeypatch, methods, jobs):
    # Cells of one spec generate equal programs; each must still pay for
    # its world pass, whatever the method order, so that wall_seconds
    # covers the same layers in every cell.
    made = _recording_pool(monkeypatch)
    passes: list[int] = []
    all_worlds, bench_cell = StableSolver.all_worlds, cli._bench_cell

    def counted_pass(solver):
        passes[-1] += 1
        return all_worlds(solver)

    def counted_cell(cell):
        passes.append(0)
        return bench_cell(cell)

    monkeypatch.setattr(StableSolver, "all_worlds", counted_pass)
    monkeypatch.setattr(cli, "_bench_cell", counted_cell)
    out = str(tmp_path / "bench.csv")
    assert main(bench_argv(out, methods=methods) + ["--jobs", jobs]) == 0
    assert made == ([] if jobs == "1" else [2])
    assert passes == [1, 1, 1, 1]  # 2 sizes × 2 methods


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    code = "import sys, pasplearn.cli; print('concurrent.futures.process' in sys.modules)"
    src = os.path.dirname(os.path.dirname(pasplearn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_bench_jobs_start_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    made = _recording_pool(monkeypatch)
    out = str(tmp_path / "bench.csv")
    assert main(bench_argv(out) + ["--jobs", "64"]) == 0  # 2 sizes × 2 methods
    assert made == [4]
    assert main(bench_argv(out, sizes="2", methods="em") + ["--jobs", "64"]) == 0
    assert made == [4]  # one cell runs without a pool


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_exit_1(tmp_path, monkeypatch, capsys, jobs):
    made = _recording_pool(monkeypatch)
    out = tmp_path / "bench.csv"
    assert main(bench_argv(str(out)) + ["--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert made == [] and not out.exists()


def test_bench_unwritable_out_fails_before_any_cell(tmp_path, monkeypatch, capsys):
    ran: list[tuple] = []
    monkeypatch.setattr(cli, "_bench_cell", lambda cell: ran.append(cell) or [])
    out = tmp_path / "missing" / "bench.csv"
    assert main(bench_argv(str(out))) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert ran == []
