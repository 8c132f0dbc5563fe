"""Command-line interface: ``infer``, ``learn``, ``gen``, ``bench``.

``infer`` prints a query's credal bounds, or a conditional's with
``--evidence``; ``learn`` fits the learnable probabilities to
interpretations; ``gen`` writes a benchmark instance and ``bench``
sweeps families × sizes × methods into a CSV.  ``infer`` and ``learn``
print through one routine: text lines, or with ``--json`` one JSON
payload on stdout and any ``--show-equations`` lines on stderr.

Exit codes: 0 success, 1 parse/spec/usage errors, 2 inconsistent
program, 3 undefined conditional, 4 no learnable facts; one table maps
each error class to its code, and the parser raises its usage errors
(an unknown option, a bad value, a missing command) as ``ValueError``.
Probabilities are printed with 6 decimals; ``--json`` payloads carry
full doubles.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from itertools import product
from pathlib import Path

from . import __version__, credal
from .credal import conditional_flags, credal_conditional, credal_query, world_models
from .datasets import FAMILIES, DatasetSpec, generate
from .errors import (
    InconsistentWorld,
    NoLearnableFacts,
    PaspError,
    PaspSyntaxError,
    UndefinedConditional,
)
from .learning import BACKENDS, LEARNERS, LearnConfig, LearnResult
from .model import Program, interpretation_query, query_from_literals
from .parsing import (
    interpretations_to_text,
    parse_interpretations,
    parse_program,
    parse_query,
    program_to_text,
)
from .sympoly import BOUNDS, bound_polys, poly_from_world_flags, poly_to_text

_BENCH_METHODS = ("opt-gradient", "opt-dfree", "em")
#: Exit code per error class; a subclass maps like its base, any other error is 1.
_EXIT_CODES = {InconsistentWorld: 2, UndefinedConditional: 3, NoLearnableFacts: 4}
_CSV_HEADER = (
    "family,size,n_interps,method,seed,final_ll,iterations,wall_seconds,converged"
)


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte order mark, which some editors write.
    return Path(path).read_text(encoding="utf-8-sig")


def _legend(program: Program) -> list[str]:
    return [
        f"# p{j} = {pf.atom}"
        for j, pf in enumerate(program.learnable_facts())
    ]


def _option_query(option: str, text: str):
    """Parse a ``--query`` or ``--evidence`` string; errors name the option."""
    try:
        return query_from_literals(parse_query(text))
    except PaspSyntaxError as exc:
        raise PaspSyntaxError(f"{option}: {exc}") from exc


def _emit(args, equations: list[str], payload: dict, lines: list[str]) -> None:
    """Print the equations and text lines, or with ``--json`` the payload
    on stdout and the equations on stderr."""
    for line in equations:
        print(line, file=sys.stderr if args.json else sys.stdout)
    print(json.dumps(payload) if args.json else "\n".join(lines))


def cmd_infer(args) -> None:
    program = parse_program(_read(args.program))
    q = _option_query("--query", args.query)
    e = None if args.evidence is None else _option_query("--evidence", args.evidence)
    equations: list[str] = []
    if args.show_equations:
        if e is None:
            names = ("low(q)", "up(q)")
            polys = [p for (p,) in bound_polys(program, [q], BOUNDS)]
        else:
            names = ("low(q,e)", "up(q,e)", "low(not q,e)", "up(not q,e)")
            flags = conditional_flags(world_models(program), q, e)
            polys = [poly_from_world_flags(program, fl) for fl in flags]
        equations = _legend(program) + [
            f"{name} = {poly_to_text(p)}" for name, p in zip(names, polys)
        ]
    bounds = credal_query(program, q) if e is None else credal_conditional(program, q, e)
    _emit(
        args,
        equations,
        {"lower": bounds.lower, "upper": bounds.upper},
        [f"lower={bounds.lower:.6f} upper={bounds.upper:.6f}"],
    )


def _result_payload(program: Program, result: LearnResult) -> dict:
    return {
        "params": [
            {"atom": str(pf.atom), "prob": result.params[j]}
            for j, pf in enumerate(program.learnable_facts())
        ],
        "finalLL": result.final_ll,
        "iterations": result.iterations,
        "converged": result.converged,
        "llTrace": list(result.ll_trace),
    }


def cmd_learn(args) -> None:
    program = parse_program(_read(args.program))
    interps = parse_interpretations(_read(args.interpretations))
    cfg = LearnConfig(
        target=args.target,
        method=args.method,
        eps_ll=args.eps_ll,
        max_iters=args.max_iters,
        floor_prob=args.floor_prob,
        restarts=args.restarts,
        seed=args.seed,
        opt_backend=BACKENDS[args.backend],
        skip_undefined=args.skip_undefined,
    )
    equations: list[str] = []
    if args.show_equations:
        queries = [interpretation_query(i) for i in interps]
        (polys,) = bound_polys(program, queries, [cfg.target])
        equations = _legend(program) + [
            f"{cfg.target}(I{k}) = {poly_to_text(p)}" for k, p in enumerate(polys)
        ]
    result = LEARNERS[args.method](program, interps, cfg)
    payload = _result_payload(program, result)
    _emit(
        args,
        equations,
        payload,
        [f"{entry['atom']} {entry['prob']:.6f}" for entry in payload["params"]]
        + [
            f"finalLL {result.final_ll:.6f}",
            f"iterations {result.iterations}",
            f"converged {'true' if result.converged else 'false'}",
        ],
    )


def cmd_gen(args) -> None:
    spec = DatasetSpec(
        family=args.family,
        size=args.size,
        num_interpretations=args.interpretations,
        seed=args.seed,
        init_prob=args.init_prob,
    )
    program, interps = generate(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pasp_path = outdir / "instance.pasp"
    int_path = outdir / "instance.int"
    pasp_path.write_text(program_to_text(program), encoding="utf-8")
    int_path.write_text(interpretations_to_text(interps), encoding="utf-8")
    print(pasp_path)
    print(int_path)


def _bench_cell(cell: tuple[str, int, int, str, int]) -> list[str]:
    family, size, n_interps, method, seed = cell
    # Every cell of one spec generates an equal program, so without this
    # the first cell of a spec in a process would pay for the world pass
    # of every later one.
    credal._world_models.cache_clear()
    t0 = time.perf_counter()
    try:
        spec = DatasetSpec(
            family=family, size=size, num_interpretations=n_interps, seed=seed
        )
        program, interps = generate(spec)
        kind, _, backend = method.partition("-")
        cfg = LearnConfig(
            method=kind,
            seed=seed,
            opt_backend=BACKENDS.get(backend, LearnConfig.opt_backend),
        )
        result = LEARNERS[kind](program, interps, cfg)
        ll, iterations = repr(result.final_ll), str(result.iterations)
        status = "true" if result.converged else "false"
    except PaspError as exc:
        # Result columns stay empty; the status lands in `converged`.
        ll, iterations, status = "", "", type(exc).__name__
    wall = time.perf_counter() - t0
    return [
        family,
        str(size),
        str(n_interps),
        method,
        str(seed),
        ll,
        iterations,
        f"{wall:.3f}",
        status,
    ]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def cmd_bench(args) -> None:
    families = [f for f in args.families.split(",") if f]
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        if m not in _BENCH_METHODS:
            raise ValueError(
                f"unknown method {m!r}; choose from {', '.join(_BENCH_METHODS)}"
            )
    cells = list(
        product(
            families,
            _int_list(args.sizes),
            _int_list(args.interpretations),
            methods,
            _int_list(args.seeds),
        )
    )
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # The pool starts all its workers at once, so never more than cells.
    workers = min(args.jobs, len(cells))
    # Opened before the sweep, so an unwritable path fails before any cell runs.
    sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        if workers > 1:
            # Imported here, so that only a parallel bench loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_bench_cell, cells))
        else:
            rows = [_bench_cell(cell) for cell in cells]
        writer = csv.writer(sink)
        writer.writerow(_CSV_HEADER.split(","))
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()
    # Mean final log-likelihood per (family, method); failed cells have none.
    lls: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        if row[5]:
            lls.setdefault((row[0], row[3]), []).append(float(row[5]))
    print("mean final LL per (family, method):", file=sys.stderr)
    for (family, method), vals in sorted(lls.items()):
        print(
            f"  {family:<9} {method:<13} {sum(vals) / len(vals): .6f}  (n={len(vals)})",
            file=sys.stderr,
        )


class _Parser(argparse.ArgumentParser):
    """A parser (and subparsers) whose usage errors raise ``ValueError``, not exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pasplearn",
        description="Credal inference and parameter learning for "
        "probabilistic answer set programs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="query lower/upper probabilities")
    p_infer.add_argument("--program", required=True, help=".pasp program file")
    p_infer.add_argument("--query", required=True, help='e.g. "path(1,4)"')
    p_infer.add_argument("--evidence", help='e.g. "edge(2,4)"')
    p_infer.add_argument("--json", action="store_true")
    p_infer.add_argument("--show-equations", action="store_true")
    p_infer.set_defaults(func=cmd_infer)

    p_learn = sub.add_parser("learn", help="fit learnable probabilities")
    p_learn.add_argument("--program", required=True)
    p_learn.add_argument("--interpretations", required=True, help=".int data file")
    p_learn.add_argument("--method", choices=tuple(LEARNERS), default=LearnConfig.method)
    p_learn.add_argument("--target", choices=BOUNDS, default=LearnConfig.target)
    p_learn.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default=next(k for k, v in BACKENDS.items() if v == LearnConfig.opt_backend),
        help="opt only: projected gradient ascent or coordinate search",
    )
    p_learn.add_argument(
        "--eps-ll",
        type=float,
        default=LearnConfig.eps_ll,
        help="em only: stop when the log-likelihood changes by less than this",
    )
    p_learn.add_argument(
        "--max-iters", type=int, default=LearnConfig.max_iters, help="em only: iteration limit"
    )
    p_learn.add_argument("--floor-prob", type=float, default=LearnConfig.floor_prob)
    p_learn.add_argument(
        "--restarts",
        type=int,
        default=LearnConfig.restarts,
        help="opt only: number of starts (the declared probabilities, then random ones)",
    )
    p_learn.add_argument(
        "--seed", type=int, default=LearnConfig.seed, help="opt only: seed of the random starts"
    )
    p_learn.add_argument(
        "--skip-undefined",
        action="store_true",
        help="em only: skip undefined conditionals instead of failing",
    )
    p_learn.add_argument("--show-equations", action="store_true")
    p_learn.add_argument("--json", action="store_true")
    p_learn.set_defaults(func=cmd_learn)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--interpretations", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--init-prob", type=float, default=DatasetSpec.init_prob)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="sweep families × sizes × methods")
    p_bench.add_argument("--families", required=True, help="comma-separated")
    p_bench.add_argument("--sizes", required=True, help="comma-separated ints")
    p_bench.add_argument("--interpretations", required=True, help="comma-separated")
    p_bench.add_argument("--methods", required=True, help="opt-gradient,opt-dfree,em")
    p_bench.add_argument("--seeds", required=True, help="comma-separated ints")
    p_bench.add_argument("--out", help="CSV path (default: stdout)")
    p_bench.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per cell"
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except (PaspError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
