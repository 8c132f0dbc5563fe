"""Cold operations of a benchmark workload, each in a fresh fork.

``run.py`` starts this file many times per run.  It imports the package,
makes the inputs, and then forks one child per cold operation, so each
starts from an empty world cache and a small heap, as a ``pasplearn
infer`` or ``pasplearn learn`` process does.  A child times only calls
into the package's public functions, checks every output, and sends its
result back.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload smoke-infer --seed 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from spans import GLUE, Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Instances are fixed cells (generator seed 0): another generator seed
#: can double the cost (path10's world pass takes 1.4 s on seed 0, 3.0 s
#: on seed 1).  The benchmark seed picks the queries, the evidence and the
#: check point instead.
INSTANCE_SEED = 0
N_INTERPS = 10
#: Distinct warm queries (and evidence literals) of a seed.
N_QUERIES = 240
#: Warm queries and conditionals answered after each cold operation.
WARM_PER_OP = 6
TOL = 1e-9
#: Learned parameters may move in late digits when the arithmetic is reordered.
PARAM_TOL = 1e-6
#: The over-cap probe must fail at once, before any world is solved.
OVERCAP_LIMIT_S = 1.0

OPS = ("infer", "learn_opt", "learn_em")


@dataclass(frozen=True)
class Workload:
    family: str
    size: int
    overcap_size: int | None = None


#: Cells small enough that a cold operation takes well under a second, so
#: one run holds a few dozen of each and its medians are steady on a
#: shared host.  Each keeps its family's profile: path8's world pass
#: dominates (26 answer sets per world), shop8's learning dominates, and
#: smoke2's 512 worlds have ~1.6 answer sets each.
WORKLOADS = {
    "path-learn": Workload("path", 8),
    "shop-learn": Workload("shop", 8),
    "smoke-infer": Workload("smoke", 2, overcap_size=4),
}


def import_package():
    """pasplearn from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pasplearn

    if Path(pasplearn.__file__).resolve().parent != src / "pasplearn":
        raise ImportError(f"pasplearn imported from {pasplearn.__file__}, not {src}")
    return pasplearn


class Run:
    """Timings, counters and failed checks of one forked cold operation.

    A failed check counts against the operation timed last, whose output
    it checks.  ``reference`` holds this workload's recorded values, or
    None when they are being recorded.
    """

    def __init__(self, tracer, reference: dict | None, seed: int):
        self.tracer = tracer
        self.reference = reference
        self.seed = seed
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.results: dict[str, object] = {}
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.last_ok = True

    @contextmanager
    def timed(self, op: str):
        """Time one operation; an exception it raises fails the operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                self.tracer.recording = True
                try:
                    with self.tracer.span(GLUE):
                        yield
                finally:
                    self.tracer.recording = False
        except Exception as exc:  # the operation failed; keep measuring the rest
            self.check(False, f"{op}: raised {type(exc).__name__}: {exc}")
        finally:
            self.durations.setdefault(op, []).append(time.perf_counter() - t0)
            self.last_ok = self.attempted - 1 not in self.failed_ops

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed_ops.add(self.attempted - 1)
            self.failures.append(what)
        return ok

    def close(self, what: str, got: float, want: float, tol: float = TOL) -> bool:
        return self.check(
            math.isfinite(got) and abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}"
        )

    def counter(self, name: str, value: int) -> None:
        """An exact counter: it must equal the recorded one."""
        self.counters[name] = value
        if self.reference is not None:
            want = self.reference["counters"].get(name)
            self.check(value == want, f"counter {name}: got {value}, reference {want}")

    def bounds(self, key: str, k: int, b) -> None:
        """Keep result k's bounds; for seed 0 they must equal the recorded ones."""
        got = [b.lower, b.upper]
        self.results.setdefault(key, {})[str(k)] = got
        if self.reference is not None and self.seed == 0:
            want = self.reference["seed0"][key].get(str(k))
            if self.check(want is not None, f"{key} {k}: no reference value"):
                self.close(f"{key} {k} lower vs reference", got[0], want[0])
                self.close(f"{key} {k} upper vs reference", got[1], want[1])


def literal_text(rng: random.Random, atom: str) -> str:
    return atom if rng.random() < 0.5 else f"not {atom}"


def make_inputs(pl, wl: Workload, seed: int) -> dict:
    """Instance texts plus the seeded queries, evidence and check point."""
    program, interps = pl.generate(pl.DatasetSpec(wl.family, wl.size, N_INTERPS, INSTANCE_SEED))
    atoms = sorted(str(a) for a in pl.ground(program).atoms)
    rng = random.Random(seed)
    queries = [
        ",".join(literal_text(rng, a) for a in rng.sample(atoms, rng.randint(1, 2)))
        for _ in range(N_QUERIES + 1)
    ]
    # A literal of a generated interpretation holds in some world, so every
    # conditional on it is defined.
    evidence = [str(rng.choice(rng.choice(interps).literals)) for _ in range(N_QUERIES)]
    inputs = {
        "program": pl.program_to_text(program),
        "interps": pl.interpretations_to_text(interps),
        "queries": queries,
        "evidence": evidence,
        "theta": [rng.random() for _ in program.learnable_indices()],
    }
    if wl.overcap_size is not None:
        big, _ = pl.generate(pl.DatasetSpec(wl.family, wl.overcap_size, 1, INSTANCE_SEED))
        inputs["overcap_program"] = pl.program_to_text(big)
    return inputs


def check_bounds(run: Run, what: str, b) -> None:
    run.check(
        -TOL <= b.lower <= b.upper + TOL and b.upper <= 1 + TOL,
        f"{what}: bounds [{b.lower!r}, {b.upper!r}] not 0 <= lower <= upper <= 1",
    )


def check_against_polys(run: Run, pl, program, q, qtext: str, theta) -> None:
    """credal_query (world sum) and poly_eval(extract_poly) (Möbius) agree."""
    lower = pl.extract_poly(program, q, "lower")
    upper = pl.extract_poly(program, q, "upper")
    for name, point in (("theta0", program.initial_theta()), ("theta", theta)):
        b = pl.credal_query(program, q, point)
        run.close(f"{qtext} lower at {name} vs polynomial", b.lower, pl.poly_eval(lower, point))
        run.close(f"{qtext} upper at {name} vs polynomial", b.upper, pl.poly_eval(upper, point))


def stable_counters(run: Run, pl, program) -> None:
    wm = pl.world_models(program)
    gp = pl.ground(program)
    run.counter("grounding.atoms", gp.n_atoms)
    run.counter("grounding.rules", len(gp.rules))
    masks = getattr(wm, "model_masks", None)
    if masks is None:  # an engine that stores no answer sets
        return
    run.counter("stable.worlds", len(masks))
    run.counter("stable.answer_sets", sum(len(m) for m in masks))
    # Computed, not measured: the Python objects holding the masks.
    run.results["stable.mask_bytes"] = (
        sys.getsizeof(masks)
        + sum(sys.getsizeof(m) for m in masks)
        + sum(sys.getsizeof(x) for m in masks for x in m)
    )


def warm_queries(run: Run, pl, program, inputs: dict, first: int, count: int) -> None:
    """``count`` warm queries and conditionals from index ``first`` on, interleaved.

    Each cold operation of a run is followed by the next slice, so the
    warm samples of one run spread over the whole run.
    """
    queries, evidence = inputs["queries"], inputs["evidence"]
    for j in range(count):
        k = (first + j) % N_QUERIES
        text, etext = queries[k + 1], evidence[k]
        with run.timed("query"):
            q = pl.query_from_literals(pl.parse_query(text))
            b = pl.credal_query(program, q)
        if run.last_ok:
            check_bounds(run, text, b)
            run.bounds("queries", k, b)
            if j == 0:
                check_against_polys(run, pl, program, q, text, inputs["theta"])
        with run.timed("conditional"):
            q = pl.query_from_literals(pl.parse_query(text))
            e = pl.query_from_literals(pl.parse_query(etext))
            b = pl.credal_conditional(program, q, e)
        if run.last_ok:
            check_bounds(run, f"{text} | {etext}", b)
            run.bounds("conditionals", k, b)


def op_infer(run: Run, pl, inputs: dict, warm: tuple[int, int]) -> None:
    text = inputs["queries"][0]
    with run.timed("infer"):
        program = pl.parse_program(inputs["program"])
        q = pl.query_from_literals(pl.parse_query(text))
        b = pl.credal_query(program, q)
    if not run.last_ok:
        return
    check_bounds(run, text, b)
    run.bounds("infer", 0, b)
    check_against_polys(run, pl, program, q, text, inputs["theta"])

    with run.timed("consistency"):
        inconsistent = pl.check_consistency(program)
    run.check(inconsistent == 0, f"{inconsistent} worlds have no answer set")
    run.counter("stable.inconsistent_worlds", inconsistent)
    stable_counters(run, pl, program)
    warm_queries(run, pl, program, inputs, *warm)

    if "overcap_program" in inputs:
        with run.timed("overcap"):
            big = pl.parse_program(inputs["overcap_program"])
            t0 = time.perf_counter()
            try:
                pl.credal_query(big, q)
                run.check(False, "over-cap program did not raise CapExceeded")
            except pl.CapExceeded:
                took = time.perf_counter() - t0
                run.check(took < OVERCAP_LIMIT_S, f"CapExceeded took {took:.3f} s")


def check_learned(run: Run, pl, program, interps, cfg, res, method: str) -> None:
    """final_ll is the objective at the returned params, and no worse than at θ0."""
    polys = [pl.extract_poly(program, pl.interpretation_query(i), cfg.target) for i in interps]
    run.close(f"{method} final_ll vs ll_objective", res.final_ll,
              pl.ll_objective(polys, res.params, cfg.floor_prob))
    ll0 = pl.ll_objective(polys, program.initial_theta(), cfg.floor_prob)
    run.check(res.final_ll >= ll0 - TOL, f"{method} final_ll {res.final_ll!r} < initial {ll0!r}")
    run.check(all(0.0 <= p <= 1.0 for p in res.params), f"{method} params outside [0, 1]")
    run.counter(f"learning.{method}_iterations", res.iterations)
    run.counter("sympoly.monomials", sum(len(p.coeffs) for p in polys))
    run.results[f"learn_{method}"] = {"final_ll": res.final_ll, "params": list(res.params)}
    if run.reference is not None:
        want = run.reference[f"learn_{method}"]
        run.close(f"{method} final_ll vs reference", res.final_ll, want["final_ll"])
        run.check(len(res.params) == len(want["params"]), f"{method}: params count")
        for j, (got, w) in enumerate(zip(res.params, want["params"])):
            run.close(f"{method} param {j} vs reference", got, w, tol=PARAM_TOL)


def op_learn(run: Run, pl, method: str, inputs: dict, warm: tuple[int, int], em_step: bool) -> None:
    learn = pl.learn_opt if method == "opt" else pl.learn_em
    cfg = pl.LearnConfig(method=method)
    with run.timed(f"learn_{method}"):
        program = pl.parse_program(inputs["program"])
        interps = pl.parse_interpretations(inputs["interps"])
        res = learn(program, interps, cfg)
    if not run.last_ok:
        return
    check_learned(run, pl, program, interps, cfg, res, method)
    # One E-step on its own gives learning.em_expectation_s.  It is part of
    # no end-to-end metric, so only --trace 1 runs pay for it.
    if method == "em" and em_step:
        with run.timed("em_expectation"):
            exp = pl.em_expectation(program, interps, res.params, cfg.target)
        if run.last_ok:
            counts = list(exp.e0) + list(exp.e1)
            run.check(
                all(math.isfinite(c) and -TOL <= c <= len(interps) + TOL for c in counts),
                f"expected counts outside [0, {len(interps)}]",
            )
    warm_queries(run, pl, program, inputs, *warm)


def run_op(pl, inputs: dict, reference: dict | None, args, op: str, traced: int, part: int) -> dict:
    """One cold operation and its warm queries; the caller is a fresh fork."""
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    run = Run(tracer, reference, args.seed)
    warm = (part * WARM_PER_OP % N_QUERIES, args.warm)
    if op == "infer":
        op_infer(run, pl, inputs, warm)
    else:
        op_learn(run, pl, op.removeprefix("learn_"), inputs, warm, args.em_step)
    out = {
        "op": op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "durations": run.durations,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "failures": run.failures,
        "counters": run.counters,
        "results": run.results,
    }
    if tracer is not None:
        seconds, calls = tracer.self_times()
        out["layers"] = {"seconds": seconds, "calls": dict(calls)}
        out["spans"] = tracer.export()
        out["span_cost_s"] = tracer.span_cost() * len(tracer.spans)
    return out


def forked(fn) -> dict:
    """``fn()`` in a forked child, which starts from this process's state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(fn()).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"forked operation exited with status {status}")
    return json.loads(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", default=",".join(OPS),
                        help="the cold operations to run in turn, comma-separated")
    parser.add_argument("--min-seconds", type=float, default=0.0,
                        help="repeat the operations until this much time has passed")
    parser.add_argument("--part", type=int, default=0,
                        help="the first operation answers the part-th slice of the warm queries")
    parser.add_argument("--warm", type=int, default=WARM_PER_OP,
                        help="warm queries (and conditionals) per operation")
    parser.add_argument("--em-step", action="store_true", help="also time one em_expectation call")
    parser.add_argument("--spawned", type=float, help="time.time() when run.py started this process")
    parser.add_argument("--no-reference", action="store_true", help="skip the reference comparison")
    args = parser.parse_args()
    spawned = args.spawned if args.spawned is not None else time.time()
    ops = args.ops.split(",")
    if not set(ops) <= set(OPS):
        parser.error(f"--ops must name operations of {OPS}")

    try:
        pl = import_package()
    except ImportError as exc:
        print(f"error: cannot import pasplearn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inputs = make_inputs(pl, wl, args.seed)
    generate_s = time.perf_counter() - t0
    reference = None
    if not args.no_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]

    # Every operation runs in a child forked from this point, so it starts
    # with an empty world cache and the heap of a process that has only
    # imported the package and read its inputs, as `pasplearn` does.
    setup_s = time.time() - spawned
    t0 = time.perf_counter()
    modes = (0, 1) if args.trace else (0,)
    runs, part = [], args.part
    while not runs or time.perf_counter() - t0 < args.min_seconds:
        for op in ops:
            runs.append({
                traced: forked(lambda: run_op(pl, inputs, reference, args, op, traced, part))
                for traced in (modes if part % 2 == 0 else modes[::-1])
            })
            part += 1
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
