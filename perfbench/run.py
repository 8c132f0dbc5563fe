"""Benchmark of pasplearn's learn and infer pipelines.

    python3 perfbench/run.py --workload path-learn --seed 0 --seconds 40 --trace 0

A workload has three cold operations (infer, learn_opt, learn_em).  This
process starts ``worker.py`` processes one after another, never two at a
time, while the next one is expected to end within ``--seconds``.  Each
worker sets up once and then forks a child per cold operation, in turn,
for ``WORKER_SECONDS``; a child then answers its slice of the warm
queries and conditionals.

Between workers this process times a fixed pure-Python loop,
``calibration``, that shares no code with the package.  The end-to-end
times are scaled by the host's speed in that loop: each is reported as
``measured * REFERENCE_CALIBRATION_S / (the run's median loop time)``,
the seconds it would take on a host that runs the loop in
``REFERENCE_CALIBRATION_S``.  On a shared host whose speed drifts by
10-40% over minutes this keeps runs of the same code comparable, while a
slower or faster package moves the scaled time as much as the raw one.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` forks every
operation twice, untraced and traced, and prints the per-layer metrics
with the tracing overhead.  Metric lines come first and the last line
is one JSON object.  Exit code 0: every output check passed; 1: a check
failed (the result is still printed); 2: the benchmark could not run.

``--workload all`` runs the three workloads in turn.
``--write-reference`` records the reference values from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import GLUE, LAYERS
from worker import N_QUERIES, OPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / "perfbench_out"
#: Every run of one workload ends within this many seconds.
MAX_RUN_S = 170.0
#: The median time of ``calibration`` on the measuring host (2 vCPUs of a
#: 2.0 GHz Xeon, Python 3.11.7); end-to-end times are scaled to it.
REFERENCE_CALIBRATION_S = 0.017
#: Calibration loops timed before each worker.
CALIBRATION_LOOPS = 4
#: Each worker process repeats the cold operations for this long.
WORKER_SECONDS = 1.5
COLD_OPS = {op: f"{op}_s" for op in OPS}
WARM_OPS = {"query": "query_ms", "conditional": "conditional_ms"}
#: Per-layer self time metrics, by span layer.
LAYER_TIMES = (*dict.fromkeys(layer for _, _, layer in LAYERS), GLUE)
COUNTS = (
    "stable.worlds",
    "stable.answer_sets",
    "grounding.atoms",
    "grounding.rules",
    "sympoly.monomials",
    "learning.opt_iterations",
    "learning.em_iterations",
)


def _closure(mask: int, rules: tuple) -> int:
    for head, body in rules:
        if body & mask == body:
            mask |= head
    return mask


def calibration() -> float:
    """Seconds for a fixed loop of the kind the package's solver runs:
    bitmask rule closure, tuple iteration, function calls and a sort."""
    t0 = time.perf_counter()
    rules = tuple((1 << (i % 24), (i * 37) & 0xFFF & ~(1 << (i % 24))) for i in range(48))
    found = []
    for w in range(4000):
        m = _closure(w & 0xFFF, rules)
        found.append((m.bit_count(), m))
    found.sort()
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload: str, seed: int, trace: int, part: int, deadline: float,
               extra: tuple[str, ...] = ()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--part", str(part), *extra,
    ]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for {workload}")
    # The world cap is the package default, whatever the caller's environment.
    # A fixed hash seed gives every worker the same dict layouts.
    env = {k: v for k, v in os.environ.items() if k != "PASP_WORLD_CAP"}
    env["PYTHONHASHSEED"] = "0"
    # A session of its own lets a timeout stop the worker and its forks.
    with subprocess.Popen(
        cmd + ["--spawned", repr(time.time())], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} ran past the {MAX_RUN_S:.0f} s limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def schedule(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict[str, list[dict]], list[dict], list[float]]:
    """Worker processes, their operations, and calibration times.

    Returns ``(samples, workers, loops)``.  ``samples`` lists per operation
    its runs, each mapping traced (0 or 1) to a forked child's result;
    ``workers`` holds each worker process's set-up.  Workers start while
    the next one is expected to end within ``seconds``; each runs the
    three operations in turn for ``WORKER_SECONDS``, so every operation
    samples the whole run.
    """
    start = time.perf_counter()
    deadline = start + MAX_RUN_S
    samples: dict[str, list[dict]] = {op: [] for op in OPS}
    workers: list[dict] = []
    loops: list[float] = []
    part = 0
    extra = ("--min-seconds", str(WORKER_SECONDS), *(("--em-step",) if trace else ()))
    while True:
        elapsed = time.perf_counter() - start
        if workers and elapsed * (len(workers) + 1) / len(workers) > seconds:
            return samples, workers, loops
        loops.extend(calibration() for _ in range(CALIBRATION_LOOPS))
        worker = run_worker(workload, seed, trace, part, deadline, extra)
        for run in worker.pop("runs"):
            run = {int(traced): child for traced, child in run.items()}
            samples[run[0]["op"]].append(run)
            part += 1
        workers.append(worker)


def quartiles(values: list[float], what: str) -> tuple[float, float]:
    """(median, p75) as statistics.quantiles gives them."""
    if len(values) < 2:
        raise BenchError(f"{len(values)} samples of {what}: an operation before them failed")
    _, p50, p75 = statistics.quantiles(values, n=4)
    return p50, p75


def counters_of(workers: list[dict]) -> dict[str, int]:
    """The exact counters, which every operation that reports one must agree on."""
    out: dict[str, int] = {}
    for w in workers:
        for name, value in w["counters"].items():
            if out.setdefault(name, value) != value:
                raise BenchError(f"counter {name} differs between workers: {out[name]} vs {value}")
    return out


def end_to_end(samples: dict[str, list[dict]], workers: list[dict],
               loops: list[float]) -> tuple[dict, list[str]]:
    children = [w[0] for runs in samples.values() for w in runs]
    raw = {"setup_s": statistics.median(w["setup_s"] for w in workers)}
    notes = [f"setup_s: median of {len(workers)} process set-ups"]
    for op, name in COLD_OPS.items():
        raw[name] = statistics.median(w[0]["durations"][op][0] for w in samples[op])
        notes.append(f"{name}: median of {len(samples[op])} cold runs")
    for warm, name in WARM_OPS.items():
        values = [1e3 * d for w in children for d in w["durations"].get(warm, [])]
        raw[f"{name}_p50"], raw[f"{name}_p75"] = quartiles(values, warm)
        beyond = sum(1 for v in values if v > raw[f"{name}_p75"])
        notes.append(f"{name}: {len(values)} warm samples, {beyond} beyond p75")
    loop = statistics.median(loops)
    scale = REFERENCE_CALIBRATION_S / loop
    notes.append(f"times are scaled by {scale:.4f}: calibration loop median {1e3 * loop:.3f} ms "
                 f"of {len(loops)}, reference {1e3 * REFERENCE_CALIBRATION_S:.3f} ms; unscaled: "
                 + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    metrics = {name: (value * scale, "ms" if name.startswith(tuple(WARM_OPS)) else "s")
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = (
        max(statistics.median(w[0]["peak_rss_mb"] for w in samples[op]) for op in OPS), "MB")
    notes.append("peak_rss_mb: the largest operation's median peak")
    return metrics, notes


def per_layer(samples: dict[str, list[dict]], workers: list[dict],
              loops: list[float]) -> tuple[dict, list[str]]:
    """Per-layer numbers of one typical run of each operation, summed over the operations."""
    def typical(value) -> float:
        return sum(statistics.median(value(w) for w in samples[op]) for op in OPS)

    def total(w: dict) -> float:
        return sum(sum(d) for d in w["durations"].values())

    metrics = {
        f"{layer}_s": typical(lambda w, layer=layer: w[1]["layers"]["seconds"].get(layer, 0.0))
        for layer in LAYER_TIMES
    }
    for layer in ("sympoly.eval", "sympoly.grad"):
        metrics[f"{layer}_calls"] = typical(lambda w, layer=layer: w[1]["layers"]["calls"].get(layer, 0))
    cold = sum(statistics.median(w[1]["durations"][op][0] for w in samples[op]) for op in OPS)
    metrics["stable.world_pass_share"] = 100 * metrics["stable.world_pass_s"] / cold
    metrics["trace.untraced_total_s"] = typical(lambda w: total(w[0]))
    metrics["trace.traced_total_s"] = typical(lambda w: total(w[1]))
    metrics["trace.overhead_s"] = metrics["trace.traced_total_s"] - metrics["trace.untraced_total_s"]
    metrics["trace.spans"] = typical(lambda w: len(w[1]["spans"]))
    metrics["trace.span_cost_s"] = typical(lambda w: w[1]["span_cost_s"])
    metrics["datasets.generate_s"] = statistics.median(w["generate_s"] for w in workers)
    metrics["host.calibration_s"] = statistics.median(loops)
    children = [w[t] for runs in samples.values() for w in runs for t in w]
    # Each operation has checked its counters against the reference.
    counts = {name: value for w in children for name, value in w["counters"].items()}
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    worlds = counts.get("stable.worlds", 0)
    metrics["stable.answer_sets_per_world"] = metrics["stable.answer_sets"] / worlds if worlds else 0
    pass_s = metrics["stable.world_pass_s"]
    metrics["stable.worlds_per_s"] = worlds * len(OPS) / pass_s if pass_s else 0
    mask_bytes = [w["results"]["stable.mask_bytes"] for w in children if "stable.mask_bytes" in w["results"]]
    metrics["stable.mask_bytes"] = mask_bytes[0] if mask_bytes else 0
    units = {"stable.world_pass_share": "%", "stable.worlds_per_s": "1/s",
             "stable.mask_bytes": "bytes-computed"}
    out = {}
    for name, value in metrics.items():
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        out[name] = (value, unit)
    counts_note = ", ".join(f"{op} {len(samples[op])}" for op in OPS)
    notes = [
        f"per-layer numbers: for each operation the median over its traced runs ({counts_note}), "
        "summed over the three operations",
        "stable.world_pass_share: world pass self time over the traced infer + learn_opt + learn_em time",
        "stable.mask_bytes: computed from the model masks with sys.getsizeof, not measured",
        "per-layer times are unscaled; host.calibration_s is this run's median calibration loop",
        "trace.overhead_s: traced total minus untraced total of the same operations, "
        "mostly run-to-run noise; trace.span_cost_s: spans times the measured cost of one span",
    ]
    return out, notes


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    samples, workers, loops = schedule(workload, seed, seconds, trace)
    metrics, notes = (per_layer if trace else end_to_end)(samples, workers, loops)
    children = [w[t] for runs in samples.values() for w in runs for t in w]
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        spans = {f"{op}{i}": w[1]["spans"] for op, runs in samples.items() for i, w in enumerate(runs)}
        (SPAN_DIR / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": sum(w["attempted"] for w in children),
        "failed": sum(w["failed"] for w in children),
        "failures": [f for w in children for f in w["failures"]],
        "workers": len(workers),
        "children": len(children),
    }


def report(workload: str, seed: int, res: dict) -> None:
    print(f"== {workload}  seed {seed}  {res['workers']} worker processes, "
          f"{res['children']} forked operations")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':32s} {res['failed'] / res['attempted']:14.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for note in res["notes"]:
        print(f"  # {note}")
    for failure in res["failures"][:20]:
        print(f"  FAILED {failure}")


def result_line(results: dict[str, dict], prefix: bool) -> dict:
    metrics = {}
    for workload, res in results.items():
        for name, (value, unit) in res["metrics"].items():
            metrics[f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def write_reference() -> None:
    reference = {}
    for workload in WORKLOADS:
        deadline = time.perf_counter() + MAX_RUN_S
        # The infer operation answers every warm query and conditional of seed 0.
        children = []
        for ops, warm in (("infer", N_QUERIES), ("learn_opt,learn_em", 0)):
            worker = run_worker(workload, 0, 0, 0, deadline,
                                ("--no-reference", "--ops", ops, "--warm", str(warm)))
            children += [run["0"] for run in worker["runs"]]
        results: dict = {}
        for w in children:
            for key, value in w["results"].items():
                if isinstance(value, dict):
                    results.setdefault(key, {}).update(value)
                else:
                    results[key] = value
        reference[workload] = {
            "counters": counters_of(children),
            "learn_opt": results["learn_opt"],
            "learn_em": results["learn_em"],
            "seed0": {k: results[k] for k in ("infer", "queries", "conditionals")},
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "pasplearn" / "__init__.py").is_file():
        print(f"error: no pasplearn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference()
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, res in results.items():
        report(workload, args.seed, res)
    line = result_line(results, prefix=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
