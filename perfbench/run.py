"""Benchmark of jetcalc: one seeded workload per run, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jacobi|models|symmetry --seed N \
        --seconds S --trace 0|1

The program under test is the checkout's own `src/jetcalc`; nothing is
installed.  Workloads are described in `workloads.py`.

With `--trace 0` the run measures the end-to-end metrics, untraced:

* `setup_s`: median over `SETUP_PROBES` fresh interpreters, launched one at a
  time between rounds, of the time from launch until `import jetcalc` is done
  and the workload's inputs are built;
* `tasks_per_s`: tasks completed per second of task time (input generation
  and output checks are not timed);
* `task_p50_ms`, `task_p90_ms`: nearest-rank percentiles of task time; every
  run makes at least 100 tasks, so at least ten samples lie beyond p90;
* `peak_rss_mb`: the maximum resident memory of this process.

The loop runs whole rounds of tasks until `--seconds` have passed and at least
`min_tasks` tasks are done.  Every task's output is checked by the workload's
exact identities and, for the default seed, against the committed golden
(`golden/<workload>.json`: exit code and a SHA-256 prefix of the rendered
output of the first `golden_tasks` tasks).  A task that raised, exited with
the wrong code or failed a check counts in `failed`; the share is printed as
`failed_share` but is not one of the JSON metrics, which must never read 0
(`failed` and `attempted` carry it).  `digest` hashes the rendered outputs of the first
`min_tasks` tasks, so two programs can be compared byte for byte on any seed.

With `--trace 1` the run takes the first `trace_tasks` tasks of the seed three
times: untraced, traced (`tracer.py`) and under cProfile, and reports the
per-layer metrics and the tracing overhead (traced minus untraced task time).
Its length is set by `trace_tasks`, not by `--seconds`, so that its counts
repeat exactly for a seed.

Each run writes a report to `perfbench/out/<workload>-seed<N>-trace<T>.json`,
with `wc -l src/jetcalc/*.py` as context; a traced run also writes its spans
and a cProfile top list beside it.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
PROFILE_TOP = 40
FAILURES_KEPT = 20

sys.path.insert(0, str(SRC))
try:
    import jetcalc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import jetcalc from {SRC}: {exc}")
if Path(jetcalc.__file__).resolve().parent != SRC / "jetcalc":
    sys.exit(f"perfbench: imported jetcalc from {jetcalc.__file__}, not from {SRC}")

import workloads  # noqa: E402  (needs jetcalc on the path)
from tracer import Tracer  # noqa: E402

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
              ("task_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Metrics ending in .calls or .self_s are read from the tracer's span of the
# same name; the others are counters and derived values, filled in `trace`.
PER_LAYER = (
    ("kernel.mul.calls", "count"), ("kernel.mul.self_s", "s"),
    ("kernel.mul.term_pairs", "count"), ("kernel.mul.zero_operand_share", "share"),
    ("kernel.add.calls", "count"), ("kernel.add.self_s", "s"),
    ("kernel.partial.calls", "count"), ("kernel.partial.self_s", "s"),
    ("kernel.substitute.calls", "count"), ("kernel.substitute.self_s", "s"),
    ("kernel.pow.calls", "count"), ("kernel.pow.self_s", "s"),
    ("kernel.monomial.constructions", "count"),
    ("varcalc.total_derivative.calls", "count"), ("varcalc.total_derivative.self_s", "s"),
    ("varcalc.euler.calls", "count"), ("varcalc.euler.self_s", "s"),
    ("varcalc.invert_total_derivative.self_s", "s"), ("varcalc.d_h.self_s", "s"),
    ("poisson.l2_density.calls", "count"), ("poisson.l2_density.self_s", "s"),
    ("poisson.jacobiator.self_s", "s"),
    ("poisson.cyclic_sum.calls", "count"), ("poisson.cyclic_sum.self_s", "s"),
    ("shlie.l3.calls", "count"), ("shlie.l3.self_s", "s"),
    ("symmetry.automorphism_validate.self_s", "s"), ("symmetry.compose.calls", "count"),
    ("symmetry.group_validate.self_s", "s"),
    ("symmetry.pullback.calls", "count"), ("symmetry.pullback.self_s", "s"),
    ("symmetry.prolong.hit_share", "share"), ("symmetry.group_average.self_s", "s"),
    ("sigma.ikeda_lagrangian.self_s", "s"), ("sigma.sigma_euler_check.self_s", "s"),
    ("dsl.parse_expr.calls", "count"), ("dsl.parse_expr.self_s", "s"),
    ("dsl.parse_expr.chars", "count"),
    ("dsl.render_expr.calls", "count"), ("dsl.render_expr.self_s", "s"),
    ("modelfile.load_model.calls", "count"), ("modelfile.load_model.self_s", "s"),
    ("cli.run.calls", "count"), ("cli.run.self_s", "s"),
    ("out.terms", "count"), ("out.max_degree", "count"), ("out.max_jet_order", "count"),
    ("out.coeff_bits", "count"),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_lines() -> dict[str, int]:
    """`wc -l src/jetcalc/*.py`, as context for the numbers."""
    counts = {path.name: len(path.read_bytes().splitlines())
              for path in sorted((SRC / "jetcalc").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def load_golden(name: str, seed: int) -> list:
    if seed != workloads.DEFAULT_SEED:
        return []
    with open(HERE / "golden" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["tasks"]


class Harness:
    """Runs tasks of one workload, checks them and counts failures."""

    def __init__(self, workload, golden: list):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []      # the first FAILURES_KEPT messages

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append(message)

    def execute(self, i: int, inp, hook=None) -> tuple[float, workloads.Outcome | None]:
        """Run task i on its input; return its time and checked outcome.

        `hook(True)` and `hook(False)` bracket the timed call (tracing and
        profiling switch on and off there).
        """
        self.attempted += 1
        if hook:
            hook(True)
        start = time.perf_counter()
        try:
            result, error = self.workload.run(inp), None
        except Exception:  # a task that raises is a failed task, not a crashed run
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if hook:
            hook(False)
        if error:
            self.fail(f"task {i}: raised\n{error}")
            return elapsed, None
        try:
            outcome = self.workload.check(inp, result)
        except Exception:
            self.fail(f"task {i}: check raised\n{traceback.format_exc()}")
            return elapsed, None
        problems = list(outcome.problems)
        if i < len(self.golden):
            code, digest, head = self.golden[i]
            if code != outcome.code or digest != sha(outcome.text)[:len(digest)]:
                problems.append(f"differs from golden (code {code}, starts {head!r}); "
                                f"got code {outcome.code}, starts {outcome.text[:60]!r}")
        if problems:
            self.fail(f"task {i}: " + "; ".join(problems))
        return elapsed, outcome


def probe_setup(name: str, seed: int) -> float:
    """Launch a fresh interpreter that imports jetcalc and builds the inputs."""
    workdir = OUT / f"setup-{name}-{seed}"
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    ready = int(proc.stdout.split()[-1])   # CLOCK_MONOTONIC, shared across processes
    return (ready - start) / 1e9


def measure(name: str, seed: int, seconds: float) -> dict:
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT / f"{name}-{seed}")
    harness = Harness(wl, load_golden(name, seed))
    times: list[float] = []
    setups: list[float] = []
    texts = hashlib.sha256()
    start = time.perf_counter()
    probing = 0.0
    i = 0
    while i < wl.min_tasks or time.perf_counter() - start - probing < seconds:
        # Set-up probes are spread over the run, so that their median sees the
        # same machine states as the tasks do.
        if (len(setups) < SETUP_PROBES
                and time.perf_counter() - start - probing >= len(setups) * seconds / SETUP_PROBES):
            probe_start = time.perf_counter()
            setups.append(probe_setup(name, seed))
            probing += time.perf_counter() - probe_start
        for _ in range(wl.round_size):
            elapsed, outcome = harness.execute(i, wl.make_input(i))
            times.append(elapsed)
            if i < wl.min_tasks:
                texts.update(f"{i}\0{outcome.code if outcome else 'error'}\0"
                             f"{outcome.text if outcome else ''}\0".encode("utf-8"))
            i += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(name, seed))
    shutil.rmtree(OUT / f"setup-{name}-{seed}", ignore_errors=True)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(times) / sum(times),
        "task_p50_ms": percentile(times, 50) * 1000,
        "task_p90_ms": percentile(times, 90) * 1000,
        "peak_rss_mb": rss_mb,
    }
    return {
        "harness": harness,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END},
        "report": {
            "tasks": len(times), "wall_s": wall, "setup_samples_s": setups,
            "golden_tasks_checked": min(len(times), len(harness.golden)),
            "digest": texts.hexdigest(), "digest_tasks": wl.min_tasks,
            "slot_median_ms": [statistics.median(times[k::wl.round_size]) * 1000
                               for k in range(wl.round_size)],
            "task_ms": [round(t * 1000, 3) for t in times],
        },
    }


def size_counts(outcomes) -> dict[str, int]:
    terms = degree = order = bits = 0
    for outcome in outcomes:
        for p in outcome.polys:
            for mono, coeff in p.items():
                terms += 1
                degree = max(degree, mono.degree)
                bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
            order = max(order, p.max_order())
    return {"out.terms": terms, "out.max_degree": degree, "out.max_jet_order": order,
            "out.coeff_bits": bits}


def trace(name: str, seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT / f"{name}-{seed}")
    inputs = [wl.make_input(i) for i in range(wl.trace_tasks)]
    harness = Harness(wl, load_golden(name, seed))

    untraced = [harness.execute(i, inp) for i, inp in enumerate(inputs)]

    tracer = Tracer()
    tracer.install()

    def switch(on: bool):
        tracer.active = on

    try:
        traced = []
        for i, inp in enumerate(inputs):
            tracer.task = i
            traced.append(harness.execute(i, inp, hook=switch))
    finally:
        tracer.uninstall()
    for i, ((_, plain), (_, seen)) in enumerate(zip(untraced, traced)):
        if plain and seen and (plain.code, plain.text) != (seen.code, seen.text):
            harness.fail(f"task {i}: traced output differs from untraced output")

    profile = cProfile.Profile()
    for i, inp in enumerate(inputs):
        harness.execute(i, inp, hook=lambda on: profile.enable() if on else profile.disable())
    stem = OUT / f"{name}-seed{seed}"
    with open(f"{stem}-profile.txt", "w", encoding="utf-8") as handle:
        stats = pstats.Stats(profile, stream=handle)
        handle.write(f"cProfile of the first {len(inputs)} {name} tasks, seed {seed}\n")
        stats.sort_stats("tottime").print_stats(PROFILE_TOP)
        stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
    with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
        for span_id, parent, task, span_name, start, end in tracer.spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "task": task,
                                     "name": span_name, "start": start, "end": end}) + "\n")

    values = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = tracer.calls(layer)
        elif stat == "self_s":
            values[metric] = tracer.self_s(layer)
    counters = tracer.counters
    mul_calls = tracer.calls("kernel.mul")
    prolongs = tracer.calls("symmetry.prolong")
    values.update({
        "kernel.mul.term_pairs": counters["kernel.mul.term_pairs"],
        "kernel.mul.zero_operand_share":
            counters["kernel.mul.zero_operand"] / mul_calls if mul_calls else 0.0,
        "kernel.monomial.constructions": counters["kernel.monomial.constructions"],
        "symmetry.prolong.hit_share":
            counters["symmetry.prolong.hits"] / prolongs if prolongs else 0.0,
        "dsl.parse_expr.chars": counters["dsl.parse_expr.chars"],
        "trace.untraced_s": sum(t for t, _ in untraced),
        "trace.traced_s": sum(t for t, _ in traced),
    })
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    values.update(size_counts(o for _, o in untraced if o))
    return {
        "harness": harness,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER},
        "report": {
            "tasks": len(inputs), "spans_recorded": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "all_spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(tracer.aggregate.items()) if v[0]},
            "profile": f"{stem.name}-profile.txt", "spans": f"{stem.name}-spans.jsonl",
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jetcalc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    harness = result["harness"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": harness.attempted, "failed": harness.failed,
        "failed_share": harness.failed / harness.attempted,
        "metrics": result["metrics"], **result["report"],
        "python": platform.python_version(), "machine": platform.machine(),
        "source_lines": source_lines(), "failures": harness.failures,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for failure in harness.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {harness.attempted} tasks, "
          f"failed_share {report['failed_share']:.4f}"
          + (f", digest {report['digest']}" if "digest" in report else ""))
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']} {metric['unit']}")
    print(f"  report: {path}")
    print(json.dumps({"correct": harness.failed == 0, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
