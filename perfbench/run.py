"""Run one workload of the betaflow benchmark and print its metrics.

    python3 perfbench/run.py --workload flows --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  ``--seconds`` sets the amount of work: a run times as many
rounds of its workload as took that many seconds at the baseline commit
(``nominal_round_s`` on each workload), so every run of a workload times
the same number of operations and its tail percentile sits at the same
rank.  Every operation has its own seeded point and is called once.

Times are scaled to a reference host speed (``perfbench/hostspeed.py``):
a reference kernel, which calls nothing in betaflow, is timed between the
operations, and each operation's wall time is multiplied by
``REFERENCE_S`` over the kernel's time around it.  On a shared host the
wall time of the same call drifts by up to twice within a minute; the
scaled time does not, while a change to the package moves it as much as
the wall time.  The record keeps the wall times too.  Set-up time is
not scaled: a fresh interpreter's import did not follow the kernel's
speed, so ``setup_s`` is a median of wall times.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:
``setup_s``, the median of SETUP_SAMPLES fresh-interpreter imports of
betaflow spread through the run; ``ops_per_s``, passed operations over
the summed time of all operations; ``op_ms_p50`` and ``op_ms_tail``,
percentiles of the operation latencies; ``pass_frac``, passed over
attempted operations.
With ``--trace 1`` it runs half as many rounds, each operation once plain
and once through counting model proxies, and reports the per-layer
metrics (``perfbench/layers.json`` maps each to where it is measured and
the end-to-end metric it should move): those this workload owns from its
own operations, the rest from one traced round of the other workload and
of the scan and CLI probes, plus the micro-timed per-call cost of every
layer.
Metrics labelled computed are a call count times a micro-timed per-call
cost.  ``trace.overhead_frac`` is the traced time over the plain time of
the same operations, minus one.

Every operation is gated by its oracle.  A raised ``BetaflowError``, an
oracle miss or any other exception counts as a failed operation; the
last is a defect of the program and is reported separately.  ``correct``
is false when a result the program returned missed its oracle.
Human-readable lines come first; the last line of standard output is one
JSON object.  A full record (environment,
tail percentile, wall times, every failure) goes to
``.perfbench/<workload>-seed<n>-trace<t>.json``; a traced run also writes its
spans beside it, and ``--profile`` the top cProfile rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
TAIL_BEYOND = 10
# Start no further operation after this long, to stay inside the 180 s
# budget even when the program is several times slower than at the baseline.
MEASURE_LIMIT_S = 120.0
# Fresh-interpreter imports, timed at even intervals through the run;
# setup_s is their median.
SETUP_SAMPLES = 15


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="store the top cProfile rows of the measured loop")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "betaflow" / "__init__.py").is_file():
        print(f"error: no betaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 profile=args.profile)
    print_result(result)
    return 0


def make_workload(name: str, seed: int, out_dir: Path):
    from perfbench.workloads import PROBES, WORKLOADS, Cli

    if name == Cli.name:
        return Cli(seed, ROOT, out_dir / f"cli-{seed}")
    return {**WORKLOADS, **PROBES}[name](seed)


@dataclass
class Attempt:
    """One timed call of an operation, gated by its oracle."""

    seconds: float
    outcome: str  # "pass", "error" (BetaflowError), "miss" (oracle) or "defect"
    message: str | None
    out: object = None
    tally: dict | None = None


def attempt(workload, op, tracer=None) -> Attempt:
    """Run one operation once and gate it with its oracle.  A traced call
    goes through counting model proxies inside a span."""
    from betaflow import BetaflowError
    from perfbench.tracing import ModelProxy, new_tally

    tally = new_tally() if tracer is not None else None
    wrap = (lambda model: ModelProxy(model, tally)) if tracer is not None else (lambda m: m)
    out, outcome, message = None, "pass", None
    start = perf_counter()
    try:
        if tracer is None:
            out = workload.call(op, wrap)
        else:
            with tracer.span(workload.call_name, workload=workload.name,
                             kind=op.kind) as span:
                try:
                    out = workload.call(op, wrap)
                finally:
                    span["calls"] = {k: list(v) for k, v in tally.items()}
    except BetaflowError as exc:
        outcome, message = "error", f"{type(exc).__name__}: {exc}"
    except Exception:  # a defect of the program: record it, keep running
        outcome, message = "defect", traceback.format_exc()
    seconds = perf_counter() - start
    if outcome == "pass":
        try:
            message = workload.check(op, out)
        except Exception as exc:  # the oracle could not evaluate the result
            message = f"oracle raised {type(exc).__name__}: {exc}"
        if message is not None:
            outcome = "miss"
    if tracer is not None:
        tracer.spans[-1]["outcome"] = outcome
    return Attempt(seconds, outcome, message, out, tally)


class Counts:
    """Outcomes of the operations of one workload."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.passed = 0
        self.errors: list[str] = []
        self.misses: list[str] = []
        self.defects: list[str] = []
        self.totals: dict = {"ops": 0, "call_s": 0.0}
        self.tally: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, workload, op, result: Attempt, scale: float = 1.0) -> None:
        """Record one operation; its latency is its wall time times scale."""
        self.latencies.append(result.seconds * scale)
        self.wall.append(result.seconds)
        if result.outcome == "pass":
            self.passed += 1
        else:
            {"error": self.errors, "miss": self.misses,
             "defect": self.defects}[result.outcome].append(f"{op.kind}: {result.message}")
        if result.tally is None:
            return
        self.totals["ops"] += 1
        self.totals["call_s"] += result.seconds
        for key, (n, s) in result.tally.items():
            entry = self.tally.setdefault(key, [0, 0.0])
            entry[0] += n
            entry[1] += s
        if result.outcome == "pass":
            for key, value in workload.observe(op, result.out, result.seconds).items():
                self.totals[key] = self.totals.get(key, 0) + value


def run(name: str, seed: int, seconds: float, traced: bool,
        profile: bool = False, out_dir: Path = OUT_DIR) -> dict:
    """Measure one workload; returns the full result record."""
    import numpy as np

    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import BATCHES, LayerCosts, Tracer
    from perfbench.workloads import PROBES, WORKLOADS, child_env, import_times

    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(ROOT)

    workload = make_workload(name, seed, out_dir)
    rounds = max(1, round(seconds / workload.nominal_round_s))
    if traced:
        rounds = max(1, rounds // 2)
    ops = workload.ops(rounds)
    # Number of set-up samples taken before each operation.
    imports_before = np.bincount(np.arange(SETUP_SAMPLES) * len(ops) // SETUP_SAMPLES,
                                 minlength=len(ops))
    # (operation index, traced, attempt, host speed mark)
    timed: list[tuple] = []
    setup_samples: list[float] = []
    speed = HostSpeed()
    tracer = Tracer() if traced else None
    if traced:
        layer_probe = LayerCosts(np.random.Generator(np.random.Philox(seed)))
        sample_every = max(1, len(ops) // BATCHES)
    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile()
    # Warm up on inputs the measured run does not use.
    warm = make_workload(name, seed + 2 ** 40, out_dir)
    attempt(warm, warm.ops(1)[0])
    speed.sample()
    began = perf_counter()
    for i, op in enumerate(ops):
        if i and perf_counter() - began > MEASURE_LIMIT_S:
            break
        if not traced:
            setup_samples += import_times("betaflow", env, int(imports_before[i]))
        # Traced and plain calls of an operation alternate in order.
        sides = (False, True) if i % 2 == 0 else (True, False)
        for side in (sides if traced else (False,)):
            mark = speed.mark()
            if profiler is not None:
                profiler.enable()
            result = attempt(workload, op, tracer if side else None)
            if profiler is not None:
                profiler.disable()
            timed.append((i, side, result, mark))
        if traced and i % sample_every == 0:
            with tracer.span("probe.layer_costs"):
                layer_probe.sample()
    speed.sample()
    measured_s = perf_counter() - began

    plain, traced_counts = Counts(), Counts()
    for i, side, result, mark in timed:
        (traced_counts if side else plain).add(workload, ops[i], result, speed.scale(mark))

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "rounds": rounds, "measured_s": measured_s,
        "environment": environment(),
        "host_kernel_s": speed.samples,
    }
    counts = traced_counts if traced else plain
    record.update(
        attempted=counts.attempted,
        failed=counts.attempted - counts.passed,
        errors=counts.errors, misses=counts.misses, defects=counts.defects,
        correct=not counts.misses,
    )
    if traced:
        costs = layer_probe.costs()
        layer = dict(costs)
        layer.update(workload.layer_metrics(counts.totals, counts.tally, costs))
        for other in [*WORKLOADS, *PROBES]:
            if other == name:
                continue
            extra = make_workload(other, seed, out_dir)
            side = Counts()
            for op in extra.ops(1):
                side.add(extra, op, attempt(extra, op, tracer))
            layer.update(extra.layer_metrics(side.totals, side.tally, costs))
            record["attempted_" + other] = side.attempted
            record["failed_" + other] = side.attempted - side.passed
            record["misses"] += side.misses
            record["defects"] += side.defects
            record["correct"] = record["correct"] and not side.misses
        layer["trace.overhead_frac"] = (
            sum(traced_counts.latencies) / sum(plain.latencies) - 1.0)
        record["metrics"] = layer
        with open(out_dir / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        latencies = sorted(counts.latencies)
        n = len(latencies)
        # The highest rank with TAIL_BEYOND samples above it, as a percentile
        # in numpy's linear convention.
        tail_rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
        record["tail_percentile"] = 100.0 * tail_rank / max(n - 1, 1)
        record["latencies"] = counts.latencies
        record["wall_latencies"] = counts.wall
        record["setup_samples_s"] = setup_samples
        record["wall_metrics"] = {
            "op_ms_p50": 1e3 * statistics.median(counts.wall),
            "op_ms_tail": 1e3 * sorted(counts.wall)[tail_rank],
        }
        record["metrics"] = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": counts.passed / sum(latencies),
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "op_ms_tail": 1e3 * latencies[tail_rank],
            "pass_frac": counts.passed / n,
        }
    if profiler is not None:
        import io
        import pstats
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(30)
        (out_dir / f"profile-{name}-seed{seed}-trace{int(traced)}.txt").write_text(
            text.getvalue())
    with open(out_dir / f"{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return record


def environment() -> dict:
    """Machine and software the result was measured on."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_result(record: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    env = record["environment"]
    print(f"# workload={record['workload']} seed={record['seed']}"
          f" trace={record['trace']} rounds={record['rounds']}"
          f" attempted={record['attempted']} failed={record['failed']}"
          f" correct={record['correct']}")
    print(f"# nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']}"
          f" numpy={env['numpy']} commit={env['commit']}")
    if "tail_percentile" in record:
        print(f"# op_ms_tail is p{record['tail_percentile']:.2f}"
              f" of {record['attempted']} operations")
        wall = record["wall_metrics"]
        print(f"# wall times: op_ms_p50"
              f" {wall['op_ms_p50']:.4g} op_ms_tail {wall['op_ms_tail']:.4g};"
              f" host kernel median {1e3 * statistics.median(record['host_kernel_s']):.3f} ms")
    for failure in (record["errors"] + record["misses"])[:5]:
        print(f"# failed: {failure.splitlines()[0][:160]}")
    for defect in record["defects"][:3]:
        print(f"# DEFECT: {defect}")
    metrics = {}
    for entry in wanted:
        value = record["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        kind = layers[entry["name"]]["kind"] if record["trace"] else ""
        print(f"{entry['name']:36s} {value:.6g} {entry['unit']} {kind}".rstrip())
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
