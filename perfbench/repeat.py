"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --seeds 1-10 --trace 0

Each run is a fresh ``perfbench/run.py`` process, one at a time, for every
workload of ``BENCHMARK.json`` and its ``run_seconds``.  For
every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the interquartile distance as a share of the
median, next to the metric's bound and a third of it.  ``--out`` writes
the summary as JSON; ``--sanity`` adds timings of the reference
operations that the ROADMAP baseline quotes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = {"median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median if median else None,
                 "values": values}
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    summary["_counts"] = {
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "correct": all(r["correct"] for r in results),
    }
    return summary


def sanity() -> dict:
    """The ROADMAP's reference timings, measured here (median of 5)."""
    sys.path.insert(0, str(ROOT / "src"))
    import betaflow as bf

    def timed(func, repeats=5):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            func()
            times.append(perf_counter() - start)
        return statistics.median(times)

    eta = bf.STIRLING_MODEL.eta((2.5, 3.0, 2.0))
    box = (1.2, 5.0)
    return {
        "exact_reference_flow_s": timed(lambda: bf.integrate(
            bf.EXACT_MODEL, (2.0, 3.0, 4.0), 2.0, rtol=1e-10, atol=1e-12)),
        "stirling_reference_flow_s": timed(lambda: bf.integrate(
            bf.STIRLING_MODEL, (2.5, 3.0, 2.0), 2.0, rtol=1e-10, atol=1e-12)),
        "scan_res32_s": timed(lambda: bf.scan_degeneracy(
            bf.Region(box, box, box, 32, 32, 32)), repeats=3),
        "stirling_invert_eta_ms": 1e3 * timed(
            lambda: bf.invert_eta(bf.STIRLING_MODEL, eta), repeats=9),
        "roadmap": {"exact_reference_flow_s": 0.20, "stirling_reference_flow_s": 0.38,
                    "scan_res32_s": "1.1-1.25", "stirling_invert_eta_ms": "42-48"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--sanity", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(ROOT))
    from perfbench.run import environment

    report = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
              "environment": environment(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        summary = summarise(results, bounds)
        report["workloads"][workload] = summary
        print(f"== {workload}: attempted {summary['_counts']['attempted']}"
              f" failed {summary['_counts']['failed']}"
              f" correct={summary['_counts']['correct']}")
        for name, entry in summary.items():
            if name.startswith("_"):
                continue
            spread = "n/a" if entry["spread"] is None else f"{entry['spread']:.4f}"
            limit = (f" bound {entry['bound']} (third {entry['bound'] / 3:.4f})"
                     if "bound" in entry else "")
            print(f"  {name:36s} median {entry['median']:.6g}"
                  f" q1 {entry['q1']:.6g} q3 {entry['q3']:.6g} spread {spread}{limit}")
        sys.stdout.flush()
    if args.sanity:
        report["sanity"] = sanity()
        print("sanity:", json.dumps(report["sanity"], indent=1))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
