"""Every workload in one command, with a steadiness report.

    python3 perfbench/suite.py [--repeats R] [--seconds S] [--seed N]
                               [--workloads NAME ...] [--trace] [--out FILE]

Runs each workload R times (seeds N, N+1, ...), each run as ``run.py``
would, and prints every end-to-end metric by name and unit with its median
over the runs. With R >= 2 it also prints each metric's run-to-run spread,
the distance between the first and third quartile of the R run medians as a
share of their median, against the metric's bound in BENCHMARK.json. A
metric whose spread is not below its bound is flagged UNRESOLVED: a change
smaller than its spread cannot be told from noise. ``setup_s`` is reported
the same way, though only its median is gated. ``--trace`` adds one traced
run per workload and checks its stated dominant layers.

Exits 1 if any correctness gate failed, 2 if the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

#: a traced run confirms a workload's dominant layers when they hold at
#: least this share of the traced operation's time
DOMINANT_SHARE = 0.5


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def end_to_end_table(name: str, results: list[dict], bounds: dict) -> list[str]:
    lines = []
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines.append(f"  {'failed_frac':<16} {failed / attempted if attempted else 1.0:>12.4g} ratio "
                 f"({failed}/{attempted} operations)")
    for metric, unit in run.END_TO_END.items():
        values = [r["metrics"][metric]["value"] for r in results]
        line = f"  {metric:<16} {statistics.median(values):>12.6g} {unit:<5}"
        if len(values) >= 2:
            s, bound = spread(values), bounds[metric]
            status = "ok" if s < bound / 3 else ("within bound" if s < bound else "UNRESOLVED")
            line += f" spread {s:7.2%} of bound {bound:.0%}: {status}"
        lines.append(line)
    refs = [t for r in results for child in r["children"] for t in child["ref_s"]]
    if refs:
        lines.append(f"  (reference took {statistics.median(refs):.4g} s here; the times above "
                     f"are scaled to {run.REFERENCE_S:g} s)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None, help="write every result as JSON here")
    args = parser.parse_args(argv)
    if not run.has_package():
        print("no package to benchmark; run from a checkout", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    env = run.environment()
    print("env: " + json.dumps(env))
    record = {"env": env, "seconds": seconds, "runs": {}}
    correct = True
    for name in args.workloads:
        results = []
        for i in range(args.repeats):
            results.append(run.run_workload(name, args.seed + i, seconds, False))
        print(f"{name}: {args.repeats} run(s) of {seconds:g} s, "
              f"{sum(r['samples'] for r in results)} cold samples")
        for line in end_to_end_table(name, results, bounds):
            print(line)
        if args.trace:
            traced = run.run_workload(name, args.seed, seconds, True)
            results.append(traced)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            share = layers["trace.dominant_share"]
            verdict = "confirmed" if share >= DOMINANT_SHARE else "NOT confirmed"
            print(f"  traced: dominant-layer share {share:.2f} ({verdict}), "
                  f"overhead {layers['trace.overhead_frac']:+.1%}")
            for key, value in layers.items():
                print(f"    {key:<28} {value:>12.6g} {run.per_layer_unit(key)}")
        for r in results:
            for failure in r["failures"]:
                print(f"  FAILED {failure}")
            correct = correct and r["correct"]
        record["runs"][name] = results
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
