"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The load is a closed
loop with one client: this process starts one fresh child process
(perfbench/child.py) at a time, waits for it, and starts the next until
``--seconds`` have passed. Every child is one cold sample; the reported
figures are medians over the run's children. Times are scaled by the
reference work each child times around its calls (see ``scaled``).

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_frac``: the
median traced wall time over the median untraced wall time, minus 1.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every correctness gate passed, 1 when one failed,
and 2 when the checkout holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: the names in workloads.WORKLOADS, which this process does not import
#: (it never loads the package it measures)
WORKLOADS = ("verify", "certify", "fit", "pointed-sweep")

END_TO_END = {"wall_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_frac": "ratio", "_share": "ratio"}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off the suffix of its second name
    part (``loci.profile_s.m21`` is in s, ``linalg.cells`` a count)."""
    part = name.split(".")[1]
    return next((u for suffix, u in _LAYER_UNITS.items() if part.endswith(suffix)), "count")


#: every time is scaled to a host on which child.reference() takes this long
REFERENCE_S = 0.1


def scaled(seconds: float, refs: list[float]) -> float:
    """``seconds`` as it would read on the reference host: the host's speed
    drifts by up to 2x over minutes, and the reference, timed in the same
    child around the measured call, drifts with it."""
    return seconds * REFERENCE_S / statistics.fmean(refs)


#: a run starts no child that would end after about this many seconds
RUN_LIMIT_S = 150.0


def environment() -> dict:
    """What a result needs for its trajectory to be read back later."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": commit,
    }


def has_package() -> bool:
    return (ROOT / "src" / "delliptic" / "__init__.py").is_file()


def spawn(workload: str, seed: int, trace: bool, tiny: bool, deadline: float) -> dict:
    """Run one child to completion; a crashed or hung child reports one failed operation."""
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--spawned-at", repr(time.time())]
    if tiny:
        argv.append("--tiny")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "failures": [f"{workload}: child timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1,
                "failures": [f"{workload}: child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Closed loop of cold children for ``seconds``; returns the result object."""
    start = time.monotonic()
    deadline = start + 170.0
    plain, traced = [], []
    while True:
        plain.append(spawn(workload, seed, False, tiny, deadline))
        if trace:
            traced.append(spawn(workload, seed, True, tiny, deadline))
        elapsed = time.monotonic() - start
        # start another child only if it is expected to end by about half
        # a child's length after ``seconds``, so a run lasts about ``seconds``
        if elapsed + 0.5 * elapsed / len(plain) > min(seconds, RUN_LIMIT_S):
            break
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = [f for s in samples for f in s.get("failures", [])]
    ok_plain = [s for s in plain if "wall_s" in s]
    ok_traced = [s for s in traced if "layers" in s]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        metrics = {}
        if ok_traced:
            for name in ok_traced[0]["layers"]:
                metrics[name] = statistics.median(s["layers"][name] for s in ok_traced)
        untraced = median(scaled(s["wall_s"], s["ref_s"][:2]) for s in ok_plain)
        traced_wall = median(scaled(s["wall_s"], s["ref_s"][:2]) for s in ok_traced)
        metrics["trace.overhead_frac"] = traced_wall / untraced - 1 if untraced else 0.0
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": median(scaled(s["wall_s"], s["ref_s"][:2]) for s in ok_plain),
            # one value per child, its median repetition: the first warm
            # call after a reference can be slower, which on a call of
            # microseconds would otherwise decide the run's median
            "warm_s": median(scaled(statistics.median(s["warm_s"]), s["ref_s"][1:])
                             for s in ok_plain),
            "setup_s": median(scaled(s["setup_s"], s["ref_s"][:1]) for s in ok_plain),
            "peak_rss_mib": median(s["rss_mib"] for s in ok_plain),
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": len(ok_traced if trace else ok_plain),
        "failures": failures[:10],
        "children": ok_traced if trace else ok_plain,
    }


def result_line(result: dict, trace: bool) -> str:
    """The contract's last line: exactly these four keys, and exactly the
    metrics BENCHMARK.json declares for the mode (a traced run computes a
    few more, which only suite.py prints)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {name: result["metrics"][name] for name in names}
    return json.dumps(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not has_package():
        print(f"no package at {ROOT / 'src' / 'delliptic'}; run from a checkout", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {result['samples']} cold samples, "
          f"{result['failed']}/{result['attempted']} operations failed")
    print(result_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
