"""One cold sample: a fresh process, so every lru_cache starts empty.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --spawned-at UNIX_TIME [--tiny]

Pins itself to the CPU that runs ``reference()`` fastest, sets up the
workload's inputs, times its operation once from cold and, when untraced,
WARM_REPS more times with the caches full (the warm run), applies the
correctness gate, and prints one JSON object on stdout. The child also times
``reference()``, fixed work of the benchmark's own, before the cold run,
between the cold and the warm runs, and after the warm runs (``ref_s``), so
the parent can scale each time by the host's speed around it.
``--spawned-at`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` counts interpreter start, the package import and
input generation, but not the CPU probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: warm repetitions per child; the parent takes each child's median
WARM_REPS = 3
#: CPUs a child probes before it pins itself (each probe is one reference())
PROBE_CPUS = 4


def reference():
    """Fixed pure-Python work that never touches the package: sets of
    frozensets of tuples (as subgroup enumeration builds them), divisor
    loops and Fraction sums. Its time tracks how fast the host runs the
    interpreter at the moment, not the code under test. The cyclic garbage
    collector is off meanwhile (the work makes no cycles), so the time does
    not depend on how many objects the package holds in its caches."""
    gc.disable()
    try:
        acc, sizes = F(0), {}
        for n in range(2, 32):
            subgroups = set()
            for a in range(n):
                for b in range(n):
                    subgroups.add(frozenset(((a * k) % n, (b * k) % n) for k in range(n)))
            sizes[n] = len(subgroups)
            acc += F(len(subgroups), n) - F(sum(d for d in range(1, n + 1) if n % d == 0), n + 1)
    finally:
        gc.enable()
    return acc, sizes


def pin_to_fastest_cpu() -> float:
    """Time ``reference()`` on each of the first PROBE_CPUS CPUs this
    process may use and stay on the fastest; return the seconds spent.

    On a shared host one CPU is often slowed (by work on its sibling
    hyperthread) while another is not, for seconds at a time; pinning keeps
    the measured calls and the references around them on one CPU."""
    start = time.perf_counter()
    if hasattr(os, "sched_setaffinity"):
        probe = {}
        for cpu in sorted(os.sched_getaffinity(0))[:PROBE_CPUS]:
            os.sched_setaffinity(0, {cpu})
            probe[cpu] = _timed(reference)[0]
        os.sched_setaffinity(0, {min(probe, key=probe.get)})
    return time.perf_counter() - start


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def sample(workload, seed: int, trace: bool, size: dict, spawned_at: float,
           probe_s: float) -> dict:
    from tracing import ROOT as ROOT_SPAN, CACHED, Tracer, cache_counts, layer_metrics

    inputs = workload.setup(random.Random(seed), **size)
    result = {"setup_s": time.time() - spawned_at - probe_s}
    refs = [_timed(reference)[0]]
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            before = {g: cache_counts(g) for g in CACHED}
            tracer.active = True
            with tracer.span(ROOT_SPAN):
                wall, out = _timed(workload.run, inputs)
            tracer.active = False
            after = {g: cache_counts(g) for g in CACHED}
        finally:
            tracer.uninstall()
        refs.append(_timed(reference)[0])
        layers = layer_metrics(tracer, before, after)
        layers["trace.dominant_share"] = sum(
            layers[f"{layer}.self_frac"] for layer in workload.dominant
        )
        result["layers"] = layers
        warm_out = out
    else:
        wall, out = _timed(workload.run, inputs)
        refs.append(_timed(reference)[0])
        reps = []
        for _ in range(WARM_REPS):
            t, warm_out = _timed(workload.run, inputs)
            reps.append(t)
        refs.append(_timed(reference)[0])
        result["warm_s"] = reps
    result["ref_s"] = refs
    result["wall_s"] = wall
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = workload.check(inputs, out)
    if warm_out != out:
        failures.append(f"{workload.name}: warm output differs from cold")
    result["attempted"] = attempted
    result["failed"] = min(attempted, len(failures))
    result["failures"] = failures[:5]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    probe_s = pin_to_fastest_cpu()

    sys.path.insert(0, str(SRC))
    import delliptic

    if Path(delliptic.__file__).resolve().parent != SRC / "delliptic":
        print(f"imported delliptic from {delliptic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else {}
    print(json.dumps(sample(workload, args.seed, bool(args.trace), size, args.spawned_at, probe_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
