"""Benchmark runner: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

With ``--trace 0`` the run repeats, for ``--seconds`` seconds, a timed
batch of input builds and then the workload's pass on a fresh copy of
the inputs; ``setup_s`` is the median batch's time per build, ``run_s``
the upper quartile of the pass times (see ``run_time``), and every pass's
outputs are checked.  With ``--trace 1`` it times passes with tracing off
and then with tracing on, and reports the per-layer metrics of
``layers.PER_LAYER`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and
failed count passes, so ops_failed_frac = failed / attempted.  A record
with the machine description is written to ``.perfbench_records/`` at
the root of the checkout, beside the spans of a traced run.

``--workload all`` runs every workload in its own process and prints one
table with units.  The runner imports ``fpulab`` from ``src/`` of the
checkout it sits in and exits with code 2 when that is missing.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the arrays are a few thousand entries long, so
# threads would add scheduling jitter, not speed
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import copy
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench_records"

MIN_PASSES = 3
# Set-up is timed in batches of builds that take at least SETUP_BATCH_S
# together, so that a set-up of a millisecond is timed over as much work
# as one of a second, not over a span a single interruption can double.
# One batch runs before each pass, so the set-up samples span the run as
# the passes do: on a shared virtual machine the speed can change by a
# fifth within half a minute, and set-ups timed in a burst before the
# first pass spread up to twice as wide as the passes (FINDINGS.md).
# setup_s is the median batch's time per build.
SETUP_BATCH_S = 0.25
CHILD_TIMEOUT_S = 600


def run_time(pass_s):
    """run_s of a run: the upper quartile of its pass times.

    The shared host runs a pass up to a fifth faster in bursts of tens of
    seconds, when its other tenants idle, and in some runs these bursts
    cover half the passes.  The median then lands on either speed, so ten
    runs of the same code spread past a quarter of the median.  The upper
    quartile stays with the usual speed while the bursts cover less than
    three quarters of a run; any change to the program still moves every
    pass, and so this quartile, alike (FINDINGS.md).
    """
    return statistics.quantiles(pass_s, n=4, method="inclusive")[2]


def _fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "fpulab" / "__init__.py").is_file():
        _fail("no fpulab package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import fpulab

    if Path(fpulab.__file__).resolve().parent != SRC / "fpulab":
        _fail("imported fpulab from %s, not %s" % (fpulab.__file__, SRC))


def machine():
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sized_setup(workload, seed, size):
    """Build the inputs twice; return (inputs, builds per timed batch).

    The first build also pays for lazy imports; the second sizes the batches.
    """
    workload.setup(seed, size)
    t0 = time.perf_counter()
    inputs = workload.setup(seed, size)
    return inputs, max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - t0)))


def timed_setup_batch(workload, seed, size, batch):
    """Seconds per build over `batch` builds of the inputs."""
    t0 = time.perf_counter()
    for _ in range(batch):
        workload.setup(seed, size)
    return (time.perf_counter() - t0) / batch


class Passes:
    """Timed passes of one workload, with their output checks."""

    def __init__(self, workload, inputs, size):
        from workloads import digest

        self.digest = digest
        self.workload = workload
        self.inputs = inputs
        self.size = size
        self.attempted = 0
        self.misses = []  # (pass index, message)
        self.digests = set()

    def run_one(self, tracer=None):
        """One pass on a fresh copy of the inputs; returns its wall time."""
        inputs = copy.deepcopy(self.inputs)
        index = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs = self.workload.drive(inputs)
            else:
                with tracer.scope("pass"):
                    outputs = self.workload.drive(inputs)
        except (ArithmeticError, LookupError, RuntimeError, ValueError) as err:
            self.misses.append((index, "raised %s: %s" % (type(err).__name__, err)))
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        self.digests.add(self.digest(outputs))
        for message in self.workload.check(outputs, self.size):
            self.misses.append((index, message))
        return elapsed

    @property
    def failed(self):
        return len({index for index, _ in self.misses})


def repeat(seconds, fn):
    """Call fn at least MIN_PASSES times, and again while one more call of
    the median duration so far still ends within `seconds`."""
    out, took = [], []
    deadline = time.perf_counter() + seconds
    while (len(out) < MIN_PASSES
           or time.perf_counter() + statistics.median(took) <= deadline):
        t0 = time.perf_counter()
        out.append(fn())
        took.append(time.perf_counter() - t0)
    return out


def measure(workload, seed, seconds, size):
    inputs, batch = sized_setup(workload, seed, size)
    passes = Passes(workload, inputs, size)
    setups = []

    def setup_then_pass():
        setups.append(timed_setup_batch(workload, seed, size, batch))
        return passes.run_one()

    times = repeat(seconds, setup_then_pass)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_time(times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_builds_per_batch": batch, "setup_s_per_batch": setups,
              "run_samples": len(times), "pass_s": times}
    return metrics, passes, detail


def measure_traced(workload, seed, seconds, size):
    import layers
    from tracer import Tracer, package_modules

    tracer = Tracer(package_modules())
    tracer.install()
    try:
        with tracer.scope("setup"):
            inputs = workload.setup(seed, size)
    finally:
        tracer.remove()
    passes = Passes(workload, inputs, size)
    traced_index = []  # index in `passes` of each traced pass, in order

    def traced_pass():
        traced_index.append(passes.attempted)
        tracer.install()
        try:
            return passes.run_one(tracer)
        finally:
            tracer.remove()

    # Untraced and traced passes alternate, so a change in the host's speed
    # during the run reaches both sides of the overhead alike; which comes
    # first alternates too, because the first pass of a pair can run slower
    # (by a fifth on toda_split).
    order = itertools.cycle((True, False))

    def pair():
        if next(order):
            plain = passes.run_one()
            return plain, traced_pass()
        traced = traced_pass()
        return passes.run_one(), traced

    plain, traced = zip(*repeat(seconds, pair))
    if not tracer.originals_in_place():
        raise RuntimeError("tracing left a wrapper behind")

    combined = layers.Combined(tracer.summarize(tracer.roots("setup")[0]),
                               [tracer.summarize(r) for r in tracer.roots("pass")])
    # the counts are exact, so a traced pass that makes other counts than
    # the first one is a miss of that pass
    mismatches = combined.count_mismatches()
    for position, name in mismatches:
        passes.misses.append((traced_index[position],
                              "%s differs from the first traced pass" % name))
    metrics = layers.layer_metrics(combined)
    name, unit, _ = layers.OVERHEAD
    metrics[name] = (run_time(traced) / run_time(plain) - 1.0, unit)
    RECORDS.mkdir(exist_ok=True)
    tracer.write(RECORDS / ("%s-spans.json" % workload.name))
    detail = {
        "run_samples": len(plain),
        "untraced_pass_s": list(plain),
        "traced_pass_s": list(traced),
        "count_mismatches": len(mismatches),
        "wrapped_sites": tracer.site_count,
        "setup_share": _shares(combined.setup),
        "pass_share": _shares(combined.passes[0]),
    }
    return metrics, passes, detail


def _shares(summary, top=12):
    """Shares of the scope's wall time: self time by layer and by span
    name, and inclusive time by span name."""
    wall = summary.wall_s or 1.0

    def ranked(key):
        best = sorted(summary.stats.items(), key=lambda kv: -kv[1][key])[:top]
        return {name: round(entry[key] / wall, 4) for name, entry in best}

    return {"self_by_layer": {k: round(v / wall, 4)
                              for k, v in summary.layer_self_s().most_common()},
            "self_by_span": ranked("self_s"),
            "incl_by_span": ranked("incl_s"),
            "wall_s": wall}


def run_workload(args):
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    metrics, passes, detail = measure_fn(workload, args.seed, args.seconds, args.size)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine(),
        "attempted": passes.attempted,
        "failed": passes.failed,
        "ops_failed_frac": passes.failed / passes.attempted,
        "misses": passes.misses[:20],
        "digests": sorted(passes.digests),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    RECORDS.mkdir(exist_ok=True)
    with open(RECORDS / ("%s-trace%d.json" % (workload.name, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": record["metrics"],
    }))


def run_all(args):
    """Every workload in its own process; one table with units."""
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail("workload %s exited with %d" % (name, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print("%-12s %12s %12s %17s %20s  %s" % ("workload", "setup_s [s]", "run_s [s]",
                                             "peak_rss_mb [MB]", "ops_failed_frac [1]",
                                             "correct"))
    for name, res in rows:
        m = res["metrics"]
        print("%-12s %12.4f %12.4f %17.1f %20.3f  %s" % (
            name, m["setup_s"]["value"], m["run_s"]["value"], m["peak_rss_mb"]["value"],
            res["failed"] / res["attempted"], res["correct"]))
    if not all(res["correct"] for _, res in rows):
        sys.exit(1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # the Toda closed form overflows cosh far out in the tails, where the
    # profile is zero anyway; the warnings would bury the result lines
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.workload == "all":
        _import_package()
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
