"""z2zu benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        Run one workload for S seconds and print its end-to-end metrics.
    python3 perfbench/run.py --workload all [--seed N --seconds S]
        Run the four workloads one after another, each in its own
        process, and print every end-to-end metric per workload.
    python3 perfbench/run.py --workload NAME --seed N --trace 1
        The traced run: a fixed-size pass of every workload, each in its
        own process, run untraced and then traced; prints the per-layer
        metrics, named <workload>.<module>.<function>.<stat>.  It covers
        all four workloads whatever NAME is, so that every per-layer
        metric is measured on the workload it belongs to.

The package is imported from src/ next to this directory; the program
sees only the generated inputs.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Working files
(inputs and span dumps) go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# single-threaded: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import BATCH_DRAWS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# The host is shared, and its speed drifts by 20% and more within
# seconds.  So every timed interval is bracketed by a fixed calibration
# kernel (ReferenceClock) and scaled to the host speed at which that
# kernel takes CALIBRATION_REF_S.  Over ten 20 s runs this cut the
# spread (interquartile range over median) of ops_per_s on
# analyze_large from 0.25 to 0.10, and on search_random from 0.20 to
# 0.03 in six runs.
CALIBRATION_REF_S = 0.02


# per-layer metrics of the traced run, per workload, with the
# end-to-end metric each should move
LAYER_METRICS = {
    # ops_per_s on search_random
    "search_random": (
        ("core.span.calls", "count"),
        ("core.span.busy_s", "s"),
        ("core.span.words", "count"),
        ("search.search_with_pruning.self_s", "s"),
        ("search.funnel.draws", "count"),
        ("search.funnel.candidates", "count"),
        ("search.funnel.enumerated", "count"),
        ("search.funnel.dual_calls", "count"),
        ("search.funnel.hits", "count"),
        ("search.funnel.unique_ratio", "ratio"),
        ("search.funnel.hit_ratio", "ratio"),
        ("tracing.overhead_s", "s"),
    ),
    # ops_per_s on survey_exhaustive
    "survey_exhaustive": (
        ("search.verify_fsd_classification.self_s", "s"),
        ("search.survey.codes_examined", "count"),
        ("tracing.overhead_s", "s"),
    ),
    # op_p50_s and peak_rss_mb on analyze_scan
    "analyze_scan": (
        ("core.dual_brute.calls", "count"),
        ("core.dual_brute.busy_s", "s"),
        ("core.dual_brute.ambient_words", "count"),
        ("classify.dual_summary.busy_s", "s"),
        ("weights.macwilliams.busy_s", "s"),
        ("core.additive_span.busy_s", "s"),
        ("core.parse_matrix_file.busy_s", "s"),
        ("tracing.overhead_s", "s"),
    ),
    # op_p50_s and peak_rss_mb on analyze_large
    "analyze_large": (
        ("weights.column_profile.calls", "count"),
        ("weights.column_profile.busy_s", "s"),
        ("weights.lee_enumerator.calls", "count"),
        ("weights.lee_enumerator.busy_s", "s"),
        ("weights.lee_enumerator.words", "count"),
        ("core.min_lee_weight.busy_s", "s"),
        ("standard_form.standard_form.self_s", "s"),
        ("core.span.calls", "count"),
        ("core.span.busy_s", "s"),
        ("classify.classify.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("core.additive_span.busy_s", "s"),
        ("core.parse_matrix_file.busy_s", "s"),
        ("tracing.overhead_s", "s"),
    ),
}


def import_z2zu():
    """The package from src/ of this checkout; exits if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import z2zu
        import z2zu.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import z2zu from {SRC}: {exc}")
    if not Path(z2zu.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: z2zu was imported from {z2zu.__file__}, not {SRC}")
    return z2zu


def reproduce_gate() -> bool:
    """``z2zu reproduce all --json`` reports no failure.  It runs in its
    own process, so its memory stays out of the workload's peak RSS."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "z2zu.cli", "reproduce", "all", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    try:
        return proc.returncode == 0 and json.loads(proc.stdout)["failures"] == 0
    except (ValueError, KeyError):
        return False


def machine() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {platform.machine()}")


class ReferenceClock:
    """Scales consecutive intervals to reference speed, each by the mean
    of the calibration times just before and just after it.

    The kernel does what the package's inner loops do: XOR closures
    into int sets, a histogram and a sort (compute bound), then random
    lookups in a 2^17-entry dict, about 13 MB (bound by memory latency,
    which neighbours on the host disturb more than they do compute).
    """

    def __init__(self):
        rng = random.Random(12345)
        self.table = {rng.getrandbits(40): i for i in range(1 << 17)}
        self.probes = rng.sample(list(self.table), 16000)
        self.restart()

    def restart(self) -> None:
        """Calibrate afresh, after a stretch that was not timed."""
        self.before = self.calibration_s()
        self.factors: list[float] = []

    def calibration_s(self) -> float:
        t0 = time.perf_counter()
        rng = random.Random(12345)
        for size in (8,) * 20 + (12,) * 4:
            words = {0}
            for _ in range(size):
                g = rng.getrandbits(40)
                if g not in words:
                    words |= {g ^ x for x in words}
            hist: dict[int, int] = {}
            for x in words:
                hist[x & 1023] = hist.get(x & 1023, 0) + 1
            sorted(words)
        total = 0
        for key in self.probes:
            total += self.table[key]
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        after = self.calibration_s()
        factor = 2 * CALIBRATION_REF_S / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return seconds * factor


def child(args: list[str]) -> subprocess.CompletedProcess:
    """Run this script with args and wait for it; stdout is captured."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) >= 1000:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def print_metrics(title: str, metrics: dict) -> None:
    print(f"[{title}]")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")


# --------------------------------------------------------------- one run


def timed_loop(workload, seconds: float, clock: ReferenceClock):
    """Whole passes of units until `seconds` have elapsed."""
    clock.restart()
    samples: list[float] = []  # reference seconds per operation, per unit
    ops = failed = 0
    busy = raw = 0.0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        n, dt, bad = workload.run_unit(k)
        scaled = clock.scale(dt)
        ops += n
        failed += bad
        if not bad:
            busy += scaled
            raw += dt
            samples.append(scaled / n)
        k += 1
        if k % workload.units_per_pass == 0 and time.perf_counter() >= deadline:
            return ops, failed, busy, raw, samples, clock.factors


def run_workload(name: str, seed: int, seconds: int) -> int:
    z2zu = import_z2zu()
    clock = ReferenceClock()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = child(["--setup-only", "--workload", name, "--seed", str(seed)])
        setup.append(clock.scale(time.perf_counter() - t0))
        if proc.returncode:
            sys.exit(f"error: set-up of {name} exited with {proc.returncode}")
    gate_ok = reproduce_gate()
    workload = WORKLOADS[name](z2zu, seed, WORKDIR)
    workload.load_reference()
    workload.setup()
    workload.warm_up()
    ops, failed, busy, raw, samples, factors = timed_loop(workload, seconds, clock)
    ok_ops = ops - failed
    metrics = {
        "ops_per_s": {"value": ok_ops / busy if busy else 0.0, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(samples) if samples else 0.0,
                     "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    print(f"# {name} seed={seed} seconds={seconds} {machine()}")
    if not gate_ok:
        print("# FAILED: reproduce all reported failures")
    for err in workload.errors[:20]:
        print(f"# FAILED: {err}")
    print_metrics(name, metrics)
    print(f"  times are at reference speed; median speed factor "
          f"{statistics.median(factors):.4g}, unscaled ops_per_s "
          f"{ok_ops / raw if raw else 0.0:.6g}")
    print(f"  op_p50_s samples: {len(samples)}; error_rate: {failed}/{ops} "
          f"= {failed / ops if ops else 0.0:.6g}")
    tail = tail_percentile(samples)
    if tail:
        print(f"  op_p{tail[0]}_s: {tail[1]:.6g} s")
    print(json.dumps({"correct": gate_ok and failed == 0, "attempted": ops,
                      "failed": failed, "metrics": metrics}))
    return 0


def setup_only(name: str, seed: int) -> int:
    z2zu = import_z2zu()
    workload = WORKLOADS[name](z2zu, seed, WORKDIR)
    workload.setup()
    workload.warm_up()
    return 0


def run_all(seed: int, seconds: int) -> int:
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        proc = child(["--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"])
        print(proc.stdout, end="")
        if proc.returncode:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = last_json_line(proc.stdout)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print_metrics("all workloads", metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ------------------------------------------------------------ traced run


def fixed_pass(workload, clock: ReferenceClock, tracer=None):
    """The first trace_units units; returns ops, failed, reference seconds."""
    clock.restart()
    ops = failed = 0
    busy = 0.0
    for k in range(workload.trace_units):
        if tracer is not None:
            tracer.op_id = k
        n, dt, bad = workload.run_unit(k)
        ops, failed, busy = ops + n, failed + bad, busy + clock.scale(dt)
    return ops, failed, busy


def trace_child(name: str, seed: int) -> int:
    """One workload's fixed pass, untraced then traced, in this process."""
    z2zu = import_z2zu()
    workload = WORKLOADS[name](z2zu, seed, WORKDIR)
    workload.load_reference()
    workload.setup()
    workload.warm_up()
    clock = ReferenceClock()
    ops0, failed0, untraced_s = fixed_pass(workload, clock)
    workload.tally.clear()
    tracer = Tracer()
    tracer.install()
    try:
        ops1, failed1, traced_s = fixed_pass(workload, clock, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    stats["tracing.overhead_s"] = traced_s - untraced_s
    if name == "search_random":
        draws = workload.trace_units * BATCH_DRAWS
        hits = workload.tally["hits"]
        stats.update({
            "search.funnel.draws": draws,
            "search.funnel.enumerated": tracer.children_of(
                "search.search_with_pruning", "weights.lee_enumerator"),
            "search.funnel.dual_calls": tracer.children_of(
                "search.search_with_pruning", "classify.dual_summary"),
            "search.funnel.hits": hits,
            "search.funnel.unique_ratio":
                stats.get("search.funnel.candidates", 0) / draws,
            "search.funnel.hit_ratio": hits / draws,
        })
    elif name == "survey_exhaustive":
        stats["search.survey.codes_examined"] = workload.tally["codes_examined"]
    tracer.write(WORKDIR / f"trace-{name}-{seed}.json")
    metrics = {metric: {"value": stats.get(metric, 0), "unit": unit}
               for metric, unit in LAYER_METRICS[name]}
    errors = {k: v for k, v in stats.items() if k.endswith(".errors")}
    print(json.dumps({"attempted": ops0 + ops1, "failed": failed0 + failed1,
                      "errors": workload.errors, "span_errors": errors,
                      "metrics": metrics}))
    return 0


def run_traced(seed: int) -> int:
    import_z2zu()  # fail before starting any child
    gate_ok = reproduce_gate()
    print(f"# traced run seed={seed} {machine()}")
    metrics = {}
    attempted = failed = 0
    for name in WORKLOADS:
        proc = child(["--trace-child", "--workload", name, "--seed", str(seed)])
        if proc.returncode:
            sys.exit(f"error: traced {name} exited with {proc.returncode}")
        result = last_json_line(proc.stdout)
        attempted += result["attempted"]
        failed += result["failed"]
        for err in result["errors"][:20]:
            print(f"# FAILED: {err}")
        for span, count in result["span_errors"].items():
            print(f"# {name}: {span} = {count}")
        print_metrics(name, result["metrics"])
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if not gate_ok:
        print("# FAILED: reproduce all reported failures")
    print(json.dumps({"correct": gate_ok and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.trace_child:
        return trace_child(args.workload, args.seed)
    if args.trace:
        return run_traced(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
