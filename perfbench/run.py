"""Seeded benchmark of permword: two closed-loop workloads, one client each.

    python3 perfbench/run.py --workload synth_stream --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src. With
`--trace 0` the run measures the workload untraced and prints the
end-to-end metrics, its timings scaled to a reference host speed by a probe
timed between operations (`HostProbe`), and the measured values beside
them; with `--trace 1` it runs the workload untraced, then
again with span wrappers installed on every layer's entry points for the
same number of rounds, and prints the per-layer metrics, the kernel
microbenchmarks and the tracing overhead. Either way every output is
checked after the timed phase, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 when a check fails. `--workload all` runs each workload in its own
process. `--out PATH` also writes the full result with its environment
stamp; `perfbench/diff.py` compares two such files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# the seed runs default to, and one kept back for confirming a later claim
DEFAULT_SEED = 1
HELDOUT_SEED = 4099
WORKLOAD_NAMES = ("synth_stream", "batch")

END_TO_END = (
    ("mix_p50_s", "s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("synth.prepare_context.calls", "count"),
    ("synth.prepare_context.busy_s", "s"),
    ("synth.prepare_context.self_s", "s"),
    ("synth.synthesize.calls", "count"),
    ("synth.synthesize.busy_s", "s"),
    ("synth.synthesize.self_s", "s"),
    ("synth.build_3cycle.calls", "count"),
    ("synth.build_3cycle.busy_s", "s"),
    ("synth.pool_size", "walks"),
    ("synth.relocation_walks_per_factor", "ratio"),
    ("shrink.shrink_support.busy_s", "s"),
    ("shrink.shrink_support.self_s", "s"),
    ("shrink.find_long_cycle_element.busy_s", "s"),
    ("shrink.iterations", "count"),
    ("shrink.walk_trials", "count"),
    ("shrink.accept_ratio", "ratio"),
    ("walk.sample_walk.calls", "count"),
    ("walk.sample_walk.busy_s", "s"),
    ("walk.DenseGroup.build_s", "s"),
    ("walk.transition_tables.calls", "count"),
    ("walk.transition_tables.busy_s", "s"),
    ("walk.strong_mixing_time.busy_s", "s"),
    ("walk.mixing_time_lp.busy_s", "s"),
    ("walk.check_argu.busy_s", "s"),
    ("kernels.track_points.calls", "count"),
    ("kernels.track_points.busy_s", "s"),
    ("kernels.track_points.point_steps", "count"),
    ("kernels.convolve_steps.calls", "count"),
    ("kernels.convolve_steps.busy_s", "s"),
    ("kernels.convolve_steps.gathers", "count"),
    ("kernels.convolve_steps.bytes_computed", "B"),
    ("kernels.adjacency_apply.calls", "count"),
    ("kernels.adjacency_apply.busy_s", "s"),
    ("kernels.adjacency_apply.bytes_computed", "B"),
    ("word.evaluate.calls", "count"),
    ("word.evaluate.busy_s", "s"),
    ("word.expanded_length.calls", "count"),
    ("word.expanded_length.busy_s", "s"),
    ("word.generator_counts.calls", "count"),
    ("word.generator_counts.busy_s", "s"),
    ("perm.mul.calls", "count"),
    ("perm.is_identity.calls", "count"),
    ("perm.three_cycle_factorization.busy_s", "s"),
    ("perm.three_cycle_factorization.factors", "count"),
    ("schreier.TupleGraph.build_s", "s"),
    ("schreier.estimate_gap.busy_s", "s"),
    ("schreier.estimate_gap.self_s", "s"),
    ("schreier.estimate_gap.iterations", "count"),
    ("repgap.spectral_gap_exact.busy_s", "s"),
    ("repgap.partitions.busy_s", "s"),
    ("repgap.partitions.count", "count"),
    ("compare.comparison_report.busy_s", "s"),
    ("compare.comparison_report.self_s", "s"),
    ("compare.reference_measure.busy_s", "s"),
    ("cli.run_sweep.busy_s", "s"),
    ("cli.sweep.rows_busy_s", "s"),
    ("cli.sweep.parallelism", "ratio"),
    ("cli.run_mix_exact.busy_s", "s"),
    ("cli.run_mix_exact.self_s", "s"),
    ("process.cpu_util", "ratio"),
    ("kernels.micro.track_points.s", "s"),
    ("kernels.micro.track_points.bytes_computed", "B"),
    ("kernels.micro.track_points.ops_per_byte_computed", "ops/B"),
    ("kernels.micro.convolve_steps.s", "s"),
    ("kernels.micro.convolve_steps.bytes_computed", "B"),
    ("kernels.micro.convolve_steps.ops_per_byte_computed", "ops/B"),
    ("kernels.micro.adjacency_apply.s", "s"),
    ("kernels.micro.adjacency_apply.bytes_computed", "B"),
    ("kernels.micro.adjacency_apply.ops_per_byte_computed", "ops/B"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)

MIN_COVERAGE = 0.9

# the host probe's median on the host the scaled timings refer to
PROBE_NOMINAL_S = 0.010
PROBE_ITERS = 100_000


class HostProbe:
    """Times a fixed pure-Python loop, called between operations and never inside one.

    The speed of the host this was built on drifts by a quarter and more
    within minutes, and the package's code drifts with it: over 10-s
    windows, synthesis at n = 300 and this loop moved together with
    correlation 0.9. A timing multiplied by `scale`, PROBE_NOMINAL_S over
    the probe's median in the same phase, is the time the phase would have
    taken on a host where the probe takes PROBE_NOMINAL_S. The probe is
    benchmark code: a change to the package moves it only through what the
    package leaves running between operations.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        return PROBE_NOMINAL_S / self.median_s


@dataclass
class Phase:
    ops: list
    rounds_at: list  # (start, end) of each round
    cpu_s: float
    peak_rss_mb: float

    @property
    def round_s(self) -> list:
        return [end - start for start, end in self.rounds_at]

    @property
    def wall_s(self) -> float:
        """Time spent in rounds, leaving out the checks and collections between them."""
        return sum(self.round_s)

    @property
    def rounds(self) -> int:
        return len(self.rounds_at)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out "
                        "for confirming a claim made on other seeds)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the measured phase; whole rounds run until it is over")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result here as JSON")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float | None, probe: HostProbe, rounds: int | None = None,
            check: bool = True) -> Phase:
    """Closed loop: whole rounds until `seconds` of rounds have run, or exactly `rounds`.

    Between rounds, untimed, the round is checked and cyclic garbage is
    collected, so peak RSS does not grow with the number of rounds a run fits.
    """
    ops, rounds_at = [], []
    cpu_s = busy = 0.0
    while (len(rounds_at) < rounds) if rounds is not None else busy < seconds:
        cpu0, t0 = time.process_time(), time.perf_counter()
        done = wl.run_round(len(rounds_at), probe)
        rounds_at.append((t0, time.perf_counter()))
        cpu_s += time.process_time() - cpu0
        busy += rounds_at[-1][1] - t0
        if check:
            wl.check_round(done)
        gc.collect()
        ops.extend(done)
    return Phase(ops, rounds_at, cpu_s, peak_rss_mb())


def mix_median(ops) -> float:
    """One round of the workload's fixed mix at median cost: the sum, over
    the kinds of operation in a round, of each kind's median latency.

    Unlike a median over all operations it weighs every kind, and unlike a
    mean it ignores the rare operation that grows a gamma pool.
    """
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.latency_s)
    return sum(statistics.median(v) for v in by_kind.values())


def tail(latencies: list[float]):
    """(percentile, value): the highest whole percentile with at least 10 samples above it."""
    n = len(latencies)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(latencies)
    return pct, ordered[n - 11]


IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t0)"
)


def import_seconds(probe: HostProbe, repeats: int = 7) -> float:
    """Median time to import numpy and the package, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        probe()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def stamp() -> dict:
    from permword import cli, kernels

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    threads = int(os.environ.get("PERMWORD_THREADS", "0") or 0)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": kernels.backend(),
        "build_id": cli.build_id(),
        "git_commit": commit,
        "sweep_threads": threads if threads > 0 else min(4, os.cpu_count() or 1),
    }


def failures(ops) -> list[str]:
    return [op.error for op in ops if op.error]


def run_untraced(cls, args, import_s, setup_probe):
    wl = cls(args.seed, str(OUT_DIR))
    run_probe = HostProbe()
    try:
        setup_times = wl.setup(setup_probe)
        phase = measure(wl, args.seconds, run_probe) if setup_times else None
    finally:
        wl.close()
    ops = phase.ops if phase else []
    t0 = time.perf_counter()
    extras = wl.check(ops)
    extras["check_s"] = (time.perf_counter() - t0, "s")
    attempted = len(wl.setup_ops) + len(ops)
    errors = failures(wl.setup_ops) + failures(ops)
    if phase is None:
        return attempted, errors + ["setup produced no instance"], {}, extras, None
    good = [op for op in ops if not op.error]
    latencies = [op.latency_s for op in ops]
    raw = {
        "mix_p50_s": mix_median(ops),
        "op_p50_s": statistics.median(latencies),
        "setup_s": import_s + statistics.median(setup_times),
    }
    scale = {"mix_p50_s": run_probe.scale, "op_p50_s": run_probe.scale,
             "setup_s": setup_probe.scale}
    metrics = {name: value * scale[name] for name, value in raw.items()}
    metrics["peak_rss_mb"] = phase.peak_rss_mb
    for name, value in raw.items():
        extras[f"{name[:-2]}_raw_s"] = (value, "s")
    extras["probe_setup_s"] = (setup_probe.median_s, "s")
    extras["probe_run_s"] = (run_probe.median_s, "s")
    t = tail(latencies)
    extras["ops_per_s"] = (len(good) / phase.wall_s, "ops/s")
    extras["op_tail_s"] = ((t[1] if t else None), "s")
    extras["op_tail_percentile"] = ((t[0] if t else None), "pct")
    extras["failed_frac"] = (len(errors) / attempted, "ratio")
    extras["samples"] = (len(latencies), "ops")
    extras["measured_s"] = (phase.wall_s, "s")
    extras["rounds"] = (phase.rounds, "count")
    extras["import_s"] = (import_s, "s")
    extras["setup_instances"] = (len(setup_times), "count")
    return attempted, errors, metrics, extras, phase


def run_traced(cls, args, import_s, setup_probe):
    from tracing import Tracer

    import micro

    attempted, errors, _, _, base = run_untraced(cls, args, import_s, setup_probe)
    if base is None:
        return attempted, errors, {}, {}
    tracer = Tracer()
    wl = cls(args.seed, str(OUT_DIR))
    tracer.install()
    try:
        wl.setup(HostProbe())
        traced = measure(wl, None, HostProbe(), rounds=base.rounds, check=False)
    finally:
        tracer.uninstall()
        wl.close()
    errors += [f"trace: {name} still wrapped after uninstall" for name in tracer.leftovers()]
    wl.check(traced.ops)
    attempted += len(wl.setup_ops) + len(traced.ops)
    errors += failures(wl.setup_ops) + failures(traced.ops)

    layer = tracer.layer_metrics()
    calls, counters = tracer.calls, tracer.counters
    for name in cls.expected_calls:
        # synthesize reaches evaluate only through an assert, which -O strips
        if sys.flags.optimize and name == "word.evaluate":
            continue
        if calls.get(name, 0) == 0:
            errors.append(f"trace: {name} was expected to run but recorded no call")
    trials = counters.get("schreier._conditioned_walk_counted.trials", 0)
    sweep_busy = layer["cli.run_sweep.busy_s"]
    pools = [len(ctx.pool_gammas) for ctx in tracer.contexts]
    metrics = {name: layer.get(name, 0) for name, _ in PER_LAYER}
    metrics.update({
        "synth.pool_size": statistics.fmean(pools) if pools else 0.0,
        "shrink.iterations": counters.get("shrink.shrink_support.iterations", 0),
        "shrink.walk_trials": trials,
        "shrink.accept_ratio": calls.get("schreier._conditioned_walk_counted", 0) / trials
        if trials else 0.0,
        "walk.DenseGroup.build_s": layer["walk.DenseGroup.build.busy_s"],
        "schreier.TupleGraph.build_s": layer["schreier.TupleGraph.build.busy_s"],
        "cli.sweep.rows_busy_s": layer["cli._sweep_one.busy_s"],
        "cli.sweep.parallelism": layer["cli._sweep_one.busy_s"] / sweep_busy if sweep_busy else 0.0,
        "process.cpu_util": base.cpu_s / base.wall_s,
        "trace.overhead_s": traced.wall_s - base.wall_s,
        "trace.overhead_frac": (traced.wall_s - base.wall_s) / base.wall_s,
        "trace.coverage": tracer.coverage(traced.rounds_at, threading.get_ident()),
    })
    try:
        metrics.update(micro.run(args.seed))
    except RuntimeError as exc:
        errors.append(f"micro: {exc}")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        errors.append(f"trace: wrapped entry points cover {metrics['trace.coverage']:.1%} "
                      f"of the measured phase, below {MIN_COVERAGE:.0%}")
    spans_path = OUT_DIR / f"spans-{cls.name}-{args.seed}.jsonl"
    tracer.write_spans(str(spans_path))
    extras = {"spans": (len(tracer.spans), "count"), "spans_file": (str(spans_path), "path"),
              "untraced_s": (base.wall_s, "s"), "traced_s": (traced.wall_s, "s"),
              "rounds": (base.rounds, "count")}
    return attempted, errors, metrics, extras


def run_all(args) -> int:
    """Each workload in its own process, so RSS and import time are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= bool(result["correct"]) and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permword" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    setup_probe = HostProbe()
    import_s = import_seconds(setup_probe)
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    samples = {}
    if args.trace:
        attempted, errors, metrics, extras = run_traced(cls, args, import_s, setup_probe)
        declared = PER_LAYER
    else:
        attempted, errors, metrics, extras, phase = run_untraced(cls, args, import_s, setup_probe)
        declared = END_TO_END
        if phase is not None:
            samples = {"round_s": phase.round_s, "op_s": [op.latency_s for op in phase.ops]}
    env = stamp()
    correct = not errors and set(metrics) == {name for name, _ in declared}
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else min(max(len(errors), 1), max(attempted, 1)),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared if name in metrics},
    }
    for err in errors[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} stamp={json.dumps(env)}")
    for name, unit in declared:
        if name in metrics:
            print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}")
    for name, (value, unit) in extras.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"# {args.workload} {name} = {shown} {unit}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "stamp": env, "result": result,
                       "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                       "samples": samples},
                      fh, indent=2, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
