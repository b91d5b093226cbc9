"""The kripkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kripkit is imported from its `src/`.
Workloads: battery, enumerate, modelcheck, reductions (see workloads.py).

Every repetition runs in a fresh child process, one at a time, so nothing
cached in one repetition can speed up the next; that is also how users run
`kripkit`, one process per verb.  Repetitions start until `--seconds` would
be overrun (at least three), then extra set-up-only children bring the
set-up samples to five; `setup_s` is their median, `wall_s` the median of
the repetitions' times.

`--trace 0` measures the end-to-end metrics.  Its children sample the host's
speed as they run and every time it reports is scaled to a reference speed
(hostspeed.py): on a shared VM the raw times of the same code moved by 1.2-2x
from minute to minute, the scaled ones by a few per cent.  The raw times and
the host's speed are printed in the readable lines.

`--trace 1` alternates two untraced and two traced repetitions and reports
the per-layer metrics, unscaled: the traced children time every call into
each layer's public functions (tracing.py).
Each workload's outputs are checked against bench/reference; the last line
of standard output is one JSON object, the lines before it a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
MIN_SETUPS = 5
TRACED_REPS = 2
# Every run must end within 180 s; a child still running at this point is
# killed and its operations count as failed.
RUN_LIMIT_S = 170.0

# Reported with --trace 0, in this order; BENCHMARK.json lists the same.
# Each is measured on every workload and is never 0; the times are scaled
# to the reference host speed.  Per-op latencies are printed in the readable
# lines but not listed: the class latencies exist on two workloads only, a
# percentile over 5 or 9 ops is one op's time, and where two classes mix,
# p50 jumps between them from seed to seed.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Latency classes per workload, reported in the readable lines and as
# per-layer metrics of the traced run (from its untraced repetitions).
CLASS_LATENCY = {
    "modelcheck": (("valid", "valid_check"), ("refuted", "refuted_check")),
    "reductions": (("hit", "reduce_hit"), ("miss", "reduce_miss")),
}

EXPERIMENT_IDS = tuple(workloads.load_reference("battery")["fingerprints"])

# A traced run fails when a layer its workload is expected to exercise
# records no call, so a rename cannot silently zero a layer.
EXPECTED_LAYERS = {
    "battery": tracing.LAYERS,
    "enumerate": ("cli", "enumeration", "frames", "semantics"),
    "modelcheck": ("syntax", "semantics"),
    "reductions": ("frames", "morphisms"),
}

# Work counts that must repeat exactly between two traced repetitions.
WORK_COUNTS = (
    "semantics.valuations",
    "enumeration.classes",
    "enumeration.canonical_form.calls",
    "enumeration.commuting.calls",
    "morphisms.reductions_found",
    "enumeration.enumerate_frames.distinct_ratio",
)


def _per_layer_names() -> list[tuple[str, str]]:
    out = [(f"layer.{layer}.self_s", "s") for layer in tracing.LAYERS]
    out += [
        ("syntax.parse.calls", "count"),
        ("syntax.parse.self_s", "s"),
        ("syntax.godel_translate.calls", "count"),
        ("syntax.godel_translate.self_s", "s"),
        ("syntax.desugar.self_s", "s"),
        ("frames.frame_from_json_dict.calls", "count"),
        ("frames.frame_from_json_dict.self_s", "s"),
        ("frames.frame_to_json_dict.self_s", "s"),
        ("semantics.countermodel.calls", "count"),
        ("semantics.countermodel.valid_self_s", "s"),
        ("semantics.countermodel.refuted_self_s", "s"),
        ("semantics.valuations", "count"),
        ("semantics.valuations_per_s", "1/s"),
        ("enumeration.enumerate_frames.calls", "count"),
        ("enumeration.enumerate_frames.self_s", "s"),
        ("enumeration.enumerate_frames.distinct_ratio", "ratio"),
        ("enumeration.classes", "count"),
        ("enumeration.canonical_form.calls", "count"),
        ("enumeration.canonical_form.self_s", "s"),
        ("enumeration.commuting.calls", "count"),
        ("functors.skeleton.calls", "count"),
        ("functors.skeleton.self_s", "s"),
        ("functors.sigma.calls", "count"),
        ("functors.sigma.self_s", "s"),
        ("morphisms.enumerate_reductions.calls", "count"),
        ("morphisms.enumerate_reductions.self_s", "s"),
        ("morphisms.reductions_found", "count"),
        ("morphisms.lift_reduction.self_s", "s"),
    ]
    out += [(f"workbench.{eid}.total_s", "s") for eid in EXPERIMENT_IDS]
    out += [
        ("cli.main.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "fraction"),
    ]
    for classes in CLASS_LATENCY.values():
        for _, label in classes:
            out += [(f"latency.{label}_ms_p50", "ms"), (f"latency.{label}_ms_p95", "ms")]
    return out


PER_LAYER = tuple(_per_layer_names())


class ChildFailed(Exception):
    """A child exited without a result: the program or checkout is broken."""


class Run:
    """The children of one benchmark run and what they reported."""

    def __init__(self, workload: str, seed: int, seconds: int, sample: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sample = sample
        self.started = time.monotonic()
        self.setups: list[float] = []  # scaled when sampling, else raw
        self.raw_setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.timed_out = False

    def _child(self, trace: bool, config: int, setup_only: bool, rep: int) -> dict | None:
        sample = self.sample and not trace
        args = [self.workload, str(self.seed), str(int(trace)), str(config),
                str(int(setup_only)), str(rep), str(int(sample))]
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.monotonic()
        remaining = self.started + RUN_LIMIT_S - spawned
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(
                f"{self.workload} child {args} exited {proc.returncode}:\n"
                + proc.stderr[-4000:]
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = result["ready"] - spawned - result["setup_burst_spent"]
        self.raw_setups.append(setup)
        result["raw_s"] = sum(op[2] for op in result.get("ops", ()))
        if sample:
            setup = hostspeed.scale(setup, result["setup_burst_s"])
        if sample and not setup_only:
            result["ops"] = [
                [op_id, cls, hostspeed.scale(seconds, result["burst_s"]), ok]
                for op_id, cls, seconds, ok in result["ops"]
            ]
        self.setups.append(setup)
        return result

    @property
    def children_per_rep(self) -> int:
        return len(workloads.ENUMERATE_CONFIGS) if self.workload == "enumerate" else 1

    def repetition(self, trace: bool, rep: int) -> dict | None:
        """One repetition: one child, or one child per configuration for
        `enumerate`.  None when a child ran out of time."""
        configs = range(self.children_per_rep)
        merged = {"rss_kb": 0, "ops": [], "layers": {}, "raw_s": 0.0, "bursts": []}
        started = time.monotonic()
        for config in configs:
            result = self._child(trace, config, False, rep)
            if result is None:
                # The operation that hung counts as attempted and failed.
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"repetition {rep} ran past the {RUN_LIMIT_S:.0f} s limit")
                return None
            merged["rss_kb"] = max(merged["rss_kb"], result["rss_kb"])
            merged["raw_s"] += result["raw_s"]
            if result["burst_s"] is not None:
                merged["bursts"].append(result["burst_s"])
            merged["ops"] += result["ops"]
            for key, value in result.get("layers", {}).items():
                merged["layers"][key] = merged["layers"].get(key, 0) + value
            self.attempted += len(result["ops"])
            self.failed += sum(1 for *_, ok in result["ops"] if not ok)
            self.failures += result["failures"]
        merged["elapsed"] = time.monotonic() - started
        return merged

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS and not self.timed_out:
            if self._child(False, 0, True, 0) is None:
                self.failures.append("a set-up child ran past the time limit")


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(workload: str, reps: list[dict]) -> dict[str, tuple[float, int]]:
    """(value, sample count) for op_ms_* and the workload's class latencies,
    over every op of every repetition."""
    ops = [(cls, seconds * 1e3) for rep in reps for _, cls, seconds, _ in rep["ops"]]
    everything = [ms for _, ms in ops]
    out = {
        "op_ms_p50": (percentile(everything, 50), len(everything)),
        "op_ms_p95": (percentile(everything, 95), len(everything)),
    }
    for cls, label in CLASS_LATENCY.get(workload, ()):
        chosen = [ms for c, ms in ops if c == cls]
        if chosen:
            out[f"{label}_ms_p50"] = (percentile(chosen, 50), len(chosen))
            out[f"{label}_ms_p95"] = (percentile(chosen, 95), len(chosen))
    return out


def measure(run: Run) -> tuple[dict, list[str]]:
    reps = []
    while run.elapsed() < RUN_LIMIT_S:
        rep = run.repetition(False, len(reps))
        if rep is None:
            break
        reps.append(rep)
        # Leave room for the set-up-only children still needed.
        top_up = max(0, MIN_SETUPS - len(run.setups) - run.children_per_rep)
        reserve = top_up * statistics.median(run.raw_setups)
        # Stop when the next repetition would more likely end after
        # `--seconds` than before it.
        if len(reps) >= MIN_REPS and run.elapsed() + rep["elapsed"] / 2 + reserve > run.seconds:
            break
    run.top_up_setups()
    if not reps:
        return {}, []
    bursts = [b for r in reps for b in r["bursts"]]
    metrics = {
        "setup_s": (statistics.median(run.setups), len(run.setups)),
        # The fixed operation set, once per repetition.
        "wall_s": (statistics.median(sum(op[2] for op in r["ops"]) for r in reps), len(reps)),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in reps) / 1024, len(reps)),
    }
    metrics.update(latency_metrics(run.workload, reps))
    # Unscaled, for the readable lines only.
    metrics["raw_setup_s"] = (statistics.median(run.raw_setups), len(run.raw_setups))
    metrics["raw_wall_s"] = (statistics.median(r["raw_s"] for r in reps), len(reps))
    metrics["burst_ms"] = (statistics.median(bursts) * 1e3, len(bursts))
    return metrics, []


def _derive(layers: dict) -> dict:
    out = dict(layers)
    calls = layers.get("enumeration.enumerate_frames.calls", 0)
    out["enumeration.enumerate_frames.distinct_ratio"] = (
        layers.get("enumeration.enumerate_frames.distinct", 0) / calls if calls else 0.0
    )
    busy = layers.get("semantics.countermodel.self_s", 0.0)
    out["semantics.valuations_per_s"] = (
        layers.get("semantics.valuations", 0) / busy if busy else 0.0
    )
    return out


def trace(run: Run) -> tuple[dict, list[str]]:
    """Untraced and traced repetitions, alternating, TRACED_REPS of each."""
    problems = []
    untraced, traced = [], []
    for rep in range(2 * TRACED_REPS):
        result = run.repetition(rep % 2 == 1, rep)
        if result is None:
            return {}, problems
        (traced if rep % 2 else untraced).append(result)
    layers = [r["layers"] for r in traced]
    for key in WORK_COUNTS:
        values = [_derive(lay).get(key, 0) for lay in layers]
        if len(set(values)) != 1:
            problems.append(f"work count {key} differs between traced repetitions: {values}")
    # Times at their fastest traced repetition, as for the end-to-end metrics;
    # counts repeat exactly, so the first repetition's stand.
    combined = _derive({
        key: min(lay.get(key, 0) for lay in layers) if key.endswith("_s") else layers[0][key]
        for key in layers[0]
    })
    for layer in EXPECTED_LAYERS[run.workload]:
        calls = sum(v for k, v in combined.items()
                    if k.startswith(f"{layer}.") and k.endswith(".calls"))
        if calls == 0:
            problems.append(f"layer {layer} recorded no calls on {run.workload}")
    metrics = {
        name: (combined.get(name, 0), len(traced))
        for name, _ in PER_LAYER if not name.startswith(("latency.", "trace."))
    }
    # Whole repetitions here, so that layer self times, each at its fastest
    # repetition, stay comparable with the traced wall time.
    traced_wall = min(sum(op[2] for op in r["ops"]) for r in traced)
    untraced_wall = min(sum(op[2] for op in r["ops"]) for r in untraced)
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, len(traced))
    metrics["trace.wall_s"] = (traced_wall, len(traced))
    for name, value in latency_metrics(run.workload, untraced).items():
        if not name.startswith("op_ms"):
            metrics[f"latency.{name}"] = value
    for name, unit in PER_LAYER:
        metrics.setdefault(name, (0.0, 0))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds, sample=not args.trace)
    try:
        metrics, problems = (trace if args.trace else measure)(run)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    wanted = PER_LAYER if args.trace else END_TO_END
    if not metrics:
        problems.append("no repetition finished within the time limit")

    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations attempted, {run.failed} failed, "
          f"{run.elapsed():.1f} s")
    units = {"raw_setup_s": "s", "raw_wall_s": "s"}
    shown = list(wanted) + [(n, units.get(n, "ms")) for n in metrics if n not in dict(wanted)]
    for name, unit in shown:
        if name in metrics:
            value, count = metrics[name]
            print(f"  {name:48s} {value:14.6g} {unit:8s} (n={count})")
    print(f"  {'error_rate':48s} {error_rate:14.6g} {'fraction':8s} "
          f"({run.failed} of {run.attempted})")
    for message in run.failures[:20] + problems:
        print(f"  FAIL {message}")

    correct = not run.failures and not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": metrics[name][0] if name in metrics else 0.0, "unit": unit}
            for name, unit in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
