"""One repetition of one workload, in a fresh process.

Run by `run.py`, never directly:

    python3 bench/child.py WORKLOAD SEED TRACE CONFIG SETUP_ONLY REP SAMPLE

The process imports kripkit from the checkout's `src/`, builds its inputs,
reports when set-up ended, runs every operation of the workload once as a
single closed-loop caller, and only then checks the outputs.  Its last line
of standard output is one JSON object.  With SAMPLE 1 it samples the host's
speed throughout (hostspeed.py): the time of the bursts is taken out of the
set-up and op times it reports, and their mean time during set-up and
during the ops is reported beside them.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MAX_REPORTED_FAILURES = 20


class OpTimeout(BaseException):
    """Raised in an operation that ran past its limit.  A BaseException, so
    the program's own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _import_kripkit():
    sys.path.insert(0, SRC)
    import kripkit
    import kripkit.cli  # noqa: F401  (the package does not import its CLI)

    where = os.path.realpath(kripkit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"kripkit imported from {where}, not from {SRC}")
    return kripkit


def main(argv: list[str]) -> int:
    import hostspeed

    sampler = hostspeed.Sampler()
    if argv[-1] == "1":
        sampler.install()
    try:
        return run(argv, sampler)
    finally:
        # Before the interpreter resets its handlers, or a late tick of the
        # timer would kill the process.
        sampler.uninstall()


def run(argv: list[str], sampler) -> int:
    name, seed, trace, config, setup_only, rep, sample = argv
    import hostspeed
    import tracing
    import workloads

    kripkit = _import_kripkit()
    workload = workloads.setup(name, int(seed), int(config), kripkit)
    ready = time.monotonic()
    setup_mark = sampler.mark()
    result = {"ready": ready, "setup_burst_spent": setup_mark[1], "setup_burst_s": None}
    if sample == "1":
        # Bursts right after set-up, when set-up was too short for enough.
        while sampler.count < hostspeed.SETUP_MIN_BURSTS:
            sampler.run_one()
        result["setup_burst_s"] = hostspeed.mean_burst((0, 0.0), sampler.mark())
    if setup_only == "1":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    limit = workloads.OP_LIMIT_S[name]
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []  # (op, seconds net of bursts, raw output or None, error or None)
    clock = time.perf_counter
    ops_mark = sampler.mark()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.id
        before = sampler.spent
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            raw, error = workload.run(op), None
        except OpTimeout:
            raw, error = None, f"op {op.id}: timed out after {limit} s"
        except Exception as exc:  # an operation that raises is a failed operation
            raw, error = None, f"op {op.id}: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append((op, clock() - t0 - (sampler.spent - before), raw, error))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    burst_s = None
    if sample == "1":
        if sampler.count == ops_mark[0]:
            sampler.run_one()
        sampler.uninstall()
        burst_s = hostspeed.mean_burst(ops_mark, sampler.mark())
    if tracer is not None:
        tracer.uninstall()

    ops_out = []
    failures = []
    for op, seconds, raw, error in records:
        if error is None:
            try:
                error = workload.check(op, raw)
            except Exception as exc:
                error = f"op {op.id}: output check raised {type(exc).__name__}: {exc}"
        cls = op.cls if raw is None else workload.result_class(op, raw)
        ops_out.append([op.id, cls, seconds, error is None])
        if error is not None:
            failures.append(error)

    result.update({
        "rss_kb": rss_kb,
        "burst_s": burst_s,
        "ops": ops_out,
        "failures": failures[:MAX_REPORTED_FAILURES],
    })
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        suffix = f"-c{config}" if name == "enumerate" else ""
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}-rep{rep}{suffix}.jsonl"))
        result["layers"] = tracing.layer_stats(tracer.spans, kripkit.frames.frame_to_json_dict)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
