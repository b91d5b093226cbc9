"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record.py

Run from the root of a checkout whose outputs are known good.  Writes
bench/reference/{battery,enumerate,modelcheck,reductions}.json: the
experiment fingerprints, the sha256 of each enumerate configuration's
stdout, and the per-operation results of `modelcheck` and `reductions` for
the recorded seeds.  Any later change to these files must be explained.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import kripkit  # noqa: E402
import kripkit.cli  # noqa: E402,F401
import workloads  # noqa: E402

# Per-op results in full for run.py's default seed 1 and for seed 2, which
# was never used while the benchmark was tuned; short digests for the rest.
RECORDED_SEEDS = (1, 2)
DIGEST_SEEDS = tuple(range(32))


def _write(name: str, payload: dict) -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=1)
        out.write("\n")


def main() -> int:
    fingerprints = {}
    for eid in kripkit.workbench.experiment_ids():
        report = kripkit.workbench.run_experiment(eid)
        if not report.passed:
            raise SystemExit(f"experiment {eid} fails; refusing to record it")
        fingerprints[eid] = report.fingerprint()
    _write("battery", {"fingerprints": fingerprints})

    digests = {}
    for config in workloads.ENUMERATE_CONFIGS:
        code, text = workloads.cli_output(kripkit, workloads.enumerate_argv(config))
        if code != 0:
            raise SystemExit(f"enumerate {config} exited {code}")
        digests[workloads.config_name(config)] = workloads.digest(text)
    _write("enumerate", {"stdout_sha256": digests})

    for name, as_text in (
        ("modelcheck", lambda raw: workloads.modelcheck_result(raw[1])),
        ("reductions", workloads.reductions_result),
    ):
        # `workloads.setup` reads this file, so start from an empty one.
        _write(name, {"seeds": {}, "digests": {}})
        seeds, digests = {}, {}
        for seed in sorted(set(RECORDED_SEEDS + DIGEST_SEEDS)):
            workload = workloads.setup(name, seed, 0, kripkit)
            texts = [as_text(workload.run(op)) for op in workload.ops]
            if seed in RECORDED_SEEDS:
                seeds[str(seed)] = texts
            else:
                digests[str(seed)] = " ".join(map(workloads.short_digest, texts))
        _write(name, {"seeds": seeds, "digests": digests})
    return 0


if __name__ == "__main__":
    sys.exit(main())
