"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from itertools import product

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import kripkit  # noqa: E402
import kripkit.cli  # noqa: E402,F401
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kripkit import enumeration, frames, semantics, syntax  # noqa: E402


@pytest.fixture(scope="module")
def small():
    return workloads.small_frames(kripkit)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.5, 1),
        _span("d", 5.0, 9.0, 0),
        _span("e", 11.0, 12.0, -1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 4.0, 3.0 - 1.5, 1.5, 4.0, 1.0])
    # Self times partition the top-level spans' time.
    assert sum(own) == pytest.approx(10.0 + 1.0)


def test_tracer_nests_spans_and_folds_recursion():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced_fact(n - 1)

    traced_fact = tracer.wrap("m.fact", fact)
    outer = tracer.wrap("m.outer", lambda: traced_fact(5))
    assert outer() == 120
    assert [(s.name, s.parent) for s in tracer.spans] == [("m.outer", -1), ("m.fact", 0)]


def test_install_patches_every_binding_and_uninstall_restores():
    original = semantics.countermodel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = semantics.countermodel
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert kripkit.countermodel is wrapped
        assert kripkit.cli.countermodel is wrapped
        assert kripkit.workbench.enumerate_frames is enumeration.enumerate_frames
    finally:
        tracer.uninstall()
    assert semantics.countermodel is original
    assert kripkit.cli.countermodel is original


def test_host_speed_scaling_cancels_a_uniform_slowdown():
    # The same work on a host twice as slow, bursts included, reads the same.
    quiet = hostspeed.scale(3.0, hostspeed.REFERENCE_BURST_S)
    assert quiet == pytest.approx(3.0)
    assert hostspeed.scale(6.0, 2 * hostspeed.REFERENCE_BURST_S) == pytest.approx(quiet)
    assert hostspeed.mean_burst((2, 0.5), (6, 0.9)) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        hostspeed.mean_burst((3, 0.5), (3, 0.5))


def test_sampler_runs_bursts_on_cpu_time_and_counts_them():
    sampler = hostspeed.Sampler()
    sampler.install()
    try:
        start = sampler.mark()
        deadline = time.process_time() + 6 * hostspeed.PERIOD_S
        while time.process_time() < deadline:
            pass
        end = sampler.mark()
    finally:
        sampler.uninstall()
    assert end[0] - start[0] >= 2
    assert 0 < hostspeed.mean_burst(start, end) < 1.0


def test_search_space_matches_the_program_order(small):
    for frame in small:
        data = frames.frame_to_json_dict(frame)
        if isinstance(frame, frames.IntFrame):
            expected = semantics.upsets(frame.r)
        else:
            expected = semantics.subsets(frame.n)
        assert tracing.search_space(data) == expected


def _brute_force_count(frame, phi, space):
    """Valuations evaluated in search order until the first refutation."""
    letters = phi.letters()
    full = (1 << frame.n) - 1
    count = 0
    for combo in product(space, repeat=len(letters)):
        count += 1
        valuation = semantics.Valuation.from_masks(frame, dict(zip(letters, combo)))
        if semantics.truth_set(frame, valuation, phi) != full:
            return count, valuation
    return count, None


def test_valuation_count_matches_brute_force():
    rng = random.Random(5)
    checked = {"valid": 0, "refuted": 0}
    for kind in ("int", "ms4"):
        for frame in enumeration.enumerate_frames(enumeration.EnumerationConfig(kind, 3)):
            space = tracing.search_space(frames.frame_to_json_dict(frame))
            for _ in range(4):
                phi = syntax.parse(workloads.formula_text(rng, 3))
                if kind == "ms4":
                    phi = syntax.godel_translate(phi)
                found = semantics.countermodel(frame, phi)
                count, first = _brute_force_count(frame, phi, space)
                assert tracing.valuation_count(space, phi.letters(), found) == count
                assert (first is None) == (found is None)
                if found is not None:
                    assert found.valuation == first
                checked["valid" if found is None else "refuted"] += 1
    assert min(checked.values()) > 10


def test_every_disjoint_union_source_is_a_valid_frame(small):
    by_kind = {"int": [], "ms4": []}
    for frame in small:
        data = frames.frame_to_json_dict(frame)
        by_kind[data["kind"]].append(data)
    for kind, pool in by_kind.items():
        three = [f for f in pool if len(f["points"]) == 3]
        validate = frames.validate_int_frame if kind == "int" else frames.validate_ms4_frame
        for a, b in product(three, repeat=2):
            source = frames.frame_from_json_dict(workloads.disjoint_union(a, b), validate=False)
            assert source.n == 6
            assert validate(source).ok, (a, b)


def test_modelcheck_seeds_pose_the_same_problems_renamed(small):
    base = [frames.frame_to_json_dict(f) for f in small]
    one, two = workloads.modelcheck_pairs(1, base), workloads.modelcheck_pairs(2, base)
    assert len(one) == len(two) == workloads.MODELCHECK_ROUNDS * len(base)
    assert [t for _, t in one] != [t for _, t in two]
    for (f1, t1), (f2, t2) in zip(one, two):
        assert t2 in (t1, workloads.swap_letters(t1))
        assert workloads.swap_letters(workloads.swap_letters(t1)) == t1
        assert sorted(f1["points"]) == sorted(f2["points"])
    # Relabelling keeps the frame conditions and is undone by its inverse.
    for data in base[::25]:
        order = [2, 0, 1] + list(range(3, len(data["points"])))
        moved = workloads.relabel(data, order)
        frames.frame_from_json_dict(moved)
        inverse = [order.index(i) for i in range(len(order))]
        assert workloads.relabel(moved, inverse) == workloads.relabel(data, list(range(len(order))))


def test_seed_changes_only_the_seeded_workloads():
    def inputs(name, seed, config=0):
        return [(op.cls, repr(op.payload)) for op in workloads.setup(name, seed, config, kripkit).ops]

    assert inputs("battery", 1) == inputs("battery", 2)
    for config in range(len(workloads.ENUMERATE_CONFIGS)):
        assert inputs("enumerate", 1, config) == inputs("enumerate", 2, config)
    assert inputs("modelcheck", 1) != inputs("modelcheck", 2)
    assert inputs("reductions", 1) != inputs("reductions", 2)
    assert inputs("modelcheck", 3) == inputs("modelcheck", 3)


def test_work_counts_repeat_between_traced_runs():
    def traced_counts():
        workload = workloads.setup("modelcheck", 1, 0, kripkit)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for op in workload.ops[:60]:
                tracer.op = op.id
                workload.run(op)
        finally:
            tracer.uninstall()
        stats = tracing.layer_stats(tracer.spans, frames.frame_to_json_dict)
        return {k: v for k, v in stats.items() if k.endswith(".calls") or "valuations" in k}

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["semantics.countermodel.calls"] == 60
    assert first["semantics.valuations"] > 60


def test_recorded_seeds_check_clean():
    for name in ("modelcheck", "reductions"):
        workload = workloads.setup(name, 1, 0, kripkit)
        assert len(workload.reference) == len(workload.ops)
        for op in workload.ops[:40]:
            assert workload.check(op, workload.run(op)) is None


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
