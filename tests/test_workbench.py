"""Tests for the experiment registry, report reproducibility, frame file I/O,
and the command line."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kripkit
from kripkit import cli, morphisms, semantics, syntax, workbench
from kripkit.cli import main
from kripkit.enumeration import FILTERS, EnumerationConfig, enumerate_frames
from kripkit.frames import (
    MAX_POINTS,
    BoundExceeded,
    InvalidFrameError,
    MS4Frame,
    Relation,
    frame_to_json_dict,
    has_clean_clusters,
    is_finite_mgrz,
    validate_int_frame,
)
from kripkit.functors import sigma, skeleton
from kripkit.morphisms import FrameMap, is_reduction
from kripkit.semantics import frame_validates, validities_on
from kripkit.syntax import corpus, godel_translate, parse, print_formula, star_translate
from kripkit.workbench import (
    EXPERIMENTS,
    ExperimentReport,
    counterexample_data,
    experiment_ids,
    load_frame,
    run_all,
    run_experiment,
    save_frame,
    translation_formulas,
)

ALL_IDS = [
    "counterexample",
    "clean-casari",
    "grz-finite",
    "roundtrips",
    "e-eqe",
    "translation",
    "sigma-functor",
    "lifting",
    "companion-witness",
]

VERBS = [
    "check-frame",
    "validate-formula",
    "translate",
    "skeleton",
    "sigma",
    "morphisms",
    "enumerate",
    "experiment",
]

BAD_FRAME_JSON = {
    # Identity order with a strictly larger coarse relation: the coarse step
    # from x0 to x1 has no witness through the order.
    "kind": "int",
    "points": ["x0", "x1"],
    "R": [[0, 0], [1, 1]],
    "Q": [[0, 0], [1, 1], [0, 1]],
}


@pytest.fixture(scope="module")
def default_reports() -> list[ExperimentReport]:
    return run_all()


def frame_file(tmp_path, frame, name="frame.json"):
    path = tmp_path / name
    save_frame(frame, str(path))
    return str(path)


def test_counterexample_data_matches_fixtures(three_point_frame, two_point_frame, witness_map):
    f1, f2, f = counterexample_data()
    assert f1 == three_point_frame
    assert f2 == two_point_frame
    assert f == witness_map
    assert validate_int_frame(f1).ok
    assert validate_int_frame(f2).ok


def test_translation_formula_pool_is_fixed():
    pool = translation_formulas()
    assert len(pool) == 210
    assert pool == translation_formulas()
    assert pool[:10] == corpus("mipc_axioms") + corpus("monadic_casari")
    for phi in pool[10:]:
        assert phi.depth() <= 4
        assert set(phi.letters()) <= {"p", "q"}


def test_experiment_registry_order():
    assert experiment_ids() == ALL_IDS
    assert list(EXPERIMENTS) == ALL_IDS


def test_frame_labels_are_pinned(three_point_frame, two_point_frame):
    # The label opens every failure witness, so it is part of the report
    # fingerprint.
    assert workbench._frame_label(three_point_frame) == (
        "int[n=3 r=0>0;0>1;1>1;2>1;2>2 q=0>0;0>1;1>0;1>1;2>0;2>1;2>2]"
    )
    assert workbench._frame_label(sigma(two_point_frame)) == (
        "ms4[n=2 r=0>0;0>1;1>1 e=0>0;0>1;1>0;1>1]"
    )


def test_run_experiment_guards():
    with pytest.raises(ValueError, match="unknown experiment id"):
        run_experiment("casari")
    with pytest.raises(ValueError, match="at least 1"):
        run_experiment("clean-casari", 0)
    # clean-casari enumerates up to its bound; counterexample has no use for
    # one, yet refuses a bound that is not an int all the same.
    for experiment_id in ("clean-casari", "counterexample"):
        for bound in (True, 2.0, "2", 2.5):
            with pytest.raises(ValueError, match=f"must be an int, not {bound!r}"):
                run_experiment(experiment_id, bound)


def test_report_passed_and_fingerprint():
    good = ExperimentReport("x", "anchor", 3, (), 17)
    slow = ExperimentReport("x", "anchor", 3, (), 90210)
    bad = ExperimentReport("x", "anchor", 3, ("w",), 17)
    assert good.passed and not bad.passed
    assert good.fingerprint() == slow.fingerprint()
    assert good.fingerprint() != bad.fingerprint()
    assert set(json.loads(good.fingerprint())) == {"id", "anchor", "instances", "failures"}
    assert good.to_json_dict()["millis"] == 17


def test_all_experiments_pass_at_default_bounds(default_reports):
    assert [r.id for r in default_reports] == ALL_IDS
    for report in default_reports:
        assert report.passed, f"{report.id}: {report.failures[:3]}"


def test_default_instance_counts(default_reports):
    counts = {r.id: r.instances for r in default_reports}
    assert counts == {
        "counterexample": 1,
        "clean-casari": 135,
        "grz-finite": 389,
        "roundtrips": 270,
        "e-eqe": 136,
        "translation": 7980,
        "sigma-functor": 395,
        "lifting": 1078,
        "companion-witness": 60,
    }


# sha256 of `run_experiment("translation", 4).fingerprint()` as the
# one-formula-at-a-time search produced it: 52,920 instances.
TRANSLATION_BOUND_4_SHA256 = "73c76da60ac66114d6a64abd4629ebfef470e19ef7b08d8cbcfc59b0e5fb2799"


def test_translation_bound_4_fingerprint_is_unchanged():
    report = run_experiment("translation", 4)
    assert report.instances == 52920
    digest = hashlib.sha256(report.fingerprint().encode()).hexdigest()
    assert digest == TRANSLATION_BOUND_4_SHA256


def translation_frame_by_frame(pool, images, bound: int) -> tuple[int, list[str]]:
    """The translation experiment's loop as it was before it decided each
    distinct quotient once: both pools are decided on every frame and on
    its own quotient."""
    instances = 0
    failures = []
    for frame in enumerate_frames(EnumerationConfig("ms4", bound)):
        quotient, _ = skeleton(frame)
        answers = zip(pool, validities_on([quotient], pool)[0], validities_on([frame], images)[0])
        for phi, direct, translated in answers:
            instances += 1
            if direct != translated:
                failures.append(
                    f"{workbench._frame_label(frame)}: {print_formula(phi)}: "
                    f"quotient={direct} translated={translated}"
                )
    return instances, failures


@pytest.mark.parametrize("shift", [0, 1])
def test_translation_matches_the_frame_by_frame_loop(monkeypatch, shift):
    # Shift 1 pairs each formula with the next one's translation, so most
    # instances fail and every frame's answers show in the failure list.
    pool = tuple(translation_formulas())
    images = tuple(godel_translate(phi) for phi in pool[shift:] + pool[:shift])
    monkeypatch.setattr(workbench, "_translation_pools", lambda: (pool, images))
    instances, failures = translation_frame_by_frame(pool, images, 3)
    assert (shift == 0) == (not failures)
    experiment = EXPERIMENTS["translation"]
    oracle = ExperimentReport(experiment.id, experiment.anchor, instances, tuple(failures), 0)
    # Compared as a flag: pytest's diff of two long fingerprints takes minutes.
    same = run_experiment("translation", 3).fingerprint() == oracle.fingerprint()
    assert same, "the experiment and the frame-by-frame loop report differently"


def casari_frame_by_frame(casari, bound: int) -> dict[str, tuple[int, list[str]]]:
    """The clean-casari and companion-witness checks written with one
    `frame_validates` search per frame."""
    frames = enumerate_frames(EnumerationConfig("int", bound))
    clean_failures = []
    for frame in frames:
        valid = frame_validates(frame, casari)
        clean = has_clean_clusters(frame)
        if valid != clean:
            clean_failures.append(
                f"{workbench._frame_label(frame)}: casari-valid={valid} clean-clusters={clean}"
            )
    translated = godel_translate(casari)
    clean_frames = enumerate_frames(EnumerationConfig("int", bound, frozenset({"m_plus"})))
    witness_failures = []
    for frame in clean_frames:
        label = workbench._frame_label(frame)
        expansion = sigma(frame)
        if not is_finite_mgrz(expansion):
            witness_failures.append(f"{label}: expansion has a proper r-cluster")
            continue
        if not frame_validates(expansion, translated):
            witness_failures.append(f"{label}: expansion refutes the translated casari formula")
            continue
        quotient, _ = skeleton(expansion)
        witness = FrameMap(quotient, frame, tuple(range(frame.n)))
        if quotient != frame or not is_reduction(witness):
            witness_failures.append(f"{label}: identity is not a reduction of the quotient")
    return {
        "clean-casari": (len(frames), clean_failures),
        "companion-witness": (len(clean_frames), witness_failures),
    }


@pytest.mark.parametrize(
    "text",
    ["forall((p -> forall p) -> forall p) -> forall p", "p | ~ p"],
    ids=["casari", "excluded-middle"],
)
def test_casari_checks_match_the_frame_by_frame_loop(monkeypatch, text):
    # Excluded middle in place of the Casari formula holds only where r is
    # the identity, so both experiments fail on some frames and the failure
    # lists are compared too.
    casari = parse(text)
    corpus = syntax.corpus
    replaced = {"monadic_casari": [casari], "casari_translated": [godel_translate(casari)]}
    monkeypatch.setattr(syntax, "corpus", lambda name: replaced.get(name) or corpus(name))
    expected = casari_frame_by_frame(casari, 4)
    assert all(failures for _, failures in expected.values()) == (text == "p | ~ p")
    for experiment_id, (instances, failures) in expected.items():
        experiment = EXPERIMENTS[experiment_id]
        oracle = ExperimentReport(experiment.id, experiment.anchor, instances, tuple(failures), 0)
        same = run_experiment(experiment_id, 4).fingerprint() == oracle.fingerprint()
        assert same, f"{experiment_id} and the frame-by-frame loop report differently"
    # clean-casari decides all its frames in one search.
    calls = []

    def counted(frames, formulas):
        calls.append(len(frames))
        return validities_on(frames, formulas)

    def refused(*args, **kwargs):
        raise AssertionError("frame_validates was called")

    monkeypatch.setattr(semantics, "validities_on", counted)
    monkeypatch.setattr(semantics, "frame_validates", refused)
    run_experiment("clean-casari", 4)
    assert calls == [expected["clean-casari"][0]]


def test_translation_pools_are_built_once():
    pool, images = workbench._translation_pools()
    again = workbench._translation_pools()
    assert again[0] is pool and again[1] is images
    # The public pool is still a fresh list per call.
    assert list(pool) == translation_formulas()
    assert translation_formulas() is not translation_formulas()
    assert images == tuple(godel_translate(phi) for phi in pool)


def test_lifting_expands_each_target_once(monkeypatch):
    # The search found each lifted map as a reduction, so the experiment
    # neither checks it as an intuitionistic morphism again nor builds an
    # expansion per instance: one per target, through either binding.
    expanded = []
    checked = []
    is_mipc_morphism = morphisms.is_mipc_morphism

    def counted_sigma(frame):
        expanded.append(frame)
        return sigma(frame)

    def counted_mipc(f):
        checked.append(f)
        return is_mipc_morphism(f)

    monkeypatch.setattr(workbench, "sigma", counted_sigma)
    monkeypatch.setattr(kripkit.functors, "sigma", counted_sigma)
    monkeypatch.setattr(morphisms, "is_mipc_morphism", counted_mipc)
    instances, failures = workbench._run_lifting(4)
    targets = enumerate_frames(EnumerationConfig("int", 3, frozenset({"m_plus"})))
    assert (instances, failures) == (1078, [])
    assert expanded == list(targets)
    assert checked == []


def test_reports_are_byte_reproducible(default_reports):
    rerun = {
        "counterexample": run_experiment("counterexample"),
        "clean-casari": run_experiment("clean-casari"),
    }
    for report in default_reports:
        if report.id in rerun:
            assert report.fingerprint() == rerun[report.id].fingerprint()
    fingerprints = {r.fingerprint() for r in default_reports}
    assert len(fingerprints) == len(default_reports)


def test_bound_override_shrinks_the_search():
    reports = run_all(1)
    counts = {r.id: r.instances for r in reports}
    assert all(r.passed for r in reports)
    assert counts["clean-casari"] == 1
    assert counts["translation"] == 210
    assert counts["counterexample"] == 1


def test_save_and_load_roundtrip(tmp_path, three_point_frame, cluster_frame):
    for frame in (three_point_frame, sigma(three_point_frame), cluster_frame):
        path = frame_file(tmp_path, frame)
        assert load_frame(path) == frame or load_frame(path, raw=True) == frame


def test_load_validates_by_default(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_FRAME_JSON))
    with pytest.raises(InvalidFrameError, match="q-witness"):
        load_frame(str(path))
    frame = load_frame(str(path), raw=True)
    report = validate_int_frame(frame)
    assert [v.condition for v in report.violations] == ["q-witness"]


# --- command line -------------------------------------------------------------


def test_cli_check_frame_ok(tmp_path, capsys, three_point_frame):
    assert main(["check-frame", frame_file(tmp_path, three_point_frame)]) == 0
    assert capsys.readouterr().out.strip() == "ok: all frame conditions hold"


def test_cli_check_frame_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_FRAME_JSON))
    assert main(["check-frame", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("violation q-witness at (x0, x1)")
    assert main(["check-frame", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"][0]["condition"] == "q-witness"
    assert payload["violations"][0]["witness"] == [0, 1]


# Frames failing several conditions at once, with the report check-frame
# printed for each before the checks read relation rows directly; the
# witnesses must not move.
CHECK_FRAME_PINS = [
    (
        {
            "kind": "int",
            "points": ["a", "b", "c"],
            "R": [[0, 1], [1, 2], [0, 0], [1, 1]],
            "Q": [[0, 1], [1, 0], [2, 2]],
        },
        "violation r-reflexive at (c): point not r-related to itself\n"
        "violation r-transitive at (a, b, c): r misses a composite step\n"
        "violation q-reflexive at (a): point not q-related to itself\n"
        "violation q-transitive at (a, b, a): q misses a composite step\n"
        "violation r-subset-q at (a, a): r-step missing from q\n",
    ),
    (
        {
            "kind": "int",
            "points": ["a", "b", "c", "d"],
            "R": [[0, 0], [1, 1], [2, 2], [3, 3], [1, 3], [3, 1], [0, 2]],
            "Q": [[i, j] for i in range(4) for j in range(4)],
        },
        "violation r-antisymmetric at (b, d): r has a two-point cycle\n",
    ),
    (
        {
            "kind": "int",
            "points": ["a", "b", "c"],
            "R": [[0, 0], [1, 1], [2, 2]],
            "Q": [[0, 0], [1, 1], [2, 2], [1, 2]],
        },
        "violation q-witness at (b, c): q-step with no r-then-cluster decomposition\n",
    ),
    (
        {
            "kind": "ms4",
            "points": ["a", "b", "c"],
            "R": [[0, 0], [2, 2], [0, 1], [1, 2]],
            "E": [[0, 0], [1, 1], [2, 2], [0, 2], [1, 2], [2, 1]],
        },
        "violation r-reflexive at (b): point not r-related to itself\n"
        "violation r-transitive at (a, b, c): r misses a composite step\n"
        "violation e-symmetric at (a, c): e-step with no reverse\n"
        "violation e-transitive at (a, c, b): e misses a composite step\n",
    ),
    (
        {
            "kind": "ms4",
            "points": ["a", "b", "c", "d"],
            "R": [[0, 0], [1, 1], [2, 2], [3, 3]],
            "E": [[0, 0], [1, 1], [2, 2], [3, 3], [2, 3], [3, 2], [1, 2], [2, 1]],
        },
        "violation e-transitive at (b, c, d): e misses a composite step\n",
    ),
    (
        {
            "kind": "ms4",
            "points": ["a", "b", "c", "d"],
            "R": [[0, 0], [1, 1], [2, 2], [3, 3], [2, 3]],
            "E": [[0, 0], [1, 1], [2, 2], [3, 3], [1, 2], [2, 1]],
        },
        "violation commute at (b, c, d): e-then-r step that r-then-e cannot match\n",
    ),
]


@pytest.mark.parametrize("data,expected", CHECK_FRAME_PINS)
def test_cli_check_frame_witnesses_are_pinned(tmp_path, capsys, data, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check-frame", str(path)]) == 1
    assert capsys.readouterr().out == expected


def test_cli_frame_file_over_the_point_cap_names_the_points(tmp_path, capsys):
    # The point count is checked before the relations are built, so the
    # message is the frame's own, not the relation size check's.
    n = MAX_POINTS + 1
    data = {"kind": "int", "points": [f"x{i}" for i in range(n)], "R": [], "Q": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    for argv in (["check-frame", str(path)], ["sigma", "--raw", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {n} points exceeds cap {MAX_POINTS}\n"


def test_cli_deeply_nested_frame_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["check-frame", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_cli_validate_formula(tmp_path, capsys, two_point_frame):
    path = frame_file(tmp_path, two_point_frame)
    assert main(["validate-formula", path, "p -> p"]) == 0
    assert capsys.readouterr().out.strip() == "valid: p -> p"
    casari = "forall((p -> forall p) -> forall p) -> forall p"
    assert main(["validate-formula", path, casari]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: ")
    assert "fails at" in out
    assert main(["validate-formula", path, casari, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["countermodel"]["valuation"] == {"p": [1]}


def test_cli_validate_formula_force_lifts_caps(tmp_path, capsys, two_point_frame):
    path = frame_file(tmp_path, two_point_frame)
    wide = "(p1 & p2 & p3 & p4) -> p1"
    assert main(["validate-formula", path, wide]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["validate-formula", path, wide, "--force"]) == 0


def test_cli_deeply_nested_formula_is_an_input_error(tmp_path, capsys, two_point_frame):
    path = frame_file(tmp_path, two_point_frame)
    assert main(["validate-formula", path, "~" * 3000 + "p"]) == 2
    err = capsys.readouterr().err
    assert "nested deeper" in err
    assert "Traceback" not in err


def test_cli_iff_chain_is_an_input_error(tmp_path, capsys, two_point_frame):
    # Each <-> link doubles the expanded tree; 40 links would never finish.
    path = frame_file(tmp_path, two_point_frame)
    start = time.perf_counter()
    assert main(["validate-formula", path, " <-> ".join(["p"] * 41)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "expands to more than" in err
    assert "Traceback" not in err


def test_cli_force_keeps_the_valuation_budget(tmp_path, capsys):
    # 4096 subsets per letter: 2^36 valuations, far above the budget.
    n = 12
    discrete = MS4Frame(
        tuple(f"x{i}" for i in range(n)), Relation.identity(n), Relation.identity(n)
    )
    path = frame_file(tmp_path, discrete)
    start = time.perf_counter()
    assert main(["validate-formula", path, "p & q -> r", "--force"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "budget" in err
    assert "Traceback" not in err


def test_cli_translate(capsys):
    phi = parse("p -> q")
    assert main(["translate", "p -> q", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "input": "p -> q",
        "godel": print_formula(godel_translate(phi)),
        "star": star_translate(phi),
    }
    assert payload["godel"] == "box(box p -> box q)"


def test_cli_skeleton_of_a_frame_with_clashing_class_names(tmp_path, capsys):
    r = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    path = frame_file(tmp_path, MS4Frame(("a", "b", "a+b"), r, Relation.identity(3)))
    assert main(["check-frame", path]) == 0
    assert capsys.readouterr().out == "ok: all frame conditions hold\n"
    assert main(["skeleton", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame"]["points"] == ["a+b", "a+b'"]


def test_cli_skeleton_and_sigma(tmp_path, capsys, three_point_frame):
    int_path = frame_file(tmp_path, three_point_frame, "int.json")
    modal_path = frame_file(tmp_path, sigma(three_point_frame), "modal.json")

    assert main(["skeleton", modal_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame"]["points"] == ["a", "b", "c"]
    assert payload["projection"]["classes"] == [["a"], ["b"], ["c"]]
    assert main(["skeleton", int_path]) == 2
    assert "expects an ms4 frame" in capsys.readouterr().err

    out_path = tmp_path / "sigma.json"
    assert main(["sigma", int_path, "-o", str(out_path)]) == 0
    assert load_frame(str(out_path)) == sigma(three_point_frame)
    assert main(["sigma", modal_path]) == 2
    assert "expects an int frame" in capsys.readouterr().err


def test_cli_morphisms(tmp_path, capsys, three_point_frame, two_point_frame):
    source = frame_file(tmp_path, three_point_frame, "source.json")
    target = frame_file(tmp_path, two_point_frame, "target.json")
    assert main(["morphisms", source, target]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 reduction(s)"
    assert out[1].strip() == "{a -> u, b -> v, c -> v}"
    assert main(["morphisms", source, target, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reductions"] == [[0, 1, 1]]


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--kind", "int", "--bound", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["kind"] == "int" for line in lines)

    assert main(["enumerate", "--kind", "int", "--bound", "2", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 5

    assert main(["enumerate", "--kind", "int", "--filter", "mgrz"]) == 2
    assert "does not apply" in capsys.readouterr().err
    assert main(["enumerate", "--kind", "ms4", "--bound", "9"]) == 2


def test_cli_enumerate_write_error_is_reported(capsys, monkeypatch):
    # The lines go out in one write; when it fails, `main` still reports it
    # as one error line with exit code 2.
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["enumerate", "--kind", "int", "--bound", "2"]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_cli_experiment(capsys):
    assert main(["experiment", "counterexample"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS counterexample: 1 instances,")

    assert main(["experiment", "counterexample", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["id"] == "counterexample"
    assert payload["failures"] == []

    assert main(["experiment", "nonsense"]) == 2
    assert "unknown experiment id" in capsys.readouterr().err


def test_cli_experiment_all(capsys):
    assert main(["experiment", "all", "--bound", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[1].rstrip(":") for line in lines] == ALL_IDS
    assert all(line.startswith("PASS ") for line in lines)


def test_cli_experiment_failure_display(capsys, monkeypatch):
    broken = workbench._Experiment(
        "broken", "always fails", 1, lambda bound: (9, [f"w{i}" for i in range(7)])
    )
    monkeypatch.setitem(EXPERIMENTS, "broken", broken)
    assert main(["experiment", "broken"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL broken: 9 instances,")
    assert [line.strip() for line in lines[1:6]] == ["w0", "w1", "w2", "w3", "w4"]
    assert lines[6].strip() == "... and 2 more"


def test_cli_lifting_failure_is_reported(capsys, monkeypatch):
    # A lift that fails its own check is a failed instance with a witness,
    # not an escaping RuntimeError.
    monkeypatch.setattr(morphisms, "is_ms4_morphism", lambda g: False)
    assert main(["experiment", "lifting", "--bound", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL lifting:")
    assert "lifting failed to produce a reduction" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["check-frame", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def fresh_interpreter_stdout(*args: str) -> str:
    """What `python *args` prints in a new interpreter that imports this
    kripkit."""
    src = os.path.dirname(os.path.dirname(kripkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, check=True).stdout


def fresh_process_stdout(argv: list[str]) -> str:
    """What `kripkit *argv` prints in a new interpreter, which builds its
    own parsers."""
    return fresh_interpreter_stdout("-m", "kripkit.cli", *argv)


def test_cli_parser_is_built_once():
    assert list(cli._VERBS) == VERBS
    every = tuple(VERBS)
    assert cli._build_parser(every) is cli._build_parser(every)
    for name in VERBS:
        assert cli._build_parser((name,)) is cli._build_parser((name,))
        assert cli._build_parser((name,)) is not cli._build_parser(every)


def test_cli_verb_call_never_builds_the_full_parser():
    # A fresh interpreter, since this one's tests have built other parsers.
    # After the call, asking again for the enumerate parser is a cache hit.
    script = (
        "import argparse, io, contextlib\n"
        "from kripkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['enumerate', '--kind', 'int', '--bound', '2'])\n"
        "built = cli._build_parser.cache_info().currsize\n"
        "parser = cli._build_parser(('enumerate',))\n"
        "info = cli._build_parser.cache_info()\n"
        "(sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]\n"
        "print(code, built, info.hits, info.currsize, *sub.choices)\n"
    )
    assert fresh_interpreter_stdout("-c", script).split() == ["0", "1", "1", "1", "enumerate"]


def oracle_parser():
    """The full parser as it was before the verbs had their own parsers, all
    of it in one function: `main` must answer every argv as this does."""
    parser = argparse.ArgumentParser(
        prog="kripkit",
        description="finite-model workbench for monadic intuitionistic and modal logics",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("check-frame", help="report which frame conditions a file violates")
    p.add_argument("frame", help="path to a frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cli._cmd_check_frame)

    p = sub.add_parser("validate-formula", help="search a frame for a countermodel")
    p.add_argument("frame", help="path to a frame JSON file")
    p.add_argument("formula", help="formula text in the frame's language")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument(
        "--force",
        action="store_true",
        help="lift the letter and point caps on the valuation search",
    )
    p.set_defaults(handler=cli._cmd_validate_formula)

    p = sub.add_parser("translate", help="print the boxed and predicate translations")
    p.add_argument("formula", help="intuitionistic formula text")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cli._cmd_translate)

    p = sub.add_parser("skeleton", help="quotient an ms4 frame by its r-clusters")
    p.add_argument("frame", help="path to an ms4 frame JSON file")
    p.add_argument("--json", action="store_true", help="include the projection classes")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument("-o", "--out", help="write the resulting frame to this file")
    p.set_defaults(handler=cli._cmd_skeleton)

    p = sub.add_parser("sigma", help="expand an int frame to an ms4 frame")
    p.add_argument("frame", help="path to an int frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument("-o", "--out", help="write the resulting frame to this file")
    p.set_defaults(handler=cli._cmd_sigma)

    p = sub.add_parser("morphisms", help="enumerate the reductions between two frames")
    p.add_argument("source", help="path to the source frame JSON file")
    p.add_argument("target", help="path to the target frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.set_defaults(handler=cli._cmd_morphisms)

    p = sub.add_parser("enumerate", help="list frames up to isomorphism, one JSON per line")
    p.add_argument("--kind", choices=("int", "ms4"), required=True)
    p.add_argument("--bound", type=int, default=3, help="largest point count (default 3)")
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="NAME",
        help="keep only frames passing this named filter (repeatable)",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON array instead")
    p.set_defaults(handler=cli._cmd_enumerate)

    p = sub.add_parser("experiment", help="run a named experiment (or all of them)")
    p.add_argument(
        "id",
        metavar="id",
        help="experiment id or 'all': " + ", ".join(experiment_ids()),
    )
    p.add_argument("--bound", type=int, default=None, help="override the size bound")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=cli._cmd_experiment)

    return parser


def oracle_main(argv) -> int:
    try:
        args = oracle_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


PARSER_CASES = (
    [[verb, flag] for verb in VERBS for flag in ("-h", "--help")]
    + [["-h"], ["--help"], ["-h", "enumerate"], [], ["nope"], ["--bogus", "enumerate"]]
    # Each verb short of its required arguments.
    + [[verb] for verb in VERBS]
    + [["validate-formula", "f0"], ["morphisms", "f0"], ["enumerate", "--bound", "2"]]
    + [
        ["enumerate", "--kind", "s4"],
        ["enumerate", "--bound", "x"],
        ["enumerate", "--kind", "int", "--bound", "x"],
        ["enumerate", "--ki", "int", "--bou", "2"],
        ["enumerate", "--kind=ms4"],
        ["enumerate", "--kind", "int", "--bogus"],
        ["enumerate", "--bogus", "--kind", "int", "-h"],
        ["experiment", "counterexample", "extra"],
        ["translate", "--", "p"],
        ["translate", "--", "-p"],
        ["translate", "p", "--json", "--", "q"],
        ["skeleton", "-o"],
        ["--", "translate", "p"],
    ]
)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_cli_parses_as_the_full_parser_did(argv, capsys, monkeypatch):
    # Help is wrapped to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    got = capsys.readouterr()
    want_code = oracle_main(list(argv))
    want = capsys.readouterr()
    assert (got.out, got.err, code) == (want.out, want.err, want_code)


def test_cli_reused_parser_keeps_nothing_from_earlier_calls(capsys):
    plain = ["enumerate", "--kind", "int", "--bound", "3"]
    filtered = [*plain, "--filter", "m_plus"]
    fresh = fresh_process_stdout(plain)
    assert main(filtered) == 0
    assert capsys.readouterr().out == fresh_process_stdout(filtered) != fresh
    # The filter list of the call above must not be the default of this one.
    assert main(plain) == 0
    assert capsys.readouterr().out == fresh
    assert main(["enumerate", "--kind", "s4"]) == 2
    capsys.readouterr()
    assert main(plain) == 0
    assert capsys.readouterr().out == fresh
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: kripkit")
    assert main(plain) == 0
    assert capsys.readouterr().out == fresh


def test_cli_grz_finite_bound_is_capped(capsys, monkeypatch):
    # grz-finite lists every labeled quasi-order up to its bound (642,779,354
    # on 8 points), so a bound above the enumeration cap is refused before
    # any is listed.
    def refuse(n):
        raise AssertionError(f"quasi_orders({n}) was called")

    monkeypatch.setattr(workbench, "quasi_orders", refuse)
    with pytest.raises(BoundExceeded):
        run_experiment("grz-finite", 6)
    assert main(["experiment", "grz-finite", "--bound", "8"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


# --- fuzzing the command line ------------------------------------------------

VALID_FRAMES = [
    json.dumps(frame_to_json_dict(frame))
    for kind in ("int", "ms4")
    for frame in enumerate_frames(EnumerationConfig(kind, 3))
]

JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.sampled_from(["int", "ms4", "a"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "points", "R", "Q", "E", "x"]), inner),
    max_leaves=16,
).map(json.dumps)


@st.composite
def frame_like(draw) -> str:
    """Frame JSON with a known kind and random pair lists, often a frame that
    fails its conditions."""
    n = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    data = {"kind": draw(st.sampled_from(["int", "ms4"])), "points": [f"x{i}" for i in range(n)]}
    for key in ("R", "Q", "E"):
        data[key] = [[i, i] for i in range(n)] + draw(st.lists(pair, max_size=6))
    return json.dumps(data)


FRAME_FILES = (
    st.sampled_from(VALID_FRAMES)
    | frame_like()
    | JSONISH
    | st.text(alphabet='{}[],:"0123 intmsQRE4kdp', max_size=40)
    | st.binary(max_size=20).map(lambda b: b.decode("latin-1"))
)

FORMULAS = st.sampled_from(
    ["p", "p | ~p", "box p -> p", "forall p -> p", "exists (p & q)", "~~r -> r", "T", ""]
) | st.text(alphabet="pqr~&|->() TFboxfralexists", max_size=20)


@st.composite
def cli_argv(draw):
    """An argv for one of the eight verbs with a random mix of its flags.
    Frame arguments are the file names "f0" and "f1"; bounds stay small so
    every example is quick."""

    def flags(*names):
        return [name for name in names if draw(st.booleans())]

    verb = draw(st.sampled_from(VERBS))
    if verb == "check-frame":
        argv = [verb, "f0", *flags("--json")]
    elif verb == "validate-formula":
        argv = [verb, "f0", draw(FORMULAS), *flags("--json", "--raw", "--force")]
    elif verb == "translate":
        argv = [verb, draw(FORMULAS), *flags("--json")]
    elif verb in ("skeleton", "sigma"):
        argv = [verb, "f0", *flags("--json", "--raw")]
        if draw(st.booleans()):
            argv += ["-o", "out.json"]
    elif verb == "morphisms":
        argv = [verb, "f0", "f1", *flags("--json", "--raw")]
    elif verb == "enumerate":
        argv = [verb, "--kind", draw(st.sampled_from(["int", "ms4", "s4"]))]
        argv += ["--bound", str(draw(st.integers(-1, 4)))]
        for name in draw(st.lists(st.sampled_from([*FILTERS, "nope"]), max_size=2)):
            argv += ["--filter", name]
        argv += flags("--json")
    else:
        argv = [verb, draw(st.sampled_from(["all", *ALL_IDS, "nope"]))]
        if draw(st.booleans()):
            argv += ["--bound", str(draw(st.integers(-1, 3)))]
        argv += flags("--json")
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-o"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv(), files=st.lists(FRAME_FILES, min_size=2, max_size=2))
def test_cli_fuzz_exit_codes(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in zip(("f0", "f1"), files):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [os.path.join(tmp, a) if a in ("f0", "f1", "out.json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
