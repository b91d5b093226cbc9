"""Named experiments with reproducible reports, plus frame file I/O.

Each experiment mechanically verifies one checkable statement by exhaustive
search at a small size bound and reports the instance count plus any failing
witnesses.  Reports are deterministic: rerunning an experiment at the same
bound yields byte-identical content (wall time aside).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cache
from typing import Callable

from . import semantics, syntax
from .enumeration import MAX_ENUM_POINTS, EnumerationConfig, enumerate_frames, quasi_orders
from .frames import (
    BoundExceeded,
    Frame,
    IntFrame,
    MS4Frame,
    Relation,
    er,
    frame_from_json_dict,
    frame_to_json_dict,
    grz_max_check,
    has_clean_clusters,
    is_finite_mgrz,
    qe,
)
from .functors import sigma, skeleton
from .morphisms import (
    FrameMap,
    _lift,
    _may_reduce,
    _reduction_shape,
    _rows_match,
    enumerate_morphisms,
    enumerate_reductions,
    is_mipc_morphism,
    is_ms4_morphism,
    is_reduction,
)

RANDOM_FORMULA_SEED = 7
RANDOM_FORMULA_COUNT = 200


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment run; passes iff no failures."""

    id: str
    anchor: str
    instances: int
    failures: tuple[str, ...]
    millis: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "instances": self.instances,
            "failures": list(self.failures),
            "millis": self.millis,
        }

    def fingerprint(self) -> str:
        """Canonical serialization of everything except wall time; the
        reproducibility contract is byte-identity of this string."""
        stable = {k: v for k, v in self.to_json_dict().items() if k != "millis"}
        return json.dumps(stable, sort_keys=True, separators=(",", ":"))


def counterexample_data() -> tuple[IntFrame, IntFrame, FrameMap]:
    """The canonical witness pair: a 3-point frame mapping onto a 2-point
    frame by a morphism whose expansion is not a modal morphism."""
    f1 = IntFrame(
        ("a", "b", "c"),
        Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)]),
        Relation.from_pairs(
            3, [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1), (1, 0), (2, 0)]
        ),
    )
    f2 = IntFrame(
        ("u", "v"),
        Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
        Relation.total(2),
    )
    return f1, f2, FrameMap(f1, f2, (0, 1, 1))


def translation_formulas() -> list[syntax.Formula]:
    """The translation experiment's formula pool: the intuitionistic corpus
    families plus seeded random formulas over two letters, depth at most 4."""
    pool = syntax.corpus("mipc_axioms") + syntax.corpus("monadic_casari")
    rng = random.Random(RANDOM_FORMULA_SEED)
    pool.extend(syntax.random_formula(rng, ("p", "q"), 4) for _ in range(RANDOM_FORMULA_COUNT))
    return pool


@cache
def _translation_pools() -> tuple[tuple[syntax.Formula, ...], tuple[syntax.Formula, ...]]:
    """The translation pool and its Godel translations, built once per
    process: every run passes `semantics.validities_on` the same two tuples,
    which its program cache finds by identity rather than by comparing
    formulas."""
    pool = tuple(translation_formulas())
    return pool, tuple(syntax.godel_translate(phi) for phi in pool)


def _enumerate(kind: str, bound: int, *filters: str):
    config = EnumerationConfig(kind, bound, frozenset(filters))
    return enumerate_frames(config)


def _frame_label(frame) -> str:
    r, s = (";".join(f"{i}>{j}" for i, j in rel.pairs()) for rel in (frame.r, frame.s))
    return f"{frame.kind}[n={frame.n} r={r} {frame.second}={s}]"


def _run_counterexample(bound: int) -> tuple[int, list[str]]:
    f1, f2, f = counterexample_data()
    failures = []
    if not is_mipc_morphism(f):
        failures.append("expected the map to be an intuitionistic frame morphism")
    expanded = FrameMap(sigma(f1), sigma(f2), f.image)
    if is_ms4_morphism(expanded):
        failures.append("expected the expanded map to fail the modal morphism check")
    c = f1.index("c")
    eq1, eq2 = f1.e_q(), f2.e_q()
    both = 0b11  # {u, v}
    just_v = 0b10
    if eq2.rows[f.image[c]] != both:
        failures.append("cluster of the image of c is not {u,v}")
    mapped = f.apply_mask(eq1.rows[c])
    if mapped != just_v:
        failures.append("image of the cluster of c is not {v}")
    if f2.r.preimage(mapped) != both:
        failures.append("r-predecessors of the image of the cluster of c is not {u,v}")
    return 1, failures


def _run_clean_casari(bound: int) -> tuple[int, list[str]]:
    casari = syntax.corpus("monadic_casari")[0]
    frames = _enumerate("int", bound)
    instances = 0
    failures = []
    for frame, (valid,) in zip(frames, semantics.validities_on(frames, (casari,))):
        instances += 1
        clean = has_clean_clusters(frame)
        if valid != clean:
            failures.append(
                f"{_frame_label(frame)}: casari-valid={valid} clean-clusters={clean}"
            )
    return instances, failures


def _run_grz_finite(bound: int) -> tuple[int, list[str]]:
    # The labeled quasi-orders are listed in full: 9,535,241 on 7 points.
    if bound > MAX_ENUM_POINTS:
        raise BoundExceeded(f"grz-finite bound {bound} exceeds {MAX_ENUM_POINTS}")
    grz = syntax.corpus("grz")[0]
    instances = 0
    failures = []
    for n in range(1, bound + 1):
        names = tuple(f"x{i}" for i in range(n))
        identity = Relation.identity(n)
        orders = quasi_orders(n)
        frames = [MS4Frame(names, rel, identity) for rel in orders]
        for rel, (by_validity,) in zip(orders, semantics.validities_on(frames, (grz,))):
            instances += 1
            by_max = grz_max_check(rel)
            by_order = rel.is_antisymmetric()
            if not (by_max == by_order == by_validity):
                failures.append(
                    f"r={rel.pairs()}: max-check={by_max} "
                    f"antisymmetric={by_order} grz-valid={by_validity}"
                )
    return instances, failures


def _run_roundtrips(bound: int) -> tuple[int, list[str]]:
    instances = 0
    failures = []
    for frame in _enumerate("int", bound):
        instances += 1
        quotient, projection = skeleton(sigma(frame))
        # Every cluster of sigma(F) is a singleton, so the witness bijection
        # is the identity and the round trip is on-the-nose.
        if any(len(members) != 1 for members in projection.classes):
            failures.append(f"{_frame_label(frame)}: expansion has a proper cluster")
        elif quotient != frame:
            failures.append(f"{_frame_label(frame)}: quotient of expansion differs")
    for frame in _enumerate("ms4", bound, "mgrz"):
        instances += 1
        quotient, projection = skeleton(frame)
        if any(len(members) != 1 for members in projection.classes):
            failures.append(f"{_frame_label(frame)}: antisymmetric r has a cluster")
        elif sigma(quotient) != frame:
            failures.append(f"{_frame_label(frame)}: expansion of quotient differs")
    return instances, failures


def _run_e_eqe(bound: int) -> tuple[int, list[str]]:
    instances = 0
    failures = []
    for frame in _enumerate("ms4", bound, "mgrz"):
        instances += 1
        if er(qe(frame.r, frame.e)) != frame.e:
            failures.append(f"{_frame_label(frame)}: e differs from derived cluster relation")
    # Necessity of antisymmetry: on a 2-point r-cluster with identity e the
    # derived equivalence strictly grows.
    instances += 1
    cluster = MS4Frame(("x", "y"), Relation.total(2), Relation.identity(2))
    if er(qe(cluster.r, cluster.e)) == cluster.e:
        failures.append("2-point cluster with identity e: derived equivalence did not grow")
    return instances, failures


def _quotient_key(quotient) -> tuple:
    """What a search on a quotient reads of it: its relation rows.  Frames
    of one relation shape get different point names, so they are not equal
    as frames; a row tuple also keeps no `Relation` alive."""
    return quotient.r.rows, quotient.s.rows


def _run_translation(bound: int) -> tuple[int, list[str]]:
    pool, images = _translation_pools()
    frames = _enumerate("ms4", bound)
    # Each distinct quotient is decided once per run, keyed by its rows
    # (`_quotient_key`), since quotients of one shape differ in point names.
    quotients: dict[tuple, IntFrame] = {}
    keys = []
    for frame in frames:
        quotient, _ = skeleton(frame)
        key = _quotient_key(quotient)
        quotients.setdefault(key, quotient)
        keys.append(key)
    decided = dict(zip(quotients, semantics.validities_on(quotients.values(), pool)))
    instances = 0
    failures = []
    for frame, key, on_frame in zip(frames, keys, semantics.validities_on(frames, images)):
        for phi, direct, translated in zip(pool, decided[key], on_frame):
            instances += 1
            if direct != translated:
                failures.append(
                    f"{_frame_label(frame)}: {syntax.print_formula(phi)}: "
                    f"quotient={direct} translated={translated}"
                )
    return instances, failures


def _run_sigma_functor(bound: int) -> tuple[int, list[str]]:
    clean = _enumerate("int", bound, "m_plus")
    expansions = [sigma(frame) for frame in clean]
    instances = 0
    failures = []
    # An expansion keeps the points, so each morphism's image is checked
    # as a map between the expansions, on their r rows and e rows.
    for source, source_expansion in zip(clean, expansions):
        r1, e1 = source_expansion.r.rows, source_expansion.e.rows
        for target, target_expansion in zip(clean, expansions):
            r2, e2 = target_expansion.r.rows, target_expansion.e.rows
            for f in enumerate_morphisms(source, target):
                instances += 1
                if not (_rows_match(r1, r2, f.image) and _rows_match(e1, e2, f.image)):
                    failures.append(
                        f"{_frame_label(source)} -> {_frame_label(target)} "
                        f"via {list(f.image)}: expansion is not a modal morphism"
                    )
    # The construction genuinely needs clean clusters: the canonical witness
    # map is a morphism whose expansion fails.
    instances += 1
    f1, f2, f = counterexample_data()
    expanded = FrameMap(sigma(f1), sigma(f2), f.image)
    if not is_mipc_morphism(f) or is_ms4_morphism(expanded):
        failures.append("canonical non-clean witness did not behave as expected")
    return instances, failures


def _run_lifting(bound: int) -> tuple[int, list[str]]:
    targets = _enumerate("int", min(3, bound), "m_plus")
    target_shapes = [_reduction_shape(target) for target in targets]
    expansions = [sigma(target) for target in targets]
    # Each distinct quotient is searched once per run, keyed by its rows
    # (`_quotient_key`): per target, the image tuples of its reductions,
    # none where the shapes rule a reduction out.  The search has made the
    # checks `lift_reduction` makes first, so `_lift` checks only the lift.
    found: dict[tuple, tuple[tuple[tuple[int, ...], ...], ...]] = {}
    instances = 0
    failures = []
    for modal in _enumerate("ms4", bound):
        quotient, projection = skeleton(modal)
        key = _quotient_key(quotient)
        per_target = found.get(key)
        if per_target is None:
            shape = _reduction_shape(quotient)
            per_target = found[key] = tuple(
                tuple(f.image for f in enumerate_reductions(quotient, target))
                if _may_reduce(shape, target_shape)
                else ()
                for target, target_shape in zip(targets, target_shapes)
            )
        for target, expansion, images in zip(targets, expansions, per_target):
            for image in images:
                instances += 1
                try:
                    _lift(projection, image, expansion)
                except RuntimeError as exc:
                    failures.append(
                        f"{_frame_label(modal)} -> {_frame_label(target)} "
                        f"via {list(image)}: {exc}"
                    )
    return instances, failures


def _run_companion_witness(bound: int) -> tuple[int, list[str]]:
    translated = syntax.corpus("casari_translated")[0]
    instances = 0
    failures = []
    for frame in _enumerate("int", bound, "m_plus"):
        instances += 1
        expansion = sigma(frame)
        if not is_finite_mgrz(expansion):
            failures.append(f"{_frame_label(frame)}: expansion has a proper r-cluster")
            continue
        # Per frame, not one validities_on call: this is the `battery`
        # benchmark's only call into a semantics function its tracer sees.
        if not semantics.frame_validates(expansion, translated):
            failures.append(
                f"{_frame_label(frame)}: expansion refutes the translated casari formula"
            )
            continue
        quotient, _ = skeleton(expansion)
        witness = FrameMap(quotient, frame, tuple(range(frame.n)))
        if quotient != frame or not is_reduction(witness):
            failures.append(
                f"{_frame_label(frame)}: identity is not a reduction of the quotient"
            )
    return instances, failures


@dataclass(frozen=True)
class _Experiment:
    id: str
    anchor: str
    default_bound: int
    run: Callable[[int], tuple[int, list[str]]]


_EXPERIMENTS = [
    _Experiment(
        "counterexample",
        "3-point to 2-point morphism whose expansion fails the modal morphism check",
        1,
        _run_counterexample,
    ),
    _Experiment(
        "clean-casari",
        "casari validity coincides with clean clusters on int frames",
        4,
        _run_clean_casari,
    ),
    _Experiment(
        "grz-finite",
        "max-point check, antisymmetry, and grz validity agree on finite quasi-orders",
        4,
        _run_grz_finite,
    ),
    _Experiment(
        "roundtrips",
        "quotient and expansion invert each other via the singleton-class bijection",
        4,
        _run_roundtrips,
    ),
    _Experiment(
        "e-eqe",
        "e is recovered from the derived coarse relation exactly on antisymmetric frames",
        4,
        _run_e_eqe,
    ),
    _Experiment(
        "translation",
        "the quotient validates a formula iff the frame validates its boxed translation",
        3,
        _run_translation,
    ),
    _Experiment(
        "sigma-functor",
        "expansion preserves morphisms between clean-cluster frames and can fail otherwise",
        3,
        _run_sigma_functor,
    ),
    _Experiment(
        "lifting",
        "a reduction of the quotient onto a clean frame lifts along the projection",
        4,
        _run_lifting,
    ),
    _Experiment(
        "companion-witness",
        "the expansion of a clean frame validates translated casari and reduces onto it",
        4,
        _run_companion_witness,
    ),
]

EXPERIMENTS = {exp.id: exp for exp in _EXPERIMENTS}


def experiment_ids() -> list[str]:
    return [exp.id for exp in _EXPERIMENTS]


def run_experiment(experiment_id: str, bound: int | None = None) -> ExperimentReport:
    """Run one registered experiment and collect its report.

    `bound` overrides the default size bound; experiments ignore bounds they
    have no use for (the fixed-instance ones).
    """
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(f"unknown experiment id {experiment_id!r}") from None
    effective = experiment.default_bound if bound is None else bound
    if effective.__class__ is not int:
        raise ValueError(f"bound must be an int, not {bound!r}")
    if effective < 1:
        raise ValueError("bound must be at least 1")
    start = time.perf_counter()
    instances, failures = experiment.run(effective)
    millis = int((time.perf_counter() - start) * 1000)
    return ExperimentReport(
        experiment.id, experiment.anchor, instances, tuple(failures), millis
    )


def run_all(bound: int | None = None) -> list[ExperimentReport]:
    return [run_experiment(experiment_id, bound) for experiment_id in experiment_ids()]


# --- file I/O ----------------------------------------------------------------


def load_frame(path: str, raw: bool = False) -> Frame:
    """Read a frame JSON file; validates frame conditions unless `raw`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return frame_from_json_dict(data, validate=not raw)


def save_frame(frame: Frame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(frame_to_json_dict(frame), handle, indent=2)
        handle.write("\n")
