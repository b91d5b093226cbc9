"""The benchmark's workloads: inputs made from a seed, the operations timed,
and the checks of every output against the recorded references.

Four workloads, each chosen to stress different layers:

- `battery`: every experiment of `kripkit experiment all` at its default
  bound, one CLI call per experiment in one process.  The only workload that
  asks `enumerate_frames` for the same configuration more than once (9 calls,
  4 distinct), so reuse of work inside one run shows here and nowhere else.
- `enumerate`: the five bound-4 `kripkit enumerate` configurations, one cold
  process each.  Frame generation and canonical forms do nearly all the work;
  each configuration is asked for once per process, so cross-call caching
  shows nothing.
- `modelcheck`: seeded (frame, formula text) checks: parse, Goedel
  translation for modal frames, then `countermodel`.  Valid checks run the
  whole valuation search; refuted checks stop at the first countermodel.
  The seed renames (see `modelcheck_pairs`), so every seed costs the same.
- `reductions`: seeded `kripkit morphisms` operations: two
  `frame_from_json_dict` loads and `enumerate_reductions` from a 6-point
  disjoint union.  `hit` maps a+a onto a (reductions exist); `miss` maps a+b
  onto a random 3-4 point frame (almost never any).

The seed changes only the `modelcheck` and `reductions` inputs.  The inputs
are made by this file, never by kripkit's own random helpers, so a change to
the program cannot change what is measured.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field

WORKLOADS = ("battery", "enumerate", "modelcheck", "reductions")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Each configuration runs in its own process; this order is recorded.
ENUMERATE_CONFIGS = (
    ("int",),
    ("int", "m_plus"),
    ("ms4",),
    ("ms4", "mgrz"),
    ("ms4", "m_plus_grz"),
)
ENUMERATE_BOUND = 4

# Every int and ms4 frame with 3-4 points (375 at bound 4) is checked three
# times, which gives 310 valid and 815 refuted checks per repetition, for
# every seed: at least 200 of each class, so p95 has ten samples beyond it.
MODELCHECK_ROUNDS = 3
MODELCHECK_DEPTH = 5
MODELCHECK_LETTERS = ("p", "q")

REDUCTIONS_PER_CLASS = 240

# Per-operation limits; an operation past its limit counts as failed.
OP_LIMIT_S = {"battery": 90.0, "enumerate": 90.0, "modelcheck": 10.0, "reductions": 10.0}


@dataclass(frozen=True)
class Op:
    id: int
    cls: str  # latency class: the experiment id, config name, or result class
    payload: object


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as f:
        return json.load(f)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Seeds recorded only as per-op digests keep the reference files small; a
# wrong result slips past a 12-bit digest once in 4096 operations.
SHORT_DIGEST_CHARS = 3


def short_digest(text: str) -> str:
    return digest(text)[:SHORT_DIGEST_CHARS]


def enumerate_argv(config: tuple[str, ...]) -> list[str]:
    argv = ["enumerate", "--kind", config[0], "--bound", str(ENUMERATE_BOUND)]
    for name in config[1:]:
        argv += ["--filter", name]
    return argv


def config_name(config: tuple[str, ...]) -> str:
    return "+".join(config)


# --- seeded inputs -----------------------------------------------------------


def formula_text(rng: random.Random, depth: int) -> str:
    """Random intuitionistic formula text of depth at most `depth`, with
    every binary connective parenthesized."""
    atoms = ("letter", "letter", "T", "F")
    kinds = atoms + ("~", "forall", "exists", "&", "|", "->")
    kind = rng.choice(atoms if depth == 0 else kinds)
    if kind == "letter":
        return rng.choice(MODELCHECK_LETTERS)
    if kind in atoms:
        return kind
    if kind == "~":
        return "~" + formula_text(rng, depth - 1)
    if kind in ("forall", "exists"):
        return f"{kind} {formula_text(rng, depth - 1)}"
    lhs = formula_text(rng, depth - 1)
    return f"({lhs} {kind} {formula_text(rng, depth - 1)})"


def _uses_all_letters(text: str) -> bool:
    words = set(text.replace("(", " ").replace(")", " ").replace("~", " ").split())
    return all(name in words for name in MODELCHECK_LETTERS)


def modelcheck_texts(count: int) -> list[str]:
    """The formula pool, the same for every seed."""
    rng = random.Random("modelcheck")
    out = []
    while len(out) < count:
        text = formula_text(rng, MODELCHECK_DEPTH)
        if _uses_all_letters(text):
            out.append(text)
    return out


def swap_letters(text: str) -> str:
    return re.sub(r"\b[pq]\b", lambda m: "q" if m.group() == "p" else "p", text)


def relabel(data: dict, order: list[int]) -> dict:
    """JSON form of the same frame with point i renumbered `order[i]`."""
    second = "Q" if data["kind"] == "int" else "E"
    points = [""] * len(order)
    for i, name in enumerate(data["points"]):
        points[order[i]] = name
    return {
        "kind": data["kind"],
        "points": points,
        "R": sorted([order[i], order[j]] for i, j in data["R"]),
        second: sorted([order[i], order[j]] for i, j in data[second]),
    }


def modelcheck_pairs(seed: int, frames: list[dict]) -> list[tuple[dict, str]]:
    """(frame JSON, formula text) pairs: each frame with MODELCHECK_ROUNDS
    formulas of the pool.  Random formulas of depth 5 differ in cost by 10x
    and more, and a fresh draw per seed moved a repetition's time by 10-15%
    from seed to seed.  So the seed only renames: it renumbers each frame's
    points and swaps p and q in about half the formulas.  Every seed then
    poses the same problems up to isomorphism, and a valid check searches
    the same number of valuations, while the frames, the texts and the
    countermodels found differ."""
    rng = random.Random(f"modelcheck-{seed}")
    moved = [relabel(f, rng.sample(range(len(f["points"])), len(f["points"]))) for f in frames]
    texts = modelcheck_texts(MODELCHECK_ROUNDS * len(frames))
    return [
        (moved[i % len(frames)], swap_letters(text) if rng.random() < 0.5 else text)
        for i, text in enumerate(texts)
    ]


def disjoint_union(a: dict, b: dict) -> dict:
    """JSON form of the disjoint union of two frames of one kind."""
    second = "Q" if a["kind"] == "int" else "E"
    shift = len(a["points"])
    return {
        "kind": a["kind"],
        "points": [f"a{i}" for i in range(shift)] + [f"b{i}" for i in range(len(b["points"]))],
        "R": a["R"] + [[i + shift, j + shift] for i, j in b["R"]],
        second: a[second] + [[i + shift, j + shift] for i, j in b[second]],
    }


def reduction_pairs(seed: int, by_kind: dict[str, list[dict]]) -> list[tuple[str, dict, dict]]:
    """(class, source, target) JSON pairs, hit and miss alternating, kinds
    alternating per pair.  `by_kind[kind]` lists that kind's 3-4 point
    frames in JSON form."""
    rng = random.Random(f"reductions-{seed}")
    out = []
    for i in range(REDUCTIONS_PER_CLASS):
        kind = ("int", "ms4")[i % 2]
        pool = by_kind[kind]
        three = [f for f in pool if len(f["points"]) == 3]
        a = rng.choice(three)
        out.append(("hit", disjoint_union(a, a), a))
        b = rng.choice([f for f in three if f is not a])
        out.append(("miss", disjoint_union(a, b), rng.choice(pool)))
    return out


def small_frames(kripkit) -> list:
    """Every int and ms4 frame with 3-4 points, int first, in enumeration
    order."""
    enumeration = kripkit.enumeration
    out = []
    for kind in ("int", "ms4"):
        config = enumeration.EnumerationConfig(kind, 4)
        out.extend(f for f in enumeration.enumerate_frames(config) if f.n >= 3)
    return out


# --- operations ----------------------------------------------------------------


def cli_output(kripkit, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = kripkit.cli.main(argv)
    return code, buffer.getvalue()


@dataclass
class Workload:
    """Inputs and reference of one child process, plus how to run and check
    one operation.  Module attributes are looked up at call time, so a traced
    run sees the patched functions."""

    name: str
    ops: list[Op]
    reference: dict  # battery/enumerate: the file; else op id -> result text
    kripkit: object
    digests: dict[int, str] = field(default_factory=dict)  # op id -> short digest

    def run(self, op: Op):
        k = self.kripkit
        if self.name == "battery":
            return cli_output(k, ["experiment", op.payload, "--json"])
        if self.name == "enumerate":
            return cli_output(k, enumerate_argv(op.payload))
        if self.name == "modelcheck":
            frame, text, modal = op.payload
            phi = k.syntax.parse(text, k.syntax.INT)
            if modal:
                phi = k.syntax.godel_translate(phi)
            return phi, k.semantics.countermodel(frame, phi)
        source, target = op.payload
        s = k.frames.frame_from_json_dict(source)
        t = k.frames.frame_from_json_dict(target)
        return k.morphisms.enumerate_reductions(s, t)

    def result_class(self, op: Op, raw) -> str:
        if self.name == "modelcheck":
            return "valid" if raw[1] is None else "refuted"
        return op.cls

    def check(self, op: Op, raw) -> str | None:
        """None when the output is right, else what is wrong."""
        return getattr(self, f"_check_{self.name}")(op, raw)

    def _differs(self, op: Op, got: str) -> bool:
        if op.id in self.reference:
            return got != self.reference[op.id]
        if op.id in self.digests:
            return short_digest(got) != self.digests[op.id]
        return False

    def _check_battery(self, op: Op, raw) -> str | None:
        code, text = raw
        report = json.loads(text)
        stable = {k: v for k, v in report.items() if k != "millis"}
        fingerprint = json.dumps(stable, sort_keys=True, separators=(",", ":"))
        if code != 0 or report["failures"]:
            return f"{op.payload}: exit {code}, {len(report['failures'])} failure(s)"
        if fingerprint != self.reference["fingerprints"][op.payload]:
            return f"{op.payload}: fingerprint differs from the reference"
        return None

    def _check_enumerate(self, op: Op, raw) -> str | None:
        code, text = raw
        expected = self.reference["stdout_sha256"][config_name(op.payload)]
        if code != 0 or digest(text) != expected:
            return f"{config_name(op.payload)}: exit {code}, stdout differs from the reference"
        return None

    def _check_modelcheck(self, op: Op, raw) -> str | None:
        frame, text, _ = op.payload
        phi, found = raw
        got = modelcheck_result(found)
        if self._differs(op, got):
            expected = self.reference.get(op.id) or f"digest {self.digests[op.id]}"
            return f"op {op.id} {text!r}: got {got}, reference {expected}"
        if found is None:
            return None
        semantics = self.kripkit.semantics
        valuation = found.valuation
        if (
            found.frame != frame
            or tuple(name for name, _ in valuation.masks) != phi.letters()
            or not valuation.is_admissible()
            or semantics.truth_set(frame, valuation, phi) >> found.point & 1
        ):
            return f"op {op.id} {text!r}: {got} is not a countermodel"
        return None

    def _check_reductions(self, op: Op, raw) -> str | None:
        if self._differs(op, reductions_result(raw)):
            return f"op {op.id}: reductions differ from the reference"
        images = [f.image for f in raw]
        if images != sorted(set(images)):
            return f"op {op.id}: reductions not in strict lexicographic order"
        if op.cls == "hit" and not images:
            return f"op {op.id}: a+a has no reduction onto a"
        if not all(self.kripkit.morphisms.is_reduction(f) for f in raw):
            return f"op {op.id}: a returned map is not a reduction"
        return None


def modelcheck_result(found) -> str:
    """Canonical text of a `countermodel` result."""
    if found is None:
        return "valid"
    masks = ",".join(f"{name}={mask}" for name, mask in found.valuation.masks)
    return f"{masks}@{found.point}"


def reductions_result(maps) -> str:
    return ";".join("".join(map(str, f.image)) for f in maps)


def seeded_reference(workload: str, seed: int) -> tuple[dict[int, str], dict[int, str]]:
    """Recorded per-op results for `seed`, keyed by op id: full result texts
    for the seeds recorded in full, else short digests.  Both are empty for a
    seed that was not recorded."""
    data = load_reference(workload)
    full = data["seeds"].get(str(seed))
    if full is not None:
        return dict(enumerate(full)), {}
    return {}, dict(enumerate(data["digests"].get(str(seed), "").split()))


def setup(name: str, seed: int, config: int, kripkit) -> Workload:
    """Build a child's inputs: everything done before the first timed op."""
    if name == "battery":
        reference = load_reference("battery")
        ops = [Op(i, eid, eid) for i, eid in enumerate(reference["fingerprints"])]
    elif name == "enumerate":
        reference = load_reference("enumerate")
        chosen = ENUMERATE_CONFIGS[config]
        ops = [Op(config, config_name(chosen), chosen)]
    elif name == "modelcheck":
        base = [kripkit.frames.frame_to_json_dict(f) for f in small_frames(kripkit)]
        pairs = modelcheck_pairs(seed, base)
        # Pair i uses frame i mod n: build each relabelled frame once.
        frames = [kripkit.frames.frame_from_json_dict(data) for data, _ in pairs[: len(base)]]
        ops = [
            Op(i, "", (frames[i % len(base)], text, data["kind"] == "ms4"))
            for i, (data, text) in enumerate(pairs)
        ]
        reference, digests = seeded_reference("modelcheck", seed)
    elif name == "reductions":
        by_kind: dict[str, list[dict]] = {"int": [], "ms4": []}
        for frame in small_frames(kripkit):
            data = kripkit.frames.frame_to_json_dict(frame)
            by_kind[data["kind"]].append(data)
        pairs = reduction_pairs(seed, by_kind)
        ops = [Op(i, cls, (s, t)) for i, (cls, s, t) in enumerate(pairs)]
        reference, digests = seeded_reference("reductions", seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if name in ("battery", "enumerate"):
        return Workload(name, ops, reference, kripkit)
    return Workload(name, ops, reference, kripkit, digests)
