"""Outside-in span tracing of kripkit's public functions.

`Tracer.install` replaces each traced function with a timing wrapper at
every place its name is bound: the defining module, every other kripkit
module that imported the name directly (`from .frames import qe`), and the
`kripkit` package namespace.  Patching only the defining module would miss
the calls those modules make through their own bindings.

A span is recorded per call: (name, start, end, parent span, operation id).
Recursive and re-entrant calls fold into the outermost span of the same
function, so a recursive `desugar` costs one span per top-level call.
Spans stay in memory until the run ends.  Work counts that need a call's
arguments or result are computed after the timed region, from references the
wrapper keeps, so the counting never lands inside a span.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "syntax",
    "frames",
    "semantics",
    "enumeration",
    "functors",
    "morphisms",
    "workbench",
    "cli",
)

# Public functions traced per layer.  Tiny helpers called per valuation or per
# candidate map (bits, mask_of, is_reduction, the morphism checks) stay
# untraced: a span there would cost more than the work it times.
TRACED = {
    "syntax": ("parse", "godel_translate", "desugar", "print_formula", "corpus"),
    "frames": (
        "frame_from_json_dict",
        "frame_to_json_dict",
        "validate_int_frame",
        "validate_ms4_frame",
        "has_clean_clusters",
        "is_finite_mgrz",
        "grz_max_check",
        "er",
        "qe",
    ),
    "semantics": ("countermodel", "frame_validates", "truth_set"),
    "enumeration": (
        "enumerate_frames",
        "canonical_form",
        "commuting",
        "quasi_orders",
        "partial_orders",
        "equivalences",
    ),
    "functors": ("skeleton", "sigma", "find_isomorphism"),
    "morphisms": ("enumerate_reductions", "lift_reduction"),
    "workbench": ("run_experiment",),
    "cli": ("main",),
}

# Calls whose arguments and result are kept for the work counts.
_KEEP_CALL = frozenset(
    ("semantics.countermodel", "enumeration.enumerate_frames",
     "morphisms.enumerate_reductions", "workbench.run_experiment")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    op: int  # operation id set by the workload, -1 outside operations
    call: tuple | None = None  # (args, kwargs, result) for _KEEP_CALL names


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _active: dict[str, int] = field(default_factory=dict)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        keep = name in _KEEP_CALL
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            active[name] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                active[name] = 0
            if keep:
                span.call = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in loaded kripkit
        modules.  Raises if a listed function no longer exists."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "kripkit" or key.startswith("kripkit."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"kripkit.{layer}"]
            for func in names:
                original = getattr(home, func)
                wrapper = self.wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]))
                out.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span are sequential in a single thread, so the covered
    time is the sum of their durations."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def search_space(data: dict) -> list[int]:
    """Value masks one letter ranges over, in `countermodel`'s documented
    order (characteristic vectors ascending, point 0 most significant):
    r-upsets on an int frame, all subsets on an ms4 frame.  Takes the
    frame's JSON form, the program's stable external format."""
    n = len(data["points"])
    masks = range(1 << n)
    if data["kind"] == "int":
        masks = [
            m for m in masks
            if all(m >> j & 1 for i, j in data["R"] if m >> i & 1)
        ]
    return sorted(masks, key=lambda m: tuple(m >> i & 1 for i in range(n)))


def valuation_count(space: list[int], letters: tuple[str, ...], found) -> int:
    """Valuations `countermodel` evaluated: the whole space when the formula
    is valid, else the position of the returned valuation in the search
    order (letters sorted, the last letter varying fastest) plus one."""
    if found is None:
        return len(space) ** len(letters)
    masks = dict(found.valuation.masks)
    position = 0
    for name in letters:
        position = position * len(space) + space.index(masks[name])
    return position + 1


def layer_stats(spans, to_json) -> dict[str, float]:
    """Additive per-layer statistics of one traced child.  Ratios are formed
    by the caller after summing children.  `to_json` is the program's
    `frame_to_json_dict`."""
    own = self_times(spans)
    out: dict[str, float] = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    configs = set()
    spaces: dict = {}
    for span, self_s in zip(spans, own):
        name = span.name
        layer = name.split(".", 1)[0]
        out[f"layer.{layer}.self_s"] += self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        if span.call is None:
            continue
        args, kwargs, result = span.call
        if name == "semantics.countermodel":
            kind = "valid" if result is None else "refuted"
            key = f"{name}.{kind}_self_s"
            out[key] = out.get(key, 0.0) + self_s
            frame, phi = args[0], args[1]
            if frame not in spaces:
                spaces[frame] = search_space(to_json(frame))
            out["semantics.valuations"] = out.get("semantics.valuations", 0) + (
                valuation_count(spaces[frame], phi.letters(), result)
            )
        elif name == "enumeration.enumerate_frames":
            # Filters are applied after generation, so reusable work is keyed
            # by (kind, bound): the battery asks for 4 such pairs in 9 calls.
            configs.add((args[0].kind, args[0].max_points))
            out["enumeration.classes"] = out.get("enumeration.classes", 0) + len(result)
        elif name == "morphisms.enumerate_reductions":
            out["morphisms.reductions_found"] = (
                out.get("morphisms.reductions_found", 0) + len(result)
            )
        elif name == "workbench.run_experiment":
            key = f"workbench.{args[0]}.total_s"
            out[key] = out.get(key, 0.0) + span.end - span.start
    out["enumeration.enumerate_frames.distinct"] = len(configs)
    return out
