"""Finite birelational frames.

One frame type, `Frame`: a finite point set carried as a name list, an
order `r` and a second relation `s`.  Its two subclasses fix the kind and
the paper's name for `s`:

- `IntFrame` (X, R, Q), kind "int", `s` read as `q`: R a partial order, Q a
  quasi-order containing R, with every Q-step decomposable into an R-step
  followed by a step inside a Q-cluster.
- `MS4Frame` (Y, R, E), kind "ms4", `s` read as `e`: R a quasi-order, E an
  equivalence, commuting in the sense that an E-step followed by an R-step
  can be replaced by an R-step followed by an E-step.

`validate_frame` checks a frame's conditions, reporting each failure with a
witness.  Relations are stored as bitmask rows: bit j of `rows[i]` is set iff
i is related to j, and the checks read those rows directly.  What is
derived from a relation (its converse, successor lists, loop mask and
both-ways part) is computed on first read and kept in the relation's
`__dict__` (`_kept`); the cluster equivalences `er` and `IntFrame.e_q` are
both-ways parts.  Relations built here from rows that are valid by
construction skip the constructor's checks (`_trusted`).  `bits` returns a
cached tuple.  A mask with a bit at or above the point count, or
a negative one, raises `ValueError` instead of being read past the rows.
Everything here is exhaustive search over points, so sizes are capped at
MAX_POINTS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Iterable

MAX_POINTS = 12


class BoundExceeded(ValueError):
    """A size cap was hit; raise instead of attempting a huge search."""


@lru_cache(maxsize=1 << MAX_POINTS)
def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, ascending.  Every row mask of a
    capped frame fits in the cache."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _check_mask(mask: int, n: int) -> None:
    """Raise unless `mask` is a set of points of an n-point frame."""
    if mask >> n:
        raise ValueError(f"mask {mask} out of range for n={n}")


def _check_size(n: int) -> None:
    if not 0 <= n <= MAX_POINTS:
        raise BoundExceeded(f"relation size {n} exceeds cap {MAX_POINTS}")


class _kept:
    """`functools.cached_property` without its lock: the first read stores
    the value in the instance `__dict__`, where later reads find it."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Relation:
    """Binary relation on {0, ..., n-1} as a tuple of row bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.n)
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        union = 0
        for row in self.rows:
            union |= row
        if union >> self.n:
            raise ValueError("row has bits outside the point range")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        _check_size(n)
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
            rows[i] |= 1 << j
        return _trusted(n, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "Relation":
        _check_size(n)
        return _trusted(n, tuple(1 << i for i in range(n)))

    @classmethod
    def total(cls, n: int) -> "Relation":
        _check_size(n)
        return _trusted(n, ((1 << n) - 1,) * n)

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self.rows[i])]

    def image(self, mask: int) -> int:
        """All points reachable in one step from `mask`."""
        _check_mask(mask, self.n)
        return _image(self.rows, mask)

    def preimage(self, mask: int) -> int:
        """All points that reach `mask` in one step."""
        _check_mask(mask, self.n)
        out = 0
        for i in range(self.n):
            if self.rows[i] & mask:
                out |= 1 << i
        return out

    def converse(self) -> "Relation":
        return self._converse

    @_kept
    def _converse(self) -> "Relation":
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in bits(row):
                rows[j] |= 1 << i
        return _trusted(self.n, tuple(rows))

    @_kept
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per point, its successor indices, ascending."""
        return tuple(map(bits, self.rows))

    @_kept
    def loops(self) -> int:
        """Mask of the points related to themselves."""
        out = 0
        for i, row in enumerate(self.rows):
            out |= row & 1 << i
        return out

    @_kept
    def both_ways(self) -> "Relation":
        """The pairs related both ways: the relation meet its converse."""
        return self.meet(self._converse)

    def compose(self, other: "Relation") -> "Relation":
        """x (self;other) z iff x self y and y other z for some y."""
        if other.n != self.n:
            raise ValueError("relations of different sizes")
        return _trusted(self.n, tuple(_image(other.rows, row) for row in self.rows))

    def meet(self, other: "Relation") -> "Relation":
        if other.n != self.n:
            raise ValueError("relations of different sizes")
        return _trusted(self.n, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def is_reflexive(self) -> bool:
        return _reflexive_witness(self) is None

    def is_symmetric(self) -> bool:
        return _symmetric_witness(self) is None

    def is_antisymmetric(self) -> bool:
        return _antisymmetric_witness(self) is None

    def is_transitive(self) -> bool:
        return _transitive_witness(self) is None

    def is_quasi_order(self) -> bool:
        return self.is_reflexive() and self.is_transitive()


def _image(rows: tuple[int, ...], mask: int) -> int:
    """`Relation.image` on its rows, less the mask check."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def _trusted(n: int, rows: tuple[int, ...]) -> Relation:
    """A relation the constructor would accept, built without its checks.
    Only for rows made here: n within the cap, n rows, no bit at or above n.
    The fields are set as the constructor sets them: a relation whose
    `__dict__` was written to holds about 150 bytes more."""
    rel = object.__new__(Relation)
    object.__setattr__(rel, "n", n)
    object.__setattr__(rel, "rows", rows)
    return rel


def er(rel: Relation) -> Relation:
    """Cluster equivalence of a quasi-order: both-ways reachability."""
    if not rel.is_quasi_order():
        raise ValueError("cluster equivalence needs a quasi-order")
    return rel.both_ways


def qe(r: Relation, e: Relation) -> Relation:
    """Composite step: first r, then e.  Used to recover the coarse
    quasi-order of an intuitionistic frame from a modal one."""
    return r.compose(e)


@dataclass(frozen=True)
class Violation:
    """One failed frame condition with a concrete witness tuple."""

    condition: str
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def require_ok(self) -> None:
        if self.violations:
            raise InvalidFrameError(self)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"condition": v.condition, "witness": list(v.witness), "detail": v.detail}
                for v in self.violations
            ],
        }


class InvalidFrameError(ValueError):
    def __init__(self, report: ValidationReport):
        lines = ", ".join(
            f"{v.condition}{v.witness}" for v in report.violations
        )
        super().__init__(f"invalid frame: {lines}")
        self.report = report


@dataclass(frozen=True)
class Frame:
    """Finite point set with an order `r` and a second relation `s`.

    The subclasses fix the kind: `kind` names it ("int" or "ms4") and
    `second` is the paper's name for `s` ("q" or "e").  Frames of different
    kinds never compare equal.
    """

    kind: ClassVar[str]
    second: ClassVar[str]

    points: tuple[str, ...]
    r: Relation
    s: Relation

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a frame needs at least one point")
        if len(self.points) > MAX_POINTS:
            raise BoundExceeded(f"{len(self.points)} points exceeds cap {MAX_POINTS}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point names must be distinct")
        if self.r.n != len(self.points) or self.s.n != len(self.points):
            raise ValueError("relation size must match the point count")

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, name: str) -> int:
        return self.points.index(name)


class IntFrame(Frame):
    """Intuitionistic frame: partial order `r` inside quasi-order `q`."""

    kind = "int"
    second = "q"

    @property
    def q(self) -> Relation:
        return self.s

    def e_q(self) -> Relation:
        """Equivalence of mutual Q-reachability (Q-cluster relation)."""
        return self.q.both_ways


class MS4Frame(Frame):
    """Modal frame: quasi-order `r` plus commuting equivalence `e`."""

    kind = "ms4"
    second = "e"

    @property
    def e(self) -> Relation:
        return self.s


FRAME_TYPES = {frame_type.kind: frame_type for frame_type in (IntFrame, MS4Frame)}


def _reflexive_witness(rel: Relation) -> tuple[int, ...] | None:
    missing = ~rel.loops & (1 << rel.n) - 1
    return (bits(missing)[0],) if missing else None


def _transitive_witness(rel: Relation) -> tuple[int, ...] | None:
    rows = rel.rows
    for i, row in enumerate(rows):
        for j in bits(row):
            missing = rows[j] & ~row
            if missing:
                return (i, j, bits(missing)[0])
    return None


def _antisymmetric_witness(rel: Relation) -> tuple[int, ...] | None:
    # First i < j (lexicographically) with i r j and j r i.
    rows = rel.rows
    for i, row in enumerate(rows):
        for j in bits(row >> i + 1 << i + 1):
            if rows[j] >> i & 1:
                return (i, j)
    return None


def _symmetric_witness(rel: Relation) -> tuple[int, ...] | None:
    rows = rel.rows
    for i, row in enumerate(rows):
        for j in bits(row):
            if not rows[j] >> i & 1:
                return (i, j)
    return None


def _subset_witness(sub: Relation, sup: Relation) -> tuple[int, ...] | None:
    for i in range(sub.n):
        extra = sub.rows[i] & ~sup.rows[i]
        if extra:
            return (i, bits(extra)[0])
    return None


def _decomposition_witness(frame: IntFrame) -> tuple[int, ...] | None:
    # Every q-successor must be reachable as an r-step into its q-cluster.
    eq_rows = frame.e_q().rows
    for x, (r_row, q_row) in enumerate(zip(frame.r.rows, frame.q.rows)):
        missing = q_row & ~_image(eq_rows, r_row)
        if missing:
            return (x, bits(missing)[0])
    return None


def _commute_witness(r: Relation, e: Relation) -> tuple[int, ...] | None:
    """First (x, y, z) in index order with x e y and y r z but no r-step
    then e-step from x to z, or None when e-then-r lies inside r-then-e."""
    r_rows, e_rows = r.rows, e.rows
    for x, row in enumerate(r_rows):
        around = _image(e_rows, row)
        for y in bits(e_rows[x]):
            missing = r_rows[y] & ~around
            if missing:
                return (x, y, bits(missing)[0])
    return None


def commuting(r: Relation, e: Relation) -> bool:
    """An e-step then an r-step can always be matched by an r-step then an
    e-step."""
    return _commute_witness(r, e) is None


def _report(*stages: list[tuple[str, tuple[int, ...] | None, str]]) -> ValidationReport:
    """Violations of the first stage with any: one per (condition, witness,
    detail) check that found a witness.  A later stage assumes the
    conditions of the earlier ones."""
    for stage in stages:
        out = [Violation(c, witness, d) for c, witness, d in stage if witness is not None]
        if out:
            return ValidationReport(tuple(out))
    return _VALID


_VALID = ValidationReport(())


def validate_int_frame(frame: IntFrame) -> ValidationReport:
    """Check the intuitionistic frame conditions, reporting each failure with
    a witness: r partial order, q quasi-order, r within q, and every q-step
    an r-step followed by a hop inside a q-cluster."""
    r, q = frame.r, frame.q
    return _report(
        [
            ("r-reflexive", _reflexive_witness(r), "point not r-related to itself"),
            ("r-transitive", _transitive_witness(r), "r misses a composite step"),
            ("r-antisymmetric", _antisymmetric_witness(r), "r has a two-point cycle"),
            ("q-reflexive", _reflexive_witness(q), "point not q-related to itself"),
            ("q-transitive", _transitive_witness(q), "q misses a composite step"),
            ("r-subset-q", _subset_witness(r, q), "r-step missing from q"),
        ],
        [
            (
                "q-witness",
                _decomposition_witness(frame),
                "q-step with no r-then-cluster decomposition",
            )
        ],
    )


def validate_ms4_frame(frame: MS4Frame) -> ValidationReport:
    """Check the modal frame conditions with witnesses: r quasi-order, e an
    equivalence, and e-then-r coverable by r-then-e."""
    r, e = frame.r, frame.e
    return _report(
        [
            ("r-reflexive", _reflexive_witness(r), "point not r-related to itself"),
            ("r-transitive", _transitive_witness(r), "r misses a composite step"),
            ("e-reflexive", _reflexive_witness(e), "point not e-related to itself"),
            ("e-symmetric", _symmetric_witness(e), "e-step with no reverse"),
            ("e-transitive", _transitive_witness(e), "e misses a composite step"),
        ],
        [("commute", _commute_witness(r, e), "e-then-r step that r-then-e cannot match")],
    )


def validate_frame(frame: Frame) -> ValidationReport:
    """The frame conditions of the frame's kind, with witnesses."""
    if frame.kind == "int":
        return validate_int_frame(frame)
    return validate_ms4_frame(frame)


def has_clean_clusters(frame: IntFrame) -> bool:
    """True when a strict r-step never stays inside a q-cluster."""
    if not isinstance(frame, IntFrame):
        raise ValueError("expected an intuitionistic frame")
    eq = frame.e_q()
    return all(
        frame.r.rows[x] & eq.rows[x] == 1 << x for x in range(frame.n)
    )


def grz_max_check(rel: Relation) -> bool:
    """Every nonempty subset lies below its own maximal points.

    For a finite quasi-order this holds exactly when `rel` is antisymmetric,
    i.e. when there are no proper clusters.

    Decided as a greatest fixpoint: the check fails iff some nonempty
    subset has no maximal point (S ∩ ↑x has none for x below none of S's),
    such subsets are closed under union, and the largest one is what is
    left after dropping maximal points until a round drops none.
    """
    if not rel.is_quasi_order():
        raise ValueError("check needs a quasi-order")
    rows = rel.rows
    left = (1 << rel.n) - 1
    while left:
        top = 0
        for x in bits(left):
            if rows[x] & left == 1 << x:
                top |= 1 << x
        if not top:
            return False
        left ^= top
    return True


def is_finite_mgrz(frame: MS4Frame) -> bool:
    """True when the frame's r has no proper clusters (r antisymmetric)."""
    return frame.r.is_antisymmetric()


# --- JSON form ---------------------------------------------------------------
#
# {"kind": "int"|"ms4", "points": [names], "R": [[i,j],...], "Q"/"E": [...]}
# with index pairs.  Key names are part of the external interface.


def _json_pairs(rel: Relation) -> list[list[int]]:
    return [[i, j] for i, row in enumerate(rel.rows) for j in bits(row)]


def frame_to_json_dict(frame: Frame) -> dict:
    return {
        "kind": frame.kind,
        "points": list(frame.points),
        "R": _json_pairs(frame.r),
        frame.second.upper(): _json_pairs(frame.s),
    }


# The one-line JSON form's encoder, which `json.dumps` would build anew on
# every call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def frames_to_json_lines(frames: list[Frame]) -> str:
    """Each frame's `frame_to_json_dict` form as one compact JSON line.

    Enumerated frames share their point tuples and relations, so each
    distinct one is encoded once per call and its text spliced into every
    line that holds it.  The texts are keyed by `id`: the list keeps every
    keyed object alive until the call returns."""
    encode = _COMPACT.encode
    texts: dict[int, str] = {}
    lines = []
    for frame in frames:
        points, r, s = frame.points, frame.r, frame.s
        if id(points) not in texts:
            texts[id(points)] = encode(points)
        for rel in (r, s):
            if id(rel) not in texts:
                texts[id(rel)] = encode(_json_pairs(rel))
        lines.append(
            f'{{"kind":"{frame.kind}","points":{texts[id(points)]},'
            f'"R":{texts[id(r)]},"{frame.second.upper()}":{texts[id(s)]}}}\n'
        )
    return "".join(lines)


def _relation_from_json(n: int, pairs, label: str) -> Relation:
    if not isinstance(pairs, list):
        raise ValueError(f"{label} must be a list of index pairs")
    # Every entry's shape is checked before the first out-of-range pair is
    # reported.  `n` is within the cap: the caller checked it.
    rows = [0] * n
    out_of_range = None
    for entry in pairs:
        if not (
            entry.__class__ in (list, tuple)
            and len(entry) == 2
            and entry[0].__class__ is int
            and entry[1].__class__ is int
        ):
            raise ValueError(f"{label} entries must be [i, j] index pairs")
        i, j = entry
        if 0 <= i < n and 0 <= j < n:
            rows[i] |= 1 << j
        elif out_of_range is None:
            out_of_range = f"pair ({i}, {j}) out of range for n={n}"
    if out_of_range is not None:
        raise ValueError(out_of_range)
    return _trusted(n, tuple(rows))


def frame_from_json_dict(data: dict, validate: bool = True) -> Frame:
    """Rebuild a frame from its JSON form.

    With `validate` (the default) the frame conditions are checked and an
    InvalidFrameError carrying the first witnesses is raised on failure.
    """
    if not isinstance(data, dict):
        raise ValueError("frame JSON must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in FRAME_TYPES:
        raise ValueError("frame JSON needs \"kind\": \"int\" or \"ms4\"")
    points = data.get("points")
    if (
        not isinstance(points, list)
        or not points
        or not all(isinstance(p, str) for p in points)
    ):
        raise ValueError("frame JSON needs a nonempty list of point names")
    n = len(points)
    # Checked before the relations, whose own check would name them instead.
    if n > MAX_POINTS:
        raise BoundExceeded(f"{n} points exceeds cap {MAX_POINTS}")
    frame_type = FRAME_TYPES[kind]
    second_key = frame_type.second.upper()
    if "R" not in data or second_key not in data:
        raise ValueError(f"frame JSON needs \"R\" and \"{second_key}\"")
    r = _relation_from_json(n, data["R"], "R")
    second = _relation_from_json(n, data[second_key], second_key)
    frame = frame_type(tuple(points), r, second)
    if validate:
        validate_frame(frame).require_ok()
    return frame
