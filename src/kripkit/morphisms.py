"""Structure-preserving maps between frames.

A map is a total function on point indices.  The back-and-forth condition
for a single relation is the usual one: the image of a point's successor set
equals the successor set of the image.  Intuitionistic frame morphisms need
that for both relations plus a converse condition tying the coarse relation
of the target back through r-predecessors; modal frame morphisms need it for
r and for the equivalence.  A reduction is an onto morphism.

Morphisms and reductions between two frames are found by backtracking in
the style of VF2 (Cordella et al., IEEE TPAMI 2004): source points are
assigned in index order, target values are tried in ascending order, so maps
come out in lexicographic order of the image tuple.  A branch is cut as soon
as an assigned pair breaks the forth condition of either relation, a point
whose successors are all assigned breaks the back condition, or (for
reductions) too few source points remain to hit every target point.

Every morphism passes those tests.  A complete map that passed them
satisfies back-and-forth for both relations and, for a reduction, is onto,
so it is already a modal morphism; an intuitionistic map is checked only for
the converse q-predecessor condition.  The search's schedule over its
source (forth pairs, back rows and q-predecessors) is built once per
source, not per call, and kept in a small bounded cache keyed by the frame;
everything else it reads (rows, converse rows, loop masks) is kept on each
`Relation`.

The search returns image tuples.  `enumerate_morphisms` and
`enumerate_reductions` wrap them in `FrameMap`s through the slot setters,
without running the constructor's checks again: the search refuses frames
of different kinds before it starts, and it builds each image from one
target index per source point, so every check the constructor makes holds
by construction; `_lift` wraps such an image after a projection.  Every
other `FrameMap` goes through the checked constructor.

The morphism predicates read relation rows and the converse rows and
successor lists each relation keeps once computed; `apply_mask` raises
`ValueError` on a mask with a bit at or above the source's point count.

`lift_reduction` checks that a map is a reduction of a modal frame's
quotient onto a clean frame; `_lift`, which the `lifting` experiment calls
on each image the search found, composes it with the projection `skeleton`
returns and checks the result.

`_reduction_shape` gives numbers of a frame that no reduction can raise
(points, and per relation: unrooted, components, top clusters, depth), and
`_may_reduce` compares two shapes.  The `lifting` experiment skips each
(quotient, target) pair whose shapes rule a reduction out: it meets each
quotient with many targets, so one shape per frame pays for itself.
`enumerate_reductions` does not compare shapes, since it sees two fresh
frames per call and the shapes would cost more than the searches they skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .frames import (
    BoundExceeded,
    Frame,
    IntFrame,
    MS4Frame,
    Relation,
    _check_mask,
    bits,
    has_clean_clusters,
)

if TYPE_CHECKING:
    from .functors import QuotientMap

REDUCTION_SOURCE_CAP = 6


def _image_of(mask: int, image: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << image[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True, slots=True, init=False)
class FrameMap:
    """Total map between the point sets of two frames of the same kind.

    The constructor checks the endpoints' kinds, then that the image has one
    entry per source point, then each entry: an exact `int` (so not a
    `bool`) naming a target point.  It stores the image as a tuple, so a
    list image gives an equal, hashable map.
    """

    source: Frame
    target: Frame
    image: tuple[int, ...]

    def __init__(self, source: Frame, target: Frame, image: Sequence[int]):
        if source.kind != target.kind:
            raise ValueError("map endpoints must be frames of the same kind")
        image = tuple(image)
        if len(image) != source.n:
            raise ValueError("map must cover every source point")
        m = target.n
        for value in image:
            if value.__class__ is not int:
                raise ValueError(f"image entries must be int point indices, not {value!r}")
            if not 0 <= value < m:
                raise ValueError(f"image index {value} out of range")
        _set_source(self, source)
        _set_target(self, target)
        _set_image(self, image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def apply_mask(self, mask: int) -> int:
        _check_mask(mask, self.source.n)
        return _image_of(mask, self.image)

    def is_onto(self) -> bool:
        return set(self.image) == set(range(self.target.n))

    def describe(self) -> str:
        pairs = ", ".join(
            f"{s} -> {self.target.points[self.image[i]]}"
            for i, s in enumerate(self.source.points)
        )
        return "{" + pairs + "}"


# FrameMap's slot setters, in field order; they bypass the frozen __setattr__.
_set_source, _set_target, _set_image = (
    getattr(FrameMap, slot).__set__ for slot in FrameMap.__slots__
)


def _wrap(source: Frame, target: Frame, images: list[tuple[int, ...]]) -> list[FrameMap]:
    """FrameMaps for image tuples that `_search` or `_lift` built, stored
    through the slot setters: the constructor's checks hold (see above)."""
    new = object.__new__
    out = []
    for image in images:
        f = new(FrameMap)
        _set_source(f, source)
        _set_target(f, target)
        _set_image(f, image)
        out.append(f)
    return out


def _rows_match(source_rows, target_rows, image: Sequence[int]) -> bool:
    """Back-and-forth for one relation given by its rows: the target row of
    image[x] is the image of the source row of x, for every x."""
    for x, row in enumerate(source_rows):
        if target_rows[image[x]] != _image_of(row, image):
            return False
    return True


def is_p_morphism(f: FrameMap, which: str = "r") -> bool:
    """Back-and-forth condition for the named relation ("r", "q", "e", or
    "s"): the target successors of f(x) are the image of the source
    successors of x."""
    return _rows_match(getattr(f.source, which).rows, getattr(f.target, which).rows, f.image)


def _converse_holds(image: Sequence[int], q1_preds, r2_preds, q2_preds) -> bool:
    # q-predecessors of f(x) are exactly r-predecessors of the image of the
    # q-predecessors of x.  `q1_preds` lists each source point's
    # q-predecessors; `r2_preds` and `q2_preds` are target converse rows.
    for x, preds in enumerate(q1_preds):
        reached = 0
        for y in preds:
            reached |= r2_preds[image[y]]
        if reached != q2_preds[image[x]]:
            return False
    return True


def _condition4(f: FrameMap) -> bool:
    return _converse_holds(
        f.image,
        f.source.q.converse().successors,
        f.target.r.converse().rows,
        f.target.q.converse().rows,
    )


def condition4_eform(f: FrameMap) -> bool:
    """Converse condition restated with cluster equivalences: the
    r-predecessors of the q-cluster of f(x) equal the r-predecessors of the
    image of the q-cluster of x.

    Both sides are closed downward under the target order; without that
    closure on the left the identity map would fail whenever a q-cluster is
    not a down-set.  For maps satisfying the back-and-forth condition for r
    this is equivalent to the q-predecessor form used by
    `is_mipc_morphism`; for arbitrary maps the two can differ.
    """
    if not isinstance(f.source, IntFrame):
        raise ValueError("cluster form applies to intuitionistic frames")
    eq1, eq2, r2 = f.source.e_q(), f.target.e_q(), f.target.r
    return all(
        r2.preimage(eq2.rows[f.image[x]]) == r2.preimage(f.apply_mask(eq1.rows[x]))
        for x in range(f.source.n)
    )


def is_mipc_morphism(f: FrameMap) -> bool:
    """Morphism of intuitionistic frames: back-and-forth for r and for q,
    plus the converse q-predecessor condition."""
    if not isinstance(f.source, IntFrame):
        raise ValueError("expected intuitionistic frames")
    return is_p_morphism(f, "r") and is_p_morphism(f, "q") and _condition4(f)


def is_ms4_morphism(f: FrameMap) -> bool:
    """Morphism of modal frames: back-and-forth for r and for e."""
    if not isinstance(f.source, MS4Frame):
        raise ValueError("expected modal frames")
    return is_p_morphism(f, "r") and is_p_morphism(f, "e")


def _is_morphism(f: FrameMap) -> bool:
    """Morphism of the kind of the map's frames."""
    if f.source.kind == "int":
        return is_mipc_morphism(f)
    return is_ms4_morphism(f)


def is_reduction(f: FrameMap) -> bool:
    """Onto morphism of the appropriate kind."""
    return f.is_onto() and _is_morphism(f)


@lru_cache(maxsize=64)
def _source_tables(source: Frame):
    """What the search needs of its source alone, per point x: the forth
    pairs (t, y), one per earlier predecessor y of x (t = 0 for r, 2 for s)
    and per earlier successor (t = 1, 3), naming the target table that
    bounds x's value; the points whose rows are fully assigned once x is,
    each with its successor list; for intuitionistic frames also the
    q-predecessors of every point."""
    n = source.n
    forth = [[] for _ in range(n)]
    back = [[] for _ in range(n)]
    for k, rel in enumerate((source.r, source.s)):
        for y, (row, succ) in enumerate(zip(rel.rows, rel.successors)):
            for x in succ:
                if y < x:
                    forth[x].append((2 * k, y))
                elif x < y:
                    forth[y].append((2 * k + 1, x))
            back[max(y, row.bit_length() - 1)].append((2 * k, y, succ))
    q_preds = source.q.converse().successors if source.kind == "int" else None
    return tuple(map(tuple, forth)), tuple(map(tuple, back)), q_preds


def _search(source, target, onto: bool) -> list[tuple[int, ...]]:
    """Image tuples of the morphisms from `source` to `target` (onto ones
    only when `onto`), in lexicographic order.  A source over
    `REDUCTION_SOURCE_CAP` points is refused: the map count grows factorially."""
    if source.n > REDUCTION_SOURCE_CAP:
        raise BoundExceeded(f"source has {source.n} points, cap is {REDUCTION_SOURCE_CAP}")
    if source.kind != target.kind:
        raise ValueError("frames must be of the same kind")
    n, m = source.n, target.n
    if onto and m > n:
        return []
    forth, back, q_preds = _source_tables(source)
    r, s = target.r, target.s
    tables = (r.rows, r.converse().rows, s.rows, s.converse().rows)
    everything = (1 << m) - 1
    # Target values each point's own loops allow.
    start = [
        (r.loops if source.r.loops >> x & 1 else everything)
        & (s.loops if source.s.loops >> x & 1 else everything)
        for x in range(n)
    ]
    image = [0] * n
    # bit[x] == 1 << image[x] for every assigned x.
    bit = [0] * n
    out = []

    def extend(x: int, hit: int) -> None:
        if x == n:
            # Forth, back and onto-ness are enforced by the search; the
            # converse q-predecessor condition (`_condition4`) is not.
            if q_preds is None or _converse_holds(image, q_preds, tables[1], tables[3]):
                out.append(tuple(image))
            return
        # Forth: x's value must be a successor of the image of every
        # earlier predecessor, and a predecessor of the image of every
        # earlier successor.
        allowed = start[x]
        for t, y in forth[x]:
            allowed &= tables[t][image[y]]
        left = n - 1 - x
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            seen = hit | low
            if onto and m - seen.bit_count() > left:
                continue
            image[x] = low.bit_length() - 1
            bit[x] = low
            # Back: a fully assigned row must map onto the target row.
            for t, y, row in back[x]:
                reached = 0
                for z in row:
                    reached |= bit[z]
                if tables[t][image[y]] != reached:
                    break
            else:
                extend(x + 1, seen)

    extend(0, 0)
    return out


def _relation_shape(rel: Relation) -> tuple[int, int, int, int]:
    """Four numbers of a quasi-order that no reduction can raise: whether
    it is unrooted (no point reaches every point), its connected components
    (of R and its converse together), its top clusters (of the points x
    whose successors all reach x back) and its depth (the most strict steps
    in one chain)."""
    rows, conv = rel.rows, rel.converse().rows
    full = (1 << rel.n) - 1
    components = 0
    left = full
    while left:
        components += 1
        reach = left & -left
        grown = 0
        while grown != reach:
            grown = reach
            for x in bits(grown):
                reach |= rows[x] | conv[x]
        left &= ~reach
    strict = [row ^ both for row, both in zip(rows, rel.both_ways.rows)]
    # A strict successor of x has fewer successors than x, so the points
    # are visited after every strict successor of theirs.
    height = [0] * rel.n
    for x in sorted(range(rel.n), key=lambda x: rows[x].bit_count()):
        for y in bits(strict[x]):
            height[x] = max(height[x], height[y] + 1)
    tops = len({rows[x] for x in range(rel.n) if not strict[x]})
    return int(full not in rows), components, tops, max(height)


def _reduction_shape(frame: Frame) -> tuple[int, ...]:
    """The point count, then the `_relation_shape` of r and of s: numbers
    that a reduction from a frame onto another can only keep or lower, so
    `_may_reduce` compares them before a search.

    Both relations must be quasi-orders, as they are in every valid frame.
    For a reduction f (onto, with f[R(x)] = R'(f(x)) for R = r and s):
    - points: f is onto.
    - unrooted: if R(x) is every point, R'(f(x)) = f[R(x)] is every point.
    - components: f maps each R-step to an R'-step and is onto, so it maps
      components onto components.
    - top clusters: forth maps a cluster into one cluster, and each top
      cluster of the target holds some f(x), so forth maps the top cluster
      that x reaches into it.
    - depth: back lifts each strict chain above f(x) to one above x, and a
      step that forth maps to a strict step is strict.
    """
    return (frame.n, *_relation_shape(frame.r), *_relation_shape(frame.s))


def _may_reduce(source_shape: tuple[int, ...], target_shape: tuple[int, ...]) -> bool:
    """False when no reduction can map a frame of the source shape onto one
    of the target shape: some number of the target's exceeds the source's."""
    return all(t <= s for s, t in zip(source_shape, target_shape))


def enumerate_morphisms(source, target) -> list[FrameMap]:
    """All morphisms from `source` to `target`, in lexicographic order of the
    image tuple.  Found by the pruned search described above; the source
    is capped at `REDUCTION_SOURCE_CAP` points."""
    return _wrap(source, target, _search(source, target, onto=False))


def enumerate_reductions(source, target) -> list[FrameMap]:
    """All reductions from `source` onto `target`, in lexicographic order of
    the image tuple.  Found by the pruned search described above, with the
    onto bound on; the source stays capped at `REDUCTION_SOURCE_CAP` points."""
    return _wrap(source, target, _search(source, target, onto=True))


def lift_reduction(projection: QuotientMap, f: FrameMap) -> FrameMap:
    """Lift a reduction of the quotient to the modal level.

    Given the projection of a modal frame H onto its quotient (as returned
    by `skeleton(H)`) and a reduction f from that quotient onto an
    intuitionistic frame F whose clusters are clean (`ValueError`
    otherwise), return g = f after the projection as a map from H onto the
    modal expansion of F, checked by `_lift`.
    """
    # functors imports this module, so sigma is imported at call time.
    from .functors import sigma

    if not has_clean_clusters(f.target):
        raise ValueError("target must have clean clusters")
    if f.source != projection.target:
        raise ValueError("map source is not the quotient of the modal frame")
    if not (f.is_onto() and is_mipc_morphism(f)):
        raise ValueError("map is not a reduction")
    return _lift(projection, f.image, sigma(f.target))


def _lift(projection: QuotientMap, image: Sequence[int], expansion: MS4Frame) -> FrameMap:
    """`image` (one `expansion` index per class) after the projection, as
    a map onto `expansion`; `RuntimeError` unless it is a reduction."""
    composite = tuple(image[k] for k in projection.class_index)
    (g,) = _wrap(projection.source, expansion, [composite])
    if not (g.is_onto() and is_ms4_morphism(g)):
        raise RuntimeError("lifting failed to produce a reduction")
    return g
