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
reductions) too few source points remain to hit every target point.  Every
morphism passes those tests, and each complete map is confirmed by the exact
predicate, so the search finds exactly the morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .frames import BoundExceeded, Frame, IntFrame, MS4Frame, bits

REDUCTION_SOURCE_CAP = 6


def _image_of(mask: int, image: Sequence[int]) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << image[i]
    return out


@dataclass(frozen=True)
class FrameMap:
    """Total map between the point sets of two frames of the same kind."""

    source: Frame
    target: Frame
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source.kind != self.target.kind:
            raise ValueError("map endpoints must be frames of the same kind")
        if len(self.image) != self.source.n:
            raise ValueError("map must cover every source point")
        for value in self.image:
            if not 0 <= value < self.target.n:
                raise ValueError(f"image index {value} out of range")

    def __call__(self, i: int) -> int:
        return self.image[i]

    def apply_mask(self, mask: int) -> int:
        return _image_of(mask, self.image)

    def is_onto(self) -> bool:
        return set(self.image) == set(range(self.target.n))

    def describe(self) -> str:
        pairs = ", ".join(
            f"{s} -> {self.target.points[self.image[i]]}"
            for i, s in enumerate(self.source.points)
        )
        return "{" + pairs + "}"


def is_p_morphism(f: FrameMap, which: str = "r") -> bool:
    """Back-and-forth condition for the named relation ("r", "q", "e", or
    "s"): the target successors of f(x) are the image of the source
    successors of x."""
    rel_source = getattr(f.source, which)
    rel_target = getattr(f.target, which)
    return all(
        rel_target.rows[f.image[x]] == f.apply_mask(rel_source.rows[x])
        for x in range(f.source.n)
    )


def _condition4(f: FrameMap) -> bool:
    # q-predecessors of f(x) are exactly r-predecessors of the image of the
    # q-predecessors of x.
    q1, q2, r2 = f.source.q, f.target.q, f.target.r
    return all(
        q2.preimage(1 << f.image[x]) == r2.preimage(f.apply_mask(q1.preimage(1 << x)))
        for x in range(f.source.n)
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


def _search(source, target, onto: bool) -> list[FrameMap]:
    """Morphisms from `source` to `target` (onto ones only when `onto`), in
    lexicographic order of the image tuple."""
    if source.kind != target.kind:
        raise ValueError("frames must be of the same kind")
    n, m = source.n, target.n
    everything = (1 << m) - 1
    # Forth, per point x and relation: the earlier predecessors and
    # successors of x, the target points its own loop allows, and the
    # target rows.
    forth = []
    # Back, per point x: the (y, source row, target rows) whose row is fully
    # assigned once x is.
    back = [[] for _ in range(n)]
    for rel_s, rel_t in ((source.r, target.r), (source.s, target.s)):
        loops = sum(1 << v for v in range(m) if rel_t.has(v, v))
        for y, row in enumerate(rel_s.rows):
            back[max(y, row.bit_length() - 1)].append((y, row, rel_t.rows))
        forth.append(
            [
                (
                    rel_s.preimage(1 << x) & ((1 << x) - 1),
                    rel_s.rows[x] & ((1 << x) - 1),
                    loops if rel_s.has(x, x) else everything,
                    rel_t.rows,
                )
                for x in range(n)
            ]
        )
    image = [0] * n
    out = []

    def extend(x: int, hit: int) -> None:
        if x == n:
            f = FrameMap(source, target, tuple(image))
            if _is_morphism(f):
                out.append(f)
            return
        allowed = everything
        needs = []
        for per_point in forth:
            preds, succs, self_ok, rows = per_point[x]
            allowed &= self_ok
            for y in bits(preds):
                allowed &= rows[image[y]]
            needs.append((_image_of(succs, image), rows))
        for v in bits(allowed):
            if any(reached & ~rows[v] for reached, rows in needs):
                continue
            image[x] = v
            if any(
                rows[image[y]] != _image_of(row, image) for y, row, rows in back[x]
            ):
                continue
            seen = hit | 1 << v
            if onto and m - seen.bit_count() > n - 1 - x:
                continue
            extend(x + 1, seen)

    if not onto or m <= n:
        extend(0, 0)
    return out


def enumerate_morphisms(source, target) -> list[FrameMap]:
    """All morphisms from `source` to `target`, in lexicographic order of the
    image tuple.  Found by the pruned search described above."""
    return _search(source, target, onto=False)


def enumerate_reductions(source, target) -> list[FrameMap]:
    """All reductions from `source` onto `target`, in lexicographic order of
    the image tuple.  Found by the pruned search described above, with the
    onto bound on; the source stays capped at `REDUCTION_SOURCE_CAP` points."""
    if source.n > REDUCTION_SOURCE_CAP:
        raise BoundExceeded(
            f"source has {source.n} points, cap is {REDUCTION_SOURCE_CAP}"
        )
    return _search(source, target, onto=True)


def lift_reduction(modal_source: MS4Frame, int_target: IntFrame, f: FrameMap) -> FrameMap:
    """Lift a reduction of the quotient to the modal level.

    Given a modal frame H, a reduction f from the quotient of H onto an
    intuitionistic frame F whose clusters are clean, build the composite
    g = f after the quotient map and return it as a map from H onto the
    modal expansion of F.  The result is checked to be an onto modal
    morphism before being returned.
    """
    from .functors import sigma, skeleton

    from .frames import has_clean_clusters

    if not has_clean_clusters(int_target):
        raise ValueError("target must have clean clusters")
    quotient, projection = skeleton(modal_source)
    if f.source != quotient:
        raise ValueError("map source is not the quotient of the modal frame")
    if f.target != int_target:
        raise ValueError("map target mismatch")
    if not (f.is_onto() and is_mipc_morphism(f)):
        raise ValueError("map is not a reduction")
    expansion = sigma(int_target)
    image = tuple(f.image[projection.class_index[x]] for x in range(modal_source.n))
    g = FrameMap(modal_source, expansion, image)
    if not (g.is_onto() and is_ms4_morphism(g)):
        raise RuntimeError("lifting failed to produce a reduction")
    return g
