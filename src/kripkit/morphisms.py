"""Structure-preserving maps between frames.

A map is a total function on point indices.  The back-and-forth condition
for a single relation is the usual one: the image of a point's successor set
equals the successor set of the image.  Intuitionistic frame morphisms need
that for both relations plus a converse condition tying the coarse relation
of the target back through r-predecessors; modal frame morphisms need it for
r and for the equivalence.  A reduction is an onto morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .frames import BoundExceeded, IntFrame, MS4Frame, Relation, bits

REDUCTION_SOURCE_CAP = 6


@dataclass(frozen=True)
class FrameMap:
    """Total map between the point sets of two frames of the same kind."""

    source: IntFrame | MS4Frame
    target: IntFrame | MS4Frame
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.source) is not type(self.target):
            raise ValueError("map endpoints must be frames of the same kind")
        if len(self.image) != self.source.n:
            raise ValueError("map must cover every source point")
        for value in self.image:
            if not 0 <= value < self.target.n:
                raise ValueError(f"image index {value} out of range")

    def __call__(self, i: int) -> int:
        return self.image[i]

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.image[i]
        return out

    def is_onto(self) -> bool:
        return set(self.image) == set(range(self.target.n))

    def describe(self) -> str:
        pairs = ", ".join(
            f"{s} -> {self.target.points[self.image[i]]}"
            for i, s in enumerate(self.source.points)
        )
        return "{" + pairs + "}"


def _p_morphism_for(f: FrameMap, rel_source: Relation, rel_target: Relation) -> bool:
    # Forth and back at once: target successors of f(x) = image of source
    # successors of x.
    return all(
        rel_target.rows[f.image[x]] == f.apply_mask(rel_source.rows[x])
        for x in range(f.source.n)
    )


def is_p_morphism(f: FrameMap, which: str = "r") -> bool:
    """Back-and-forth condition for the named relation ("r", "q", or "e")."""
    rel_source = getattr(f.source, which)
    rel_target = getattr(f.target, which)
    return _p_morphism_for(f, rel_source, rel_target)


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
    return (
        _p_morphism_for(f, f.source.r, f.target.r)
        and _p_morphism_for(f, f.source.q, f.target.q)
        and _condition4(f)
    )


def is_ms4_morphism(f: FrameMap) -> bool:
    """Morphism of modal frames: back-and-forth for r and for e."""
    if not isinstance(f.source, MS4Frame):
        raise ValueError("expected modal frames")
    return _p_morphism_for(f, f.source.r, f.target.r) and _p_morphism_for(
        f, f.source.e, f.target.e
    )


def is_reduction(f: FrameMap) -> bool:
    """Onto morphism of the appropriate kind."""
    if not f.is_onto():
        return False
    if isinstance(f.source, IntFrame):
        return is_mipc_morphism(f)
    return is_ms4_morphism(f)


def enumerate_reductions(source, target) -> list[FrameMap]:
    """All reductions from `source` onto `target`, in lexicographic order of
    the image tuple.  Exhaustive over target^source, so the source is capped."""
    if type(source) is not type(target):
        raise ValueError("frames must be of the same kind")
    if source.n > REDUCTION_SOURCE_CAP:
        raise BoundExceeded(
            f"source has {source.n} points, cap is {REDUCTION_SOURCE_CAP}"
        )
    out = []
    for image in product(range(target.n), repeat=source.n):
        f = FrameMap(source, target, image)
        if f.is_onto() and is_reduction(f):
            out.append(f)
    return out


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
