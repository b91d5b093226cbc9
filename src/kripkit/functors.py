"""Constructions between the two frame kinds.

`skeleton` collapses the r-clusters of a modal frame into an intuitionistic
frame whose coarse relation records an r-step followed by an e-step.
`sigma` goes the other way, expanding an intuitionistic frame into a modal
one by taking the q-cluster equivalence.  On frames without proper clusters
the two constructions invert each other up to isomorphism.
`find_isomorphism`, kept for the tests, is the first reduction between two
frames of one size that the map search in `morphisms` finds.

Both constructions are memoized, `MEMO_SIZE` frames each (least recently
used first out).  That is safe because frames are frozen and hashed by
value, an `IntFrame` never equals an `MS4Frame`, equal frames give equal
results, and the results are frozen too, so every caller may share them.
An equal frame built apart gets the results built for the first one: the
returned `QuotientMap.source` equals the argument but may be a different,
equal object.  Each refuses a frame of the other kind with `ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .frames import IntFrame, MS4Frame, Relation, er, qe
from .morphisms import FrameMap, _image_of, enumerate_reductions, is_ms4_morphism

MEMO_SIZE = 1024


@dataclass(frozen=True)
class QuotientMap:
    """Projection of a modal frame onto its cluster quotient."""

    source: MS4Frame
    target: IntFrame
    class_index: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                [self.source.points[i] for i in members] for members in self.classes
            ],
        }


@lru_cache(maxsize=MEMO_SIZE)
def skeleton(frame: MS4Frame) -> tuple[IntFrame, QuotientMap]:
    """Quotient a modal frame by its r-clusters.

    Classes are ordered by their smallest member and named by joining member
    names with "+"; while an earlier class has that name, "'" is appended
    (points a, b and a+b with the cluster {a, b} give classes a+b and a+b').
    The quotient order holds between classes when their representatives are
    r-related; the coarse relation holds when an r-step followed by an
    e-step connects them.  The projection's `source` equals
    `frame` but may be an equal frame passed earlier.
    """
    if not isinstance(frame, MS4Frame):
        raise ValueError("skeleton expects an ms4 frame")
    cluster = er(frame.r).successors
    class_index = [-1] * frame.n
    reps: list[int] = []
    for x in range(frame.n):
        if class_index[x] < 0:
            for y in cluster[x]:
                class_index[y] = len(reps)
            reps.append(x)
    classes = tuple(cluster[rep] for rep in reps)
    m = len(reps)
    # Reading each row at the representatives alone keeps the quotient
    # defined by representatives even where e does not commute with r.
    at_reps = sum(1 << x for x in reps)
    r_rows, q_rows = (
        tuple(_image_of(rel.rows[x] & at_reps, class_index) for x in reps)
        for rel in (frame.r, qe(frame.r, frame.e))
    )
    names: list[str] = []
    for members in classes:
        name = "+".join(frame.points[i] for i in members)
        while name in names:
            name += "'"
        names.append(name)
    quotient = IntFrame(tuple(names), Relation(m, r_rows), Relation(m, q_rows))
    return quotient, QuotientMap(frame, quotient, tuple(class_index), classes)


def skeleton_map(f: FrameMap) -> FrameMap:
    """Image of a modal morphism under the quotient construction."""
    if not isinstance(f.source, MS4Frame):
        raise ValueError("expected a map of modal frames")
    if not is_ms4_morphism(f):
        raise ValueError("map is not a modal frame morphism")
    quotient_s, pi_s = skeleton(f.source)
    quotient_t, pi_t = skeleton(f.target)
    image = []
    for members in pi_s.classes:
        targets = {pi_t.class_index[f.image[x]] for x in members}
        # A modal morphism keeps mutually r-related points mutually related.
        if len(targets) != 1:
            raise RuntimeError("morphism split an r-cluster")
        image.append(targets.pop())
    return FrameMap(quotient_s, quotient_t, tuple(image))


@lru_cache(maxsize=MEMO_SIZE)
def sigma(frame: IntFrame) -> MS4Frame:
    """Expand an intuitionistic frame: keep r, take the q-cluster
    equivalence as e."""
    if not isinstance(frame, IntFrame):
        raise ValueError("sigma expects an int frame")
    return MS4Frame(frame.points, frame.r, frame.e_q())


def find_isomorphism(a, b) -> tuple[int, ...] | None:
    """First bijection (in lexicographic order of the image tuple) matching
    both relations in both directions, or None.  That is the first
    reduction between the frames viewed as modal frames, a view that skips
    the int converse condition, which a raw int frame need not meet.  Frames
    over `REDUCTION_SOURCE_CAP` points raise `BoundExceeded`."""
    if a.kind != b.kind:
        raise ValueError("frames must be of the same kind")
    if a.n != b.n:
        return None
    found = enumerate_reductions(*(MS4Frame(x.points, x.r, x.s) for x in (a, b)))
    return found[0].image if found else None
