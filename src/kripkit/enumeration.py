"""Frame generation up to isomorphism.

Labeled relations grow one point at a time.  A reflexive transitive relation
on m points restricts to one on m-1 points, and the new point sits above a
downset D and below an upset U of the restriction with D x U already related;
every such (D, U) gives exactly one extension.  D & U is empty when the new
point is a cluster of its own and is a whole cluster when the point joins it,
so partial orders keep the pairs with D & U empty, quasi-orders keep every
pair, and equivalences keep D == U (empty, or one class).

Classes are generated without labeled frames.  A frame's class key is the
least relabeling of its first relation's rows followed by its second's (q on
int frames, e on ms4 frames), which is `canonical_form` less its two framing
bytes (kind and size); over a canonical order R it is R followed by the
least image of the second relation under R's automorphisms.
One canonical partial order (int) or quasi-order (ms4) per class, with its
automorphisms, comes from canonicalizing the one-point extensions of the
classes one point smaller; each is paired with every commuting equivalence.
The distinct keys, sorted, spell out the class representatives.  Class
frames of one size share one `Relation` per distinct row tuple, so what a
relation keeps (converse, successors, loops, both-ways part) is derived once
for all of them.  The unfiltered classes of each (kind, size) are computed
once per process; filters apply afterwards, each named once in `FILTERS`
with the frame kind it applies to and its test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from operator import eq, itemgetter

from . import semantics, syntax
from .frames import (
    FRAME_TYPES,
    BoundExceeded,
    Relation,
    bits,
    commuting,
    has_clean_clusters,
    is_finite_mgrz,
    qe,
)

MAX_ENUM_POINTS = 5
CANONICAL_MAX = 7


def _casari_image_valid(frame) -> bool:
    translated = syntax.corpus("casari_translated")[0]
    # Per frame, not batched: this is the `enumerate` benchmark's only call
    # into a semantics function its tracer sees.
    return semantics.frame_validates(frame, translated)


# Each logic filter: the frame kind it applies to, and its test.
FILTERS = {
    "m_plus": ("int", has_clean_clusters),
    "mgrz": ("ms4", is_finite_mgrz),
    "m_plus_grz": ("ms4", _casari_image_valid),
}
# First byte of a canonical key, per frame kind.
_KIND_BYTE = {"int": b"I", "ms4": b"M"}
# Point names of the frames a canonical key spells out.
_POINT_NAMES = tuple(f"x{i}" for i in range(CANONICAL_MAX))


@dataclass(frozen=True)
class EnumerationConfig:
    """What to enumerate: frame kind, size ceiling, optional logic filters."""

    kind: str
    max_points: int
    filters: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in FRAME_TYPES:
            raise ValueError(f"unknown frame kind {self.kind!r}")
        if self.max_points.__class__ is not int:
            raise ValueError(f"enumeration size must be an int, not {self.max_points!r}")
        if not 1 <= self.max_points <= MAX_ENUM_POINTS:
            raise BoundExceeded(
                f"enumeration size {self.max_points} outside 1..{MAX_ENUM_POINTS}"
            )
        for name in self.filters:
            if name not in FILTERS:
                raise ValueError(f"unknown filter {name!r}")
            if FILTERS[name][0] != self.kind:
                raise ValueError(f"filter {name!r} does not apply to {self.kind} frames")


def _partial(down: int, up: int) -> bool:
    """A new point of a partial order is a cluster of its own."""
    return not down & up


def _quasi(down: int, up: int) -> bool:
    return True


def _extensions(rel: Relation, keep):
    """Every relation on one more point whose restriction to rel's points is
    rel, with the new point above a downset `down` and below an upset `up`
    of rel such that keep(down, up), each exactly once."""
    m = rel.n
    new_bit = 1 << m
    upsets = semantics.upsets(rel)
    for down in semantics.upsets(rel.converse()):
        # Transitivity through the new point: down x up must be already
        # related, so up lies above every point of down.
        above = (1 << m) - 1
        for x in bits(down):
            above &= rel.rows[x]
        for up in upsets:
            if up & ~above or not keep(down, up):
                continue
            rows = [row | new_bit * (down >> i & 1) for i, row in enumerate(rel.rows)]
            rows.append(up | new_bit)
            yield Relation(m + 1, tuple(rows))


def _labeled(n: int, keep) -> list[Relation]:
    rels = [Relation(0, ())]
    for _ in range(n):
        rels = [ext for rel in rels for ext in _extensions(rel, keep)]
    return rels


def partial_orders(n: int) -> list[Relation]:
    """All labeled partial orders on n points, each exactly once."""
    return _labeled(n, _partial)


def quasi_orders(n: int) -> list[Relation]:
    """All labeled quasi-orders (reflexive transitive relations) on n points."""
    return _labeled(n, _quasi)


def equivalences(n: int) -> list[Relation]:
    """All labeled equivalence relations on n points, each exactly once."""
    return _labeled(n, eq)


@cache
def _relabelings(n: int) -> tuple:
    """One (pick, table) pair per permutation `perm` of n points, where
    perm[a] is the original index shown at position a.  `pick` takes the
    rows of both relations, concatenated, in the order they are shown;
    `table` translates a row mask into the relabeled mask."""
    out = []
    for perm in permutations(range(n)):
        position = [0] * n
        for a, x in enumerate(perm):
            position[x] = a
        # Rows fit in a byte (CANONICAL_MAX < 8): a bytes.translate table.
        table = bytearray(256)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << position[low.bit_length() - 1]
        out.append((itemgetter(*perm, *(n + x for x in perm)), bytes(table)))
    return tuple(out)


def _least(rows: tuple[int, ...], relabelings) -> bytes:
    """The least encoding of `rows` over `relabelings`' (pick, table) pairs."""
    return min([bytes(pick(rows)).translate(table) for pick, table in relabelings])


def canonical_form(frame) -> bytes:
    """Isomorphism-invariant key: kind, size, and the minimum over all point
    relabelings of the packed relation rows.  Byte `a` after the size (and
    byte `n + a` for the second relation) is row `a` of the relabeled frame,
    so the key spells out the class's canonical representative."""
    n = frame.n
    if n > CANONICAL_MAX:
        raise BoundExceeded(f"canonical form capped at {CANONICAL_MAX} points")
    encoding = _least(frame.r.rows + frame.s.rows, _relabelings(n))
    return _KIND_BYTE[frame.kind] + bytes([n]) + encoding


@cache
def _order_classes(n: int, with_clusters: bool) -> tuple:
    """One canonical order per isomorphism class of partial orders (or, with
    clusters, quasi-orders) on n points, ascending, each paired with its
    automorphisms: the `_relabelings(n)` entries that leave it unchanged."""
    if n == 0:
        return ((Relation(0, ()), ()),)
    relabelings = _relabelings(n)
    keys = set()
    keep = _quasi if with_clusters else _partial
    for rel, _ in _order_classes(n - 1, with_clusters):
        for ext in _extensions(rel, keep):
            # The rows given twice, as both relations: the first n bytes of
            # the least relabeling are the order's own canonical rows.
            keys.add(_least(ext.rows * 2, relabelings))
    return tuple(
        (
            Relation(n, tuple(key[:n])),
            tuple(
                (pick, table)
                for pick, table in relabelings
                if bytes(pick(key)).translate(table) == key
            ),
        )
        for key in sorted(keys)
    )


@cache
def _classes(kind: str, n: int) -> tuple:
    """One canonical representative per isomorphism class of `kind` frames
    on n points, ordered by canonical key.

    Each canonical order R is paired with every commuting equivalence; the
    pair's key, `canonical_form` of the frame less its kind and size bytes,
    is R's rows followed by the least relabeled second relation over R's
    automorphisms, so its first n bytes and the rest are the two relations."""
    eqs = equivalences(n)
    keys = set()
    for r, automorphisms in _order_classes(n, with_clusters=kind == "ms4"):
        for e in eqs:
            if not commuting(r, e):
                continue
            second = qe(r, e) if kind == "int" else e
            keys.add(_least(r.rows + second.rows, automorphisms))
    names = _POINT_NAMES[:n]
    relations = {}
    for key in keys:
        for rows in (key[:n], key[n:]):
            if rows not in relations:
                relations[rows] = Relation(n, tuple(rows))
    return tuple(
        FRAME_TYPES[kind](names, relations[key[:n]], relations[key[n:]])
        for key in sorted(keys)
    )


def enumerate_frames(config: EnumerationConfig) -> list:
    """Frames of the requested kind with 1..max_points points, one per
    isomorphism class, filtered and deterministically ordered by size then
    canonical form."""
    tests = [FILTERS[name][1] for name in sorted(config.filters)]
    return [
        frame
        for n in range(1, config.max_points + 1)
        for frame in _classes(config.kind, n)
        if all(test(frame) for test in tests)
    ]
