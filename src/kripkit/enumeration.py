"""Frame generation up to isomorphism.

Labeled orders are produced by a one-point-extension recursion: a quasi-order
on m points extends one on m-1 points either by adding the new point to an
existing cluster or by inserting it as a fresh singleton between a downset
and an upset.  Every labeled order arises exactly once.  Equivalences come
from restricted growth strings.

Classes are generated without labeled frames.  A frame's canonical key is
the least relabeling of its first relation's rows followed by its second's
(q on int frames, e on ms4 frames), so over a canonical order R it is R
followed by the least image of the second relation under R's automorphisms.
One canonical partial order (int) or quasi-order (ms4) per class, with its
automorphisms, comes from canonicalizing the one-point extensions of the
classes one point smaller; each is paired with every commuting equivalence.
The distinct keys, sorted, spell out the class representatives.  The
unfiltered classes of each (kind, size) are computed once per process;
filters apply afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from operator import itemgetter

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

FILTERS = ("m_plus", "mgrz", "m_plus_grz")
_INT_FILTERS = frozenset(("m_plus",))
_MS4_FILTERS = frozenset(("mgrz", "m_plus_grz"))
# First byte of a canonical key, per frame kind.
_KIND_BYTE = {"int": b"I", "ms4": b"M"}


@dataclass(frozen=True)
class EnumerationConfig:
    """What to enumerate: frame kind, size ceiling, optional logic filters."""

    kind: str
    max_points: int
    filters: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in ("int", "ms4"):
            raise ValueError(f"unknown frame kind {self.kind!r}")
        if not 1 <= self.max_points <= MAX_ENUM_POINTS:
            raise BoundExceeded(
                f"enumeration size {self.max_points} outside 1..{MAX_ENUM_POINTS}"
            )
        allowed = _INT_FILTERS if self.kind == "int" else _MS4_FILTERS
        for name in self.filters:
            if name not in FILTERS:
                raise ValueError(f"unknown filter {name!r}")
            if name not in allowed:
                raise ValueError(f"filter {name!r} does not apply to {self.kind} frames")


def _extend_with_cluster_point(rel: Relation, member: int) -> Relation:
    """New point joins the cluster of `member`: same row plus the mutual
    pair, same column entries as `member`."""
    m = rel.n
    new_bit = 1 << m
    rows = [
        row | (new_bit if row >> member & 1 else 0) for row in rel.rows
    ]
    rows.append(rel.rows[member] | new_bit)
    return Relation(m + 1, tuple(rows))


def _extend_with_singleton(rel: Relation, down: int, up: int) -> Relation:
    """New point above `down`, below `up`, in a cluster of its own."""
    m = rel.n
    new_bit = 1 << m
    rows = [row | (new_bit if down >> i & 1 else 0) for i, row in enumerate(rel.rows)]
    rows.append(up | new_bit)
    return Relation(m + 1, tuple(rows))


def _downsets(rel: Relation) -> list[int]:
    return [m for m in range(1 << rel.n) if rel.preimage(m) & ~m == 0]


def _upsets(rel: Relation) -> list[int]:
    return [m for m in range(1 << rel.n) if rel.image(m) & ~m == 0]


def _extensions(rel: Relation, with_clusters: bool):
    """Every order on one more point whose restriction to rel's points is
    rel, each exactly once."""
    if with_clusters:
        # One extension per existing cluster, keyed by its least member.
        seen = 0
        for x in range(rel.n):
            if seen >> x & 1:
                continue
            seen |= rel.rows[x] & rel.preimage(1 << x)
            yield _extend_with_cluster_point(rel, x)
    upsets = _upsets(rel)
    for down in _downsets(rel):
        for up in upsets:
            if down & up:
                continue
            # Transitivity through the new point: down x up must be already
            # related.
            if any(up & ~rel.rows[x] for x in bits(down)):
                continue
            yield _extend_with_singleton(rel, down, up)


def _orders(n: int, with_clusters: bool) -> list[Relation]:
    if n == 0:
        return [Relation(0, ())]
    return [
        ext
        for rel in _orders(n - 1, with_clusters)
        for ext in _extensions(rel, with_clusters)
    ]


def partial_orders(n: int) -> list[Relation]:
    """All labeled partial orders on n points, each exactly once."""
    return _orders(n, with_clusters=False)


def quasi_orders(n: int) -> list[Relation]:
    """All labeled quasi-orders (reflexive transitive relations) on n points."""
    return _orders(n, with_clusters=True)


def equivalences(n: int) -> list[Relation]:
    """All labeled equivalence relations on n points, via restricted growth
    strings."""
    out = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            classes: dict[int, int] = {}
            for i, c in enumerate(prefix):
                classes[c] = classes.get(c, 0) | 1 << i
            rows = [classes[c] for c in prefix]
            out.append(Relation(n, tuple(rows)))
            return
        for c in range(used + 1):
            prefix.append(c)
            grow(prefix, max(used, c + 1))
            prefix.pop()

    grow([], 0)
    return out


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


def _from_key(kind: str, key: bytes):
    """The canonical `kind` frame a key spells out, points named x0, x1, ..."""
    n = key[1]
    names = tuple(f"x{i}" for i in range(n))
    first = Relation(n, tuple(key[2 : 2 + n]))
    second = Relation(n, tuple(key[2 + n :]))
    return FRAME_TYPES[kind](names, first, second)


@cache
def _order_classes(n: int, with_clusters: bool) -> tuple:
    """One canonical order per isomorphism class of partial orders (or, with
    clusters, quasi-orders) on n points, ascending, each paired with its
    automorphisms: the `_relabelings(n)` entries that leave it unchanged."""
    if n == 0:
        return ((Relation(0, ()), ()),)
    relabelings = _relabelings(n)
    keys = set()
    for rel, _ in _order_classes(n - 1, with_clusters):
        for ext in _extensions(rel, with_clusters):
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
    pair's key, equal to `canonical_form` of the frame, is R's rows followed
    by the least relabeled second relation over R's automorphisms."""
    prefix = _KIND_BYTE[kind] + bytes([n])
    eqs = equivalences(n)
    keys = set()
    for r, automorphisms in _order_classes(n, with_clusters=kind == "ms4"):
        for e in eqs:
            if not commuting(r, e):
                continue
            second = qe(r, e) if kind == "int" else e
            keys.add(_least(r.rows + second.rows, automorphisms))
    return tuple(_from_key(kind, prefix + key) for key in sorted(keys))


def _casari_image_valid(frame) -> bool:
    translated = syntax.corpus("casari_translated")[0]
    return semantics.frame_validates(frame, translated, point_cap=frame.n)


def _passes_filters(frame, filters: frozenset[str]) -> bool:
    for name in sorted(filters):
        if name == "m_plus" and not has_clean_clusters(frame):
            return False
        if name == "mgrz" and not is_finite_mgrz(frame):
            return False
        if name == "m_plus_grz" and not _casari_image_valid(frame):
            return False
    return True


def enumerate_frames(config: EnumerationConfig) -> list:
    """Frames of the requested kind with 1..max_points points, one per
    isomorphism class, filtered and deterministically ordered by size then
    canonical form."""
    return [
        frame
        for n in range(1, config.max_points + 1)
        for frame in _classes(config.kind, n)
        if _passes_filters(frame, config.filters)
    ]
