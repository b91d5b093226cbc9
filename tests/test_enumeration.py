"""Tests for frame generation up to isomorphism.

Three oracles.  The first regenerates every labeled frame by filtering all
relations on n points, groups them by a permutation-minimizing canonical key
computed with plain tuples, and only then compares class counts with the
package's generator.  No class count is hand-entered.  The second is the
straightforward dedup path over labeled frames: the n!-permutation canonical
key of every labeled frame, with the first frame seen for each key relabeled
along its minimizing permutation, over the third oracle's labeled orders
and equivalences.  The package generates classes from unlabeled orders and
equivalences up to automorphism, without labeled frames, and must return
exactly the oracle's frames, in its order.  The third is the pair of labeled
generators the package used before one (downset, upset) placement rule
built every labeled relation: the package's lists must hold the same
relations, each once.
"""

import hashlib
import json
from functools import cache
from itertools import permutations
from math import factorial

import pytest

from kripkit import frames as frames_module
from kripkit.cli import main
from kripkit.enumeration import (
    CANONICAL_MAX,
    FILTERS,
    MAX_ENUM_POINTS,
    EnumerationConfig,
    _classes,
    _order_classes,
    canonical_form,
    commuting,
    enumerate_frames,
    equivalences,
    partial_orders,
    quasi_orders,
)
from kripkit.frames import (
    BoundExceeded,
    IntFrame,
    MS4Frame,
    Relation,
    frame_to_json_dict,
    frames_to_json_lines,
    has_clean_clusters,
    is_finite_mgrz,
    qe,
)
from kripkit.semantics import POINT_CAP, frame_validates
from kripkit.syntax import corpus


# Test-local labeled generation from first principles.


def closed_relations(n: int) -> list[frozenset]:
    """All reflexive transitive relations on n points, as pair sets."""
    diagonal = {(i, i) for i in range(n)}
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in range(1 << len(off)):
        pairs = set(diagonal)
        pairs.update(p for k, p in enumerate(off) if choice >> k & 1)
        if all(
            (a, d) in pairs for (a, b) in pairs for (c, d) in pairs if b == c
        ):
            out.append(frozenset(pairs))
    return out


def is_antisymmetric(pairs: frozenset) -> bool:
    return all(a == b for (a, b) in pairs if (b, a) in pairs)


def is_symmetric(pairs: frozenset) -> bool:
    return all((b, a) in pairs for (a, b) in pairs)


def labeled_int_pairs(n: int) -> list[tuple[frozenset, frozenset]]:
    rels = closed_relations(n)
    orders = [r for r in rels if is_antisymmetric(r)]
    frames = []
    for r in orders:
        for q in rels:
            if not r <= q:
                continue
            cluster = {(x, y) for (x, y) in q if (y, x) in q}
            if all(
                any((x, z) in r and (z, y) in cluster for z in range(n))
                for (x, y) in q
            ):
                frames.append((r, q))
    return frames


def labeled_ms4_pairs(n: int) -> list[tuple[frozenset, frozenset]]:
    rels = closed_relations(n)
    frames = []
    for r in rels:
        for e in rels:
            if not is_symmetric(e):
                continue
            if all(
                any((x, w) in r and (w, z) in e for w in range(n))
                for (x, y) in e
                for (y2, z) in r
                if y2 == y
            ):
                frames.append((r, e))
    return frames


def local_canonical(n: int, rels: tuple[frozenset, ...]) -> tuple:
    return min(
        tuple(tuple(sorted((perm[a], perm[b]) for (a, b) in rel)) for rel in rels)
        for perm in permutations(range(n))
    )


def local_classes(labeled: list[tuple[frozenset, frozenset]], n: int) -> set:
    return {local_canonical(n, rels) for rels in labeled}


def pair_form(frame) -> tuple[frozenset, frozenset]:
    first = frame.r
    second = frame.q if isinstance(frame, IntFrame) else frame.e
    return frozenset(first.pairs()), frozenset(second.pairs())


def chain_frame(n: int) -> IntFrame:
    r = Relation.from_pairs(n, [(i, j) for i in range(n) for j in range(i, n)])
    return IntFrame(tuple(f"x{i}" for i in range(n)), r, r)


# The labeled generators the one (downset, upset) placement rule replaced,
# kept as oracles for it.  A quasi-order extension either puts the new point
# into an existing cluster or inserts it as a singleton between a downset and
# a disjoint upset, each listed in ascending mask order; equivalences come
# from restricted growth strings.


def oracle_extensions(rel: Relation, with_clusters: bool):
    m = rel.n
    new_bit = 1 << m
    if with_clusters:
        # One extension per existing cluster, keyed by its least member.
        seen = 0
        for x in range(m):
            if seen >> x & 1:
                continue
            seen |= rel.rows[x] & rel.preimage(1 << x)
            rows = [row | (new_bit if row >> x & 1 else 0) for row in rel.rows]
            rows.append(rel.rows[x] | new_bit)
            yield Relation(m + 1, tuple(rows))
    downsets = [d for d in range(1 << m) if rel.preimage(d) & ~d == 0]
    upsets = [u for u in range(1 << m) if rel.image(u) & ~u == 0]
    for down in downsets:
        for up in upsets:
            if down & up:
                continue
            if any(up & ~rel.rows[x] for x in range(m) if down >> x & 1):
                continue
            rows = [row | (new_bit if down >> i & 1 else 0) for i, row in enumerate(rel.rows)]
            rows.append(up | new_bit)
            yield Relation(m + 1, tuple(rows))


@cache
def oracle_orders(n: int, with_clusters: bool) -> tuple[Relation, ...]:
    if n == 0:
        return (Relation(0, ()),)
    return tuple(
        ext
        for rel in oracle_orders(n - 1, with_clusters)
        for ext in oracle_extensions(rel, with_clusters)
    )


def oracle_equivalences(n: int) -> list[Relation]:
    out = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            classes: dict[int, int] = {}
            for i, c in enumerate(prefix):
                classes[c] = classes.get(c, 0) | 1 << i
            out.append(Relation(n, tuple(classes[c] for c in prefix)))
            return
        for c in range(used + 1):
            prefix.append(c)
            grow(prefix, max(used, c + 1))
            prefix.pop()

    grow([], 0)
    return out


# The straightforward dedup path over labeled frames, kept as an oracle for
# the generator.


def labeled_frames(kind: str, n: int):
    names = tuple(f"x{i}" for i in range(n))
    eqs = oracle_equivalences(n)
    if kind == "ms4":
        for r in oracle_orders(n, True):
            for e in eqs:
                if commuting(r, e):
                    yield MS4Frame(names, r, e)
    else:
        # With r a partial order, pairing r with a commuting equivalence e
        # and coarsening to q = r-then-e yields each valid (r, q) exactly
        # once: e is recovered from q as its cluster equivalence.
        for r in oracle_orders(n, False):
            for e in eqs:
                if commuting(r, e):
                    yield IntFrame(names, r, qe(r, e))


def minimizing_relabeling(frame) -> tuple[tuple[int, ...], bytes]:
    """The permutation giving the least packed relation rows, and those rows.
    perm[a] is the original index shown at position a."""
    n = frame.n
    rels = (frame.r, frame.s)
    best_perm, best = None, None
    for perm in permutations(range(n)):
        encoding = bytes(
            sum(1 << b for b in range(n) if rel.has(perm[a], perm[b]))
            for rel in rels
            for a in range(n)
        )
        if best is None or encoding < best:
            best, best_perm = encoding, perm
    return best_perm, best


def relabeled(frame, perm: tuple[int, ...]):
    n = frame.n
    first, second = (
        Relation(
            n,
            tuple(
                sum(1 << b for b in range(n) if rel.has(perm[a], perm[b]))
                for a in range(n)
            ),
        )
        for rel in (frame.r, frame.s)
    )
    return type(frame)(tuple(f"x{i}" for i in range(n)), first, second)


@cache
def dedup_oracle(kind: str, bound: int) -> tuple:
    out = []
    for n in range(1, bound + 1):
        reps = {}
        for frame in labeled_frames(kind, n):
            perm, key = minimizing_relabeling(frame)
            if key not in reps:
                reps[key] = relabeled(frame, perm)
        out.extend(reps[key] for key in sorted(reps))
    return tuple(out)


FILTER_CHECKS = {
    "m_plus": has_clean_clusters,
    "mgrz": is_finite_mgrz,
    "m_plus_grz": lambda f: frame_validates(
        f, corpus("casari_translated")[0], point_cap=f.n
    ),
}


@pytest.mark.parametrize(
    "kind, filters",
    [
        ("int", ()),
        ("int", ("m_plus",)),
        ("ms4", ()),
        ("ms4", ("mgrz",)),
        ("ms4", ("m_plus_grz",)),
        ("ms4", ("mgrz", "m_plus_grz")),
    ],
    ids=lambda value: value if isinstance(value, str) else "+".join(value) or "all",
)
def test_enumeration_matches_dedup_oracle(kind, filters):
    expected = [
        frame
        for frame in dedup_oracle(kind, 4)
        if all(FILTER_CHECKS[name](frame) for name in filters)
    ]
    config = EnumerationConfig(kind, 4, frozenset(filters))
    assert enumerate_frames(config) == expected


def test_labeled_generators_match_brute_force():
    for n in range(1, 4):
        rels = closed_relations(n)
        assert {frozenset(r.pairs()) for r in quasi_orders(n)} == set(rels)
        assert {frozenset(r.pairs()) for r in partial_orders(n)} == {
            r for r in rels if is_antisymmetric(r)
        }
        assert {frozenset(r.pairs()) for r in equivalences(n)} == {
            r for r in rels if is_symmetric(r)
        }


def assert_same_without_repeats(got: list[Relation], expected) -> None:
    assert len(set(got)) == len(got) == len(expected)
    assert set(got) == set(expected)


# Both order oracles up to n = 5 (4,231 and 6,942 relations) and the
# equivalences up to n = 6 take about a quarter of a second together.
@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_orders_match_the_two_rule_oracle(n):
    assert_same_without_repeats(partial_orders(n), oracle_orders(n, False))
    assert_same_without_repeats(quasi_orders(n), oracle_orders(n, True))


def test_equivalences_match_the_restricted_growth_oracle():
    for n in range(1, 7):
        assert_same_without_repeats(equivalences(n), oracle_equivalences(n))


def test_labeled_counts_follow_the_known_sequences():
    # Labeled posets (OEIS A001035), quasi-orders (A000798), Bell numbers.
    assert [len(partial_orders(n)) for n in range(1, 6)] == [1, 3, 19, 219, 4231]
    assert [len(quasi_orders(n)) for n in range(1, 6)] == [1, 4, 29, 355, 6942]
    assert [len(equivalences(n)) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def test_order_classes_follow_the_known_sequences():
    # Unlabeled posets (OEIS A000112) and quasi-orders (A001930).
    assert [len(_order_classes(n, False)) for n in range(1, 7)] == [
        1, 2, 5, 16, 63, 318
    ]
    assert [len(_order_classes(n, True)) for n in range(1, 7)] == [
        1, 3, 9, 33, 139, 718
    ]


def test_order_classes_are_canonical_with_their_automorphisms():
    for with_clusters in (False, True):
        labeled = quasi_orders if with_clusters else partial_orders
        for n in range(1, 6):
            count = 0
            for order, automorphisms in _order_classes(n, with_clusters):
                frame = MS4Frame(
                    tuple(f"x{i}" for i in range(n)), order, Relation.identity(n)
                )
                assert canonical_form(frame)[2 : 2 + n] == bytes(order.rows)
                fixing = [
                    perm
                    for perm in permutations(range(n))
                    if all(
                        order.has(perm[a], perm[b]) == order.has(a, b)
                        for a in range(n)
                        for b in range(n)
                    )
                ]
                assert len(automorphisms) == len(fixing)
                # Orbit-stabilizer: the class has n!/|Aut| labeled members.
                count += factorial(n) // len(fixing)
            assert count == len(labeled(n))


# `kripkit enumerate --kind K --bound 5 [...]` stdout: the two unfiltered
# outputs as the labeled dedup path printed them, the rest as each line was
# printed by encoding the frame's `frame_to_json_dict` form on its own.
BOUND_5_SHA256 = {
    "int": "a636581ef164e1914eb0a513b4d86c401f859ba2f208f33ba17c33f166367ece",
    "ms4": "8897fde20a0540780d23b6f415cf9dd89eef23739c6a3d38f6127ba461279126",
    "int --filter m_plus": "f0d12720d4eb2eff4d5ca04f2557a91d60e4994d062c0f66c5c0ae73ab5b0b0e",
    "ms4 --filter mgrz": "613e9d6fb81a54253be64cbe6d0c66b56caf729d214a361717849804ddfd09db",
    "ms4 --filter m_plus_grz": "962c9b2ef3d5905e65d3226afef1e58eeaa5e2b407dde03c02d0be3a0b93b7ae",
    "int --json": "c9ef3ed84eea0ebc47e0143127cfbd8e20704741ebfa9fa798cdd1cbaa887d31",
    "ms4 --json": "6deb3679a2aebcfe39be145b9fe32ccec5243e84c1e563b8dc85eb6c2c26364e",
}


@pytest.mark.parametrize("config", BOUND_5_SHA256)
def test_bound_5_output_is_unchanged(config, capsys):
    kind, *rest = config.split()
    assert main(["enumerate", "--kind", kind, "--bound", "5", *rest]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_5_SHA256[config]


def one_line(frame) -> str:
    """The oracle: one frame's JSON form, encoded on its own."""
    return json.dumps(frame_to_json_dict(frame), separators=(",", ":")) + "\n"


def test_json_lines_match_per_frame_encoding():
    # Every class frame at bound 5, and each filter's frames at bound 4.
    configs = [EnumerationConfig(kind, 5) for kind in ("int", "ms4")] + [
        EnumerationConfig(kind, 4, frozenset({name}))
        for name, (kind, _) in FILTERS.items()
    ]
    for config in configs:
        frames = enumerate_frames(config)
        lines = frames_to_json_lines(frames).splitlines(keepends=True)
        assert lines == [one_line(f) for f in frames]


def test_json_lines_escape_point_names():
    names = ('"', "\\", "\u00e9", "a\tb")
    order = Relation.from_pairs(4, [(i, i) for i in range(4)] + [(0, 1), (2, 3)])
    frames = [
        IntFrame(names, order, order),
        MS4Frame(names[::-1], order, Relation.total(4)),
        IntFrame(names, order, Relation.total(4)),
        IntFrame(("\n",), Relation.total(1), Relation.total(1)),
    ]
    text = frames_to_json_lines(frames)
    assert text.isascii()
    assert text.splitlines(keepends=True) == [one_line(f) for f in frames]


def test_json_lines_encode_each_relation_once(monkeypatch):
    frames = enumerate_frames(EnumerationConfig("ms4", 4))
    calls = []

    def counted(rel):
        calls.append(rel)
        return pairs(rel)

    pairs = frames_module._json_pairs
    monkeypatch.setattr(frames_module, "_json_pairs", counted)
    frames_to_json_lines(frames)
    relations = {id(rel) for f in frames for rel in (f.r, f.s)}
    assert len(calls) == len(relations) == 58


@pytest.mark.parametrize("kind", ["int", "ms4"])
def test_enumeration_matches_independent_oracle(kind):
    labeled = labeled_int_pairs if kind == "int" else labeled_ms4_pairs
    reps = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    for n in range(1, 4):
        classes = local_classes(labeled(n), n)
        size_n = [f for f in reps if f.n == n]
        # Same number of classes, every representative lands in a distinct one.
        assert len(size_n) == len(classes)
        keys = {local_canonical(n, tuple(pair_form(f))) for f in size_n}
        assert keys == classes


def test_enumeration_is_deterministic_and_normalized():
    for kind in ("int", "ms4"):
        config = EnumerationConfig(kind=kind, max_points=3)
        _classes.cache_clear()
        first = enumerate_frames(config)
        _classes.cache_clear()
        second = enumerate_frames(config)
        assert first == second
        sizes = [f.n for f in first]
        assert sizes == sorted(sizes)
        for frame in first:
            assert frame.points == tuple(f"x{i}" for i in range(frame.n))
        # A cached answer is a fresh list: mutating it changes no later call.
        second.clear()
        assert enumerate_frames(config) == first


def test_config_validation():
    with pytest.raises(ValueError, match="unknown frame kind"):
        EnumerationConfig(kind="poset", max_points=2)
    with pytest.raises(BoundExceeded):
        EnumerationConfig(kind="int", max_points=0)
    with pytest.raises(BoundExceeded):
        EnumerationConfig(kind="int", max_points=6)
    # Only an exact int is a size: True would enumerate one point.
    for size in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"must be an int, not {size!r}"):
            EnumerationConfig(kind="int", max_points=size)
    with pytest.raises(ValueError, match="unknown filter"):
        EnumerationConfig(kind="int", max_points=2, filters=frozenset({"finite"}))
    with pytest.raises(ValueError, match="does not apply"):
        EnumerationConfig(kind="ms4", max_points=2, filters=frozenset({"m_plus"}))
    with pytest.raises(ValueError, match="does not apply"):
        EnumerationConfig(kind="int", max_points=2, filters=frozenset({"mgrz"}))


def test_clean_cluster_filter():
    plain = enumerate_frames(EnumerationConfig(kind="int", max_points=3))
    filtered = enumerate_frames(
        EnumerationConfig(kind="int", max_points=3, filters=frozenset({"m_plus"}))
    )
    assert filtered == [f for f in plain if has_clean_clusters(f)]


def test_grz_filter():
    plain = enumerate_frames(EnumerationConfig(kind="ms4", max_points=3))
    filtered = enumerate_frames(
        EnumerationConfig(kind="ms4", max_points=3, filters=frozenset({"mgrz"}))
    )
    assert filtered == [f for f in plain if is_finite_mgrz(f)]


def test_translated_casari_filter_is_semantic():
    translated = corpus("casari_translated")[0]
    plain = enumerate_frames(EnumerationConfig(kind="ms4", max_points=3))
    filtered = enumerate_frames(
        EnumerationConfig(kind="ms4", max_points=3, filters=frozenset({"m_plus_grz"}))
    )
    assert filtered == [
        f for f in plain if frame_validates(f, translated, point_cap=f.n)
    ]


def test_the_semantic_filter_needs_no_point_cap_override():
    # `m_plus_grz` model-checks every enumerated frame at the default caps.
    assert MAX_ENUM_POINTS <= POINT_CAP


def test_antisymmetric_modal_classes_match_int_classes():
    # Expansion is a bijection on objects: modal frames whose order has no
    # proper clusters correspond one-to-one with intuitionistic frames.
    ints = enumerate_frames(EnumerationConfig(kind="int", max_points=4))
    grz = enumerate_frames(
        EnumerationConfig(kind="ms4", max_points=4, filters=frozenset({"mgrz"}))
    )
    assert len(ints) == len(grz) == 135


def test_class_frames_share_one_relation_per_row_tuple():
    distinct = {}
    for kind in ("int", "ms4"):
        for n in range(1, 5):
            relations = [rel for f in _classes(kind, n) for rel in (f.r, f.s)]
            objects = {id(rel) for rel in relations}
            assert len(objects) == len({rel.rows for rel in relations})
            distinct[kind, n] = len(objects)
    assert distinct == {
        ("int", 1): 1, ("int", 2): 3, ("int", 3): 10, ("int", 4): 45,
        ("ms4", 1): 1, ("ms4", 2): 3, ("ms4", 3): 11, ("ms4", 4): 43,
    }


def test_canonical_form_is_permutation_invariant():
    for kind in ("int", "ms4"):
        for frame in enumerate_frames(EnumerationConfig(kind=kind, max_points=3)):
            expected = canonical_form(frame)
            first, second = pair_form(frame)
            for perm in permutations(range(frame.n)):
                relabeled_first = Relation.from_pairs(
                    frame.n, [(perm[a], perm[b]) for (a, b) in first]
                )
                relabeled_second = Relation.from_pairs(
                    frame.n, [(perm[a], perm[b]) for (a, b) in second]
                )
                if kind == "int":
                    twin = IntFrame(frame.points, relabeled_first, relabeled_second)
                else:
                    twin = MS4Frame(frame.points, relabeled_first, relabeled_second)
                assert canonical_form(twin) == expected


def test_canonical_form_separates_classes():
    for kind in ("int", "ms4"):
        reps = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
        forms = [canonical_form(f) for f in reps]
        assert len(set(forms)) == len(forms)


def test_canonical_form_size_cap():
    assert canonical_form(chain_frame(CANONICAL_MAX))
    with pytest.raises(BoundExceeded):
        canonical_form(chain_frame(CANONICAL_MAX + 1))
