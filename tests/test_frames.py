"""Relation and frame layer: bitmask relations, frame conditions, JSON."""

import re
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkit import frames
from kripkit.enumeration import EnumerationConfig, enumerate_frames, equivalences, quasi_orders
from kripkit.frames import (
    MAX_POINTS,
    BoundExceeded,
    IntFrame,
    InvalidFrameError,
    MS4Frame,
    Relation,
    bits,
    commuting,
    er,
    frame_from_json_dict,
    frame_to_json_dict,
    grz_max_check,
    has_clean_clusters,
    is_finite_mgrz,
    mask_of,
    qe,
    validate_frame,
    validate_int_frame,
    validate_ms4_frame,
)
from kripkit.semantics import is_upset


# Relation operations only the tests need.


def union(a: Relation, b: Relation) -> Relation:
    return Relation(a.n, tuple(x | y for x, y in zip(a.rows, b.rows)))


def contains(big: Relation, small: Relation) -> bool:
    return all(s & ~b == 0 for b, s in zip(big.rows, small.rows))


def is_partial_order(rel: Relation) -> bool:
    return rel.is_quasi_order() and rel.is_antisymmetric()


def is_equivalence(rel: Relation) -> bool:
    return rel.is_quasi_order() and rel.is_symmetric()


def reflexive_transitive_closure(rel: Relation) -> Relation:
    rows = [row | 1 << i for i, row in enumerate(rel.rows)]
    changed = True
    while changed:
        changed = False
        for i in range(rel.n):
            grown = rows[i]
            for j in bits(rows[i]):
                grown |= rows[j]
            if grown != rows[i]:
                rows[i] = grown
                changed = True
    return Relation(rel.n, tuple(rows))


# Slow oracles: the generator form of `bits`, the pair-by-pair witness
# searches and the preimage-per-point converse that the row-based code
# replaced.


def bits_oracle(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reflexive_witness_oracle(rel: Relation):
    for i in range(rel.n):
        if not rel.has(i, i):
            return (i,)
    return None


def transitive_witness_oracle(rel: Relation):
    for i in range(rel.n):
        for j in bits_oracle(rel.rows[i]):
            missing = rel.rows[j] & ~rel.rows[i]
            if missing:
                return (i, j, next(bits_oracle(missing)))
    return None


def antisymmetric_witness_oracle(rel: Relation):
    for i, j in combinations(range(rel.n), 2):
        if rel.has(i, j) and rel.has(j, i):
            return (i, j)
    return None


def symmetric_witness_oracle(rel: Relation):
    for i in range(rel.n):
        for j in bits_oracle(rel.rows[i]):
            if not rel.has(j, i):
                return (i, j)
    return None


def converse_oracle(rel: Relation) -> Relation:
    return Relation(rel.n, tuple(rel.preimage(1 << j) for j in range(rel.n)))


def rows_oracle(n: int, related) -> Relation:
    """The relation {(i, j) : related(i, j)}, through the checked constructor."""
    return Relation(n, tuple(mask_of(j for j in range(n) if related(i, j)) for i in range(n)))


def assert_trusted_matches(got: Relation, want: Relation) -> None:
    """A relation `frames` built without the constructor's checks passes
    them and equals its oracle."""
    assert got.__class__ is Relation
    assert Relation(got.n, got.rows) == got == want


def assert_trusted_results(a: Relation, b: Relation) -> None:
    """Every value `frames` builds through its trusted path, from `a` and
    `b` on the same points, against its pair-by-pair oracle."""
    n = a.n
    has = a.has
    assert_trusted_matches(a.converse(), rows_oracle(n, lambda i, j: has(j, i)))
    assert_trusted_matches(a.both_ways, rows_oracle(n, lambda i, j: has(i, j) and has(j, i)))
    assert_trusted_matches(a.meet(b), rows_oracle(n, lambda i, j: has(i, j) and b.has(i, j)))
    assert_trusted_matches(
        a.compose(b),
        rows_oracle(n, lambda i, j: any(has(i, y) and b.has(y, j) for y in range(n))),
    )
    assert_trusted_matches(Relation.from_pairs(n, a.pairs()), a)
    if n:
        points = [f"x{i}" for i in range(n)]
        data = {"kind": "ms4", "points": points, "R": a.pairs(), "E": b.pairs()}
        loaded = frame_from_json_dict(data, validate=False)
        assert_trusted_matches(loaded.r, a)
        assert_trusted_matches(loaded.s, b)


@st.composite
def relation_pairs(draw, max_n: int = 6):
    a = draw(relations(max_n, min_n=0))
    return a, draw(relations(a.n, min_n=a.n))


# The row-by-row reflexive witness search that reading the loop mask
# replaced.


def reflexive_witness_rows(rel: Relation):
    for i, row in enumerate(rel.rows):
        if not row >> i & 1:
            return (i,)
    return None


def max_points(rel: Relation, subset) -> list[int]:
    """Maximal elements of `subset` under `rel`: points whose only successor
    inside the subset is themselves.  Inside a proper cluster this is empty,
    which is what makes the max-point check detect clusters."""
    mask = mask_of(subset)
    if mask >> rel.n:
        raise ValueError(f"mask {mask} out of range for n={rel.n}")
    return [x for x in bits(mask) if rel.rows[x] & mask & ~(1 << x) == 0]


def grz_max_check_oracle(rel: Relation) -> bool:
    """The max-point check by its definition: each nonempty subset's
    maximal points (`max_points`), then the points reaching one of them
    (`preimage`), per subset."""
    if not rel.is_quasi_order():
        raise ValueError("check needs a quasi-order")
    for subset in range(1, 1 << rel.n):
        upper = rel.preimage(mask_of(max_points(rel, bits(subset))))
        if subset & ~upper:
            return False
    return True


WITNESS_ORACLES = [
    (frames._reflexive_witness, reflexive_witness_oracle),
    (frames._reflexive_witness, reflexive_witness_rows),
    (frames._transitive_witness, transitive_witness_oracle),
    (frames._antisymmetric_witness, antisymmetric_witness_oracle),
    (frames._symmetric_witness, symmetric_witness_oracle),
]


def assert_matches_oracles(rel: Relation) -> None:
    for fast, slow in WITNESS_ORACLES:
        assert fast(rel) == slow(rel), fast.__name__
    assert rel.converse() == converse_oracle(rel)


@st.composite
def relations(draw, max_n: int = 5, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.tuples(*(st.integers(0, (1 << n) - 1),) * n))
    return Relation(n, rows)


@st.composite
def small_quasi_orders(draw, max_n: int = 5, min_n: int = 1):
    return reflexive_transitive_closure(draw(relations(max_n, min_n)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def frame_shaped(draw):
    """A frame JSON object with a known kind, distinct point names and lists
    of index pairs (out of range when there are fewer points, reflexive at
    times), with at most one field dropped or replaced by any JSON value, so
    that inputs reach the relation and frame checks behind the type tests."""
    points = draw(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)
    )
    diagonal = [[i, i] for i in range(len(points))] if draw(st.booleans()) else []
    data = {"kind": draw(st.sampled_from(["int", "ms4"])), "points": points}
    for key in ("R", "Q", "E"):
        pair = st.lists(st.integers(0, 2), min_size=2, max_size=2)
        data[key] = diagonal + draw(st.lists(pair, max_size=4))
    key = draw(st.sampled_from([None, *data]))
    if key is not None:
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(JSON_VALUES)
    return data


# Odd relation entries of every JSON-like shape: bools, floats, None,
# strings, tuples, nested lists, entries of 1 to 3 values, pairs out of
# range.
JSON_SCALARS = (
    st.integers(-1, 3) | st.booleans() | st.floats(allow_nan=False) | st.none() | st.text(max_size=1)
)
INDEX_PAIRS = st.lists(st.integers(0, 2), min_size=2, max_size=2)
JSON_ENTRIES = (
    st.lists(st.integers(-1, 3), min_size=2, max_size=2)
    | st.tuples(st.integers(0, 3), st.integers(0, 3))
    | st.tuples(st.integers(0, 2), JSON_SCALARS).map(list)
    | st.tuples(JSON_SCALARS, st.integers(0, 2)).map(list)
    | st.lists(JSON_SCALARS, min_size=1, max_size=3)
    | st.lists(INDEX_PAIRS, min_size=2, max_size=2)
    | JSON_SCALARS
)


@st.composite
def json_relations(draw):
    """Mostly a list of index pairs (out of range when there are fewer than
    three points) with up to two odd entries anywhere in it, so that later
    relations are reached too; at times not a list at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_SCALARS | st.tuples(INDEX_PAIRS))
    entries = draw(st.lists(INDEX_PAIRS, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), draw(JSON_ENTRIES))
    return entries


@st.composite
def frame_json_relations(draw):
    points = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    data = {"kind": draw(st.sampled_from(["int", "ms4"])), "points": points}
    for key in ("R", "Q", "E"):
        data[key] = draw(json_relations())
    return data


def relation_from_json_oracle(n: int, pairs, label: str) -> Relation:
    """The loader's relation reader before it checked entries in one loop."""
    if not isinstance(pairs, list):
        raise ValueError(f"{label} must be a list of index pairs")
    cleaned = []
    for entry in pairs:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        ):
            raise ValueError(f"{label} entries must be [i, j] index pairs")
        cleaned.append((entry[0], entry[1]))
    return Relation.from_pairs(n, cleaned)


def load_outcome(data):
    """The loaded frame, or the type and message of the error raised."""
    try:
        return frame_from_json_dict(data)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def reachable_oracle(rel: Relation, start: int) -> set[int]:
    """Graph reachability by plain BFS, for checking the closure."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in bits(rel.rows[node]):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


class TestBitHelpers:
    def test_bits_ascending(self):
        assert list(bits(0b10110)) == [1, 2, 4]
        assert list(bits(0)) == []

    def test_bits_matches_generator_on_every_row_mask(self):
        for mask in range(1 << MAX_POINTS):
            assert bits(mask) == tuple(bits_oracle(mask))
        assert bits(0b1011) is bits(0b1011)

    @given(st.sets(st.integers(0, 11)))
    def test_mask_round_trip(self, indices):
        assert set(bits(mask_of(indices))) == indices


class TestRelation:
    def test_from_pairs(self):
        rel = Relation.from_pairs(3, [(0, 1), (1, 2), (0, 1)])
        assert rel.pairs() == [(0, 1), (1, 2)]
        assert rel.has(0, 1) and not rel.has(1, 0)

    def test_from_pairs_range_check(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(0, 2)])
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(-1, 0)])

    def test_construction_checks(self):
        with pytest.raises(ValueError):
            Relation(2, (0,))
        with pytest.raises(ValueError):
            Relation(2, (0b100, 0))
        with pytest.raises(ValueError):
            Relation(2, (-1, 0))
        with pytest.raises(BoundExceeded):
            Relation(MAX_POINTS + 1, (0,) * (MAX_POINTS + 1))

    def test_identity_total(self):
        assert Relation.identity(3).pairs() == [(0, 0), (1, 1), (2, 2)]
        assert len(Relation.total(3).pairs()) == 9
        for n in range(MAX_POINTS + 1):
            assert_trusted_matches(Relation.identity(n), rows_oracle(n, int.__eq__))
            assert_trusted_matches(Relation.total(n), rows_oracle(n, lambda i, j: True))

    @pytest.mark.parametrize(
        "build", [Relation.identity, Relation.total, lambda n: Relation.from_pairs(n, [])]
    )
    def test_oversize_n_is_refused_before_allocating(self, build):
        # `identity(20000)` used to build its 20,000 rows (27.5 MB) first.
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="relation size 20000 exceeds cap"):
                build(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(BoundExceeded):
            build(-1)

    def test_trusted_results_match_checked_construction(self):
        # Every relation on at most 3 points and every quasi-order on 4, each
        # with its converse and its rows rotated as the second relation.
        every = [Relation(n, rows) for n in range(4) for rows in product(range(1 << n), repeat=n)]
        for a in [*every, *quasi_orders(4)]:
            for b in (a, converse_oracle(a), Relation(a.n, a.rows[1:] + a.rows[:1])):
                assert_trusted_results(a, b)

    @given(relation_pairs())
    def test_trusted_results_match_checked_construction_on_random_pairs(self, pair):
        assert_trusted_results(*pair)

    def test_meet_and_compose_need_one_size(self):
        for op in (Relation.meet, Relation.compose):
            with pytest.raises(ValueError, match="different sizes"):
                op(Relation.identity(2), Relation.identity(3))
            with pytest.raises(ValueError, match="different sizes"):
                op(Relation.identity(3), Relation.identity(2))

    def test_image_preimage(self):
        rel = Relation.from_pairs(3, [(0, 1), (2, 1), (1, 2)])
        assert rel.image(0b101) == 0b010
        assert rel.preimage(0b010) == 0b101
        assert rel.image(0) == 0

    @given(relations())
    def test_converse_involution(self, rel):
        assert rel.converse().converse() == rel

    @given(relations(max_n=6))
    def test_converse_is_computed_once(self, rel):
        assert rel.converse() is rel.converse()
        assert rel.converse() == converse_oracle(rel)

    def test_derived_values_match_their_derivations(self):
        # Every relation on 3 points, reflexive or not, and every quasi-order
        # on 4: each value equals the derivation it replaced and is kept on
        # the relation after the first access.
        every = [Relation(3, rows) for rows in product(range(8), repeat=3)]
        for rel in [*every, *quasi_orders(4)]:
            assert rel.successors == tuple(tuple(bits(row)) for row in rel.rows)
            assert rel.loops == mask_of(x for x in range(rel.n) if rel.has(x, x))
            assert rel.both_ways == rel.meet(rel.converse())
            assert {"_converse", "successors", "loops", "both_ways"} <= vars(rel).keys()
            assert vars(rel)["_converse"] is rel.converse()
            assert rel.successors is rel.successors
            assert rel.both_ways is rel.both_ways

    @given(relations())
    def test_preimage_is_converse_image(self, rel):
        full = (1 << rel.n) - 1
        for mask in range(full + 1):
            assert rel.preimage(mask) == rel.converse().image(mask)

    def test_compose(self):
        first = Relation.from_pairs(3, [(0, 1)])
        second = Relation.from_pairs(3, [(1, 2)])
        assert first.compose(second).pairs() == [(0, 2)]
        assert second.compose(first).pairs() == []

    def test_lattice_operations(self):
        a = Relation.from_pairs(2, [(0, 1)])
        b = Relation.from_pairs(2, [(1, 0)])
        assert union(a, b).pairs() == [(0, 1), (1, 0)]
        assert a.meet(b).pairs() == []
        assert contains(union(a, b), a)
        assert not contains(a, b)

    def test_property_checks(self):
        chain = Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
        assert is_partial_order(chain)
        assert not chain.is_symmetric()
        cluster = Relation.total(2)
        assert cluster.is_quasi_order() and not cluster.is_antisymmetric()
        assert is_equivalence(cluster)
        assert not Relation.from_pairs(2, [(0, 1)]).is_reflexive()
        assert not Relation.from_pairs(3, [(0, 1), (1, 2)]).is_transitive()
        # Each predicate is its witness search coming up empty; both agree
        # with the definition read pair by pair, on every small relation.
        for n in range(4):
            points = range(n)
            for code in range(1 << n * n):
                rel = Relation(n, tuple(code >> n * i & (1 << n) - 1 for i in points))
                has = rel.has
                checks = [
                    (rel.is_reflexive, frames._reflexive_witness, all(has(i, i) for i in points)),
                    (
                        rel.is_symmetric,
                        frames._symmetric_witness,
                        all(has(j, i) for i in points for j in points if has(i, j)),
                    ),
                    (
                        rel.is_antisymmetric,
                        frames._antisymmetric_witness,
                        not any(has(i, j) and has(j, i) for i in points for j in points if i != j),
                    ),
                    (
                        rel.is_transitive,
                        frames._transitive_witness,
                        all(
                            has(i, k)
                            for i in points
                            for j in points
                            for k in points
                            if has(i, j) and has(j, k)
                        ),
                    ),
                ]
                for predicate, witness, expected in checks:
                    assert predicate() == (witness(rel) is None) == expected
                # The row-based searches return the pair-by-pair first
                # witness.
                assert_matches_oracles(rel)

    @given(relations(max_n=6, min_n=4) | small_quasi_orders(max_n=6, min_n=4))
    def test_witnesses_match_oracles_on_larger_relations(self, rel):
        assert_matches_oracles(rel)

    @given(relations())
    def test_closure_matches_reachability(self, rel):
        closed = reflexive_transitive_closure(rel)
        assert closed.is_quasi_order()
        assert contains(closed, rel)
        for x in range(rel.n):
            assert set(bits(closed.rows[x])) == reachable_oracle(rel, x)

    @given(small_quasi_orders())
    def test_closure_fixes_quasi_orders(self, rel):
        assert reflexive_transitive_closure(rel) == rel


class TestDerivedRelations:
    @given(small_quasi_orders())
    def test_er_is_equivalence(self, rel):
        clusters = er(rel)
        assert is_equivalence(clusters)
        assert contains(rel, clusters)

    def test_er_of_partial_order_is_identity(self):
        chain = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
        assert er(chain) == Relation.identity(3)

    def test_er_of_cluster_is_total(self):
        assert er(Relation.total(4)) == Relation.total(4)

    def test_er_requires_quasi_order(self):
        with pytest.raises(ValueError):
            er(Relation.from_pairs(2, [(0, 1)]))

    def test_qe_composes(self):
        r = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
        e = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
        composite = qe(r, e)
        assert composite.has(0, 2)
        assert composite.has(0, 1)
        assert not composite.has(2, 0)

    @given(small_quasi_orders(max_n=4), st.integers(0, 14))
    def test_e_below_qe_for_reflexive_r(self, r, seed):
        partitions = [e for e in _equivalences_cache(r.n)]
        e = partitions[seed % len(partitions)]
        assert contains(qe(r, e), e)


def _equivalences_cache(n: int):
    from kripkit.enumeration import equivalences

    return equivalences(n)


class TestMasksOutsideTheFrame:
    """A mask naming a point the relation does not have is an input error,
    not an index error, a silent answer or an endless loop."""

    def test_bits_rejects_negative_masks(self):
        with pytest.raises(ValueError, match="mask -1 is negative"):
            bits(-1)

    @pytest.mark.parametrize("mask", [-1, 1 << 5, 8])
    def test_image_and_preimage(self, mask):
        rel = Relation.identity(3)
        message = re.escape(f"mask {mask} out of range for n=3")
        with pytest.raises(ValueError, match=message):
            rel.image(mask)
        with pytest.raises(ValueError, match=message):
            rel.preimage(mask)
        assert rel.image(7) == rel.preimage(7) == 7

    def test_is_upset(self):
        with pytest.raises(ValueError, match="mask 8 out of range for n=3"):
            is_upset(Relation.identity(3), 8)

    @pytest.mark.parametrize("subset", [[5], [0, 3]])
    def test_max_points(self, subset):
        with pytest.raises(ValueError, match="out of range for n=3"):
            max_points(Relation.identity(3), subset)


class TestMaxPoints:
    def test_chain(self):
        chain = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
        assert max_points(chain, [0, 1, 2]) == [2]
        assert max_points(chain, [0, 1]) == [1]
        assert max_points(chain, [0]) == [0]

    def test_proper_cluster_has_no_max(self):
        assert max_points(Relation.total(2), [0, 1]) == []

    def test_antichain(self):
        assert max_points(Relation.identity(3), [0, 2]) == [0, 2]

    def test_grz_check_pins(self):
        chain = Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
        assert grz_max_check(chain)
        assert not grz_max_check(Relation.total(2))

    def test_grz_check_requires_quasi_order(self):
        with pytest.raises(ValueError, match="^check needs a quasi-order$"):
            grz_max_check(Relation.from_pairs(2, [(0, 1)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_grz_check_is_antisymmetry(self, n):
        for rel in quasi_orders(n):
            assert grz_max_check(rel) == grz_max_check_oracle(rel) == rel.is_antisymmetric()

    @given(relations(max_n=6) | small_quasi_orders(max_n=6))
    def test_grz_check_matches_the_oracle(self, rel):
        try:
            expected = grz_max_check_oracle(rel)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                grz_max_check(rel)
        else:
            assert grz_max_check(rel) == expected


class TestFrameConstruction:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            IntFrame((), Relation(0, ()), Relation(0, ()))

    def test_rejects_duplicate_names(self):
        rel = Relation.identity(2)
        with pytest.raises(ValueError):
            IntFrame(("a", "a"), rel, rel)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            IntFrame(("a", "b"), Relation.identity(2), Relation.identity(3))
        with pytest.raises(ValueError):
            MS4Frame(("a",), Relation.identity(2), Relation.identity(2))

    def test_rejects_too_many_points(self):
        n = MAX_POINTS + 1
        names = tuple(f"p{i}" for i in range(n))
        with pytest.raises(BoundExceeded):
            MS4Frame(names, Relation.identity(n), Relation.identity(n))

    def test_index_and_n(self, three_point_frame):
        assert three_point_frame.n == 3
        assert three_point_frame.index("c") == 2

    def test_e_q(self, three_point_frame, two_point_frame):
        eq = three_point_frame.e_q()
        assert is_equivalence(eq)
        assert set(bits(eq.rows[0])) == {0, 1}
        assert set(bits(eq.rows[2])) == {2}
        assert two_point_frame.e_q() == Relation.total(2)

    def test_e_q_is_computed_once(self, three_point_frame):
        for frame in [three_point_frame, *enumerate_frames(EnumerationConfig("int", 4))]:
            assert frame.e_q() is frame.e_q()
            assert frame.e_q() == frame.q.meet(converse_oracle(frame.q))

    def test_kinds_share_one_shape(self, three_point_frame, cluster_frame):
        assert (three_point_frame.kind, three_point_frame.second) == ("int", "q")
        assert (cluster_frame.kind, cluster_frame.second) == ("ms4", "e")
        assert three_point_frame.q is three_point_frame.s
        assert cluster_frame.e is cluster_frame.s
        # Equal fields, different kinds: not the same frame.
        rel = Relation.identity(1)
        assert IntFrame(("a",), rel, rel) != MS4Frame(("a",), rel, rel)

    def test_validate_frame_calls_the_kind_validator_by_name(
        self, monkeypatch, three_point_frame, cluster_frame
    ):
        # The dispatch looks the validators up in the module at call time, so
        # a patched module binding (as the benchmark tracer installs) sees
        # every call.
        calls = []
        for name in ("validate_int_frame", "validate_ms4_frame"):
            original = getattr(frames, name)
            monkeypatch.setattr(
                frames, name, lambda f, n=name, o=original: calls.append(n) or o(f)
            )
        assert validate_frame(three_point_frame).ok
        assert validate_frame(cluster_frame).ok
        assert calls == ["validate_int_frame", "validate_ms4_frame"]


class TestIntFrameValidation:
    def test_fixture_is_valid(self, three_point_frame, two_point_frame):
        assert validate_int_frame(three_point_frame).ok
        assert validate_int_frame(two_point_frame).ok

    @pytest.mark.parametrize(
        "r_pairs,q_pairs,condition",
        [
            ([(1, 1)], [(0, 0), (1, 1)], "r-reflexive"),
            ([(0, 0), (1, 1), (0, 1), (1, 0)], [(0, 0), (1, 1), (0, 1), (1, 0)], "r-antisymmetric"),
            ([(0, 0), (1, 1)], [(0, 0)], "q-reflexive"),
            ([(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1)], "r-subset-q"),
        ],
    )
    def test_basic_violations(self, r_pairs, q_pairs, condition):
        frame = IntFrame(
            ("a", "b"), Relation.from_pairs(2, r_pairs), Relation.from_pairs(2, q_pairs)
        )
        report = validate_int_frame(frame)
        assert not report.ok
        assert condition in {v.condition for v in report.violations}

    def test_transitivity_violations(self):
        r = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        frame = IntFrame(("a", "b", "c"), r, Relation.total(3))
        conditions = {v.condition for v in validate_int_frame(frame).violations}
        assert "r-transitive" in conditions

    def test_q_witness_violation(self):
        # q adds a step with no r-then-cluster decomposition: r is discrete
        # but q is a strict chain, so its only candidate witness is missing.
        frame = IntFrame(
            ("a", "b"),
            Relation.identity(2),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
        )
        report = validate_int_frame(frame)
        assert [v.condition for v in report.violations] == ["q-witness"]
        assert report.violations[0].witness == (0, 1)

    def test_composite_check_gated_on_basics(self):
        # Broken basics: the composite q-witness condition is not evaluated.
        frame = IntFrame(
            ("a", "b"),
            Relation.from_pairs(2, [(0, 0)]),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
        )
        conditions = {v.condition for v in validate_int_frame(frame).violations}
        assert "q-witness" not in conditions
        assert "r-reflexive" in conditions

    def test_report_api(self):
        frame = IntFrame(
            ("a", "b"),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)]),
            Relation.total(2),
        )
        report = validate_int_frame(frame)
        with pytest.raises(InvalidFrameError) as exc:
            report.require_ok()
        assert exc.value.report is report
        payload = report.to_json_dict()
        assert payload["ok"] is False
        assert payload["violations"][0]["condition"] == "r-antisymmetric"
        assert payload["violations"][0]["witness"] == [0, 1]


class TestMS4FrameValidation:
    def test_valid_examples(self, cluster_frame):
        assert validate_ms4_frame(cluster_frame).ok

    @pytest.mark.parametrize(
        "r_pairs,e_pairs,condition",
        [
            ([(1, 1)], [(0, 0), (1, 1)], "r-reflexive"),
            ([(0, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)], "e-symmetric"),
            ([(0, 0), (1, 1)], [(0, 0)], "e-reflexive"),
        ],
    )
    def test_basic_violations(self, r_pairs, e_pairs, condition):
        frame = MS4Frame(
            ("a", "b"), Relation.from_pairs(2, r_pairs), Relation.from_pairs(2, e_pairs)
        )
        report = validate_ms4_frame(frame)
        assert condition in {v.condition for v in report.violations}

    def test_e_transitivity_violation(self):
        e = Relation.from_pairs(
            3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
        )
        frame = MS4Frame(("a", "b", "c"), Relation.identity(3), e)
        conditions = {v.condition for v in validate_ms4_frame(frame).violations}
        assert "e-transitive" in conditions

    def test_commute_violation_needs_three_points(self):
        # Exhaustive fact: no 2-point frame passes the basic conditions and
        # fails commutativity, so the smallest witness has three points.
        for r in quasi_orders(2):
            for e_rows in [(0b01, 0b10), (0b11, 0b11)]:
                frame = MS4Frame(("a", "b"), r, Relation(2, e_rows))
                conditions = [v.condition for v in validate_ms4_frame(frame).violations]
                assert "commute" not in conditions

        frame = MS4Frame(
            ("a", "b", "c"),
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (1, 2)]),
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)]),
        )
        report = validate_ms4_frame(frame)
        assert [v.condition for v in report.violations] == ["commute"]
        assert report.violations[0].witness == (0, 1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commute_check_matches_set_oracle(self, n):
        # Over every labeled quasi-order and equivalence: the frames commute
        # iff e;r lies inside r;e as sets of pairs, and the validator's
        # witness is the first (x, y, z) with x e y, y r z and no r-then-e
        # step from x to z.
        names = tuple(f"x{i}" for i in range(n))
        for r in quasi_orders(n):
            r_pairs = set(r.pairs())
            for e in equivalences(n):
                e_pairs = set(e.pairs())
                r_then_e = {(x, z) for x, y in r_pairs for w, z in e_pairs if w == y}
                failures = sorted(
                    (x, y, z)
                    for x, y in e_pairs
                    for w, z in r_pairs
                    if w == y and (x, z) not in r_then_e
                )
                assert commuting(r, e) == (not failures)
                violations = validate_ms4_frame(MS4Frame(names, r, e)).violations
                assert [(v.condition, v.witness) for v in violations] == [
                    ("commute", w) for w in failures[:1]
                ]


class TestFrameClassifiers:
    def test_clean_clusters(self, three_point_frame, two_point_frame, cluster_frame):
        assert not has_clean_clusters(three_point_frame)
        assert not has_clean_clusters(two_point_frame)
        discrete = IntFrame(("a", "b"), Relation.identity(2), Relation.total(2))
        assert has_clean_clusters(discrete)
        with pytest.raises(ValueError, match="expected an intuitionistic frame"):
            has_clean_clusters(cluster_frame)

    def test_finite_mgrz(self, cluster_frame):
        assert not is_finite_mgrz(cluster_frame)
        poset = MS4Frame(
            ("a", "b"),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
            Relation.identity(2),
        )
        assert is_finite_mgrz(poset)


class TestFrameJson:
    def test_round_trip_int(self, three_point_frame):
        data = frame_to_json_dict(three_point_frame)
        assert data["kind"] == "int"
        assert data["points"] == ["a", "b", "c"]
        assert frame_from_json_dict(data) == three_point_frame

    def test_round_trip_ms4(self, cluster_frame):
        data = frame_to_json_dict(cluster_frame)
        assert data["kind"] == "ms4"
        assert sorted(map(tuple, data["E"])) == [(0, 0), (1, 1)]
        assert frame_from_json_dict(data) == cluster_frame

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {"kind": "s5", "points": ["a"], "R": [], "E": []},
            {"kind": "int", "points": [], "R": [], "Q": []},
            {"kind": "int", "points": ["a", 2], "R": [], "Q": []},
            {"kind": "int", "points": ["a"], "R": []},
            {"kind": "ms4", "points": ["a"], "R": [[0, 0]], "E": [[0]]},
            {"kind": "ms4", "points": ["a"], "R": [[0, 0]], "E": [[True, False]]},
            {"kind": "ms4", "points": ["a"], "R": [[0, 0]], "E": [[0, True]]},
            {"kind": "ms4", "points": ["a"], "R": [[0, 0.0]], "E": [[0, 0]]},
            {"kind": "ms4", "points": ["a"], "R": [[0, 1]], "E": [[0, 0]]},
            {"kind": "int", "points": ["a"], "R": 7, "Q": []},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            frame_from_json_dict(data)

    @given(frame_shaped() | JSON_VALUES)
    def test_loader_returns_a_frame_or_raises_value_error(self, data):
        try:
            frame = frame_from_json_dict(data)
        except ValueError:
            return
        assert isinstance(frame, (IntFrame, MS4Frame))
        assert frame_from_json_dict(frame_to_json_dict(frame)) == frame

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, True]],
            [[False, 1]],
            [[0, 1.0]],
            [[0, 5], [0]],
            [[-1, 0], [0, 0, 0]],
            [(0,), [0, 0]],
            [[[0], 0]],
            [[1, 1], None],
        ],
    )
    def test_shape_errors_come_before_range_errors(self, entries):
        data = {"kind": "ms4", "points": ["a", "b"], "R": [[0, 0], [1, 1]], "E": entries}
        with pytest.raises(ValueError, match=re.escape("E entries must be [i, j] index pairs")):
            frame_from_json_dict(data)

    @pytest.mark.parametrize(
        "r_pairs,e_pairs,message",
        [
            # An out-of-range pair before a malformed entry: the shape error.
            ([[0, 0]], [[0, 5], [0]], "E entries must be [i, j] index pairs"),
            ([[2, 0], [0, True]], [[0, 0]], "R entries must be [i, j] index pairs"),
            # Several out-of-range pairs: the first is named.
            ([[0, 0]], [[0, 5], [7, 0]], "pair (0, 5) out of range for n=2"),
            ([[1, 1], [-1, 0], [0, 2]], [[0, 0]], "pair (-1, 0) out of range for n=2"),
            # R is read whole before E.
            ([[0, 2]], [[0]], "pair (0, 2) out of range for n=2"),
        ],
    )
    def test_loader_error_order(self, r_pairs, e_pairs, message):
        data = {"kind": "ms4", "points": ["a", "b"], "R": r_pairs, "E": e_pairs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            frame_from_json_dict(data)

    @settings(max_examples=500)
    @given(frame_json_relations() | frame_shaped())
    def test_loader_matches_the_oracle_loader(self, data):
        # Same frame, or the same exception type and message: shape errors
        # still come before range errors, and witnesses are unchanged.
        outcome = load_outcome(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frames, "_relation_from_json", relation_from_json_oracle)
            assert outcome == load_outcome(data)

    def test_validation_on_load(self):
        data = {
            "kind": "int",
            "points": ["a", "b"],
            "R": [[0, 0], [1, 1], [0, 1], [1, 0]],
            "Q": [[0, 0], [1, 1], [0, 1], [1, 0]],
        }
        with pytest.raises(InvalidFrameError):
            frame_from_json_dict(data)
        frame = frame_from_json_dict(data, validate=False)
        assert isinstance(frame, IntFrame)
