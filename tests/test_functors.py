"""Quotient and expansion constructions, and frame isomorphism search."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kripkit.enumeration import EnumerationConfig, canonical_form, enumerate_frames
from kripkit.frames import (
    BoundExceeded,
    IntFrame,
    MS4Frame,
    Relation,
    frame_from_json_dict,
    frame_to_json_dict,
    validate_int_frame,
    validate_ms4_frame,
)
from kripkit.functors import find_isomorphism, sigma, skeleton, skeleton_map
from kripkit.morphisms import FrameMap, is_mipc_morphism, is_ms4_morphism
from kripkit.workbench import run_all


def relabel(frame, perm):
    """Move point i to position perm[i], producing an isomorphic frame."""
    n = frame.n
    names = [""] * n
    for i, name in enumerate(frame.points):
        names[perm[i]] = name

    def move(rel):
        rows = [0] * n
        for i, j in rel.pairs():
            rows[perm[i]] |= 1 << perm[j]
        return Relation(n, tuple(rows))

    if isinstance(frame, IntFrame):
        return IntFrame(tuple(names), move(frame.r), move(frame.q))
    return MS4Frame(tuple(names), move(frame.r), move(frame.e))


def shuffled(frame, seed):
    """`frame` relabeled by a permutation drawn from `seed`."""
    return relabel(frame, random.Random(seed).sample(range(frame.n), frame.n))


def isomorphism_oracle(a, b):
    """The first permutation, in lexicographic order, whose pair images
    are exactly the other frame's pairs for both relations."""
    if a.n != b.n:
        return None
    wanted = [(rel.pairs(), set(other.pairs())) for rel, other in ((a.r, b.r), (a.s, b.s))]
    for perm in permutations(range(a.n)):
        if all({(perm[i], perm[j]) for i, j in pairs} == target for pairs, target in wanted):
            return perm
    return None


@st.composite
def raw_frames(draw, kind, n=None):
    """A frame of `kind` with at most 4 points (`n` if given) and arbitrary
    relations: not checked against the frame conditions."""
    n = n or draw(st.integers(1, 4))
    rows = st.tuples(*(st.integers(0, (1 << n) - 1),) * n)
    r, s = (Relation(n, draw(rows)) for _ in range(2))
    frame_type = IntFrame if kind == "int" else MS4Frame
    return frame_type(tuple(f"p{i}" for i in range(n)), r, s)


@st.composite
def raw_frame_pairs(draw):
    """A raw frame, its relabeling, and another raw frame of its kind and size."""
    kind = draw(st.sampled_from(["int", "ms4"]))
    a = draw(raw_frames(kind))
    perm = draw(st.permutations(range(a.n)))
    return a, relabel(a, perm), draw(raw_frames(kind, a.n))


@pytest.fixture
def cluster_below_point() -> MS4Frame:
    """r-cluster {a, b} strictly below c; e merges exactly the cluster."""
    r = Relation.from_pairs(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (1, 2)]
    )
    e = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    return MS4Frame(("a", "b", "c"), r, e)


class TestSkeleton:
    def test_cluster_collapses(self, cluster_frame):
        quotient, projection = skeleton(cluster_frame)
        assert quotient.points == ("x+y",)
        assert quotient.r == Relation.identity(1)
        assert quotient.q == Relation.identity(1)
        assert projection.class_index == (0, 0)
        assert projection.classes == ((0, 1),)

    def test_cluster_below_point(self, cluster_below_point):
        quotient, projection = skeleton(cluster_below_point)
        assert quotient.points == ("a+b", "c")
        assert quotient.r.pairs() == [(0, 0), (0, 1), (1, 1)]
        assert quotient.q.pairs() == [(0, 0), (0, 1), (1, 1)]
        assert projection.class_index == (0, 0, 1)
        assert validate_int_frame(quotient).ok

    def test_raw_frame_quotient_reads_representatives(self):
        # e does not commute with r: a reaches c by r then e, but not b, the
        # least member of c's cluster, so the class of a does not q-see it.
        frame = MS4Frame(
            ("a", "b", "c"),
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]),
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]),
        )
        quotient, _ = skeleton(frame)
        assert quotient.points == ("a", "b+c")
        assert quotient.q.pairs() == [(0, 0), (1, 0), (1, 1)]

    def test_clashing_class_names_get_primes(self):
        # The cluster {a, b} is named a+b, which the point a+b already is.
        r = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        frame = MS4Frame(("a", "b", "a+b"), r, Relation.identity(3))
        quotient, _ = skeleton(frame)
        assert quotient.points == ("a+b", "a+b'")
        assert validate_int_frame(quotient).ok

    def test_quotient_always_valid(self):
        for frame in enumerate_frames(EnumerationConfig("ms4", 3)):
            quotient, _ = skeleton(frame)
            assert validate_int_frame(quotient).ok

    def test_projection_json(self, cluster_frame):
        _, projection = skeleton(cluster_frame)
        assert projection.to_json_dict() == {"classes": [["x", "y"]]}

    def test_refuses_an_int_frame(self, three_point_frame):
        with pytest.raises(ValueError, match="^skeleton expects an ms4 frame$"):
            skeleton(three_point_frame)
        # Hashed like the remembered expansion, but of the other kind.
        expansion = sigma(three_point_frame)
        skeleton(expansion)
        with pytest.raises(ValueError, match="^skeleton expects an ms4 frame$"):
            skeleton(IntFrame(expansion.points, expansion.r, expansion.s))


class TestSigma:
    def test_pins(self, two_point_frame):
        expansion = sigma(two_point_frame)
        assert expansion.points == two_point_frame.points
        assert expansion.r == two_point_frame.r
        assert expansion.e == Relation.total(2)

    def test_expansion_always_valid(self):
        for frame in enumerate_frames(EnumerationConfig("int", 3)):
            assert validate_ms4_frame(sigma(frame)).ok

    def test_refuses_an_ms4_frame(self, cluster_frame):
        with pytest.raises(ValueError, match="^sigma expects an int frame$"):
            sigma(cluster_frame)


class TestRoundTrips:
    def test_quotient_of_expansion_is_identity(self):
        for frame in enumerate_frames(EnumerationConfig("int", 3)):
            quotient, projection = skeleton(sigma(frame))
            assert quotient == frame
            assert all(len(members) == 1 for members in projection.classes)

    def test_expansion_of_quotient_on_antisymmetric(self):
        for frame in enumerate_frames(EnumerationConfig("ms4", 3, frozenset(["mgrz"]))):
            quotient, _ = skeleton(frame)
            assert sigma(quotient) == frame

    def test_expansion_of_quotient_fails_with_clusters(self, cluster_frame):
        quotient, _ = skeleton(cluster_frame)
        assert sigma(quotient).n == 1
        assert sigma(quotient) != cluster_frame


class TestMemo:
    def test_memo_matches_the_construction(self):
        # Every frame of at most 4 points, and an equal copy built apart:
        # the remembered result equals a fresh build for either, and a
        # repeated call returns the very same objects.
        for kind, construct in (("ms4", skeleton), ("int", sigma)):
            for frame in enumerate_frames(EnumerationConfig(kind, 4)):
                copy = frame_from_json_dict(frame_to_json_dict(frame))
                assert copy == frame and copy is not frame
                result = construct(frame)
                assert result == construct.__wrapped__(frame)
                assert result == construct.__wrapped__(copy)
                assert construct(copy) is result
                assert construct(frame) is result

    def test_experiments_derive_each_equal_frame_once(self):
        skeleton.cache_clear()
        sigma.cache_clear()
        assert all(report.passed for report in run_all())
        # (misses, hits): 59% of skeleton calls and 62% of sigma calls get
        # a frame equal to one passed earlier in the run.
        for construct, traffic in ((skeleton, (252, 368)), (sigma, (137, 225))):
            info = construct.cache_info()
            assert (info.misses, info.hits) == traffic


class TestSkeletonMap:
    def test_collapse_to_point(self, cluster_frame):
        point = MS4Frame(("o",), Relation.identity(1), Relation.identity(1))
        f = FrameMap(cluster_frame, point, (0, 0))
        assert is_ms4_morphism(f)
        lowered = skeleton_map(f)
        assert lowered.image == (0,)
        assert lowered.source.points == ("x+y",)
        assert is_mipc_morphism(lowered)

    def test_rejects_int_map(self, two_point_frame):
        f = FrameMap(two_point_frame, two_point_frame, (0, 1))
        with pytest.raises(ValueError):
            skeleton_map(f)

    def test_rejects_non_morphism(self):
        chain = MS4Frame(
            ("u", "v"),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
            Relation.identity(2),
        )
        g = FrameMap(chain, chain, (0, 0))
        assert not is_ms4_morphism(g)
        with pytest.raises(ValueError):
            skeleton_map(g)

    def test_quotient_of_morphism_is_morphism(self):
        frames = enumerate_frames(EnumerationConfig("ms4", 2))
        checked = 0
        for source in frames:
            for target in frames:
                for image in product(range(target.n), repeat=source.n):
                    f = FrameMap(source, target, image)
                    if not is_ms4_morphism(f):
                        continue
                    checked += 1
                    assert is_mipc_morphism(skeleton_map(f))
        assert checked > 20


class TestFindIsomorphism:
    def test_identity(self, three_point_frame):
        assert find_isomorphism(three_point_frame, three_point_frame) == (0, 1, 2)

    def test_relabeled_frames(self, three_point_frame):
        for perm in permutations(range(3)):
            other = relabel(three_point_frame, perm)
            found = find_isomorphism(three_point_frame, other)
            assert found is not None
            for x in range(3):
                for y in range(3):
                    assert three_point_frame.r.has(x, y) == other.r.has(
                        found[x], found[y]
                    )
                    assert three_point_frame.q.has(x, y) == other.q.has(
                        found[x], found[y]
                    )

    def test_distinguishes_structure(self):
        chain = IntFrame(
            ("a", "b"),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
            Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
        )
        antichain = IntFrame(("a", "b"), Relation.identity(2), Relation.identity(2))
        assert find_isomorphism(chain, antichain) is None

    def test_second_relation_matters(self):
        plain = MS4Frame(("a", "b"), Relation.identity(2), Relation.identity(2))
        merged = MS4Frame(("a", "b"), Relation.identity(2), Relation.total(2))
        assert find_isomorphism(plain, merged) is None

    def test_size_mismatch(self, two_point_frame, three_point_frame):
        assert find_isomorphism(two_point_frame, three_point_frame) is None

    def test_kind_mismatch(self, two_point_frame, cluster_frame):
        with pytest.raises(ValueError):
            find_isomorphism(two_point_frame, cluster_frame)

    def test_kind_is_checked_before_size(self, three_point_frame, cluster_frame):
        with pytest.raises(ValueError, match="^frames must be of the same kind$"):
            find_isomorphism(three_point_frame, cluster_frame)

    def test_raw_int_frame_needs_no_converse_condition(self):
        # R;Q = Q fails here, so the int search's converse condition refuses
        # the identity; an isomorphism need not meet it.
        frame = IntFrame(("a", "b"), Relation.from_pairs(2, [(0, 1)]), Relation.identity(2))
        assert find_isomorphism(frame, frame) == (0, 1)

    def test_seven_points_exceed_the_search_cap(self):
        n = 7
        frame = MS4Frame(tuple(f"x{i}" for i in range(n)), Relation.total(n), Relation.total(n))
        with pytest.raises(BoundExceeded):
            find_isomorphism(frame, frame)

    @pytest.mark.parametrize("kind", ["int", "ms4"])
    def test_class_frames_match_the_oracle(self, kind):
        classes = enumerate_frames(EnumerationConfig(kind, 3))
        frames = classes + [shuffled(f, f"{kind}-{i}") for i, f in enumerate(classes)]
        for a in frames:
            for b in frames:
                assert find_isomorphism(a, b) == isomorphism_oracle(a, b)

    @given(raw_frame_pairs())
    def test_raw_frames_match_the_oracle(self, frames):
        a, relabeled, other = frames
        for b in (relabeled, other):
            assert find_isomorphism(a, b) == isomorphism_oracle(a, b)

    @pytest.mark.parametrize("kind", ["int", "ms4"])
    def test_none_exactly_when_canonical_forms_differ(self, kind):
        by_size: dict[int, list] = {}
        for i, frame in enumerate(enumerate_frames(EnumerationConfig(kind, 4))):
            key = canonical_form(frame)
            by_size.setdefault(frame.n, []).append((frame, key, shuffled(frame, f"{kind}-{i}")))
        for group in by_size.values():
            for a, key_a, _ in group:
                for _, key_b, b in group:
                    assert (find_isomorphism(a, b) is None) == (key_a != key_b)

    def test_enumerated_frames_pairwise_distinct(self):
        frames = enumerate_frames(EnumerationConfig("int", 3))
        by_size: dict[int, list] = {}
        for frame in frames:
            by_size.setdefault(frame.n, []).append(frame)
        for group in by_size.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert find_isomorphism(a, b) is None
