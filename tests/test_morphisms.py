"""Tests for frame maps, morphism predicates, and reduction lifting.

The morphism conditions are re-derived here with plain set arithmetic so the
bitmask implementations have an independent oracle to answer to.
"""

import copy
import dataclasses
import pickle
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkit import morphisms
from kripkit.enumeration import EnumerationConfig, enumerate_frames
from kripkit.frames import (
    BoundExceeded,
    IntFrame,
    MS4Frame,
    Relation,
    has_clean_clusters,
)
from kripkit.functors import sigma, skeleton, skeleton_map
from kripkit.morphisms import (
    FrameMap,
    _may_reduce,
    _reduction_shape,
    condition4_eform,
    enumerate_morphisms,
    enumerate_reductions,
    is_mipc_morphism,
    is_ms4_morphism,
    is_p_morphism,
    is_reduction,
    lift_reduction,
)


def int_frames(bound: int) -> list[IntFrame]:
    return enumerate_frames(EnumerationConfig(kind="int", max_points=bound))


def ms4_frames(bound: int) -> list[MS4Frame]:
    return enumerate_frames(EnumerationConfig(kind="ms4", max_points=bound))


def all_maps(source, target):
    for image in product(range(target.n), repeat=source.n):
        yield FrameMap(source, target, image)


def identity_map(frame) -> FrameMap:
    return FrameMap(frame, frame, tuple(range(frame.n)))


# Set-based oracles, kept deliberately free of Relation's mask operations.


def p_morphism_oracle(f: FrameMap, which: str) -> bool:
    src = getattr(f.source, which)
    tgt = getattr(f.target, which)
    for x in range(f.source.n):
        forward = {f(y) for y in range(f.source.n) if src.has(x, y)}
        expected = {z for z in range(f.target.n) if tgt.has(f(x), z)}
        if forward != expected:
            return False
    return True


def converse_oracle(f: FrameMap) -> bool:
    """Coarse predecessors of the image equal order predecessors of the image
    of the coarse predecessors."""
    src, tgt = f.source, f.target
    for x in range(src.n):
        lhs = {w for w in range(tgt.n) if tgt.q.has(w, f(x))}
        mid = {f(y) for y in range(src.n) if src.q.has(y, x)}
        rhs = {w for w in range(tgt.n) if any(tgt.r.has(w, m) for m in mid)}
        if lhs != rhs:
            return False
    return True


def int_morphism_oracle(f: FrameMap) -> bool:
    return (
        p_morphism_oracle(f, "r")
        and p_morphism_oracle(f, "q")
        and converse_oracle(f)
    )


# The mask forms of the morphism checks, as they read before they looped
# over rows: per point, the map's image of a successor or predecessor mask.


def p_morphism_mask_oracle(f: FrameMap, which: str) -> bool:
    rel_source = getattr(f.source, which)
    rel_target = getattr(f.target, which)
    return all(
        rel_target.rows[f.image[x]] == f.apply_mask(rel_source.rows[x])
        for x in range(f.source.n)
    )


def condition4_mask_oracle(f: FrameMap) -> bool:
    q1, q2, r2 = f.source.q, f.target.q, f.target.r
    return all(
        q2.preimage(1 << f.image[x]) == r2.preimage(f.apply_mask(q1.preimage(1 << x)))
        for x in range(f.source.n)
    )


def image_range_error_oracle(image, m: int) -> str | None:
    """The message FrameMap's range check gives, from a scan of the image."""
    for value in image:
        if not 0 <= value < m:
            return f"image index {value} out of range"
    return None


def chain_frame(n: int) -> IntFrame:
    r = Relation.from_pairs(n, [(i, j) for i in range(n) for j in range(i, n)])
    return IntFrame(tuple(f"x{i}" for i in range(n)), r, r)


def test_map_application_and_description(witness_map):
    assert [witness_map(i) for i in range(3)] == [0, 1, 1]
    assert witness_map.describe() == "{a -> u, b -> v, c -> v}"


def test_apply_mask(witness_map):
    assert witness_map.apply_mask(0b000) == 0b00
    assert witness_map.apply_mask(0b001) == 0b01
    assert witness_map.apply_mask(0b110) == 0b10
    assert witness_map.apply_mask(0b111) == 0b11


def test_is_onto(three_point_frame, two_point_frame):
    assert FrameMap(three_point_frame, two_point_frame, (0, 1, 1)).is_onto()
    assert not FrameMap(three_point_frame, two_point_frame, (1, 1, 1)).is_onto()


@given(st.lists(st.integers(-3, 4), min_size=3, max_size=3))
def test_map_range_check_names_the_first_bad_value(image):
    source, target = chain_frame(3), chain_frame(2)
    expected = image_range_error_oracle(image, target.n)
    if expected is None:
        assert FrameMap(source, target, tuple(image)).image == tuple(image)
    else:
        with pytest.raises(ValueError, match=re.escape(expected)):
            FrameMap(source, target, tuple(image))


@pytest.mark.parametrize("mask", [-1, 0b1000, 1 << 5])
def test_apply_mask_rejects_masks_outside_the_source(witness_map, mask):
    with pytest.raises(ValueError, match=re.escape(f"mask {mask} out of range for n=3")):
        witness_map.apply_mask(mask)


def test_map_construction_rejects_bad_input(three_point_frame, two_point_frame, cluster_frame):
    with pytest.raises(ValueError, match="same kind"):
        FrameMap(three_point_frame, cluster_frame, (0, 0, 0))
    with pytest.raises(ValueError, match="cover every source point"):
        FrameMap(three_point_frame, two_point_frame, (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        FrameMap(three_point_frame, two_point_frame, (0, 1, 2))
    for image in ((0, 1.0, 1), (0, True, 1), (False, 1, 1), (0, "1", 1), (0, None, 1)):
        with pytest.raises(ValueError, match="image entries must be int point indices"):
            FrameMap(three_point_frame, two_point_frame, image)
    # The checks keep their order: kind, then cover, then each entry.
    with pytest.raises(ValueError, match="same kind"):
        FrameMap(three_point_frame, cluster_frame, (0, 1.0))
    with pytest.raises(ValueError, match="cover every source point"):
        FrameMap(three_point_frame, two_point_frame, (0, 1.0))
    with pytest.raises(ValueError, match="image index 2 out of range"):
        FrameMap(three_point_frame, two_point_frame, (0, 2, 1.0))


def test_list_image_is_stored_as_a_tuple(three_point_frame, two_point_frame):
    from_list = FrameMap(three_point_frame, two_point_frame, [0, 1, 1])
    from_tuple = FrameMap(three_point_frame, two_point_frame, (0, 1, 1))
    assert from_list.image == (0, 1, 1)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


def test_frame_map_is_slotted_and_frozen(witness_map):
    assert not hasattr(witness_map, "__dict__")
    for field in dataclasses.fields(FrameMap):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(witness_map, field.name, getattr(witness_map, field.name))
    clones = (
        copy.copy(witness_map),
        copy.deepcopy(witness_map),
        pickle.loads(pickle.dumps(witness_map)),
        dataclasses.replace(witness_map),
    )
    for clone in clones:
        assert clone == witness_map and hash(clone) == hash(witness_map)
    with pytest.raises(ValueError, match="out of range"):
        dataclasses.replace(witness_map, image=(0, 1, 2))


@pytest.mark.parametrize("kind", ["int", "ms4"])
def test_found_maps_equal_checked_construction(kind):
    # The search's maps skip the constructor; each must still be the map
    # the constructor builds from the same endpoints and image.
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    found = 0
    for source in frames:
        for target in frames:
            for search in (enumerate_morphisms, enumerate_reductions):
                for f in search(source, target):
                    built = FrameMap(source, target, f.image)
                    assert type(f) is FrameMap and type(f.image) is tuple
                    assert f == built and hash(f) == hash(built) and repr(f) == repr(built)
                    assert f.source is source and f.target is target
                    found += 1
    assert found > 500


def test_kind_mismatch_raises_before_wrapping(monkeypatch, three_point_frame, cluster_frame):
    wrapped = []
    monkeypatch.setattr(morphisms, "_wrap", lambda *args: wrapped.append(args))
    for search in (enumerate_morphisms, enumerate_reductions):
        for source, target in ((three_point_frame, cluster_frame), (cluster_frame, three_point_frame)):
            with pytest.raises(ValueError, match="same kind"):
                search(source, target)
    assert wrapped == []


def test_p_morphism_matches_set_oracle():
    frames = int_frames(2)
    for source in frames:
        for target in frames:
            for f in all_maps(source, target):
                for which in ("r", "q"):
                    assert is_p_morphism(f, which) == p_morphism_oracle(f, which)
    modal = ms4_frames(2)
    for source in modal:
        for target in modal:
            for f in all_maps(source, target):
                for which in ("r", "e"):
                    assert is_p_morphism(f, which) == p_morphism_oracle(f, which)


@pytest.mark.parametrize("kind", ["int", "ms4"])
def test_morphism_checks_match_mask_oracles(kind):
    # Every map between frames of at most 3 points.
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    second = "q" if kind == "int" else "e"
    for source in frames:
        for target in frames:
            for f in all_maps(source, target):
                for which in ("r", second):
                    assert is_p_morphism(f, which) == p_morphism_mask_oracle(f, which)
                if kind == "int":
                    assert morphisms._condition4(f) == condition4_mask_oracle(f)


def test_identity_maps_are_morphisms_and_reductions():
    for frame in int_frames(3):
        ident = identity_map(frame)
        assert is_mipc_morphism(ident)
        assert is_reduction(ident)
    for frame in ms4_frames(3):
        ident = identity_map(frame)
        assert is_ms4_morphism(ident)
        assert is_reduction(ident)


def test_witness_map_is_an_int_reduction(witness_map):
    assert is_mipc_morphism(witness_map)
    assert is_reduction(witness_map)
    assert int_morphism_oracle(witness_map)


def test_collapse_to_top_fails_on_the_coarse_relation(three_point_frame, two_point_frame):
    # The constant map onto the top point keeps the order condition but
    # breaks back-and-forth for q: the target cluster reaches u, the image
    # of the source cluster does not.
    collapse = FrameMap(three_point_frame, two_point_frame, (1, 1, 1))
    assert is_p_morphism(collapse, "r")
    assert not is_p_morphism(collapse, "q")
    assert not is_mipc_morphism(collapse)


def test_expansion_of_witness_map_is_not_modal(witness_map):
    source = sigma(witness_map.source)
    target = sigma(witness_map.target)
    expanded = FrameMap(source, target, witness_map.image)
    assert is_p_morphism(expanded, "r")
    assert not is_p_morphism(expanded, "e")
    assert not is_ms4_morphism(expanded)


def test_morphism_predicates_demand_matching_kind(witness_map, cluster_frame):
    modal_ident = identity_map(cluster_frame)
    with pytest.raises(ValueError, match="intuitionistic"):
        is_mipc_morphism(modal_ident)
    with pytest.raises(ValueError, match="modal"):
        is_ms4_morphism(witness_map)
    with pytest.raises(ValueError, match="intuitionistic"):
        condition4_eform(modal_ident)


def test_condition4_eform_holds_for_identities():
    for frame in int_frames(3):
        assert condition4_eform(identity_map(frame))


def test_condition4_eform_on_named_maps(witness_map, three_point_frame, two_point_frame):
    assert condition4_eform(witness_map)
    collapse = FrameMap(three_point_frame, two_point_frame, (1, 1, 1))
    # Both formulations agree on this map even though it is not a full
    # frame morphism.
    assert condition4_eform(collapse)
    assert converse_oracle(collapse)


def test_condition4_eform_matches_converse_condition_on_order_morphisms():
    frames = int_frames(3)
    checked = 0
    for source in frames:
        for target in frames:
            for f in all_maps(source, target):
                if is_p_morphism(f, "r"):
                    checked += 1
                    assert condition4_eform(f) == converse_oracle(f)
    assert checked > 2000


def test_condition4_eform_can_differ_without_the_order_condition():
    # Source: reflexive 2-chain with the top point below in both relations.
    # Target: discrete 2-point frame.  The inclusion-of-indices map is not a
    # p-morphism for r, and there the cluster form and the predecessor form
    # part ways.
    chain = Relation.from_pairs(2, [(0, 0), (1, 1), (1, 0)])
    source = IntFrame(("x0", "x1"), chain, chain)
    discrete = Relation.identity(2)
    target = IntFrame(("x0", "x1"), discrete, discrete)
    f = FrameMap(source, target, (0, 1))
    assert not is_p_morphism(f, "r")
    assert condition4_eform(f)
    assert not converse_oracle(f)


def test_enumerate_reductions_matches_brute_force(three_point_frame, two_point_frame):
    found = enumerate_reductions(three_point_frame, two_point_frame)
    assert [f.image for f in found] == [(0, 1, 1)]
    expected = [
        f
        for f in all_maps(three_point_frame, two_point_frame)
        if f.is_onto() and int_morphism_oracle(f)
    ]
    assert found == expected


def morphism_oracle(f: FrameMap) -> bool:
    if isinstance(f.source, IntFrame):
        return int_morphism_oracle(f)
    return p_morphism_oracle(f, "r") and p_morphism_oracle(f, "e")


def disjoint_union(a, b):
    points = tuple(f"a{i}" for i in range(a.n)) + tuple(f"b{i}" for i in range(b.n))
    relations = (
        Relation(a.n + b.n, rel_a.rows + tuple(row << a.n for row in rel_b.rows))
        for rel_a, rel_b in zip((a.r, a.s), (b.r, b.s))
    )
    return type(a)(points, *relations)


def assert_search_matches_oracle(source, target) -> None:
    """The pruned searches return exactly the brute-force maps, in the
    lexicographic order of the scan over all maps."""
    morphisms_found = [f for f in all_maps(source, target) if morphism_oracle(f)]
    assert [f.image for f in enumerate_morphisms(source, target)] == [
        f.image for f in morphisms_found
    ]
    assert [f.image for f in enumerate_reductions(source, target)] == [
        f.image for f in morphisms_found if f.is_onto()
    ]


@pytest.mark.parametrize("kind", ["int", "ms4"])
def test_search_matches_brute_force_on_small_frames(kind):
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    for source in frames:
        for target in frames:
            assert_search_matches_oracle(source, target)


def test_search_tables_cached_per_frame_stay_correct():
    # Cold caches first, then warm ones with the pairs in reverse order: a
    # table reused for the wrong frame would change some pair's maps.  The
    # warm pass searches a fresh but equal target, whose relations have
    # derived nothing yet, so it must give the same images as the first.
    morphisms._source_tables.cache_clear()
    pairs = [
        (source, target)
        for frames in (int_frames(3), ms4_frames(3))
        for source in frames
        for target in frames
    ]
    for source, target in pairs:
        assert_search_matches_oracle(source, target)
    cold_hits = morphisms._source_tables.cache_info().hits
    for source, target in reversed(pairs):
        fresh = type(target)(
            target.points, Relation(target.n, target.r.rows), Relation(target.n, target.s.rows)
        )
        assert fresh == target
        assert_search_matches_oracle(source, fresh)
    assert morphisms._source_tables.cache_info().hits > cold_hits


@pytest.mark.parametrize("kind", ["int", "ms4"])
def test_search_matches_brute_force_on_disjoint_unions(kind):
    # Five- and six-point sources: a+a onto a always has the fold, a+b onto
    # a random frame seldom has a reduction but often has morphisms.
    rng = random.Random(f"search-{kind}")
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    three = [f for f in frames if f.n == 3]
    for _ in range(6):
        a = rng.choice(three)
        folded = disjoint_union(a, a)
        assert enumerate_reductions(folded, a)
        assert_search_matches_oracle(folded, a)
        b = rng.choice([f for f in frames if f.n >= 2 and f != a])
        assert_search_matches_oracle(disjoint_union(a, b), rng.choice(frames))


def test_enumerate_self_reductions_contain_identity():
    for frame in int_frames(2) + ms4_frames(2):
        images = [f.image for f in enumerate_reductions(frame, frame)]
        assert tuple(range(frame.n)) in images


def test_enumerate_reductions_guards(three_point_frame, cluster_frame):
    with pytest.raises(ValueError, match="same kind"):
        enumerate_reductions(three_point_frame, cluster_frame)
    wide = chain_frame(7)
    with pytest.raises(BoundExceeded):
        enumerate_reductions(wide, chain_frame(2))


def test_enumerate_morphisms_caps_the_source(monkeypatch):
    # Two 7-point total frames have 5,040 morphisms between them, and the
    # count grows factorially with the source; the cap refuses before the
    # search builds anything.
    total = IntFrame(tuple(f"x{i}" for i in range(7)), Relation.total(7), Relation.total(7))
    searched = []
    monkeypatch.setattr(morphisms, "_source_tables", lambda source: searched.append(source))
    for search in (enumerate_morphisms, enumerate_reductions):
        with pytest.raises(BoundExceeded, match="source has 7 points, cap is 6"):
            search(total, total)
    assert searched == []
    monkeypatch.undo()
    six = chain_frame(morphisms.REDUCTION_SOURCE_CAP)
    assert tuple(range(6)) in [f.image for f in enumerate_morphisms(six, six)]


def test_lift_reduction_agrees_with_composition():
    targets = [f for f in int_frames(2) if has_clean_clusters(f)]
    checked = 0
    for modal in ms4_frames(3):
        quotient, projection = skeleton(modal)
        for target in targets:
            for f in enumerate_reductions(quotient, target):
                lifted = lift_reduction(projection, f)
                checked += 1
                assert lifted.source == modal
                assert lifted.target == sigma(target)
                assert is_reduction(lifted)
                assert lifted.image == tuple(
                    f.image[projection.class_index[x]] for x in range(modal.n)
                )
                # Taking the quotient of the lift gives back the original map.
                assert skeleton_map(lifted) == f
    assert checked > 50


def test_lift_reduction_requires_clean_target(three_point_frame):
    modal = sigma(three_point_frame)
    quotient, projection = skeleton(modal)
    ident = identity_map(quotient)
    assert not has_clean_clusters(three_point_frame)
    with pytest.raises(ValueError, match="clean clusters"):
        lift_reduction(projection, ident)


def test_lift_reduction_raises_when_the_lift_is_not_a_reduction(monkeypatch):
    # The result check must hold under `python -O` too, so it is no assert.
    target = chain_frame(2)
    modal = sigma(target)
    quotient, projection = skeleton(modal)
    f = FrameMap(quotient, target, (0, 1))
    assert is_reduction(lift_reduction(projection, f))
    monkeypatch.setattr(morphisms, "is_ms4_morphism", lambda g: False)
    with pytest.raises(RuntimeError, match="lifting failed"):
        lift_reduction(projection, f)


def test_lift_reduction_checks_map_endpoints():
    target = chain_frame(2)
    modal = sigma(target)
    quotient, projection = skeleton(modal)
    other = chain_frame(1)
    with pytest.raises(ValueError, match="not the quotient"):
        lift_reduction(projection, FrameMap(other, target, (0,)))
    with pytest.raises(ValueError, match="not a reduction"):
        lift_reduction(projection, FrameMap(quotient, target, (0, 0)))
    with pytest.raises(ValueError, match="expected an intuitionistic frame"):
        lift_reduction(projection, identity_map(modal))


def test_lift_matches_lift_reduction_and_the_checked_composite():
    # `_lift` is what the lifting experiment runs on each image tuple the
    # search found; it must give the map `lift_reduction` gives and the one
    # the checked constructor builds from the composite image.
    targets = enumerate_frames(EnumerationConfig("int", 3, frozenset({"m_plus"})))
    expansions = [sigma(target) for target in targets]
    checked = 0
    for modal in ms4_frames(4):
        quotient, projection = skeleton(modal)
        for target, expansion in zip(targets, expansions):
            for f in enumerate_reductions(quotient, target):
                lifted = morphisms._lift(projection, f.image, expansion)
                composite = tuple(f.image[k] for k in projection.class_index)
                assert lifted == lift_reduction(projection, f)
                assert lifted == FrameMap(modal, expansion, composite)
                assert type(lifted.image) is tuple
                checked += 1
    assert checked == 1078


def test_lift_refuses_a_composite_that_is_not_onto_or_not_a_morphism():
    # One point onto two unrelated points: a modal morphism, not onto.
    point = chain_frame(1)
    _, projection = skeleton(sigma(point))
    pair = IntFrame(("u", "v"), Relation.identity(2), Relation.identity(2))
    assert is_ms4_morphism(FrameMap(sigma(point), sigma(pair), (0,)))
    with pytest.raises(RuntimeError, match="lifting failed"):
        morphisms._lift(projection, (0,), sigma(pair))
    # The 2-chain turned upside down: onto, not a modal morphism.
    chain = chain_frame(2)
    _, projection = skeleton(sigma(chain))
    assert morphisms._lift(projection, (0, 1), sigma(chain)).image == (0, 1)
    assert not is_ms4_morphism(FrameMap(sigma(chain), sigma(chain), (1, 0)))
    with pytest.raises(RuntimeError, match="lifting failed"):
        morphisms._lift(projection, (1, 0), sigma(chain))


def shape_rejections(sources, targets) -> tuple[int, int]:
    """Checks that every pair with no more target than source points that
    the shape test rejects has no reduction; returns how many such pairs
    there were and how many the test rejected."""
    target_shapes = [(target, _reduction_shape(target)) for target in targets]
    pairs = rejected = 0
    for source in sources:
        shape = _reduction_shape(source)
        for target, target_shape in target_shapes:
            if target.n > source.n:
                continue
            pairs += 1
            if not _may_reduce(shape, target_shape):
                rejected += 1
                assert enumerate_reductions(source, target) == [], (source, target)
    return pairs, rejected


@pytest.mark.parametrize(
    "kind, counts", [("int", (3011, 1870)), ("ms4", (9353, 5104))]
)
def test_shape_test_rejects_only_pairs_without_reductions(kind, counts):
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=4))
    targets = [f for f in frames if f.n <= 3]
    assert shape_rejections(frames, targets) == counts


@settings(max_examples=25)
@given(st.sampled_from(["int", "ms4"]), st.data())
def test_shape_test_rejects_only_pairs_without_reductions_on_unions(kind, data):
    # Six-point sources with two components, against every target up to
    # three points: the fold a+a onto a must pass the test.
    frames = enumerate_frames(EnumerationConfig(kind=kind, max_points=3))
    three = st.sampled_from([f for f in frames if f.n == 3])
    a, b = data.draw(three), data.draw(three)
    shape_rejections([disjoint_union(a, b)], frames)
    assert _may_reduce(_reduction_shape(disjoint_union(a, a)), _reduction_shape(a))


def test_shape_numbers_on_named_frames(three_point_frame, cluster_frame):
    # Points, then (unrooted, components, top clusters, depth) of r and of s.
    assert _reduction_shape(chain_frame(3)) == (3, 0, 1, 1, 2, 0, 1, 1, 2)
    assert _reduction_shape(three_point_frame) == (3, 1, 1, 1, 1, 0, 1, 1, 1)
    assert _reduction_shape(cluster_frame) == (2, 0, 1, 1, 0, 1, 2, 2, 0)

