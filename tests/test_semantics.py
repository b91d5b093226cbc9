"""Model checking: truth sets, valuation search, countermodels."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkit import semantics
from kripkit.enumeration import EnumerationConfig, enumerate_frames, partial_orders, quasi_orders
from kripkit.frames import (
    BoundExceeded,
    IntFrame,
    MS4Frame,
    Relation,
    frame_to_json_dict,
    mask_of,
)
from kripkit.semantics import (
    VALUATION_BUDGET,
    Valuation,
    countermodel,
    frame_validates,
    is_upset,
    subsets,
    truth_set,
    upsets,
    validities_on,
)
from kripkit.syntax import (
    INT,
    MODAL,
    bottom,
    corpus,
    desugar,
    disj,
    godel_translate,
    implies,
    letter,
    neg,
    parse,
    print_formula,
    random_formula,
    star_translate,
    top,
)
from kripkit.workbench import load_frame, save_frame, translation_formulas


def from_points(frame, assignment: dict[str, list[int]]) -> Valuation:
    return Valuation.from_masks(frame, {k: mask_of(v) for k, v in assignment.items()})


def satisfies(frame, valuation: Valuation, point: int, phi) -> bool:
    return bool(truth_set(frame, valuation, phi) >> point & 1)


def chain_poset(n: int) -> Relation:
    return Relation.from_pairs(
        n, [(i, j) for i in range(n) for j in range(i, n)]
    )


@pytest.fixture
def ms4_chain() -> MS4Frame:
    return MS4Frame(("x", "y"), chain_poset(2), Relation.identity(2))


class TestSubsetOrders:
    def test_subset_order_is_characteristic_lex(self):
        # Point 0 is the most significant coordinate.
        assert subsets(2) == [0b00, 0b10, 0b01, 0b11]
        assert subsets(1) == [0, 1]

    def test_upsets_of_chain(self, two_point_frame):
        assert upsets(two_point_frame.r) == [0b00, 0b10, 0b11]

    def test_upsets_of_fence(self, three_point_frame):
        assert upsets(three_point_frame.r) == [0b000, 0b010, 0b110, 0b011, 0b111]

    def test_is_upset(self, two_point_frame):
        assert is_upset(two_point_frame.r, 0b10)
        assert not is_upset(two_point_frame.r, 0b01)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_upsets_are_the_masks_is_upset_accepts(self, n):
        for rel in [*quasi_orders(n), *partial_orders(n)]:
            assert upsets(rel) == [m for m in subsets(n) if is_upset(rel, m)]


class TestValuation:
    def test_from_points_round_trip(self, two_point_frame):
        v = from_points(two_point_frame, {"p": [1], "q": [0, 1]})
        assert v.mask("p") == 0b10
        assert v.mask("q") == 0b11
        assert v.to_json_dict() == {"p": [1], "q": [0, 1]}

    def test_mask_unassigned(self, two_point_frame):
        v = from_points(two_point_frame, {})
        with pytest.raises(KeyError):
            v.mask("p")

    def test_admissibility(self, two_point_frame, cluster_frame):
        assert from_points(two_point_frame, {"p": [1]}).is_admissible()
        assert not from_points(two_point_frame, {"p": [0]}).is_admissible()
        # Modal frames take arbitrary subsets.
        assert from_points(cluster_frame, {"p": [0]}).is_admissible()

    def test_masks_sorted_by_letter(self, two_point_frame):
        v = from_points(two_point_frame, {"q": [1], "p": [1]})
        assert [name for name, _ in v.masks] == ["p", "q"]

    @pytest.mark.parametrize(
        "masks", [(("p", 1), ("p", 2)), (("q", 1), ("p", 2)), (("p", 1), ("q", 2), ("q", 2))]
    )
    def test_rejects_repeated_or_unsorted_letters(self, two_point_frame, masks):
        # Built directly, a repeated letter would read one mask in `mask`
        # and evaluate another, and reordered pairs would compare unequal.
        with pytest.raises(ValueError, match="distinct and sorted"):
            Valuation(two_point_frame, masks)
        assert Valuation(two_point_frame, (("p", 1), ("q", 2))) == Valuation.from_masks(
            two_point_frame, {"q": 2, "p": 1}
        )

    @pytest.mark.parametrize("mask", [0b100, 0b111, -1, -0b10])
    def test_rejects_points_outside_the_frame(self, two_point_frame, cluster_frame, mask):
        # Refused when built: evaluated, such a mask would index past the
        # int frame's rows, and lose its extra bits on the ms4 frame.
        for frame in (two_point_frame, cluster_frame):
            with pytest.raises(ValueError, match="outside the 2-point frame"):
                Valuation.from_masks(frame, {"p": 0b01, "q": mask})
        with pytest.raises(ValueError, match="outside"):
            from_points(two_point_frame, {"p": [1, 2]})


class TestIntTruth:
    def test_connectives(self, two_point_frame):
        v = from_points(two_point_frame, {"p": [1]})
        assert truth_set(two_point_frame, v, parse("p")) == 0b10
        assert truth_set(two_point_frame, v, parse("~ p")) == 0b00
        assert truth_set(two_point_frame, v, parse("~ ~ p")) == 0b11
        assert truth_set(two_point_frame, v, parse("p -> p")) == 0b11
        assert truth_set(two_point_frame, v, parse("T")) == 0b11
        assert truth_set(two_point_frame, v, parse("F")) == 0b00

    def test_quantifiers(self, two_point_frame):
        # q is total on the 2-chain, so forall p needs p everywhere.
        v = from_points(two_point_frame, {"p": [1]})
        assert truth_set(two_point_frame, v, parse("forall p")) == 0b00
        assert truth_set(two_point_frame, v, parse("exists p")) == 0b11
        everywhere = from_points(two_point_frame, {"p": [0, 1]})
        assert truth_set(two_point_frame, everywhere, parse("forall p")) == 0b11

    def test_fence_quantifiers(self, three_point_frame):
        v = from_points(three_point_frame, {"p": [1]})
        # Every q-row meets the cluster of a, so nothing q-sees only {b}.
        assert truth_set(three_point_frame, v, parse("forall p")) == 0b000
        # b is q-below a and itself; c only q-reaches a and b.
        assert truth_set(three_point_frame, v, parse("exists p")) == 0b011

    def test_satisfies(self, two_point_frame):
        v = from_points(two_point_frame, {"p": [1]})
        assert satisfies(two_point_frame, v, 1, parse("p"))
        assert not satisfies(two_point_frame, v, 0, parse("p"))

    def test_rejects_modal_formula(self, two_point_frame):
        v = from_points(two_point_frame, {"p": [1]})
        with pytest.raises(ValueError):
            truth_set(two_point_frame, v, parse("box p", MODAL))

    def test_rejects_inadmissible_valuation(self, two_point_frame):
        v = from_points(two_point_frame, {"p": [0]})
        with pytest.raises(ValueError):
            truth_set(two_point_frame, v, parse("p"))

    def test_rejects_uncovered_letter(self, two_point_frame):
        v = from_points(two_point_frame, {})
        with pytest.raises(ValueError):
            truth_set(two_point_frame, v, parse("p"))

    def test_rejects_valuation_on_another_frame(self):
        # {1} is an upset of the chain 0 <= 1 but not of its reverse.
        chain = IntFrame(("a0", "a1"), chain_poset(2), chain_poset(2))
        reversed_chain = IntFrame(
            ("a0", "a1"), chain_poset(2).converse(), chain_poset(2).converse()
        )
        v = Valuation.from_masks(chain, {"p": 0b10})
        assert truth_set(chain, v, parse("p")) == 0b10
        with pytest.raises(ValueError, match="different frame"):
            truth_set(reversed_chain, v, parse("p"))


class TestMS4Truth:
    def test_classical_connectives(self, cluster_frame):
        v = from_points(cluster_frame, {"p": [0], "q": [1]})
        assert truth_set(cluster_frame, v, parse("~ p", MODAL)) == 0b10
        assert truth_set(cluster_frame, v, parse("p | ~ p", MODAL)) == 0b11
        assert truth_set(cluster_frame, v, parse("p -> q", MODAL)) == 0b10
        assert truth_set(cluster_frame, v, parse("p & q", MODAL)) == 0b00

    def test_box_over_r(self, cluster_frame, ms4_chain):
        v = from_points(cluster_frame, {"p": [0]})
        assert truth_set(cluster_frame, v, parse("box p", MODAL)) == 0b00
        w = from_points(ms4_chain, {"p": [1]})
        assert truth_set(ms4_chain, w, parse("box p", MODAL)) == 0b10

    def test_forall_over_e(self, cluster_frame):
        # e is the identity here, so forall is pointwise.
        v = from_points(cluster_frame, {"p": [0]})
        assert truth_set(cluster_frame, v, parse("forall p", MODAL)) == 0b01

    def test_satisfies(self, ms4_chain):
        v = from_points(ms4_chain, {"p": [1]})
        assert satisfies(ms4_chain, v, 0, parse("~ p", MODAL))

    def test_rejects_int_formula(self, cluster_frame):
        v = from_points(cluster_frame, {"p": [0]})
        with pytest.raises(ValueError):
            truth_set(cluster_frame, v, parse("p"))


class TestPersistence:
    def test_truth_sets_are_upsets(self):
        """Intuitionistic truth is preserved along r for every connective."""
        rng = random.Random(11)
        pool = corpus("mipc_axioms") + corpus("monadic_casari")
        pool += [random_formula(rng, ("p", "q"), 3) for _ in range(25)]
        for frame in enumerate_frames(EnumerationConfig("int", 3)):
            space = upsets(frame.r)
            for phi in pool:
                letters = phi.letters()
                for combo in _combos(space, len(letters)):
                    v = Valuation.from_masks(frame, dict(zip(letters, combo)))
                    for sub in set(phi.subformulas()):
                        assert is_upset(frame.r, truth_set(frame, v, sub))

    def test_exists_clause_via_cluster_image(self):
        """On upsets the q-image and the q-cluster image coincide, so either
        clause gives the same quantifier."""
        for frame in enumerate_frames(EnumerationConfig("int", 3)):
            eq = frame.e_q()
            for mask in upsets(frame.r):
                assert frame.q.image(mask) == eq.image(mask)


def _combos(space, k):
    if k == 0:
        return [()]
    out = [()]
    for _ in range(k):
        out = [prefix + (m,) for prefix in out for m in space]
    return out


class TestCountermodel:
    def test_casari_on_chain(self, two_point_frame):
        phi = corpus("monadic_casari")[0]
        found = countermodel(two_point_frame, phi)
        assert found is not None
        assert found.valuation.to_json_dict() == {"p": [1]}
        assert found.point == 0
        assert found.describe() == "fails at u under p={v}"

    def test_excluded_middle_on_chain(self, two_point_frame):
        found = countermodel(two_point_frame, parse("p | ~ p"))
        assert found is not None
        assert found.valuation.to_json_dict() == {"p": [1]}
        assert found.point == 0

    def test_search_order_pin(self, ms4_chain):
        # In characteristic order {y} precedes {x}; ascending-mask order
        # would report p={x} first.
        found = countermodel(ms4_chain, parse("box p | box ~ p", MODAL))
        assert found is not None
        assert found.valuation.to_json_dict() == {"p": [1]}
        assert found.point == 0

    def test_valid_formula_has_none(self, two_point_frame):
        assert countermodel(two_point_frame, parse("p -> p")) is None
        assert frame_validates(two_point_frame, parse("forall p -> p"))

    def test_axioms_hold_on_fixtures(self, three_point_frame, two_point_frame):
        for frame in (three_point_frame, two_point_frame):
            for phi in corpus("mipc_axioms"):
                assert frame_validates(frame, phi), print_formula(phi)

    def test_grz_fails_on_cluster(self, cluster_frame):
        grz = corpus("grz")[0]
        found = countermodel(cluster_frame, grz)
        assert found is not None

    def test_to_json_dict(self, two_point_frame):
        phi = parse("p | ~ p")
        found = countermodel(two_point_frame, phi)
        assert found.to_json_dict() == {
            "frame": frame_to_json_dict(two_point_frame),
            "valuation": {"p": [1]},
            "point": 0,
            "formula": "p | ~ p",
        }

    def test_point_cap(self):
        n = 7
        frame = IntFrame(
            tuple(f"x{i}" for i in range(n)), chain_poset(n), chain_poset(n)
        )
        with pytest.raises(BoundExceeded):
            countermodel(frame, parse("p -> p"))
        assert countermodel(frame, parse("p -> p"), point_cap=n) is None

    def test_letter_cap(self, two_point_frame):
        wide = parse("p & q & r & s")
        with pytest.raises(BoundExceeded):
            countermodel(two_point_frame, wide)
        assert countermodel(two_point_frame, wide, letter_cap=4) is not None

    def test_countermodel_point_is_lowest_failing(self, three_point_frame):
        # The reported point is the least index where the formula fails.
        phi = parse("p -> forall p")
        found = countermodel(three_point_frame, phi)
        assert found is not None
        full = truth_set(three_point_frame, found.valuation, phi)
        failing = [x for x in range(3) if not full >> x & 1]
        assert found.point == min(failing)

    def test_countermodel_past_the_first_block(self):
        # Three letters over the 8 subsets of 3 points: 512 valuations.  The
        # first refutation is valuation 264 = 4 * 64 + 1 * 8 + 0, which the
        # 256-wide first block does not reach.
        r = Relation.from_pairs(3, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)])
        e = Relation.from_pairs(3, [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
        frame = MS4Frame(("a", "b", "c"), r, e)
        found = countermodel(frame, parse("forall p -> box(q -> r) | q", MODAL))
        assert found.describe() == "fails at a under p={a}, q={c}, r={}"

    def test_unknown_kind_is_a_value_error(self, two_point_frame):
        phi = parse("p & p")
        object.__setattr__(phi, "kind", "xor")
        with pytest.raises(ValueError, match="xor"):
            countermodel(two_point_frame, phi)


# --- differential oracle ------------------------------------------------------
# One walk of the desugared formula per valuation, over the valuations in
# `product` order: the evaluator `countermodel` used before it evaluated
# whole blocks of valuations at once.


def _oracle_truth_int(frame: IntFrame, assign: dict[str, int], phi, memo: dict) -> int:
    out = memo.get(phi)
    if out is not None:
        return out
    kind = phi.kind
    full = (1 << frame.n) - 1
    if kind == "letter":
        if phi.name not in assign:
            raise ValueError(f"valuation does not cover letter {phi.name!r}")
        out = assign[phi.name]
    elif kind == "top":
        out = full
    elif kind == "bottom":
        out = 0
    elif kind == "and":
        out = _oracle_truth_int(frame, assign, phi.args[0], memo) & _oracle_truth_int(
            frame, assign, phi.args[1], memo
        )
    elif kind == "or":
        out = _oracle_truth_int(frame, assign, phi.args[0], memo) | _oracle_truth_int(
            frame, assign, phi.args[1], memo
        )
    elif kind == "implies":
        bad = _oracle_truth_int(frame, assign, phi.args[0], memo) & ~_oracle_truth_int(
            frame, assign, phi.args[1], memo
        )
        out = mask_of(x for x in range(frame.n) if frame.r.rows[x] & bad == 0)
    elif kind == "forall":
        inner = _oracle_truth_int(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.q.rows[x] & ~inner == 0)
    else:
        assert kind == "exists"
        # x satisfies it when some q-predecessor of x satisfies the body.
        out = frame.q.image(_oracle_truth_int(frame, assign, phi.args[0], memo))
    memo[phi] = out
    return out


def _oracle_truth_ms4(frame: MS4Frame, assign: dict[str, int], phi, memo: dict) -> int:
    out = memo.get(phi)
    if out is not None:
        return out
    kind = phi.kind
    full = (1 << frame.n) - 1
    if kind == "letter":
        if phi.name not in assign:
            raise ValueError(f"valuation does not cover letter {phi.name!r}")
        out = assign[phi.name]
    elif kind == "top":
        out = full
    elif kind == "bottom":
        out = 0
    elif kind == "and":
        out = _oracle_truth_ms4(frame, assign, phi.args[0], memo) & _oracle_truth_ms4(
            frame, assign, phi.args[1], memo
        )
    elif kind == "or":
        out = _oracle_truth_ms4(frame, assign, phi.args[0], memo) | _oracle_truth_ms4(
            frame, assign, phi.args[1], memo
        )
    elif kind == "implies":
        out = (full & ~_oracle_truth_ms4(frame, assign, phi.args[0], memo)) | (
            _oracle_truth_ms4(frame, assign, phi.args[1], memo)
        )
    elif kind == "box":
        inner = _oracle_truth_ms4(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.r.rows[x] & ~inner == 0)
    else:
        assert kind == "forall"
        inner = _oracle_truth_ms4(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.e.rows[x] & ~inner == 0)
    memo[phi] = out
    return out


def oracle_truth(frame, assign: dict[str, int], phi) -> int:
    if isinstance(frame, IntFrame):
        return _oracle_truth_int(frame, assign, desugar(phi), {})
    return _oracle_truth_ms4(frame, assign, desugar(phi), {})


def oracle_countermodel(frame, phi):
    """(valuation masks, point) of the first countermodel, or None."""
    letters = phi.letters()
    space = upsets(frame.r) if isinstance(frame, IntFrame) else subsets(frame.n)
    full = (1 << frame.n) - 1
    for combo in product(space, repeat=len(letters)):
        assign = dict(zip(letters, combo))
        failing = full & ~oracle_truth(frame, assign, phi)
        if failing:
            return tuple(sorted(assign.items())), (failing & -failing).bit_length() - 1
    return None


SMALL_FRAMES = enumerate_frames(EnumerationConfig("int", 3)) + enumerate_frames(
    EnumerationConfig("ms4", 3)
)


@settings(max_examples=300, deadline=None)
@given(
    frame=st.sampled_from(SMALL_FRAMES),
    letters=st.integers(0, 3),
    depth=st.integers(0, 5),
    seed=st.integers(0, 2**32),
)
def test_countermodel_matches_per_valuation_oracle(frame, letters, depth, seed):
    lang = INT if isinstance(frame, IntFrame) else MODAL
    phi = random_formula(random.Random(seed), ("p", "q", "r")[:letters], depth, lang)
    expected = oracle_countermodel(frame, phi)
    found = countermodel(frame, phi)
    if expected is None:
        assert found is None
        return
    assert found is not None
    assert (found.valuation.masks, found.point) == expected
    assign = dict(found.valuation.masks)
    assert truth_set(frame, found.valuation, phi) == oracle_truth(frame, assign, phi)


# --- formula pools --------------------------------------------------------------
# `validities_on` on one frame against one `countermodel` search per formula.


def _one_by_one(frame, pool) -> tuple[bool, ...]:
    return tuple(countermodel(frame, phi) is None for phi in pool)


TRANSLATION_POOLS = {INT: translation_formulas()}
TRANSLATION_POOLS[MODAL] = [godel_translate(phi) for phi in TRANSLATION_POOLS[INT]]


# Pools over three letters can have more than the 256 valuations of the
# first block, so their formulas are refuted in different blocks and the
# later blocks run the programs of the formulas still holding.  Two letters
# on a 4-point frame fit in the first block.
FOUR_POINT_FRAMES = [
    frame
    for kind in ("int", "ms4")
    for frame in enumerate_frames(EnumerationConfig(kind, 4))
    if frame.n == 4
]


def layout_key(frame) -> tuple:
    """What frames of one valuation layout share: kind, point count and, on
    intuitionistic frames, the rows of r."""
    return frame.kind, frame.n, frame.r.rows if frame.kind == "int" else None


def layout_groups(frames) -> list[list]:
    """`frames` grouped by `layout_key`, in order of first appearance."""
    groups: dict[tuple, list] = {}
    for frame in frames:
        groups.setdefault(layout_key(frame), []).append(frame)
    return list(groups.values())


GROUP_OF = {
    layout_key(group[0]): group for group in layout_groups(SMALL_FRAMES + FOUR_POINT_FRAMES)
}


def batch_of(frame, picks) -> list:
    """A batch of `frame` and, for each pick, a frame of its layout."""
    group = GROUP_OF[layout_key(frame)]
    return [frame] + [group[i % len(group)] for i in picks]


def test_validities_match_countermodel_on_the_translation_pools():
    for frame in SMALL_FRAMES + FOUR_POINT_FRAMES[::40]:
        pool = TRANSLATION_POOLS[INT if isinstance(frame, IntFrame) else MODAL]
        assert validities_on([frame], pool)[0] == _one_by_one(frame, pool)


POOL_LETTERS = ((), ("p",), ("q",), ("p", "q"))
DRAWN = st.lists(
    st.tuples(st.sampled_from(POOL_LETTERS), st.integers(0, 4), st.integers(0, 2**32)),
    min_size=1,
    max_size=6,
)
PICKS = st.lists(st.integers(0, 63), max_size=12)


def drawn_pool(lang, drawn, picks) -> tuple:
    # Candidates: the constants, letter-free, one- and two-letter formulas,
    # each drawn formula twice as equal but distinct objects.  A pick of the
    # same candidate twice repeats one object.
    candidates = [top(lang), bottom(lang)] + [
        random_formula(random.Random(seed), letters, depth, lang)
        for _ in range(2)
        for letters, depth, seed in drawn
    ]
    return tuple(candidates[i % len(candidates)] for i in picks)


@settings(max_examples=100, deadline=None)
@given(frame=st.sampled_from(SMALL_FRAMES + FOUR_POINT_FRAMES), drawn=DRAWN, picks=PICKS)
def test_validities_match_countermodel_on_drawn_pools(frame, drawn, picks):
    pool = drawn_pool(INT if isinstance(frame, IntFrame) else MODAL, drawn, picks)
    expected = _one_by_one(frame, pool)
    assert validities_on([frame], pool)[0] == expected
    assert tuple(frame_validates(frame, phi) for phi in pool) == expected


def test_validities_match_countermodel_across_blocks():
    # Three letters, each ranging over at least 7 sets: more than 256
    # valuations, so every case spans at least two blocks.
    rng = random.Random(17)
    for frame in SMALL_FRAMES + FOUR_POINT_FRAMES:
        lang = INT if isinstance(frame, IntFrame) else MODAL
        space = upsets(frame.r) if lang == INT else subsets(frame.n)
        if len(space) < 7:
            continue
        layout = semantics._layout(frame.n, 3, frame.r if lang == INT else None)
        assert len(list(semantics._blocks(("p", "q", "r"), layout))) >= 2
        pool = [random_formula(rng, ("p", "q", "r"), 3, lang) for _ in range(8)]
        assert validities_on([frame], pool)[0] == _one_by_one(frame, pool)


def test_validities_recompile_the_survivors_between_blocks(monkeypatch):
    # Three letters on a 4-point frame: 4,096 valuations, in blocks of 256,
    # 1,024 and 2,816.  Valuation v of the pool gives p the v // 256-th
    # subset, so `q | r` fails in the first block (v = 0), `~ p` in the
    # second (p = {z}, v = 256) and `~ box p` only in the third
    # (p = {w, x, y, z}, v = 3,840), each with the other letters empty.
    names = ("w", "x", "y", "z")
    frame = MS4Frame(names, Relation.total(4), Relation.total(4))
    texts = ("box p -> p", "q | r", "~ p", "~ box p")
    pool = [parse(text, MODAL) for text in texts]
    firsts = [dict(countermodel(frame, phi).valuation.masks) for phi in pool[1:]]
    assert firsts == [{"q": 0, "r": 0}, {"p": 0b1000}, {"p": 0b1111}]
    layout = semantics._layout(4, 3, None)
    widths = [width for _, width, _ in semantics._blocks(("p", "q", "r"), layout)]
    assert widths == [256, 1024, 2816]
    assert _one_by_one(frame, pool) == (True, False, False, False)
    programs = []
    run = semantics._run

    def recorded(program, frames, width, inputs):
        programs.append((program, len(frames), width))
        return run(program, frames, width, inputs)

    monkeypatch.setattr(semantics, "_run", recorded)
    assert validities_on([frame], pool)[0] == (True, False, False, False)
    # Each block after a refutation runs the cached program of the formulas
    # still holding, in pool order, which is shorter.
    assert [(count, width) for _, count, width in programs] == [(1, 256), (1, 1024), (1, 2816)]
    ran = [program for program, _, _ in programs]
    assert len(ran[0]) > len(ran[1]) > len(ran[2])
    assert ran[1] is semantics._compile((pool[0], pool[2], pool[3]))[0]
    assert ran[2] is semantics._compile((pool[0], pool[3]))[0]
    # The pool reads no `forall`, so a frame with another s refutes the same
    # formulas in the same blocks and compiles nothing new, alone or in one
    # batch with the first frame.
    misses = semantics._compile.cache_info().misses
    other = MS4Frame(names, Relation.total(4), Relation.identity(4))
    assert validities_on([other], pool)[0] == (True, False, False, False)
    assert validities_on([frame, other], pool) == [(True, False, False, False)] * 2
    assert [(count, width) for _, count, width in programs[3:]] == [
        (1, 256), (1, 1024), (1, 2816), (2, 256), (2, 1024), (2, 2816)
    ]
    assert [program for program, _, _ in programs[3:]] == ran + ran
    assert semantics._compile.cache_info().misses == misses


# --- batches --------------------------------------------------------------------
# `validities_on` against one search per frame.  Its frames are
# grouped by layout and each group cut into batches of _BATCH_BITS bits on the
# first block: four frames of four points under two or three letters.

LANG_OF = {"int": INT, "ms4": MODAL}
FRAMES_OF = {
    kind: [frame for frame in SMALL_FRAMES + FOUR_POINT_FRAMES if frame.kind == kind]
    for kind in LANG_OF
}


def per_frame(frames, pool) -> list[tuple[bool, ...]]:
    return [validities_on([frame], pool)[0] for frame in frames]


def recorded_searches(monkeypatch) -> list:
    """Record the batch size of every `_search` from here on."""
    sizes = []
    search = semantics._search

    def recorded(frames, *args):
        sizes.append(len(frames))
        return search(frames, *args)

    monkeypatch.setattr(semantics, "_search", recorded)
    return sizes


def test_validities_on_matches_validities_on_the_translation_pools():
    # Every int and ms4 frame of at most four points, one call per pool.
    for kind, frames in FRAMES_OF.items():
        pool = TRANSLATION_POOLS[LANG_OF[kind]]
        assert validities_on(frames, pool) == per_frame(frames, pool)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(LANG_OF)),
    chosen=st.lists(st.integers(0, 2**32), min_size=1, max_size=24),
    drawn=DRAWN,
    picks=PICKS,
)
def test_validities_on_matches_validities_on_drawn_pools(kind, chosen, drawn, picks):
    frames = [FRAMES_OF[kind][i % len(FRAMES_OF[kind])] for i in chosen]
    pool = drawn_pool(LANG_OF[kind], drawn, picks)
    assert validities_on(frames, pool) == per_frame(frames, pool)


def test_validities_on_matches_validities_across_blocks():
    # Three letters over at least 7 sets: at least two blocks, on every
    # layout group of the frames of at most four points, a sample of each.
    rng = random.Random(29)
    for group in layout_groups(SMALL_FRAMES + FOUR_POINT_FRAMES):
        lang = LANG_OF[group[0].kind]
        space = upsets(group[0].r) if lang == INT else subsets(group[0].n)
        if len(space) < 7:
            continue
        frames = group[:: 1 + len(group) // 12]
        pool = [random_formula(rng, ("p", "q", "r"), 3, lang) for _ in range(6)]
        assert validities_on(frames, pool) == per_frame(frames, pool)


def test_validities_on_frames_drop_out_at_different_blocks(monkeypatch):
    # Three letters on four points: 4,096 valuations in blocks of 256, 1,024
    # and 2,816, where p is the empty set, one of the sets 1-4 and one of
    # the sets 5-15 in characteristic order.  `q | r` fails in the first
    # block everywhere; the second formula fails there where some point has
    # an e-successor that is not an r-successor, and otherwise first where p
    # holds every r-successor of some point, which takes the set of p into
    # the second or the third block.
    pool = [parse(text, MODAL) for text in ("q | r", "(box q -> forall q) & ~ box p")]
    space = subsets(4)

    def last_block(frame) -> int:
        # The block that refutes the frame's last formula; `q | r` reads no
        # p, and p is empty throughout the first block.
        sets = [
            space.index(dict(countermodel(frame, phi).valuation.masks).get("p", 0))
            for phi in pool
        ]
        return 0 if max(sets) == 0 else 1 if max(sets) <= 4 else 2

    by_block: dict[int, list] = {}
    for frame in FRAMES_OF["ms4"]:
        if frame.n == 4:
            by_block.setdefault(last_block(frame), []).append(frame)
    batch = [by_block[2][0], by_block[0][0], by_block[1][0], by_block[2][1]]
    expected = per_frame(batch, pool)
    assert expected == [(False, False)] * 4
    runs = []
    run = semantics._run

    def recorded(program, frames, width, inputs):
        runs.append((program, len(frames), width))
        return run(program, frames, width, inputs)

    monkeypatch.setattr(semantics, "_run", recorded)
    assert validities_on(batch, pool) == expected
    # One batch of four frames runs all three blocks, the later ones on the
    # program of the second formula alone.
    assert [(count, width) for _, count, width in runs] == [(4, 256), (4, 1024), (4, 2816)]
    survivor = semantics._compile((pool[1],))[0]
    assert runs[1][0] is survivor and runs[2][0] is survivor


def test_validities_on_splits_a_group_under_the_bit_budget(monkeypatch):
    # Two letters on four points: 256 valuations, 1,024 bits per frame, so
    # ten frames of one layout are searched in batches of 4, 4 and 2.  Int
    # frames whose order no other frame of the call has are groups of one,
    # each searched alone.
    frames = [frame for frame in FRAMES_OF["ms4"] if frame.n == 4][5:15]
    lone = [group[0] for group in layout_groups(FRAMES_OF["int"])][-3:]
    pools = (TRANSLATION_POOLS[MODAL], TRANSLATION_POOLS[INT])
    expected = [per_frame(frames, pools[0]), per_frame(lone, pools[1])]
    sizes = recorded_searches(monkeypatch)
    assert validities_on(frames, pools[0]) == expected[0]
    assert sizes == [4, 4, 2]
    assert validities_on(lone, pools[1]) == expected[1]
    assert sizes[3:] == [1, 1, 1]


def test_validities_on_an_int_group_with_one_order_and_different_q(monkeypatch):
    # Int frames share a layout when their r is the same, whatever their q:
    # the largest such group reads `forall` and `exists` over different q.
    group = max(layout_groups(FRAMES_OF["int"]), key=len)
    assert len({frame.s for frame in group}) == len(group) >= 4
    pools = (TRANSLATION_POOLS[INT], IRREGULAR_POOLS[INT])
    expected = [per_frame(group, pool) for pool in pools]
    assert all(len(set(answers)) > 1 for answers in expected)
    sizes = recorded_searches(monkeypatch)
    assert [validities_on(group, pool) for pool in pools] == expected
    assert len(sizes) < 2 * len(group)


# --- block-level oracle ---------------------------------------------------------
# The evaluator `_run` was before it packed the points into one int per slot:
# a slot holds one int per point, whose bit v says whether the subformula
# holds there under valuation v of the block.  Every packed value, unpacked
# field by field, must equal its rows.


def rows_run(program, relations: dict, n: int, inputs: dict, full: int) -> list:
    """Evaluate `program` on a block of valuations; return every slot's rows.
    `relations` maps "r" and "s" to successor lists, `inputs` holds each
    letter's rows and `full` has every bit of the block set."""
    values: list[list[int]] = []
    for op, a, b in program:
        if op == "letter":
            out = inputs[a]
        elif op == "top":
            out = [full] * n
        elif op == "bottom":
            out = [0] * n
        elif op == "and":
            out = [x & y for x, y in zip(values[a], values[b])]
        elif op == "or":
            out = [x | y for x, y in zip(values[a], values[b])]
        elif op == "imp":
            out = [full ^ x | y for x, y in zip(values[a], values[b])]
        elif op == "all":
            inner = values[a]
            out = []
            for row in relations[b]:
                acc = full
                for y in row:
                    acc &= inner[y]
                out.append(acc)
        else:
            # "some": y holds it when the body holds at some predecessor of y.
            inner = values[a]
            out = [0] * n
            for x, row in enumerate(relations[b]):
                if inner[x]:
                    for y in row:
                        out[y] |= inner[x]
        values.append(out)
    return values


def unpack(value: int, n: int, width: int) -> list[int]:
    """A packed value's rows: point x's field starts at bit x * width."""
    field = (1 << width) - 1
    return [value >> x * width & field for x in range(n)]


def letter_rows(layout, letters, n: int, base: int, width: int) -> dict:
    """Each letter's rows on the block of `width` valuations from `base`,
    read off the numbering: bit v of point x's row is set when valuation
    base + v gives the letter a set that holds x."""
    space, _, strides, _, _, _ = layout
    return {
        name: [
            mask_of(v for v in range(width) if space[(base + v) // stride % len(space)] >> x & 1)
            for x in range(n)
        ]
        for name, stride in zip(letters, strides)
    }


def assert_blocks_match_rows(frames, pool) -> list[int]:
    """On every block of the pool's search space on a batch of `frames`
    that share one layout, the packed letter inputs and every slot's packed
    value, unpacked frame by frame, equal the rows of the numbering and of
    `rows_run` on that frame.  Returns the block widths."""
    program, _, letters = semantics._compile(tuple(pool))
    n = frames[0].n
    layout = semantics._layout(n, len(letters), frames[0].r if frames[0].kind == "int" else None)
    widths = []
    for base, width, inputs in semantics._blocks(letters, layout):
        rows = {name: unpack(value, n, width) for name, value in inputs.items()}
        assert rows == letter_rows(layout, letters, n, base, width)
        # Frame j's point x owns the field at bit (j * n + x) * width.
        size = n * width
        repeat = mask_of(j * size for j in range(len(frames)))
        got = semantics._run(
            program, frames, width, {name: value * repeat for name, value in inputs.items()}
        )
        for j, frame in enumerate(frames):
            relations = {"r": frame.r.successors, "s": frame.s.successors}
            expected = rows_run(program, relations, n, rows, (1 << width) - 1)
            assert [unpack(value >> j * size, n, width) for value in got] == expected
        assert all(value >> len(frames) * size == 0 for value in got)
        widths.append(width)
    assert sum(widths) == layout[1]
    return widths


def test_blocks_match_rows_on_the_translation_pools():
    # Two letters: each search is one block, on every frame of at most three
    # points and a sample of the four-point ones, in batches of up to 8
    # frames of one layout.
    for group in layout_groups(SMALL_FRAMES + FOUR_POINT_FRAMES[::20]):
        pool = TRANSLATION_POOLS[INT if isinstance(group[0], IntFrame) else MODAL]
        for start in range(0, len(group), 8):
            assert len(assert_blocks_match_rows(group[start : start + 8], pool)) == 1


@settings(max_examples=60, deadline=None)
@given(
    frame=st.sampled_from(SMALL_FRAMES + FOUR_POINT_FRAMES),
    drawn=DRAWN,
    picks=PICKS,
    others=st.lists(st.integers(0, 2**32), max_size=3),
)
def test_blocks_match_rows_on_drawn_pools(frame, drawn, picks, others):
    # A batch of the drawn frame and up to three others of its layout.
    pool = drawn_pool(INT if isinstance(frame, IntFrame) else MODAL, drawn, picks)
    assert_blocks_match_rows(batch_of(frame, others), pool)


def test_blocks_match_rows_across_blocks():
    # Three letters over at least 7 sets: at least two blocks, the last one
    # narrower than the schedule's width (512 = 256 + 256 on three points,
    # 4,096 = 256 + 1,024 + 2,816 on four).  Every other batch adds a frame
    # of the same layout.
    rng = random.Random(23)
    narrower = set()
    for index, frame in enumerate(SMALL_FRAMES + FOUR_POINT_FRAMES[::16]):
        lang = INT if isinstance(frame, IntFrame) else MODAL
        space = upsets(frame.r) if lang == INT else subsets(frame.n)
        if len(space) < 7:
            continue
        pool = [random_formula(rng, ("p", "q", "r"), 3, lang) for _ in range(4)]
        batch = batch_of(frame, [index] if index % 2 else [])
        widths = assert_blocks_match_rows(batch, pool + [parse("p | q | r", lang)])
        assert len(widths) >= 2
        narrower.add(tuple(widths))
    assert (256, 256) in narrower and (256, 1024, 2816) in narrower


# --- irregular relations --------------------------------------------------------
# Frames built without validation, or loaded raw, whose relations are not
# quasi-orders.  Point c has no successor under either relation, so `box`
# and `forall` hold there vacuously and `exists` gets nothing from it.


IRREGULAR = [
    # r: a -> b -> c, not reflexive, not transitive; e neither.
    MS4Frame(
        ("a", "b", "c"),
        Relation.from_pairs(3, [(0, 1), (1, 2)]),
        Relation.from_pairs(3, [(0, 2), (1, 0), (1, 1)]),
    ),
    # r: a loop at a only, b -> a, a -> c; e: a <-> b, b -> c.
    MS4Frame(
        ("a", "b", "c"),
        Relation.from_pairs(3, [(0, 0), (1, 0), (0, 2)]),
        Relation.from_pairs(3, [(0, 1), (1, 0), (1, 2)]),
    ),
    # r: a -> b -> c; q: a <-> b, b -> c.
    IntFrame(
        ("a", "b", "c"),
        Relation.from_pairs(3, [(0, 1), (1, 2)]),
        Relation.from_pairs(3, [(0, 1), (1, 0), (1, 2)]),
    ),
    # r: a cycle a -> b -> d -> a past the empty c; q: d -> c, a -> d.
    IntFrame(
        ("a", "b", "c", "d"),
        Relation.from_pairs(4, [(0, 1), (1, 3), (3, 0), (0, 0)]),
        Relation.from_pairs(4, [(3, 2), (0, 3), (1, 1)]),
    ),
]

IRREGULAR_POOLS = {
    lang: [
        random_formula(random.Random(seed), ("p", "q")[: 1 + seed % 2], 1 + seed % 4, lang)
        for seed in range(40)
    ]
    for lang in (INT, MODAL)
}
IRREGULAR_POOLS[INT] += corpus("mipc_axioms") + corpus("monadic_casari")
IRREGULAR_POOLS[MODAL] += [godel_translate(phi) for phi in corpus("mipc_axioms")]


def test_irregular_frames_break_every_order_condition():
    for frame in IRREGULAR:
        assert frame.r.rows[2] == frame.s.rows[2] == 0
    relations = [rel for frame in IRREGULAR for rel in (frame.r, frame.s)]
    assert all(not rel.is_reflexive() for rel in relations)
    assert all(not rel.is_transitive() for rel in relations)


@pytest.mark.parametrize("raw", [False, True], ids=["built", "loaded-raw"])
def test_irregular_frames_match_the_oracles(raw, tmp_path):
    for index, frame in enumerate(IRREGULAR):
        if raw:
            path = tmp_path / f"irregular-{index}.json"
            save_frame(frame, str(path))
            frame = load_frame(str(path), raw=True)
        lang = INT if isinstance(frame, IntFrame) else MODAL
        pool = IRREGULAR_POOLS[lang]
        expected = [oracle_countermodel(frame, phi) for phi in pool]
        for phi, first in zip(pool, expected):
            found = countermodel(frame, phi)
            assert (None if found is None else (found.valuation.masks, found.point)) == first
        assert validities_on([frame], pool)[0] == tuple(first is None for first in expected)
        space = upsets(frame.r) if lang == INT else subsets(frame.n)
        for phi in pool:
            letters = phi.letters()
            for combo in product(space, repeat=len(letters)):
                assign = dict(zip(letters, combo))
                valuation = Valuation.from_masks(frame, assign)
                assert truth_set(frame, valuation, phi) == oracle_truth(frame, assign, phi)
        assert_blocks_match_rows([frame], pool)


class TestValiditiesContract:
    def test_empty_pool(self, two_point_frame):
        assert validities_on([two_point_frame], []) == [()]

    def test_mixed_languages_are_a_value_error(self, two_point_frame):
        with pytest.raises(ValueError):
            validities_on([two_point_frame], [letter("p", INT), letter("p", MODAL)])

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was evaluated")

        monkeypatch.setattr(semantics, "_run", refuse)

    def test_pool_letters_over_the_cap(self, two_point_frame, no_evaluation):
        # Each formula reads one letter; the pool reads four.  At the default
        # caps no pool reaches the budget: a letter ranges over at most
        # 2^POINT_CAP masks, so there are at most 64^3 = 2^18 valuations.
        pool = [parse(name) for name in ("p", "q", "r", "s")]
        with pytest.raises(BoundExceeded, match="pool has 4 letters"):
            validities_on([two_point_frame], pool)
        assert (1 << semantics.POINT_CAP) ** semantics.LETTER_CAP <= VALUATION_BUDGET

    def test_batches_answer_in_input_order(self):
        # Sizes and orders interleaved: the answers come back per frame, in
        # the order the frames were given, whatever the batches.
        frames = FRAMES_OF["int"][::-3] + FRAMES_OF["int"][1::3]
        random.Random(31).shuffle(frames)
        pool = TRANSLATION_POOLS[INT]
        assert validities_on(frames, pool) == per_frame(frames, pool)

    MIXED = [FRAMES_OF["ms4"][7], FRAMES_OF["int"][3], FRAMES_OF["ms4"][0]]

    def test_batches_of_mixed_kinds_on_no_formula(self):
        # No formula, no language: one empty answer per frame.
        assert validities_on(self.MIXED, []) == [(), (), ()]

    def test_batches_of_mixed_kinds_on_one_language(self, no_evaluation):
        # A pool of one language is refused on the first frame of the other
        # kind, before any frame of either kind is evaluated.
        with pytest.raises(ValueError, match="int frames evaluate int formulas"):
            validities_on(self.MIXED, [letter("p", MODAL)])

    def test_batches_of_no_frames(self):
        assert validities_on([], TRANSLATION_POOLS[INT]) == []

    def test_batches_refuse_the_wrong_language(self, two_point_frame, no_evaluation):
        with pytest.raises(ValueError, match="int frames evaluate int formulas"):
            validities_on([two_point_frame], [letter("p", MODAL)])

    # The three entry points, each called on one formula: all of them check
    # their limits before any block is evaluated; `validities_on` first
    # gets a one-point frame within every limit, so it checks the limits of
    # every frame before its first batch.  It checks the default caps, which
    # only `countermodel` and `frame_validates` let a caller raise.
    ONE_FORMULA = pytest.mark.parametrize(
        "check",
        [
            countermodel,
            frame_validates,
            lambda frame, phi: validities_on(
                [type(frame)(("o",), Relation.identity(1), Relation.identity(1)), frame],
                [phi],
            ),
        ],
        ids=["countermodel", "frame_validates", "validities_on"],
    )

    @ONE_FORMULA
    def test_one_formula_over_the_cap_is_named_a_formula(
        self, check, two_point_frame, no_evaluation
    ):
        with pytest.raises(BoundExceeded, match="formula has 4 letters"):
            check(two_point_frame, parse("p & q & r & s"))

    @ONE_FORMULA
    def test_frame_over_the_point_cap(self, check, no_evaluation):
        # Seven points, one over the default cap.
        n = 7
        frame = IntFrame(tuple(f"x{i}" for i in range(n)), chain_poset(n), chain_poset(n))
        with pytest.raises(BoundExceeded, match="7 points"):
            check(frame, parse("p -> p"))

    @pytest.mark.parametrize("check", [countermodel, frame_validates])
    def test_space_over_the_valuation_budget(self, check, no_evaluation):
        # 64 subsets of 6 points, four letters: 2^24 valuations.
        n = 6
        frame = MS4Frame(tuple(f"x{i}" for i in range(n)), chain_poset(n), Relation.total(n))
        assert 64**4 > VALUATION_BUDGET
        with pytest.raises(BoundExceeded, match="budget"):
            check(frame, parse("p & q & r & s", MODAL), letter_cap=4)


# --- caches ---------------------------------------------------------------------


def _clear_caches():
    for cached in (semantics._compile, semantics._layout):
        cached.cache_clear()


def test_equal_formulas_share_one_program(two_point_frame):
    _clear_caches()
    text = "forall((p -> forall p) -> forall p) -> forall p"
    first, second = parse(text), parse(text)
    assert first is not second
    assert countermodel(two_point_frame, first) == countermodel(two_point_frame, second)
    info = semantics._compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_layouts_are_shared_per_point_count_on_modal_frames_only():
    # Modal letters range over all subsets, so the order does not decide the
    # layout; intuitionistic letters range over the order's upsets.
    names = ("a", "b", "c")
    chain, antichain = chain_poset(3), Relation.identity(3)
    _clear_caches()
    for r in (chain, antichain):
        assert countermodel(MS4Frame(names, r, antichain), parse("box p -> p", MODAL)) is None
    assert semantics._layout.cache_info().misses == 1
    _clear_caches()
    for r in (chain, antichain):
        assert countermodel(IntFrame(names, r, r), parse("p -> p")) is None
    assert semantics._layout.cache_info().misses == 2


def test_languages_never_share_a_program(two_point_frame, ms4_chain):
    _clear_caches()
    int_p, modal_p = letter("p", INT), letter("p", MODAL)
    semantics._compile((int_p,))
    semantics._compile((modal_p,))
    assert semantics._compile.cache_info().misses == 2
    # Excluded middle fails on the int 2-chain and holds classically.
    assert countermodel(two_point_frame, disj(int_p, neg(int_p))) is not None
    assert countermodel(ms4_chain, disj(modal_p, neg(modal_p))) is None
    assert semantics._compile((implies(int_p, int_p),)) != semantics._compile(
        (implies(modal_p, modal_p),)
    )


def merged_programs(formulas):
    """The pool's program built the slow way: each formula compiled alone,
    then renumbered into one program by instruction key."""
    program: list[tuple] = []
    slots: dict[tuple, int] = {}
    roots = []
    letters = set()
    for phi in formulas:
        own, (own_root,), own_letters = semantics._compile((phi,))
        letters.update(own_letters)
        local: list[int] = []
        for op, a, b in own:
            if op in ("and", "or", "imp"):
                a, b = local[a], local[b]
            elif op in ("all", "some"):
                a = local[a]
            instruction = (op, a, b)
            slot = slots.get(instruction)
            if slot is None:
                slot = slots[instruction] = len(program)
                program.append(instruction)
            local.append(slot)
        roots.append(local[own_root])
    return tuple(program), tuple(roots), tuple(sorted(letters))


def oracle_compile(formulas):
    """The walk `_compile` made before it had one visit per stack entry: a
    node stays on the stack until no argument is pending, and `emit` adds
    each new instruction to the program."""
    program: list[tuple] = []
    slots: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> slot
    letters = set()

    def emit(*instruction) -> int:
        slot = slots.get(instruction)
        if slot is None:
            slot = slots[instruction] = len(program)
            program.append(instruction)
        return slot

    stack = list(reversed(formulas))
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [arg for arg in node.args if id(arg) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = node.kind
        args = [done[id(arg)] for arg in node.args]
        if kind == "letter":
            letters.add(node.name)
            slot = emit("letter", node.name, None)
        elif kind in ("top", "bottom"):
            slot = emit(kind, None, None)
        else:
            if kind == "not":
                kind = "implies"
                args.append(emit("bottom", None, None))
            op, rel = semantics._OPS[node.lang][kind]
            if op in ("all", "some"):
                slot = emit(op, args[0], rel)
            else:
                slot = emit(op, *args)
                if rel is not None:
                    slot = emit("all", slot, rel)
        done[id(node)] = slot
    roots = tuple(done[id(phi)] for phi in formulas)
    return tuple(program), roots, tuple(sorted(letters))


def two_entry_compile(formulas):
    """The walk `_compile` made before its stack held one entry per visit:
    (node, None) enters a node, pushing (node, node.args), whose visit emits
    it, then the node's arguments in order."""
    slots: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> slot
    stack: list = [(phi, None) for phi in reversed(formulas)]
    while stack:
        node, args = stack.pop()
        if args is None:
            if id(node) not in done:
                stack.append((node, node.args))
                for arg in node.args:
                    stack.append((arg, None))
            continue
        kind = node.kind
        if kind == "letter":
            slot = slots.setdefault(("letter", node.name, None), len(slots))
        elif kind == "top" or kind == "bottom":
            slot = slots.setdefault((kind, None, None), len(slots))
        else:
            op, rel = semantics._OPS[node.lang]["implies" if kind == "not" else kind]
            a = done[id(args[0])]
            if op == "all" or op == "some":
                slot = slots.setdefault((op, a, rel), len(slots))
            else:
                if kind == "not":
                    b = slots.setdefault(("bottom", None, None), len(slots))
                else:
                    b = done[id(args[1])]
                slot = slots.setdefault((op, a, b), len(slots))
                if rel is not None:
                    slot = slots.setdefault(("all", slot, rel), len(slots))
        done[id(node)] = slot
    roots = tuple(done[id(phi)] for phi in formulas)
    letters = sorted(name for op, name, _ in slots if op == "letter")
    return tuple(slots), roots, tuple(letters)


def test_compile_matches_the_merge_on_the_translation_pools():
    for pool in TRANSLATION_POOLS.values():
        compiled = semantics._compile(tuple(pool))
        assert compiled == merged_programs(pool) == oracle_compile(tuple(pool))


@settings(max_examples=100, deadline=None)
@given(lang=st.sampled_from((INT, MODAL)), drawn=DRAWN, picks=PICKS)
def test_compile_matches_the_merge_on_drawn_pools(lang, drawn, picks):
    pool = drawn_pool(lang, drawn, picks)
    compiled = semantics._compile(pool)
    assert compiled == merged_programs(pool) == oracle_compile(pool) == two_entry_compile(pool)


def test_compile_matches_the_oracle_walk():
    # 500 seeded draws, each alone and as one pool per language; pools that
    # repeat objects, hold equal but distinct formulas and share an object
    # within one formula; `<->` chains of draws, whose sides are shared;
    # chains 5,000 deep, out of reach of recursion.
    draws = {INT: [], MODAL: []}
    for seed in range(500):
        lang = (INT, MODAL)[seed % 2]
        letters = POOL_LETTERS[seed // 2 % len(POOL_LETTERS)]
        draws[lang].append(random_formula(random.Random(seed), letters, seed % 7, lang))
    pools = [(phi,) for pool in draws.values() for phi in pool]
    pools += [tuple(pool) for pool in draws.values()]
    text = "forall((p -> forall p) -> forall p) -> forall p"
    a, b = parse(text), parse(text)
    twins = (a, b, a, disj(a, a), disj(a, b), a.args[1], b.args[0], neg(a), neg(b))
    pools += [twins, tuple(map(godel_translate, twins)), twins[::-1]]
    for lang, pool in draws.items():
        chains = [
            parse(" <-> ".join(f"({print_formula(phi)})" for phi in pool[i : i + 3]), lang)
            for i in range(0, 60, 3)
        ]
        pools += [tuple(chains), tuple(arg for phi in chains for arg in phi.args)]
    deep = {lang: letter("p", lang) for lang in (INT, MODAL)}
    for _ in range(5000):
        deep = {lang: neg(phi) for lang, phi in deep.items()}
    for phi in deep.values():
        pools += [(phi,), (phi, neg(phi), implies(phi, phi.args[0]))]
    for pool in pools:
        compiled = semantics._compile.__wrapped__(pool)
        assert compiled == oracle_compile(pool) == two_entry_compile(pool)


CACHE_POOL = {
    lang: [
        random_formula(random.Random(seed), ("p", "q", "r")[: 1 + seed % 3], 4, lang)
        for seed in range(16)
    ]
    for lang in (INT, MODAL)
}


def test_caches_agree_with_oracle_cold_and_warm():
    # The same formula objects on every frame, frames in both orders, each
    # order started with empty caches and then repeated with full ones.
    expected = {}

    def check(frame):
        lang = INT if isinstance(frame, IntFrame) else MODAL
        space = upsets(frame.r) if lang == INT else subsets(frame.n)
        for phi in CACHE_POOL[lang]:
            key = (frame, phi)
            if key not in expected:
                probes = [dict.fromkeys(phi.letters(), m) for m in (space[-1], space[1])]
                expected[key] = (
                    oracle_countermodel(frame, phi),
                    [oracle_truth(frame, assign, phi) for assign in probes],
                    probes,
                )
            countermodel_expected, truths, probes = expected[key]
            found = countermodel(frame, phi)
            got = None if found is None else (found.valuation.masks, found.point)
            assert got == countermodel_expected
            for assign, truth in zip(probes, truths):
                valuation = Valuation.from_masks(frame, assign)
                assert truth_set(frame, valuation, phi) == truth

    for order in (SMALL_FRAMES, SMALL_FRAMES[::-1]):
        _clear_caches()
        for frame in order:
            check(frame)
        assert semantics._compile.cache_info().hits > 0
        for frame in order:
            check(frame)


def test_deep_formula_built_in_python(two_point_frame):
    # 5000 negations: no parser limit applies, and hashing, equality, the
    # walkers, the program cache, the evaluator, the printers, the
    # translation and `desugar` must all cope.  ~~~~p is ~~p, so the first
    # countermodel is that of ~~p.
    def chain(depth):
        phi = letter("p")
        for _ in range(depth):
            phi = neg(phi)
        return phi

    phi = chain(5000)
    assert hash(phi) == hash(chain(5000))
    assert phi == chain(5000) and phi != chain(4999)
    assert phi.letters() == ("p",)
    assert phi.depth() == 5000
    assert sum(1 for _ in phi.subformulas()) == 5001
    short = countermodel(two_point_frame, chain(2))
    assert short is not None
    for deep in (phi, chain(5000)):
        found = countermodel(two_point_frame, deep)
        assert (found.valuation, found.point) == (short.valuation, short.point)
    assert countermodel(two_point_frame, implies(chain(5001), chain(1))) is None
    text = "~ " * 5000 + "p"
    assert found.to_json_dict()["formula"] == str(phi) == print_formula(phi) == text
    assert star_translate(phi) == text + "(x)"
    translated = godel_translate(phi)
    assert translated.depth() == 10001
    assert print_formula(translated) == "box ~ " * 5000 + "box p"
    lowered = letter("p")
    for _ in range(5000):
        lowered = implies(lowered, bottom())
    assert desugar(phi) == lowered
