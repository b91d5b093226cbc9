"""Exhaustive-valuation model checking on finite frames.

A finite frame has finitely many valuations, so frame validity is decided by
brute force.  Intuitionistic letters range over r-upsets; modal letters over
arbitrary subsets.  The search order is fixed (letters sorted, value masks
ascending with the last letter varying fastest, points in index order), so
"the first countermodel" is well defined and reproducible.

A pool of formulas (one formula is the pool of one) compiles into one
postorder program, with one slot per distinct subformula and one root per
distinct formula, and the program runs on many valuations of many frames at
a time (bit-slicing, over the frames, the points and the valuations at
once).  A search runs on a batch of frames that share one valuation layout:
the same kind, the same point count n and, on intuitionistic frames, the
same r.  Each slot holds one int: on a block of W valuations, point x of
frame j owns the W-bit field at bit (j * n + x) * W, and bit v of that
field says whether the subformula holds there under valuation v of the
block.  So `and`, `or`, `imp`, `top`, `bottom` and `letter` are one int
operation each, and a quantifier over a relation groups the pairs (x, y) of
every frame's relation by offset y - x and does one shift, `or` and `and`
per offset: at most 2n - 1 of them, whatever the batch size.

`countermodel` and `frame_validates` search a batch of one frame, and
`validities_on` batches of many; all share one search, `_search`.
Every limit is checked before any valuation is evaluated.  The search runs
the pool over the valuations of its letters in blocks that follow the
search order and grow from a small first block to a fixed width.  A formula
reads only its own letters, so it is valid on a frame iff it holds there
under every valuation of the pool's: iff its root's fields of that frame
are all ones on every block.  A block drops the (frame, formula) pairs it
refutes, the next block runs the program of the formulas still holding on
some frame, and the search stops when no pair is left or the space is
exhausted.  `countermodel` unpacks the refuting root: the lowest failing
valuation, then that valuation's lowest failing point, which is the first
countermodel above.  `truth_set` runs the same evaluator on a block of one
valuation, where each field is one bit and each value a point mask.

Rebuilt per block are only the letters' inputs repeated once per frame of
the batch, and the offset tables of the relations the program quantifies
over (`_offsets`, from the kept successor lists of the batch's relations,
side by side); a batch of one frame repeats nothing and its table is that
frame's.  Every cache is bounded: `_compile` keeps a program per pool
(programs name the relations "r" and "s" rather than hold them, so they do
not depend on the frame), and `_layout` the valuation numbering with the
letters' packed first block and, when there are later blocks, their
per-point rows, per (order, letter count) on intuitionistic frames and per
(point count, letter count) on modal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from . import syntax
from .frames import BoundExceeded, Frame, Relation, bits, frame_to_json_dict

LETTER_CAP = 3
POINT_CAP = 6
# Most valuations one countermodel search may visit, whatever the caps.  The
# default caps allow at most 64^3 = 2^18.
VALUATION_BUDGET = 1 << 20
# Valuations evaluated together: blocks start small, so a formula refuted
# early stops early, and grow to a fixed width, which bounds memory.  The
# first block is 256 wide because `_run` pays per instruction and per
# offset, and an int of 256 bits per point costs little more than one of 16:
# every problem of at most 256 valuations (two letters on a 4-point modal
# frame, 16^2) is decided in one block.
_FIRST_BLOCK = 256
_MAX_BLOCK = 1 << 12
# Most bits a batch's values may hold on its first block: `validities_on`
# puts that many bits' worth of frames of one layout side by side.  Wider
# values make big-int work dominate the per-instruction cost a batch saves.
_BATCH_BITS = 1 << 12


def is_upset(rel: Relation, mask: int) -> bool:
    """Upward closed: no rel-step from inside the set leaves it."""
    return rel.image(mask) & ~mask == 0


@cache
def _characteristic_order(n: int) -> tuple[int, ...]:
    # Lexicographic order of characteristic vectors, point 0 most significant:
    # the k-th mask is k with its n bits reversed.
    return tuple(sum(1 << (n - 1 - i) for i in bits(k)) for k in range(1 << n))


def subsets(n: int) -> list[int]:
    """All subset masks in characteristic-vector order."""
    return list(_characteristic_order(n))


def upsets(rel: Relation) -> list[int]:
    """All upset masks of `rel`, in characteristic-vector order: the masks
    `is_upset` accepts, read off the rows."""
    rows = rel.rows
    out = []
    for mask in _characteristic_order(rel.n):
        for x in bits(mask):
            if rows[x] & ~mask:
                break
        else:
            out.append(mask)
    return out


@dataclass(frozen=True)
class Valuation:
    """Letter-to-point-set assignment on a fixed frame.

    Stored as (letter, mask) pairs sorted by letter so that valuations are
    hashable and compare by content; the constructor raises ValueError
    unless the letters strictly increase.
    """

    frame: Frame
    masks: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if any(a >= b for (a, _), (b, _) in zip(self.masks, self.masks[1:])):
            raise ValueError("valuation letters must be distinct and sorted")
        # A negative mask has every high bit set, so the shift catches it too.
        for name, mask in self.masks:
            if mask >> self.frame.n:
                raise ValueError(
                    f"letter {name!r} gets points outside the {self.frame.n}-point frame"
                )

    @classmethod
    def from_masks(cls, frame, assignment: dict[str, int]) -> "Valuation":
        return cls(frame, tuple(sorted(assignment.items())))

    def mask(self, name: str) -> int:
        for letter, mask in self.masks:
            if letter == name:
                return mask
        raise KeyError(f"valuation does not assign letter {name!r}")

    def is_admissible(self) -> bool:
        """On an intuitionistic frame every letter must get an r-upset."""
        return self.frame.kind != "int" or all(
            is_upset(self.frame.r, m) for _, m in self.masks
        )

    def to_json_dict(self) -> dict:
        return {name: list(bits(mask)) for name, mask in self.masks}


# The formula language each frame kind evaluates.
LANGUAGE = {"int": syntax.INT, "ms4": syntax.MODAL}


def _check_languages(frame, langs) -> None:
    """Raise ValueError unless each language of `langs` is the one `frame`
    evaluates."""
    expected = LANGUAGE[frame.kind]
    for lang in langs:
        if lang != expected:
            raise ValueError(f"{frame.kind} frames evaluate {expected} formulas")


# How each connective compiles, per formula language: (op, relation).  "all"
# and "some" quantify over the relation's successors; "imp" with a relation
# is the intuitionistic implication, the classical one under "all" over r.
# `_check_languages` ties the language to the frame kind.
_OPS = {
    syntax.INT: {
        "and": ("and", None),
        "or": ("or", None),
        "implies": ("imp", "r"),
        "forall": ("all", "s"),
        "exists": ("some", "s"),
    },
    syntax.MODAL: {
        "and": ("and", None),
        "or": ("or", None),
        "implies": ("imp", None),
        "box": ("all", "r"),
        "forall": ("all", "s"),
    },
}


@lru_cache(maxsize=512)
def _compile(
    formulas: tuple[syntax.Formula, ...],
) -> tuple[tuple[tuple, ...], tuple[int, ...], tuple[str, ...]]:
    """One postorder program for a pool: (program, each formula's root slot,
    the sorted letters of the pool).

    Instruction i computes slot i as (op, a, b): ("letter", name, None),
    ("top"|"bottom", None, None), ("and"|"or"|"imp", slot, slot), or
    ("all"|"some", slot, "r"|"s"), naming the frame relation to quantify
    over.  `~ A` compiles as `A -> F`.  The walk is iterative, one visit per
    stack entry: visiting a node enters it, which pushes the 1-tuple (node,),
    whose visit emits the node, then the node's arguments in order, so the
    last compiles first.  Each formula is finished before the next and each
    node object compiled once; equal subtrees, within a formula or across
    the pool, share one slot, keyed by the instruction, and the program is
    the keys in slot order.  The program does not depend on the frame, so
    it is cached per pool; the cache is bounded because it keeps its
    formulas alive.
    """
    slots: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> slot
    stack: list = list(reversed(formulas))
    while stack:
        node = stack.pop()
        if node.__class__ is not tuple:
            if id(node) not in done:
                stack.append((node,))
                stack += node.args
            continue
        (node,) = node
        args = node.args
        kind = node.kind
        if kind == "letter":
            slot = slots.setdefault(("letter", node.name, None), len(slots))
        elif kind == "top" or kind == "bottom":
            slot = slots.setdefault((kind, None, None), len(slots))
        else:
            compiled = _OPS[node.lang].get("implies" if kind == "not" else kind)
            if compiled is None:
                raise ValueError(f"cannot evaluate formula kind {kind!r} on this frame")
            op, rel = compiled
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


def _offsets(frames, name: str, width: int) -> tuple[list, list]:
    """The pairs (x, y) of relation `name` ("r" or "s") of every frame of a
    batch, grouped by offset d = y - x, for values whose fields are `width`
    bits wide: (down, up), lists of (|d| * width, here) for the offsets
    d >= 0 and d < 0 that occur, where `here` has every bit of the fields
    of the points x with x rel x + d.  Frame j's point x owns field
    j * n + x, so the pairs never cross frames and one frame's table is
    its own."""
    field = (1 << width) - 1
    down: dict[int, int] = {}
    up: dict[int, int] = {}
    for frame in frames:
        for x, row in enumerate(getattr(frame, name).successors):
            for y in row:
                if y >= x:
                    shift = (y - x) * width
                    down[shift] = down.get(shift, 0) | field
                else:
                    shift = (x - y) * width
                    up[shift] = up.get(shift, 0) | field
            field <<= width
    return list(down.items()), list(up.items())


def _run(program, frames, width: int, inputs: dict[str, int]) -> list[int]:
    """Evaluate `program` on a batch of `frames`, which share one point
    count n, over a block of `width` valuations; return every slot's value.

    A value is one int: point x of frame j owns the `width`-bit field at
    bit (j * n + x) * width, and bit v of that field is set when the
    subformula holds there under valuation v of the block.  `inputs` holds
    each letter's value.  The boolean steps are one int operation each.
    "all" and "some" read the `_offsets` of the named relation of every
    frame, built on first use in the call, and do one shift, `or` and `and`
    per offset.
    """
    ones = (1 << len(frames) * frames[0].n * width) - 1
    tables: dict[str, tuple[list, list]] = {}
    values: list[int] = []
    append = values.append
    for op, a, b in program:
        if op == "all":
            table = tables.get(b)
            if table is None:
                table = tables[b] = _offsets(frames, b, width)
            down, up = table
            # x fails it where, at some offset d with x b x + d, the body
            # fails at x + d: field x + d of `bad` shifted onto field x.
            bad = ones ^ values[a]
            fails = 0
            for shift, here in down:
                fails |= bad >> shift & here
            for shift, here in up:
                fails |= bad << shift & here
            append(ones ^ fails)
        elif op == "imp":
            append(ones ^ values[a] | values[b])
        elif op == "and":
            append(values[a] & values[b])
        elif op == "or":
            append(values[a] | values[b])
        elif op == "some":
            table = tables.get(b)
            if table is None:
                table = tables[b] = _offsets(frames, b, width)
            down, up = table
            # y holds it when the body holds at some predecessor of y:
            # field x moves onto field x + d wherever x b x + d.
            inner = values[a]
            out = 0
            for shift, here in down:
                out |= (inner & here) << shift
            for shift, here in up:
                out |= (inner & here) >> shift
            append(out)
        elif op == "letter":
            append(inputs[a])
        else:
            append(ones if op == "top" else 0)
    return values


def truth_set(frame, valuation: Valuation, phi: syntax.Formula) -> int:
    """Mask of the points where `phi` holds.  The valuation must be built
    on `frame` and be admissible for the frame kind."""
    _check_languages(frame, (phi.lang,))
    if valuation.frame != frame:
        raise ValueError("valuation belongs to a different frame")
    if not valuation.is_admissible():
        raise ValueError("valuation assigns a set that is not an r-upset")
    program, (root,), letters = _compile((phi,))
    inputs = dict(valuation.masks)
    for name in letters:
        if name not in inputs:
            raise ValueError(f"valuation does not cover letter {name!r}")
    # A block of one valuation: each value is a point mask, so the inputs
    # are the valuation's masks and the root's value is the answer.
    return _run(program, (frame,), 1, inputs)[root]


@dataclass(frozen=True)
class Countermodel:
    """First refuting valuation and point found for a formula on a frame."""

    frame: Frame
    valuation: Valuation
    point: int
    formula: syntax.Formula

    def to_json_dict(self) -> dict:
        return {
            "frame": frame_to_json_dict(self.frame),
            "valuation": self.valuation.to_json_dict(),
            "point": self.point,
            "formula": syntax.print_formula(self.formula),
        }

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}={{{', '.join(self.frame.points[i] for i in bits(mask))}}}"
            for name, mask in self.valuation.masks
        )
        name = self.frame.points[self.point]
        return f"fails at {name} under {parts or 'the empty valuation'}"


def _letter_rows(space: list[int], n: int, stride: int, reach: int) -> list[int]:
    """Per point, the bits of one letter over valuations 0, 1, ... (at least
    `reach` of them): bit v is set when the letter's mask at valuation v
    contains the point.  The letter's mask is space[v // stride % len(space)],
    so the rows repeat with period len(space) * stride."""
    period = len(space) * stride
    run = (1 << stride) - 1
    rows = []
    for x in range(n):
        row = 0
        for digit, mask in enumerate(space):
            if mask >> x & 1:
                row |= run << digit * stride
        length = period
        while length < reach:
            row |= row << length
            length *= 2
        rows.append(row)
    return rows


def _pack(rows: list[int], offset: int, width: int) -> int:
    """One letter's value on the block of `width` valuations from `offset`
    on: point x's row, read from bit `offset`, in the field at bit
    x * width."""
    field = (1 << width) - 1
    out = 0
    for x, row in enumerate(rows):
        out |= (row >> offset & field) << x * width
    return out


@lru_cache(maxsize=4096)
def _layout(n: int, k: int, order: Relation | None) -> tuple:
    """How the valuations of `k` letters on an n-point frame are numbered:
    (space, total, strides, periods, rows, first), all tuples.  The space
    is the upsets of `order` for intuitionistic letters and, with `order`
    None, all subsets for modal ones, so every n-point modal frame shares
    one layout per letter count.

    Valuation v gives letter i the mask space[v // strides[i] % len(space)]:
    the order of product(space, repeat=k).  `first` holds each letter's
    packed value on the first block (`_pack`) and `rows` its per-point rows
    for the later ones (`_letter_rows`); a space that fits in the first
    block has no later blocks, so its rows are not kept.  Raises
    BoundExceeded, before building anything, when there are more than
    VALUATION_BUDGET valuations.
    """
    space = _characteristic_order(n) if order is None else tuple(upsets(order))
    total = len(space) ** k
    if total > VALUATION_BUDGET:
        raise BoundExceeded(
            f"{len(space)}^{k} valuations to search, budget is {VALUATION_BUDGET}"
        )
    strides = tuple(len(space) ** (k - 1 - i) for i in range(k))
    periods = tuple(len(space) * stride for stride in strides)
    rows = tuple(
        tuple(_letter_rows(space, n, stride, min(total, period + _MAX_BLOCK)))
        for stride, period in zip(strides, periods)
    )
    first = tuple(_pack(letter_rows, 0, min(total, _FIRST_BLOCK)) for letter_rows in rows)
    if total <= _FIRST_BLOCK:
        rows = ()
    return space, total, strides, periods, rows, first


def _blocks(letters, layout):
    """The valuations 0 .. total-1 of `layout` in search order, block by
    block: yields (base, width, inputs), where bit v of each field is
    valuation base + v and `inputs` holds each letter's value for `_run`.
    Blocks grow from _FIRST_BLOCK to _MAX_BLOCK; the first comes packed from
    the layout.  Widths never change the first countermodel: each block
    reports its lowest failing valuation."""
    _, total, _, periods, rows, first = layout
    width = min(total, _FIRST_BLOCK)
    yield 0, width, dict(zip(letters, first))
    base = width
    while base < total:
        width = min(4 * width, _MAX_BLOCK, total - base)
        yield base, width, {
            name: _pack(letter_rows, base % period, width)
            for name, period, letter_rows in zip(letters, periods, rows)
        }
        base += width


def _limits(frame, formulas: tuple, letter_cap: int, point_cap: int) -> tuple:
    """Check every limit of a search of `formulas` on `frame`: the pool's
    languages, the point cap, the letter cap on the pool's letters and
    `_layout`'s VALUATION_BUDGET.  Frames that share a layout pass or fail
    alike.  Returns (program, roots, letters, layout): `_compile`'s program
    for the pool and the search's `_layout`."""
    _check_languages(frame, {phi.lang for phi in formulas})
    program, slots, letters = _compile(formulas)
    n = frame.n
    if n > point_cap:
        raise BoundExceeded(f"frame has {n} points, cap is {point_cap}")
    if len(letters) > letter_cap:
        subject = "formula" if len(formulas) == 1 else "pool"
        raise BoundExceeded(f"{subject} has {len(letters)} letters, cap is {letter_cap}")
    layout = _layout(n, len(letters), frame.r if frame.kind == "int" else None)
    return program, slots, letters, layout


def _search(frames, formulas: tuple, checked: tuple) -> tuple:
    """The valuation search behind every entry point: run the pool's program
    over the valuations of its letters on a batch of `frames` that share
    one layout, block by block, until every (frame, formula) pair is
    refuted or the space is exhausted.

    `checked` is what `_limits` returned for a frame of the batch, so every
    limit was checked before any valuation is evaluated.  Equal formulas
    share a root, so each distinct root is decided once.  A formula holds
    on frame j on a block when its root has every bit of frame j's fields
    set.  After a block refutes a formula on the last frame it held on, the
    next blocks run `_compile`'s cached program for the formulas still
    holding somewhere, in pool order.  Returns (held, base, width, values,
    roots): `held` maps each of the pool's roots that holds on some frame
    under every valuation to the mask of those frames (bit j for frame j);
    then the last block evaluated, whose bit v of each field is valuation
    base + v, with the values of the program that block ran and the roots
    of the formulas it ran.
    """
    program, slots, letters, layout = checked
    n = frames[0].n
    count = len(frames)
    # The distinct roots still holding on some frame, in pool order, each
    # with the mask of those frames; `roots` are their roots in the program
    # a block runs, at first the keys themselves.
    held = dict.fromkeys(slots, (1 << count) - 1)
    roots = held
    for base, width, inputs in _blocks(letters, layout):
        if len(roots) > len(held):
            formula_of = dict(zip(slots, formulas))
            program, roots, _ = _compile(tuple([formula_of[slot] for slot in held]))
        size = n * width  # the bits of one frame's fields
        ones = (1 << count * size) - 1
        # A batch of one skips this: one path for all ran 3-4% slower on `modelcheck`.
        if count > 1:
            # A packed value times `repeat`, which has bit j * size for
            # each frame j, is that value in every frame's fields.
            repeat = ones // ((1 << size) - 1)
            inputs = {name: value * repeat for name, value in inputs.items()}
            # The top bit of each frame's fields, and every bit below it.
            below = repeat * ((1 << size - 1) - 1)
            top = ones ^ below
        values = _run(program, frames, width, inputs)
        still = {}
        for (slot, on), root in zip(held.items(), roots):
            fails = ones ^ values[root]
            if fails:
                if count == 1:
                    continue
                # Adding `below` carries into the top bit of each frame's
                # fields that fail below it, and no further: bit j * size +
                # size - 1 of `failing` is set when frame j is refuted.
                failing = ((fails & below) + below | fails) & top
                if failing == top:
                    continue
                while failing:
                    j = failing.bit_length() // size - 1
                    on &= ~(1 << j)
                    failing ^= 1 << (j + 1) * size - 1
                if not on:
                    continue
            still[slot] = on
        held = still
        if not held:
            break
    return held, base, width, values, roots


def countermodel(
    frame,
    phi: syntax.Formula,
    *,
    letter_cap: int = LETTER_CAP,
    point_cap: int = POINT_CAP,
) -> Countermodel | None:
    """Search all admissible valuations for a refutation of `phi`.

    Returns None when the frame validates the formula.  Caps guard against
    accidental blowups; pass larger caps explicitly to override.  Whatever
    the caps, a search over more than VALUATION_BUDGET valuations raises
    BoundExceeded before it starts.
    """
    checked = _limits(frame, (phi,), letter_cap, point_cap)
    held, base, width, values, (root,) = _search((frame,), (phi,), checked)
    if held:
        return None
    # The block that refuted `phi`: its lowest failing valuation first, then
    # that valuation's lowest failing point.  Folding every field onto the
    # first leaves the lowest failing valuation as the lowest set bit.
    n = frame.n
    fails = ((1 << n * width) - 1) ^ values[root]
    failing = 0
    for x in range(n):
        failing |= fails >> x * width
    v = (failing & -failing).bit_length() - 1
    point = next(x for x in range(n) if fails >> x * width + v & 1)
    _, _, letters, (space, _, strides, _, _, _) = checked
    index = base + v
    assign = {name: space[index // stride % len(space)] for name, stride in zip(letters, strides)}
    return Countermodel(frame, Valuation.from_masks(frame, assign), point, phi)


def validities_on(frames, formulas) -> list[tuple[bool, ...]]:
    """For each frame, in order, for each formula of the pool, whether the
    frame validates it.

    The frames are grouped by valuation layout (kind, point count and, on
    intuitionistic frames, the rows of r), and each group is searched in
    batches of as many frames as fit side by side in _BATCH_BITS bits on the
    first block, one `_search` per batch.  POINT_CAP, LETTER_CAP on the
    letters of the whole pool, and VALUATION_BUDGET are checked for every
    frame before any block is evaluated; no option raises the caps.  Equal
    formulas share a root, so they get the same answer.
    """
    formulas = tuple(formulas)
    frames = list(frames)
    groups: dict[tuple, list[int]] = {}
    for index, frame in enumerate(frames):
        key = (frame.kind, frame.n, frame.r.rows if frame.kind == "int" else None)
        groups.setdefault(key, []).append(index)
    checks = [
        _limits(frames[group[0]], formulas, LETTER_CAP, POINT_CAP) for group in groups.values()
    ]
    out: list = [()] * len(frames)
    for group, checked in zip(groups.values(), checks):
        _, slots, _, (_, total, *_) = checked
        step = max(1, _BATCH_BITS // (frames[group[0]].n * min(total, _FIRST_BLOCK)))
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            held = _search([frames[i] for i in batch], formulas, checked)[0]
            # Frame j of the batch holds a root when bit j of its mask is set.
            masks = [held.get(slot, 0) for slot in slots]
            for j, index in enumerate(batch):
                out[index] = tuple([mask >> j & 1 == 1 for mask in masks])
    return out


def frame_validates(frame, phi: syntax.Formula) -> bool:
    """True when every admissible valuation makes `phi` true everywhere;
    the default caps and VALUATION_BUDGET are checked first."""
    checked = _limits(frame, (phi,), LETTER_CAP, POINT_CAP)
    return bool(_search((frame,), (phi,), checked)[0])
