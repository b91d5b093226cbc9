"""Exhaustive-valuation model checking on finite frames.

A finite frame has finitely many valuations, so frame validity is decided by
brute force.  Intuitionistic letters range over r-upsets; modal letters over
arbitrary subsets.  The search order is fixed (letters sorted, value masks
ascending with the last letter varying fastest, points in index order), so
"the first countermodel" is well defined and reproducible.

A pool of formulas (one formula is the pool of one) compiles into one
postorder program, with one slot per distinct subformula and one root per
formula, and the program runs on many valuations at a time: each slot holds
one int per point whose bit v says whether the subformula holds there under
valuation v of the current block (bit-slicing over the valuation space).

`countermodel`, `validities` and `frame_validates` share one search,
`_search`.  It checks every limit before any valuation is evaluated, then
runs the pool over the valuations of its letters in blocks that follow the
search order and grow from a small first block to a fixed width.  A formula
reads only its own letters, so it is valid iff it holds under every
valuation of the pool's.  A block drops the formulas it refutes, the next
block runs the program of those still holding, and the search stops when
none is left or the space is exhausted.  `countermodel`
reads its witness off the refuting block: the lowest failing valuation, then
that valuation's lowest failing point, which is the first countermodel
above.  `truth_set` runs the same evaluator on a block of one valuation.

Nothing is rebuilt per call, and every cache is bounded: `_compile` keeps a
program per pool (programs name the relations "r" and "s" rather than hold
them, so they do not depend on the frame), and `_layout` the valuation
numbering with its letter rows, per (order, letter count) on intuitionistic
frames and per (point count, letter count) on modal ones.  The successor
lists the programs quantify over are kept on each `Relation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from . import syntax
from .frames import BoundExceeded, Frame, Relation, bits, frame_to_json_dict, mask_of

LETTER_CAP = 3
POINT_CAP = 6
# Most valuations one countermodel search may visit, whatever the caps.  The
# default caps allow at most 64^3 = 2^18.
VALUATION_BUDGET = 1 << 20
# Valuations evaluated together: blocks start small, so a formula refuted
# early stops early, and grow to a fixed width, which bounds memory.  The
# first block is 256 wide because `_run` pays per instruction and per point,
# and a 256-bit int costs little more than a 16-bit one: every problem of at
# most 256 valuations (two letters on a 4-point modal frame, 16^2) is
# decided in one block.
_FIRST_BLOCK = 256
_MAX_BLOCK = 1 << 12


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


def _check_pair(frame, phi: syntax.Formula) -> None:
    if phi.lang != LANGUAGE[frame.kind]:
        raise ValueError(f"{frame.kind} frames evaluate {LANGUAGE[frame.kind]} formulas")


# How each connective compiles, per formula language: (op, relation).  "all"
# and "some" quantify over the relation's successors; "imp" with a relation
# is the intuitionistic implication, the classical one under "all" over r.
# `_check_pair` ties the language to the frame kind.
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


def _relations(frame) -> dict[str, tuple[tuple[int, ...], ...]]:
    """The successor lists a program's "r"/"s" labels name on `frame`."""
    return {"r": frame.r.successors, "s": frame.s.successors}


def _run(
    program, relations: dict, n: int, inputs: dict[str, list[int]], full: int
) -> list[list[int]]:
    """Evaluate `program` on a block of valuations; return every slot's rows.

    A row is one int per point: bit v is set when the subformula holds at
    that point under valuation v of the block.  `relations` maps "r" and "s"
    to successor lists, `inputs` holds each letter's rows and `full` has
    every bit of the block set.
    """
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


def truth_set(frame, valuation: Valuation, phi: syntax.Formula) -> int:
    """Mask of the points where `phi` holds.  The valuation must be built
    on `frame` and be admissible for the frame kind."""
    _check_pair(frame, phi)
    if valuation.frame != frame:
        raise ValueError("valuation belongs to a different frame")
    if not valuation.is_admissible():
        raise ValueError("valuation assigns a set that is not an r-upset")
    program, (root,), letters = _compile((phi,))
    assign = dict(valuation.masks)
    for name in letters:
        if name not in assign:
            raise ValueError(f"valuation does not cover letter {name!r}")
    inputs = {name: [mask >> x & 1 for x in range(frame.n)] for name, mask in assign.items()}
    holds = _run(program, _relations(frame), frame.n, inputs, 1)[root]
    return mask_of(x for x, bit in enumerate(holds) if bit)


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


@lru_cache(maxsize=4096)
def _layout(n: int, k: int, order: Relation | None) -> tuple:
    """How the valuations of `k` letters on an n-point frame are numbered:
    (space, total, strides, periods, letter rows), all tuples.  The space is
    the upsets of `order` for intuitionistic letters and, with `order` None,
    all subsets for modal ones, so every n-point modal frame shares one
    layout per letter count.

    Valuation v gives letter i the mask space[v // strides[i] % len(space)]:
    the order of product(space, repeat=k).  Raises BoundExceeded, before
    building any rows, when there are more than VALUATION_BUDGET valuations.
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
    return space, total, strides, periods, rows


def _blocks(letters, periods, rows, total: int):
    """The valuations 0 .. total-1 in search order, block by block: yields
    (base, full, inputs), where bit v of the block is valuation base + v,
    `full` has every bit of the block set and `inputs` holds each letter's
    rows for `_run`.  Blocks grow from _FIRST_BLOCK to _MAX_BLOCK.  Widths
    never change the first countermodel: each block reports its lowest
    failing valuation."""
    base, width = 0, _FIRST_BLOCK
    while base < total:
        width = min(width, total - base)
        full = (1 << width) - 1
        yield base, full, {
            name: [row >> base % period & full for row in letter_rows]
            for name, period, letter_rows in zip(letters, periods, rows)
        }
        base += width
        width = min(4 * width, _MAX_BLOCK)


def _search(frame, formulas: tuple, letter_cap: int, point_cap: int) -> tuple:
    """The valuation search behind `countermodel`, `validities` and
    `frame_validates`: run the pool's program over the valuations of its
    letters, block by block, until every formula is refuted or the space is
    exhausted.

    Everything is checked, and BoundExceeded or ValueError raised, before
    any valuation is evaluated: each formula's language, the point cap, the
    letter cap on the pool's letters and `_layout`'s VALUATION_BUDGET.  After
    a block refutes some formulas, the next blocks run `_compile`'s cached
    program for those still holding, in pool order.  Returns (holding,
    letters, layout, base, full, rows): the pool positions that hold under
    every valuation, and the last block evaluated, whose bit v is valuation
    base + v, with the rows of each root that block ran.
    """
    for phi in formulas:
        _check_pair(frame, phi)
    program, slots, letters = _compile(formulas)
    n = frame.n
    if n > point_cap:
        raise BoundExceeded(f"frame has {n} points, cap is {point_cap}")
    if len(letters) > letter_cap:
        subject = "formula" if len(formulas) == 1 else "pool"
        raise BoundExceeded(f"{subject} has {len(letters)} letters, cap is {letter_cap}")
    layout = _layout(n, len(letters), frame.r if frame.kind == "int" else None)
    _, total, _, periods, rows = layout
    relations = _relations(frame)
    # The pool positions not yet refuted, and their roots in `program`.
    holding = range(len(formulas))
    for base, full, inputs in _blocks(letters, periods, rows, total):
        if len(slots) > len(holding):
            program, slots, _ = _compile(tuple(formulas[i] for i in holding))
        values = _run(program, relations, n, inputs, full)
        holding = [i for i, slot in zip(holding, slots) if values[slot].count(full) == n]
        if not holding:
            break
    return holding, letters, layout, base, full, [values[slot] for slot in slots]


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
    holding, letters, layout, base, full, (holds,) = _search(frame, (phi,), letter_cap, point_cap)
    if holding:
        return None
    # The block that refuted `phi`: its lowest failing valuation first, then
    # that valuation's lowest failing point.
    failing = 0
    for row in holds:
        failing |= full ^ row
    v = (failing & -failing).bit_length() - 1
    point = next(x for x, row in enumerate(holds) if not row >> v & 1)
    space, _, strides, _, _ = layout
    index = base + v
    assign = {name: space[index // stride % len(space)] for name, stride in zip(letters, strides)}
    return Countermodel(frame, Valuation.from_masks(frame, assign), point, phi)


def validities(
    frame,
    formulas,
    *,
    letter_cap: int = LETTER_CAP,
    point_cap: int = POINT_CAP,
) -> tuple[bool, ...]:
    """For each formula of the pool, whether `frame` validates it.

    The letter cap and VALUATION_BUDGET apply to the pool, not to each
    formula.  Equal formulas share a root, so they get the same answer.
    """
    formulas = tuple(formulas)
    held = set(_search(frame, formulas, letter_cap, point_cap)[0])
    return tuple([i in held for i in range(len(formulas))])


def frame_validates(
    frame,
    phi: syntax.Formula,
    *,
    letter_cap: int = LETTER_CAP,
    point_cap: int = POINT_CAP,
) -> bool:
    """True when every admissible valuation makes `phi` true everywhere."""
    return bool(_search(frame, (phi,), letter_cap, point_cap)[0])
