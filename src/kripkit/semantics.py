"""Exhaustive-valuation model checking on finite frames.

A finite frame has finitely many valuations, so frame validity is decided by
brute force.  Intuitionistic letters range over r-upsets; modal letters over
arbitrary subsets.  The search order is fixed (letters sorted, value masks
ascending with the last letter varying fastest, points in index order), so
"the first countermodel" is well defined and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import syntax
from .frames import BoundExceeded, IntFrame, MS4Frame, Relation, bits, mask_of

LETTER_CAP = 3
POINT_CAP = 6


def is_upset(rel: Relation, mask: int) -> bool:
    """Upward closed: no rel-step from inside the set leaves it."""
    return rel.image(mask) & ~mask == 0


def _characteristic_key(n: int):
    # Lexicographic order of characteristic vectors, point 0 most significant.
    return lambda mask: tuple(mask >> i & 1 for i in range(n))


def subsets(n: int) -> list[int]:
    """All subset masks in characteristic-vector order."""
    return sorted(range(1 << n), key=_characteristic_key(n))


def upsets(rel: Relation) -> list[int]:
    """All upset masks of `rel`, in characteristic-vector order."""
    return sorted(
        (m for m in range(1 << rel.n) if is_upset(rel, m)),
        key=_characteristic_key(rel.n),
    )


@dataclass(frozen=True)
class Valuation:
    """Letter-to-point-set assignment on a fixed frame.

    Stored as (letter, mask) pairs sorted by letter so that valuations are
    hashable and compare by content.
    """

    frame: IntFrame | MS4Frame
    masks: tuple[tuple[str, int], ...]

    @classmethod
    def from_masks(cls, frame, assignment: dict[str, int]) -> "Valuation":
        return cls(frame, tuple(sorted(assignment.items())))

    @classmethod
    def from_points(cls, frame, assignment: dict[str, list[int]]) -> "Valuation":
        return cls.from_masks(frame, {k: mask_of(v) for k, v in assignment.items()})

    def mask(self, name: str) -> int:
        for letter, mask in self.masks:
            if letter == name:
                return mask
        raise KeyError(f"valuation does not assign letter {name!r}")

    def is_admissible(self) -> bool:
        """On an intuitionistic frame every letter must get an r-upset."""
        if isinstance(self.frame, IntFrame):
            return all(is_upset(self.frame.r, m) for _, m in self.masks)
        return True

    def to_json_dict(self) -> dict:
        return {name: list(bits(mask)) for name, mask in self.masks}


def _check_pair(frame, phi: syntax.Formula) -> None:
    if isinstance(frame, IntFrame) and phi.lang != syntax.INT:
        raise ValueError("intuitionistic frames evaluate intuitionistic formulas")
    if isinstance(frame, MS4Frame) and phi.lang != syntax.MODAL:
        raise ValueError("modal frames evaluate modal formulas")


def _truth_int(frame: IntFrame, assign: dict[str, int], phi, memo: dict) -> int:
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
        out = _truth_int(frame, assign, phi.args[0], memo) & _truth_int(
            frame, assign, phi.args[1], memo
        )
    elif kind == "or":
        out = _truth_int(frame, assign, phi.args[0], memo) | _truth_int(
            frame, assign, phi.args[1], memo
        )
    elif kind == "implies":
        bad = _truth_int(frame, assign, phi.args[0], memo) & ~_truth_int(
            frame, assign, phi.args[1], memo
        )
        out = mask_of(x for x in range(frame.n) if frame.r.rows[x] & bad == 0)
    elif kind == "forall":
        inner = _truth_int(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.q.rows[x] & ~inner == 0)
    else:
        assert kind == "exists"
        # x satisfies it when some q-predecessor of x satisfies the body.
        out = frame.q.image(_truth_int(frame, assign, phi.args[0], memo))
    memo[phi] = out
    return out


def _truth_ms4(frame: MS4Frame, assign: dict[str, int], phi, memo: dict) -> int:
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
        out = _truth_ms4(frame, assign, phi.args[0], memo) & _truth_ms4(
            frame, assign, phi.args[1], memo
        )
    elif kind == "or":
        out = _truth_ms4(frame, assign, phi.args[0], memo) | _truth_ms4(
            frame, assign, phi.args[1], memo
        )
    elif kind == "implies":
        out = (full & ~_truth_ms4(frame, assign, phi.args[0], memo)) | _truth_ms4(
            frame, assign, phi.args[1], memo
        )
    elif kind == "box":
        inner = _truth_ms4(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.r.rows[x] & ~inner == 0)
    else:
        assert kind == "forall"
        inner = _truth_ms4(frame, assign, phi.args[0], memo)
        out = mask_of(x for x in range(frame.n) if frame.e.rows[x] & ~inner == 0)
    memo[phi] = out
    return out


def _truth(frame, assign: dict[str, int], desugared, memo: dict) -> int:
    if isinstance(frame, IntFrame):
        return _truth_int(frame, assign, desugared, memo)
    return _truth_ms4(frame, assign, desugared, memo)


def truth_set(frame, valuation: Valuation, phi: syntax.Formula) -> int:
    """Mask of the points where `phi` holds.  The valuation must be built
    on `frame` and be admissible for the frame kind."""
    _check_pair(frame, phi)
    if valuation.frame != frame:
        raise ValueError("valuation belongs to a different frame")
    if not valuation.is_admissible():
        raise ValueError("valuation assigns a set that is not an r-upset")
    return _truth(frame, dict(valuation.masks), syntax.desugar(phi), {})


def satisfies_int(frame: IntFrame, valuation: Valuation, point: int, phi) -> bool:
    return bool(truth_set(frame, valuation, phi) >> point & 1)


def satisfies_ms4(frame: MS4Frame, valuation: Valuation, point: int, phi) -> bool:
    return bool(truth_set(frame, valuation, phi) >> point & 1)


@dataclass(frozen=True)
class Countermodel:
    """First refuting valuation and point found for a formula on a frame."""

    frame: IntFrame | MS4Frame
    valuation: Valuation
    point: int
    formula: syntax.Formula

    def to_json_dict(self) -> dict:
        from .frames import frame_to_json_dict

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


def countermodel(
    frame,
    phi: syntax.Formula,
    *,
    letter_cap: int = LETTER_CAP,
    point_cap: int = POINT_CAP,
) -> Countermodel | None:
    """Search all admissible valuations for a refutation of `phi`.

    Returns None when the frame validates the formula.  Caps guard against
    accidental blowups; pass larger caps explicitly to override.
    """
    _check_pair(frame, phi)
    letters = phi.letters()
    if frame.n > point_cap:
        raise BoundExceeded(f"frame has {frame.n} points, cap is {point_cap}")
    if len(letters) > letter_cap:
        raise BoundExceeded(f"formula has {len(letters)} letters, cap is {letter_cap}")
    if isinstance(frame, IntFrame):
        space = upsets(frame.r)
    else:
        space = subsets(frame.n)
    desugared = syntax.desugar(phi)
    full = (1 << frame.n) - 1
    for combo in product(space, repeat=len(letters)):
        assign = dict(zip(letters, combo))
        holds = _truth(frame, assign, desugared, {})
        failing = full & ~holds
        if failing:
            point = next(bits(failing))
            valuation = Valuation.from_masks(frame, assign)
            return Countermodel(frame, valuation, point, phi)
    return None


def frame_validates(
    frame,
    phi: syntax.Formula,
    *,
    letter_cap: int = LETTER_CAP,
    point_cap: int = POINT_CAP,
) -> bool:
    """True when every admissible valuation makes `phi` true everywhere."""
    return countermodel(frame, phi, letter_cap=letter_cap, point_cap=point_cap) is None
