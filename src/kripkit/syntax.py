"""Formula syntax for the two object languages.

The workbench works with two propositional languages that share one AST type,
distinguished by a language tag:

- ``"int"``: intuitionistic base with the quantifier modalities ``forall``
  and ``exists``;
- ``"modal"``: classical base with ``box`` and ``forall``.

Concrete syntax, loosest to tightest: ``<->`` (desugared at parse time),
``->`` (right associative), ``|``, ``&``, then the unary prefixes ``~``,
``forall``, ``exists``, ``box``.  ``T`` and ``F`` are the constants; letters
match ``[a-z][a-z0-9_]*``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

INT = "int"
MODAL = "modal"

_ARITY = {
    "letter": 0,
    "top": 0,
    "bottom": 0,
    "not": 1,
    "forall": 1,
    "exists": 1,
    "box": 1,
    "and": 2,
    "or": 2,
    "implies": 2,
}

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_KEYWORDS = frozenset(("forall", "exists", "box"))


class ParseError(ValueError):
    """Malformed formula text; `position` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LanguageError(ParseError):
    """A connective that does not belong to the requested language."""


@dataclass(frozen=True, slots=True)
class Formula:
    """Immutable formula node.

    `name` is nonempty exactly for letters; `args` holds the subformulas.
    All nodes of one formula carry the same `lang` tag, and the
    language-specific connectives (`exists` for "int", `box` for "modal")
    are rejected outside their language.

    Each node computes its structural hash, its connective depth and its
    size once, at construction, from its children's cached values, so `hash`
    and `depth` take constant time and formulas can key caches.  The size
    counts nodes as a tree: a subtree that `<->` shares counts once per
    occurrence.  Construction sets no limit; `parse` enforces MAX_NESTING
    and MAX_SIZE from these fields.  Equality is structural; it and the tree
    walks below use an explicit stack, so arbitrarily deep formulas built in
    Python are safe.
    """

    lang: str
    kind: str
    name: str = ""
    args: tuple["Formula", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lang not in (INT, MODAL):
            raise ValueError(f"unknown language tag {self.lang!r}")
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown formula kind {self.kind!r}")
        if len(self.args) != arity:
            raise ValueError(f"{self.kind} expects {arity} arguments, got {len(self.args)}")
        if self.kind == "letter":
            if not _NAME_RE.match(self.name) or self.name in _KEYWORDS:
                raise ValueError(f"bad letter name {self.name!r}")
        elif self.name:
            raise ValueError(f"{self.kind} does not take a name")
        if self.kind == "exists" and self.lang != INT:
            raise ValueError("'exists' belongs to the intuitionistic language")
        if self.kind == "box" and self.lang != MODAL:
            raise ValueError("'box' belongs to the modal language")
        depth, size = 0, 1
        for arg in self.args:
            if arg.lang != self.lang:
                raise ValueError("mixed-language formula")
            if arg._depth >= depth:
                depth = arg._depth + 1
            size += arg._size
        object.__setattr__(self, "_hash", hash((self.lang, self.kind, self.name, self.args)))
        object.__setattr__(self, "_depth", depth)
        object.__setattr__(self, "_size", size)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a._hash, a.lang, a.kind, a.name) != (b._hash, b.lang, b.kind, b.name):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def letters(self) -> tuple[str, ...]:
        """Sorted tuple of the distinct letter names occurring here."""
        return tuple(sorted({f.name for f in self.subformulas() if f.kind == "letter"}))

    def subformulas(self) -> Iterator["Formula"]:
        """Every node, preorder: a node, then its arguments left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.args))

    def depth(self) -> int:
        """Connective nesting depth; atoms have depth 0."""
        return self._depth

    def __str__(self) -> str:
        return print_formula(self)


def letter(name: str, lang: str = INT) -> Formula:
    return Formula(lang, "letter", name)


def top(lang: str = INT) -> Formula:
    return Formula(lang, "top")


def bottom(lang: str = INT) -> Formula:
    return Formula(lang, "bottom")


def neg(arg: Formula) -> Formula:
    return Formula(arg.lang, "not", args=(arg,))


def forall(arg: Formula) -> Formula:
    return Formula(arg.lang, "forall", args=(arg,))


def exists(arg: Formula) -> Formula:
    return Formula(arg.lang, "exists", args=(arg,))


def box(arg: Formula) -> Formula:
    return Formula(arg.lang, "box", args=(arg,))


def conj(lhs: Formula, rhs: Formula) -> Formula:
    return Formula(lhs.lang, "and", args=(lhs, rhs))


def disj(lhs: Formula, rhs: Formula) -> Formula:
    return Formula(lhs.lang, "or", args=(lhs, rhs))


def implies(lhs: Formula, rhs: Formula) -> Formula:
    return Formula(lhs.lang, "implies", args=(lhs, rhs))


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<iff><->)|(?P<arrow>->)|(?P<sym>[()&|~])"
    r"|(?P<const>[TF])|(?P<name>[a-z][a-z0-9_]*)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kind is the literal token for
    punctuation and constants, "name" for letters, or the keyword itself."""
    tokens: list[tuple[str, str, int]] = []
    # Every character starts a match (`\n` is whitespace, anything else not
    # a token is `bad`), so the matches tile the text.
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "ws":
            continue
        word = m.group()
        if group == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
        kind = "name" if group == "name" and word not in _KEYWORDS else word
        tokens.append((kind, word, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest nesting `parse` accepts: of connectives in the result (the depth
# each node stores), and of prefixes and parentheses in the text.  Deeper
# input raises ParseError rather than exhausting the interpreter stack, here
# or in the recursive passes that follow (desugaring, printing, translation,
# evaluation).  Formulas built in Python have no such cap.
MAX_NESTING = 100
# Most nodes the result of `parse` may have, counted as a tree (the size
# each node stores).  `A <-> B` shares A and B between its two implications,
# so every link of a `<->` chain doubles the tree that the recursive passes
# walk; larger results raise ParseError instead of hanging them.
MAX_SIZE = 10_000

_PREFIX = {"~": neg, "forall": forall, "exists": exists, "box": box}


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], lang: str):
        self.tokens = tokens
        self.lang = lang
        self.pos = 0
        self.open = 0  # prefixes and parentheses enclosing the current token

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def too_deep(self, position: int) -> ParseError:
        return ParseError(f"formula nested deeper than {MAX_NESTING} levels", position)

    def enter(self, position: int) -> None:
        self.open += 1
        if self.open > MAX_NESTING:
            raise self.too_deep(position)

    def node(self, make, position: int, *args: Formula) -> Formula:
        out = make(*args)
        if out._depth > MAX_NESTING:
            raise self.too_deep(position)
        if out._size > MAX_SIZE:
            raise ParseError(f"formula expands to more than {MAX_SIZE} nodes", position)
        return out

    def formula(self) -> Formula:
        # A <-> B is sugar for (A -> B) & (B -> A); right associative.
        parts = [self.implication()]
        positions = []
        while self.peek() == "<->":
            positions.append(self.take()[2])
            parts.append(self.implication())
        out = parts.pop()
        while parts:
            lhs, position = parts.pop(), positions.pop()
            out = self.node(
                conj,
                position,
                self.node(implies, position, lhs, out),
                self.node(implies, position, out, lhs),
            )
        return out

    def implication(self) -> Formula:
        parts = [self.disjunction()]
        positions = []
        while self.peek() == "->":
            positions.append(self.take()[2])
            parts.append(self.disjunction())
        out = parts.pop()
        while parts:
            out = self.node(implies, positions.pop(), parts.pop(), out)
        return out

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek() == "|":
            position = self.take()[2]
            out = self.node(disj, position, out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            position = self.take()[2]
            out = self.node(conj, position, out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, _, position = self.tokens[self.pos]
        if kind == "exists" and self.lang != INT:
            raise LanguageError("'exists' is not a modal connective", position)
        if kind == "box" and self.lang != MODAL:
            raise LanguageError("'box' is not an intuitionistic connective", position)
        make = _PREFIX.get(kind)
        if make is None:
            return self.atom()
        self.take()
        self.enter(position)
        out = self.node(make, position, self.unary())
        self.open -= 1
        return out

    def atom(self) -> Formula:
        kind, word, position = self.take()
        if kind == "(":
            self.enter(position)
            out = self.formula()
            got, _, close_pos = self.tokens[self.pos]
            if got != ")":
                raise ParseError("unbalanced '('", close_pos)
            self.pos += 1
            self.open -= 1
            return out
        if kind == "T":
            return top(self.lang)
        if kind == "F":
            return bottom(self.lang)
        if kind == "name":
            return letter(word, self.lang)
        shown = word or "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", position)


def parse(text: str, lang: str = INT) -> Formula:
    """Parse `text` in the given language ("int" or "modal").  Formulas
    nested deeper than MAX_NESTING, or with more than MAX_SIZE nodes once
    `<->` is expanded, are rejected with a ParseError."""
    if lang not in (INT, MODAL):
        raise ValueError(f"unknown language tag {lang!r}")
    parser = _Parser(_tokenize(text), lang)
    out = parser.formula()
    kind, word, position = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"unexpected {word!r} after formula", position)
    return out


# --- printing --------------------------------------------------------------

_BINARY_SYMBOL = {"and": "&", "or": "|", "implies": "->"}
_BINARY_PREC = {"implies": 1, "or": 2, "and": 3}
_UNARY_PREC = 4
_ATOM_PREC = 5


def _prec(phi: Formula) -> int:
    if _ARITY[phi.kind] == 0:
        return _ATOM_PREC
    if _ARITY[phi.kind] == 1:
        return _UNARY_PREC
    return _BINARY_PREC[phi.kind]


def _print_unary(symbol: str, arg_text: str, arg_prec: int) -> str:
    if arg_prec >= _UNARY_PREC:
        return f"{symbol} {arg_text}"
    return f"{symbol}({arg_text})"


def _print_binary(phi: Formula, render) -> str:
    op = phi.kind
    prec = _BINARY_PREC[op]
    lhs, rhs = phi.args
    left = render(lhs)
    right = render(rhs)
    # & and | associate to the left in the AST, -> to the right; mirror that
    # so printing never adds parentheses a reparse would not restore.
    if op == "implies":
        if _prec(lhs) <= prec:
            left = f"({left})"
        if _prec(rhs) < prec:
            right = f"({right})"
    else:
        if _prec(lhs) < prec:
            left = f"({left})"
        if _prec(rhs) <= prec:
            right = f"({right})"
    return f"{left} {_BINARY_SYMBOL[op]} {right}"


def print_formula(phi: Formula) -> str:
    """Render `phi` so that parse(print_formula(phi), phi.lang) == phi."""
    kind = phi.kind
    if kind == "letter":
        return phi.name
    if kind == "top":
        return "T"
    if kind == "bottom":
        return "F"
    if _ARITY[kind] == 1:
        symbol = "~" if kind == "not" else kind
        return _print_unary(symbol, print_formula(phi.args[0]), _prec(phi.args[0]))
    return _print_binary(phi, print_formula)


def desugar(phi: Formula) -> Formula:
    """Rewrite every `~ A` into `A -> F`; the result has no "not" nodes."""
    args = tuple(desugar(arg) for arg in phi.args)
    if phi.kind == "not":
        return implies(args[0], bottom(phi.lang))
    if args == phi.args:
        return phi
    return Formula(phi.lang, phi.kind, phi.name, args)


# --- translations ----------------------------------------------------------


def godel_translate(phi: Formula) -> Formula:
    """Translate an intuitionistic formula into the modal language.

    Letters, implications, negations, and forall pick up a box; conjunction,
    disjunction, and the constants pass through; `exists A` becomes
    `~ forall ~` of the translated `A`.
    """
    if phi.lang != INT:
        raise ValueError("translation expects an intuitionistic formula")
    kind = phi.kind
    if kind == "letter":
        return box(letter(phi.name, MODAL))
    if kind in ("top", "bottom"):
        return Formula(MODAL, kind)
    if kind == "and":
        return conj(godel_translate(phi.args[0]), godel_translate(phi.args[1]))
    if kind == "or":
        return disj(godel_translate(phi.args[0]), godel_translate(phi.args[1]))
    if kind == "implies":
        return box(implies(godel_translate(phi.args[0]), godel_translate(phi.args[1])))
    if kind == "not":
        return box(neg(godel_translate(phi.args[0])))
    if kind == "forall":
        return box(forall(godel_translate(phi.args[0])))
    if kind == "exists":
        return neg(forall(neg(godel_translate(phi.args[0]))))
    raise ValueError(f"cannot translate formula kind {kind!r}")


def _star(phi: Formula) -> str:
    kind = phi.kind
    if kind == "letter":
        return f"{phi.name}(x)"
    if kind == "top":
        return "T"
    if kind == "bottom":
        return "F"
    if kind == "not":
        return _print_unary("~", _star(phi.args[0]), _prec(phi.args[0]))
    if kind in ("forall", "exists"):
        inner = _star(phi.args[0])
        if _prec(phi.args[0]) >= _UNARY_PREC:
            return f"{kind} x {inner}"
        return f"{kind} x ({inner})"
    return _print_binary(phi, _star)


def star_translate(phi: Formula) -> str:
    """Render an intuitionistic formula as a one-variable predicate formula.

    Letters become unary predicates applied to `x` and the quantifier
    modalities become quantifiers over `x`.  Display only; there is no parser
    for the output.
    """
    if phi.lang != INT:
        raise ValueError("translation expects an intuitionistic formula")
    return _star(phi)


# --- named formula families --------------------------------------------------

_CORPUS_TEXTS: dict[str, tuple[tuple[str, str], ...]] = {
    "mipc_axioms": tuple(
        (text, INT)
        for text in (
            "forall(p & q) <-> forall p & forall q",
            "forall p -> p",
            "forall p -> forall forall p",
            "exists(p | q) <-> exists p | exists q",
            "p -> exists p",
            "exists exists p -> exists p",
            "exists p & exists q -> exists(exists p & q)",
            "exists forall p <-> forall p",
            "exists p <-> forall exists p",
        )
    ),
    "ms4_axioms": tuple(
        (text, MODAL)
        for text in (
            "box(p -> q) -> (box p -> box q)",
            "box p -> p",
            "box p -> box box p",
            "forall(p -> q) -> (forall p -> forall q)",
            "forall p -> p",
            "forall p -> forall forall p",
            "~ forall p -> forall ~ forall p",
            "box forall p -> forall box p",
        )
    ),
    "grz": (("box(box(p -> box p) -> p) -> p", MODAL),),
    "monadic_casari": (("forall((p -> forall p) -> forall p) -> forall p", INT),),
}


@lru_cache(maxsize=None)
def _corpus(name: str) -> tuple[Formula, ...]:
    if name == "casari_translated":
        return tuple(godel_translate(phi) for phi in _corpus("monadic_casari"))
    try:
        entries = _CORPUS_TEXTS[name]
    except KeyError:
        raise ValueError(f"unknown corpus name {name!r}") from None
    return tuple(parse(text, lang) for text, lang in entries)


def corpus(name: str) -> list[Formula]:
    """Named formula families used across experiments.

    Names: "mipc_axioms", "ms4_axioms", "grz", "monadic_casari",
    "casari_translated".
    """
    return list(_corpus(name))


def random_formula(
    rng: random.Random, letters_pool: tuple[str, ...], max_depth: int, lang: str = INT
) -> Formula:
    """Random formula over `letters_pool` with depth() <= max_depth.  An
    empty pool gives formulas built from the constants alone."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    quantifier = exists if lang == INT else box
    atom_kinds = ("letter", "letter", "top", "bottom") if letters_pool else ("top", "bottom")
    inner_kinds = atom_kinds + ("not", "forall", "quant", "and", "or", "implies")
    kind = rng.choice(atom_kinds if max_depth == 0 else inner_kinds)
    if kind == "letter":
        return letter(rng.choice(letters_pool), lang)
    if kind in ("top", "bottom"):
        return Formula(lang, kind)
    if kind in ("not", "forall", "quant"):
        arg = random_formula(rng, letters_pool, max_depth - 1, lang)
        if kind == "not":
            return neg(arg)
        if kind == "forall":
            return forall(arg)
        return quantifier(arg)
    lhs = random_formula(rng, letters_pool, max_depth - 1, lang)
    rhs = random_formula(rng, letters_pool, max_depth - 1, lang)
    return {"and": conj, "or": disj, "implies": implies}[kind](lhs, rhs)
