"""Formula syntax for the two object languages.

The workbench works with two propositional languages that share one AST type,
distinguished by a language tag:

- ``"int"``: intuitionistic base with the quantifier modalities ``forall``
  and ``exists``;
- ``"modal"``: classical base with ``box`` and ``forall``.

Concrete syntax, loosest to tightest: ``<->`` (desugared at parse time),
``->`` (right associative), ``|``, ``&``, then the unary prefixes ``~``,
``forall``, ``exists``, ``box``.  ``T`` and ``F`` are the constants; letters
match ``[a-z][a-z0-9_]*``.  One table, `_BINARY`, states each binary
connective's symbol, precedence and associativity; the parser's
operator-precedence loop and the printers both read it.  Every pass over a
formula (the printers, `desugar` and `godel_translate`) walks it with an
explicit stack, so it handles any depth.
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

# Binary connectives, loosest first: kind -> (symbol, precedence, right
# associative).  "iff" is parse-time sugar for (A -> B) & (B -> A), so no
# node has that kind.
_BINARY = {
    "iff": ("<->", 0, True),
    "implies": ("->", 1, True),
    "or": ("|", 2, False),
    "and": ("&", 3, False),
}

# The connectives of one language only, and each language's name in messages.
_ONLY_IN = {"exists": INT, "box": MODAL}
_LANG_NAME = {INT: ("an", "intuitionistic"), MODAL: ("a", "modal")}

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_KEYWORDS = frozenset(("forall", "exists", "box"))


class ParseError(ValueError):
    """Malformed formula text; `position` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LanguageError(ParseError):
    """A connective that does not belong to the requested language."""


@dataclass(frozen=True, slots=True, init=False)
class Formula:
    """Immutable formula node.

    `name` is nonempty exactly for letters; `args` holds the subformulas.
    All nodes of one formula carry the same `lang` tag, and the
    language-specific connectives (`exists` for "int", `box` for "modal")
    are rejected outside their language.

    The constructor checks the node, then `_fill` stores it with its
    structural hash, depth and size, computed from its children's cached
    values, so `hash` and `depth` take constant time and formulas can key
    caches.  The size counts nodes as a tree (a subtree that `<->` shares
    counts once per occurrence).  Construction sets no limit; `parse`
    enforces MAX_NESTING and MAX_SIZE from these fields.  Equality is
    structural; it and the tree walks below use an explicit stack, so any
    depth built in Python is safe.

    The parser and `godel_translate` build their nodes with `_build`, which
    skips the checks: each has already established what they check (see
    there).  Every other caller goes through the constructor.
    """

    lang: str
    kind: str
    name: str = ""
    args: tuple["Formula", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __init__(self, lang: str, kind: str, name: str = "", args: tuple["Formula", ...] = ()):
        if lang not in (INT, MODAL):
            raise ValueError(f"unknown language tag {lang!r}")
        arity = _ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown formula kind {kind!r}")
        if len(args) != arity:
            raise ValueError(f"{kind} expects {arity} arguments, got {len(args)}")
        if kind == "letter":
            if not _NAME_RE.match(name) or name in _KEYWORDS:
                raise ValueError(f"bad letter name {name!r}")
        elif name:
            raise ValueError(f"{kind} does not take a name")
        only = _ONLY_IN.get(kind, lang)
        if only != lang:
            raise ValueError(f"{kind!r} belongs to the {_LANG_NAME[only][1]} language")
        for arg in args:
            if arg.lang != lang:
                raise ValueError("mixed-language formula")
        _fill(self, lang, kind, name, args)

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


# Formula's slot setters, in field order; they bypass the frozen __setattr__.
_set_lang, _set_kind, _set_name, _set_args, _set_hash, _set_depth, _set_size = (
    getattr(Formula, slot).__set__ for slot in Formula.__slots__
)


def _fill(node: Formula, lang: str, kind: str, name: str, args: tuple) -> Formula:
    """Store the fields of `node` and the structural ones derived from them."""
    depth, size = 0, 1
    for arg in args:
        if arg._depth >= depth:
            depth = arg._depth + 1
        size += arg._size
    _set_lang(node, lang)
    _set_kind(node, kind)
    _set_name(node, name)
    _set_args(node, args)
    _set_hash(node, hash((lang, kind, name, args)))
    _set_depth(node, depth)
    _set_size(node, size)
    return node


_new = object.__new__


def _build(lang: str, kind: str, name: str, args: tuple) -> Formula:
    """A node the constructor would accept, built without its checks.  Only
    for callers that have established them: a known language and kind, the
    kind's arity, a valid name exactly for letters, a connective of `lang`,
    and arguments all in `lang`."""
    return _fill(_new(Formula), lang, kind, name, args)


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

# One match per token, the whitespace before it included: a punctuation
# mark, connective or constant (group 1), a name (group 2), or any other
# character that is not whitespace (group 3), which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[()&|~TF])|([a-z][a-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kind is the literal token for
    punctuation and constants, "name" for letters, or the keyword itself."""
    tokens: list[tuple[str, str, int]] = []
    # The text less its trailing whitespace (`rstrip` and `\s` agree on what
    # whitespace is) ends in a token, so every search from the end of one
    # match finds the next token right there: the matches tile it, and a
    # long whitespace tail costs no search per character.
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        group = m.lastindex
        word = m[group]
        if group == 3:
            raise ParseError(f"unexpected character {word!r}", m.start(group))
        kind = "name" if group == 2 and word not in _KEYWORDS else word
        tokens.append((kind, word, m.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest nesting `parse` accepts: of connectives in the result (the depth
# each node stores), and of prefixes and parentheses in the text.  The parser
# itself recurses once per prefix and parenthesis, so deeper input raises
# ParseError rather than exhausting the interpreter stack.  Formulas built in
# Python have no such cap.
MAX_NESTING = 100
# Most nodes the result of `parse` may have, counted as a tree (the size
# each node stores).  `A <-> B` shares A and B between its two implications,
# so every link of a `<->` chain doubles the tree that each later pass walks
# node by node; larger results raise ParseError instead of hanging them.
MAX_SIZE = 10_000

_PREFIX = {"~": "not", "forall": "forall", "exists": "exists", "box": "box"}
# Infix token -> (kind, precedence, right associative), read off `_BINARY`.
_INFIX = {symbol: (kind, prec, right) for kind, (symbol, prec, right) in _BINARY.items()}


class _Parser:
    """Operator-precedence parser over `_tokenize`'s tokens.  Its nodes come
    from `_build`: the tokenizer yields as names only words that match
    `_NAME_RE` and are not keywords, `unary` rejects a connective of the
    other language before building, the grammar fixes each arity, and every
    node gets `self.lang`."""

    def __init__(self, tokens: list[tuple[str, str, int]], lang: str):
        self.tokens = tokens
        self.lang = lang
        self.pos = 0
        self.open = 0  # prefixes and parentheses enclosing the current token

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

    def node(self, kind: str, position: int, *args: Formula) -> Formula:
        out = _build(self.lang, kind, "", args)
        if out._depth > MAX_NESTING:
            raise self.too_deep(position)
        if out._size > MAX_SIZE:
            raise ParseError(f"formula expands to more than {MAX_SIZE} nodes", position)
        return out

    def formula(self) -> Formula:
        # Operator precedence: `waiting` holds the infix operators whose right
        # operand is still being read.  An arriving operator first reduces
        # every waiting one that binds tighter, and an equal one too unless it
        # is right associative; the end of the formula reduces them all.
        operands = [self.unary()]
        waiting: list[tuple[str, int, int]] = []  # (kind, precedence, position)
        while True:
            token, _, position = self.tokens[self.pos]
            kind, prec, right = _INFIX.get(token, ("", -1, False))
            while waiting and waiting[-1][1] >= prec + right:
                self.reduce(operands, waiting.pop())
            if not kind:
                return operands[0]
            self.pos += 1
            waiting.append((kind, prec, position))
            operands.append(self.unary())

    def reduce(self, operands: list[Formula], op: tuple[str, int, int]) -> None:
        """Replace the last two operands by the waiting operator `op` applied
        to them."""
        kind, _, position = op
        rhs = operands.pop()
        lhs = operands.pop()
        if kind == "iff":
            # A <-> B is sugar for (A -> B) & (B -> A).
            there = self.node("implies", position, lhs, rhs)
            back = self.node("implies", position, rhs, lhs)
            operands.append(self.node("and", position, there, back))
        else:
            operands.append(self.node(kind, position, lhs, rhs))

    def unary(self) -> Formula:
        kind, _, position = self.tokens[self.pos]
        if _ONLY_IN.get(kind, self.lang) != self.lang:
            article, name = _LANG_NAME[self.lang]
            raise LanguageError(f"{kind!r} is not {article} {name} connective", position)
        prefix = _PREFIX.get(kind)
        if prefix is None:
            return self.atom()
        self.take()
        self.enter(position)
        out = self.node(prefix, position, self.unary())
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
            return _build(self.lang, "top", "", ())
        if kind == "F":
            return _build(self.lang, "bottom", "", ())
        if kind == "name":
            return _build(self.lang, "letter", word, ())
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

_UNARY_PREC = 4
_ATOM_PREC = 5


def _prec(phi: Formula) -> int:
    if _ARITY[phi.kind] == 0:
        return _ATOM_PREC
    if _ARITY[phi.kind] == 1:
        return _UNARY_PREC
    return _BINARY[phi.kind][1]


def _render(phi: Formula, star: bool) -> str:
    """Text of `phi`; with `star`, letters become predicates applied to `x`
    and the quantifier modalities quantifiers over `x`.  The stack holds
    the nodes still to render and the text between them, the next piece on
    top, so each piece is emitted once, in order."""
    pieces: list[str] = []
    stack: list[Formula | str] = [phi]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            pieces.append(item)
            continue
        kind = item.kind
        if kind == "letter":
            pieces.append(f"{item.name}(x)" if star else item.name)
        elif kind == "top":
            pieces.append("T")
        elif kind == "bottom":
            pieces.append("F")
        elif len(item.args) == 1:
            arg = item.args[0]
            bare = _prec(arg) >= _UNARY_PREC
            if star and kind != "not":
                pieces.append(f"{kind} x " + ("" if bare else "("))
            else:
                pieces.append(("~" if kind == "not" else kind) + (" " if bare else "("))
            stack += [arg] if bare else [")", arg]
        else:
            lhs, rhs = item.args
            symbol, prec, right = _BINARY[kind]
            # The AST nests an operator on its associative side without
            # parentheses; mirror that so printing never adds parentheses a
            # reparse would not restore.
            stack += [")", rhs, "("] if _prec(rhs) < prec + (not right) else [rhs]
            stack.append(f" {symbol} ")
            stack += [")", lhs, "("] if _prec(lhs) < prec + right else [lhs]
    return "".join(pieces)


def print_formula(phi: Formula) -> str:
    """Render `phi` so that parse(print_formula(phi), phi.lang) == phi."""
    return _render(phi, False)


def _bottom_up(phi: Formula) -> list[Formula]:
    """Every node of `phi` as a tree, each after its arguments and those left
    to right: the preorder that takes the last argument first, reversed.  A
    fold over this list keeps a stack of results, whose top entries are then
    the current node's arguments, in order."""
    order = []
    stack = [phi]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += node.args
    order.reverse()
    return order


def desugar(phi: Formula) -> Formula:
    """Rewrite every `~ A` into `A -> F`; the result has no "not" nodes.  A
    subformula without one is kept as the same object."""
    done: list[Formula] = []
    for node in _bottom_up(phi):
        split = len(done) - len(node.args)
        args = tuple(done[split:])
        del done[split:]
        if node.kind == "not":
            done.append(implies(args[0], bottom(node.lang)))
        elif args == node.args:
            done.append(node)
        else:
            done.append(Formula(node.lang, node.kind, node.name, args))
    return done[0]


# --- translations ----------------------------------------------------------


def godel_translate(phi: Formula) -> Formula:
    """Translate an intuitionistic formula into the modal language.

    Letters, implications, negations, and forall pick up a box; conjunction,
    disjunction, and the constants pass through; `exists A` becomes
    `~ forall ~` of the translated `A`.  Only the root's language is
    checked: the constructor refuses mixed-language formulas, and `_build`
    callers keep one language, so every node is intuitionistic.  Each output
    node is then a modal connective over modal arguments, with the arity and
    letter names of the input, and is built with `_build`.  Each letter name
    gets one `box p` node per call, shared by all its occurrences.
    """
    if phi.lang != INT:
        raise ValueError("translation expects an intuitionistic formula")
    done: list[Formula] = []
    boxed: dict[str, Formula] = {}
    for node in _bottom_up(phi):
        kind = node.kind
        if kind == "letter":
            name = node.name
            if name not in boxed:
                boxed[name] = _build(MODAL, "box", "", (_build(MODAL, "letter", name, ()),))
            out = boxed[name]
        elif kind == "top" or kind == "bottom":
            out = _build(MODAL, kind, "", ())
        elif kind == "and" or kind == "or":
            rhs = done.pop()
            out = _build(MODAL, kind, "", (done.pop(), rhs))
        elif kind == "implies":
            rhs = done.pop()
            out = _build(MODAL, "box", "", (_build(MODAL, kind, "", (done.pop(), rhs)),))
        elif kind == "not" or kind == "forall":
            out = _build(MODAL, "box", "", (_build(MODAL, kind, "", (done.pop(),)),))
        elif kind == "exists":
            inner = _build(MODAL, "not", "", (done.pop(),))
            out = _build(MODAL, "not", "", (_build(MODAL, "forall", "", (inner,)),))
        else:
            raise ValueError(f"cannot translate formula kind {kind!r}")
        done.append(out)
    return done[0]


def star_translate(phi: Formula) -> str:
    """Render an intuitionistic formula as a one-variable predicate formula.

    Letters become unary predicates applied to `x` and the quantifier
    modalities become quantifiers over `x`.  Display only; there is no parser
    for the output.
    """
    if phi.lang != INT:
        raise ValueError("translation expects an intuitionistic formula")
    return _render(phi, True)


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
