"""Formula layer: parser, printer, translations, corpus."""

import copy
import dataclasses
import pickle
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kripkit import syntax
from kripkit.syntax import (
    INT,
    MODAL,
    Formula,
    MAX_NESTING,
    MAX_SIZE,
    LanguageError,
    ParseError,
    bottom,
    box,
    conj,
    corpus,
    desugar,
    disj,
    exists,
    forall,
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


def unary_makers(lang: str):
    return [neg, forall] + ([exists] if lang == INT else [box])


def formulas(lang: str):
    atoms = st.sampled_from(
        [letter(n, lang) for n in ("p", "q", "r")] + [top(lang), bottom(lang)]
    )
    unary = unary_makers(lang)

    def extend(children):
        return st.one_of(
            st.builds(lambda f, a: f(a), st.sampled_from(unary), children),
            st.builds(
                lambda f, a, b: f(a, b),
                st.sampled_from([conj, disj, implies]),
                children,
                children,
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


def modal_depth(phi: Formula) -> int:
    """Nesting depth counting only forall/exists/box."""
    inner = max((modal_depth(arg) for arg in phi.args), default=0)
    return inner + (phi.kind in ("forall", "exists", "box"))


def tree_shape(phi: Formula) -> tuple[int, int]:
    """(depth, size) of `phi` walked as a tree with an explicit stack, so a
    subtree that `<->` shares is visited once per occurrence."""
    depth = size = 0
    stack = [(phi, 0)]
    while stack:
        node, level = stack.pop()
        size += 1
        depth = max(depth, level)
        stack.extend((arg, level + 1) for arg in node.args)
    return depth, size


def oracle_construct(lang, kind, name, args) -> tuple[int, int, int]:
    """The checks `Formula.__post_init__` made before the class had one
    hand-written constructor, in its order and with its messages; returns
    the node's (hash, depth, size)."""
    if lang not in (INT, MODAL):
        raise ValueError(f"unknown language tag {lang!r}")
    arity = syntax._ARITY.get(kind)
    if arity is None:
        raise ValueError(f"unknown formula kind {kind!r}")
    if len(args) != arity:
        raise ValueError(f"{kind} expects {arity} arguments, got {len(args)}")
    if kind == "letter":
        if not syntax._NAME_RE.match(name) or name in syntax._KEYWORDS:
            raise ValueError(f"bad letter name {name!r}")
    elif name:
        raise ValueError(f"{kind} does not take a name")
    only = syntax._ONLY_IN.get(kind, lang)
    if only != lang:
        raise ValueError(f"{kind!r} belongs to the {syntax._LANG_NAME[only][1]} language")
    depth, size = 0, 1
    for arg in args:
        if arg.lang != lang:
            raise ValueError("mixed-language formula")
        if arg._depth >= depth:
            depth = arg._depth + 1
        size += arg._size
    return hash((lang, kind, name, args)), depth, size


class _DescentParser(syntax._Parser):
    """Oracle: the recursive-descent parser that the operator-precedence loop
    replaced, one method per binary precedence level, with the language rule
    spelled out in `unary`."""

    def peek(self) -> str:
        return self.tokens[self.pos][0]

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
                "and",
                position,
                self.node("implies", position, lhs, out),
                self.node("implies", position, out, lhs),
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
            out = self.node("implies", positions.pop(), parts.pop(), out)
        return out

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek() == "|":
            position = self.take()[2]
            out = self.node("or", position, out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            position = self.take()[2]
            out = self.node("and", position, out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, _, position = self.tokens[self.pos]
        if kind == "exists" and self.lang != INT:
            raise LanguageError("'exists' is not a modal connective", position)
        if kind == "box" and self.lang != MODAL:
            raise LanguageError("'box' is not an intuitionistic connective", position)
        return super().unary()


# Oracle: the recursive printers that the explicit-stack renderer replaced.
_ORACLE_SYMBOL = {"and": "&", "or": "|", "implies": "->"}
_ORACLE_PREC = {"implies": 1, "or": 2, "and": 3}


def _oracle_prec(phi: Formula) -> int:
    if not phi.args:
        return 5
    if len(phi.args) == 1:
        return 4
    return _ORACLE_PREC[phi.kind]


def _oracle_unary(symbol: str, arg_text: str, arg_prec: int) -> str:
    if arg_prec >= 4:
        return f"{symbol} {arg_text}"
    return f"{symbol}({arg_text})"


def _oracle_binary(phi: Formula, render) -> str:
    op = phi.kind
    prec = _ORACLE_PREC[op]
    lhs, rhs = phi.args
    left = render(lhs)
    right = render(rhs)
    if op == "implies":
        if _oracle_prec(lhs) <= prec:
            left = f"({left})"
        if _oracle_prec(rhs) < prec:
            right = f"({right})"
    else:
        if _oracle_prec(lhs) < prec:
            left = f"({left})"
        if _oracle_prec(rhs) <= prec:
            right = f"({right})"
    return f"{left} {_ORACLE_SYMBOL[op]} {right}"


def oracle_print(phi: Formula) -> str:
    kind = phi.kind
    if kind == "letter":
        return phi.name
    if kind == "top":
        return "T"
    if kind == "bottom":
        return "F"
    if len(phi.args) == 1:
        symbol = "~" if kind == "not" else kind
        return _oracle_unary(symbol, oracle_print(phi.args[0]), _oracle_prec(phi.args[0]))
    return _oracle_binary(phi, oracle_print)


def oracle_star(phi: Formula) -> str:
    kind = phi.kind
    if kind == "letter":
        return f"{phi.name}(x)"
    if kind == "top":
        return "T"
    if kind == "bottom":
        return "F"
    if kind == "not":
        return _oracle_unary("~", oracle_star(phi.args[0]), _oracle_prec(phi.args[0]))
    if kind in ("forall", "exists"):
        inner = oracle_star(phi.args[0])
        if _oracle_prec(phi.args[0]) >= 4:
            return f"{kind} x {inner}"
        return f"{kind} x ({inner})"
    return _oracle_binary(phi, oracle_star)


def parse_outcome(text: str, lang: str):
    """The formula `parse` returns, or its error's type, message and position."""
    try:
        return parse(text, lang)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


# Oracle: the tokenizer before each token's match took the whitespace before
# it.  Every character starts a match (`\n` is whitespace, anything else not
# a token is `bad`), so the matches tile the text.
_ORACLE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<iff><->)|(?P<arrow>->)|(?P<sym>[()&|~])"
    r"|(?P<const>[TF])|(?P<name>[a-z][a-z0-9_]*)|(?P<bad>.)"
)


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _ORACLE_TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "ws":
            continue
        word = m.group()
        if group == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
        kind = "name" if group == "name" and word not in syntax._KEYWORDS else word
        tokens.append((kind, word, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def tokenize_outcome(tokenize, text: str):
    """The tokens, or the error's type, message and position."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


# Token pieces, and characters `\s` and `str.isspace` count as whitespace
# (ASCII, the \x1c-\x1f separators, NEL, no-break and wide spaces) or that
# are neither a token nor whitespace (NUL and other controls, a zero-width
# space, non-ASCII, capitals).
TOKEN_PIECES = ["p", "q", "x1", "a_b", "T", "F", "(", ")", "&", "|", "->", "<->", "~",
                "forall", "exists", "box", "boxes", "<", "-", ">", "_", "1"]
SPACE_PIECES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                "\x85", "\xa0", "\u2028", "\u3000"]
BAD_PIECES = ["\x00", "\x01", "\x7f", "#", "@", "P", "é", "λ", "\u200b", "\ud7ff"]

# Letters, constants, every connective and keyword, parentheses, a space and
# one character the tokenizer rejects.
TOKENS = ["p", "q", "x1", "T", "F", "(", ")", "&", "|", "->", "<->", "~",
          "forall", "exists", "box", " ", "@"]
token_strings = st.builds(
    str.join, st.sampled_from(["", " "]), st.lists(st.sampled_from(TOKENS), max_size=30)
)


class TestParser:
    @pytest.mark.parametrize("lang", [INT, MODAL])
    @settings(max_examples=300)
    @given(text=token_strings)
    @example(text=" -> ".join(["p"] * 102))  # 101 links: one level too deep
    @example(text=" <-> ".join(["p"] * 12))  # 11 links: too many nodes
    def test_matches_descent_oracle(self, lang, text):
        with mock.patch.object(syntax, "_Parser", _DescentParser):
            expected = parse_outcome(text, lang)
        assert parse_outcome(text, lang) == expected

    def test_tokenizer_matches_the_oracle(self):
        # 50,000 seeded texts: one in five of whitespace alone (or empty),
        # the others drawn from the token pieces and whitespace, and one in
        # three of those from the characters that are neither too.  About
        # half of them tokenize.
        rng = random.Random(22)
        good = TOKEN_PIECES + SPACE_PIECES
        every = good + BAD_PIECES
        for i in range(50_000):
            pieces = SPACE_PIECES if i % 5 == 0 else every if i % 3 == 0 else good
            text = "".join(rng.choices(pieces, k=rng.randrange(12)))
            expected = tokenize_outcome(oracle_tokenize, text)
            assert tokenize_outcome(syntax._tokenize, text) == expected, repr(text)

    def test_whitespace_tails_cost_no_search_per_character(self):
        # A search for the next token from each character of a whitespace
        # tail would take quadratic time: seconds at this length.
        for text in ("p" + " " * 10_000, "\n" * 10_000, "p &" + "\x1c" * 10_000):
            start = time.perf_counter()
            outcome = parse_outcome(text, INT)
            assert time.perf_counter() - start < 0.5
            with mock.patch.object(syntax, "_tokenize", oracle_tokenize):
                assert outcome == parse_outcome(text, INT)

    def test_atoms(self):
        assert parse("p") == letter("p")
        assert parse("T") == top()
        assert parse("F") == bottom()
        assert parse("long_name2") == letter("long_name2")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p -> q -> r", implies(letter("p"), implies(letter("q"), letter("r")))),
            ("(p -> q) -> r", implies(implies(letter("p"), letter("q")), letter("r"))),
            ("p & q | r", disj(conj(letter("p"), letter("q")), letter("r"))),
            ("p | q & r", disj(letter("p"), conj(letter("q"), letter("r")))),
            ("p & q & r", conj(conj(letter("p"), letter("q")), letter("r"))),
            ("~ p & q", conj(neg(letter("p")), letter("q"))),
            ("~(p & q)", neg(conj(letter("p"), letter("q")))),
            ("forall p & q", conj(forall(letter("p")), letter("q"))),
            ("forall(p & q)", forall(conj(letter("p"), letter("q")))),
            ("exists exists p", exists(exists(letter("p")))),
        ],
    )
    def test_precedence(self, text, expected):
        assert parse(text) == expected

    def test_iff_desugars(self):
        p, q = letter("p"), letter("q")
        assert parse("p <-> q") == conj(implies(p, q), implies(q, p))

    def test_iff_right_associative(self):
        p, q, r = (letter(n) for n in "pqr")
        inner = conj(implies(q, r), implies(r, q))
        assert parse("p <-> q <-> r") == conj(implies(p, inner), implies(inner, p))

    def test_box_parses_in_modal(self):
        assert parse("box p", MODAL) == box(letter("p", MODAL))

    @pytest.mark.parametrize(
        "text", ["p ->", "(p", "p)", "p q", "@", "", "& p", "p <-> "]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert isinstance(exc.value.position, int)

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: "~" * k + "p",
            lambda k: "(" * k + "p" + ")" * k,
            lambda k: " & ".join(["p"] * (k + 1)),
            lambda k: " -> ".join(["p"] * (k + 1)),
        ],
    )
    def test_nesting_limit(self, build):
        assert parse(build(MAX_NESTING))
        with pytest.raises(ParseError, match="nested deeper"):
            parse(build(MAX_NESTING + 1))
        with pytest.raises(ParseError, match="nested deeper"):
            parse(build(3000))

    def test_nesting_limit_counts_iff_sugar(self):
        # Each <-> adds two connective levels, here on top of a conjunction
        # chain of depth k.  (A chain of <-> reaches MAX_SIZE long before
        # MAX_NESTING.)
        def build(k):
            return "p <-> " + " & ".join(["p"] * (k + 1))

        assert parse(build(MAX_NESTING - 2))
        with pytest.raises(ParseError, match="nested deeper"):
            parse(build(MAX_NESTING - 1))

    def test_size_limit_stops_iff_chains(self):
        # Each <-> link doubles the expanded tree: the longest chain that
        # parses stays within MAX_SIZE, one more link does not parse.
        links = 1
        while True:
            text = " <-> ".join(["p"] * (links + 1))
            try:
                phi = parse(text)
            except ParseError as exc:
                assert "expands to more than" in str(exc)
                break
            assert sum(1 for _ in phi.subformulas()) <= MAX_SIZE
            links += 1
        assert 1 < links < MAX_NESTING // 2

    @pytest.mark.parametrize(
        "build,limit",
        [
            (lambda k: "exists " * k + "p", MAX_NESTING),
            (lambda k: "~" * k + "p", MAX_NESTING),
            (lambda k: " -> ".join(["p"] * (k + 1)), MAX_NESTING),
            (lambda k: " <-> ".join(["p"] * (k + 1)), 10),
        ],
    )
    def test_recursive_passes_cope_at_the_limits(self, build, limit):
        # The deepest and largest formulas `parse` accepts go through every
        # recursive pass.  A translation may be deeper than MAX_NESTING:
        # `exists` becomes `~ forall ~`, so it triples.
        with pytest.raises(ParseError):
            parse(build(limit + 1))
        phi = parse(build(limit))
        assert parse(print_formula(phi)) == phi
        translated = godel_translate(phi)
        assert translated.depth() <= 3 * phi.depth() + 1
        assert isinstance(print_formula(translated), str)
        assert isinstance(star_translate(phi), str)
        assert desugar(phi).depth() == phi.depth()

    def test_wrong_language_connective(self):
        with pytest.raises(LanguageError):
            parse("box p", INT)
        with pytest.raises(LanguageError):
            parse("exists p", MODAL)

    def test_unknown_language_tag(self):
        with pytest.raises(ValueError):
            parse("p", "classical")


class TestFormula:
    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Formula(INT, "and", args=(letter("p"),))
        with pytest.raises(ValueError):
            Formula(INT, "letter", name="p", args=(letter("q"),))

    @pytest.mark.parametrize("name", ["P", "forall", "1p", "", "p-q"])
    def test_rejects_bad_letter_names(self, name):
        with pytest.raises(ValueError):
            letter(name)

    def test_rejects_language_specific_kinds(self):
        with pytest.raises(ValueError):
            Formula(MODAL, "exists", args=(letter("p", MODAL),))
        with pytest.raises(ValueError):
            Formula(INT, "box", args=(letter("p"),))

    def test_rejects_mixed_languages(self):
        with pytest.raises(ValueError):
            conj(letter("p", INT), letter("q", MODAL))

    def test_constructor_matches_the_oracle(self):
        # Every input either builds the same node or raises the same error.
        pieces = (
            letter("q"),
            letter("q", MODAL),
            parse("~(p & exists q)"),
            parse("box(p -> q) | forall p", MODAL),
        )
        arg_grid = [()] + [(a,) for a in pieces] + [(a, b) for a in pieces for b in pieces]
        arg_grid += [pieces[:1] * 3, pieces[1:2] * 3, pieces[:2] + pieces[:1]]
        kinds = list(syntax._ARITY) + ["iff", "bogus"]
        outcomes = set()
        for lang in (INT, MODAL, "x"):
            for kind in kinds:
                for name in ("", "p", "p1_x", "box", "P", "1p"):
                    for args in arg_grid:
                        try:
                            expected = oracle_construct(lang, kind, name, args)
                        except ValueError as exc:
                            expected = str(exc)
                        try:
                            phi = Formula(lang, kind, name, args)
                        except Exception as exc:
                            assert type(exc) is ValueError and str(exc) == expected
                            outcomes.add("raised")
                            continue
                        assert (phi.lang, phi.kind, phi.name, phi.args) == (lang, kind, name, args)
                        assert (phi._hash, phi._depth, phi._size) == expected
                        outcomes.add("built")
        assert outcomes == {"raised", "built"}

    def test_frozen_copies_and_replace(self):
        phi = parse("forall(p -> exists q) & ~ p")
        for field in dataclasses.fields(Formula):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(phi, field.name, getattr(phi, field.name))
        for f in (phi, letter("p"), top(MODAL)):
            clones = (
                copy.copy(f),
                copy.deepcopy(f),
                pickle.loads(pickle.dumps(f)),
                dataclasses.replace(f),
            )
            for clone in clones:
                assert clone == f
                assert (clone._hash, clone._depth, clone._size) == (f._hash, f._depth, f._size)
        assert dataclasses.replace(letter("p"), name="q") == letter("q")
        with pytest.raises(ValueError, match="bad letter name 'P'"):
            dataclasses.replace(letter("p"), name="P")
        with pytest.raises(ValueError, match="_hash"):
            dataclasses.replace(phi, _hash=0)

    def test_letters_sorted_distinct(self):
        assert parse("q & p | q & r").letters() == ("p", "q", "r")

    def test_depths(self):
        phi = parse("forall(p -> q) & exists r")
        assert phi.depth() == 3
        assert modal_depth(phi) == 1
        assert modal_depth(parse("box box p", MODAL)) == 2
        assert letter("p").depth() == 0

    def test_subformulas_preorder(self):
        phi = parse("p -> q")
        kinds = [f.kind for f in phi.subformulas()]
        assert kinds == ["implies", "letter", "letter"]

    def test_str(self):
        phi = parse("p -> q & r")
        assert str(phi) == print_formula(phi) == "p -> q & r"

    @pytest.mark.parametrize("lang", [INT, MODAL])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_walkers_match_recursive_oracle(self, lang, data):
        # The recursive walkers the explicit-stack ones replaced.
        def subformulas(phi):
            yield phi
            for arg in phi.args:
                yield from subformulas(arg)

        def depth(phi):
            return 1 + max(depth(arg) for arg in phi.args) if phi.args else 0

        def rebuild(phi):
            return Formula(phi.lang, phi.kind, phi.name, tuple(rebuild(a) for a in phi.args))

        phi = data.draw(formulas(lang))
        other = data.draw(formulas(lang))
        assert [id(f) for f in phi.subformulas()] == [id(f) for f in subformulas(phi)]
        names = {f.name for f in subformulas(phi) if f.kind == "letter"}
        assert phi.letters() == tuple(sorted(names))
        assert phi.depth() == depth(phi)
        assert hash(phi) == hash((phi.lang, phi.kind, phi.name, phi.args))
        copy = rebuild(phi)
        assert copy is not phi and copy == phi and hash(copy) == hash(phi)
        def structural(f):
            return (f.lang, f.kind, f.name, tuple(map(structural, f.args)))

        assert (phi == other) == (structural(phi) == structural(other))

        # The stored shape against a tree walk: on the drawn formula, on a
        # `<->` chain of drawn formulas (whose sides are shared), and on a
        # chain of connectives around it, at times 5,000 deep, out of reach
        # of the recursive oracles.
        iff = parse(" <-> ".join(f"({print_formula(f)})" for f in (phi, other, phi)), lang)
        p = letter("p", lang)
        makers = unary_makers(lang) + [lambda f: implies(f, p)]
        pattern = data.draw(st.lists(st.sampled_from(makers), min_size=1, max_size=3))
        length = data.draw(st.sampled_from([1, 2, 5000]))
        chain = phi
        for i in range(length):
            chain = pattern[i % len(pattern)](chain)
        for f in (phi, iff, chain):
            assert (f.depth(), f._size) == tree_shape(f)
        assert chain.depth() == phi.depth() + length

        # The renderer against the recursive printers, and on the chain.
        for f in (phi, iff):
            assert print_formula(f) == oracle_print(f)
            if lang == INT:
                assert star_translate(f) == oracle_star(f)
        assert isinstance(print_formula(chain), str)
        if lang == INT:
            assert isinstance(star_translate(chain), str)


class TestPrinter:
    @pytest.mark.parametrize("lang", [INT, MODAL])
    @given(data=st.data())
    def test_round_trip(self, lang, data):
        phi = data.draw(formulas(lang))
        assert parse(print_formula(phi), lang) == phi

    def test_implication_parenthesizes_left(self):
        phi = implies(implies(letter("p"), letter("q")), letter("r"))
        assert print_formula(phi) == "(p -> q) -> r"

    def test_mixed_binary(self):
        phi = conj(letter("p"), disj(letter("q"), letter("r")))
        assert print_formula(phi) == "p & (q | r)"

    def test_unary_chains_stay_bare(self):
        assert print_formula(parse("~ forall ~ p")) == "~ forall ~ p"


def oracle_desugar(phi: Formula) -> Formula:
    """`desugar` as a recursion: rewrite the arguments, then the node."""
    args = tuple(oracle_desugar(arg) for arg in phi.args)
    if phi.kind == "not":
        return implies(args[0], bottom(phi.lang))
    if args == phi.args:
        return phi
    return Formula(phi.lang, phi.kind, phi.name, args)


class TestDesugar:
    def test_not_becomes_implies_bottom(self):
        assert desugar(parse("~ p")) == implies(letter("p"), bottom())

    @given(formulas(INT) | formulas(MODAL))
    def test_matches_the_recursion(self, phi):
        lowered = desugar(phi)
        assert_same_nodes(lowered, oracle_desugar(phi))
        # A formula without "not" comes back as the same object.
        has_not = any(f.kind == "not" for f in phi.subformulas())
        assert (lowered is phi) is not has_not

    @given(formulas(INT) | formulas(MODAL))
    def test_removes_every_not(self, phi):
        lowered = desugar(phi)
        assert all(f.kind != "not" for f in lowered.subformulas())

    @given(formulas(INT))
    def test_idempotent(self, phi):
        lowered = desugar(phi)
        assert desugar(lowered) == lowered


class TestGodelTranslation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p", "box p"),
            ("T", "T"),
            ("F", "F"),
            ("p & q", "box p & box q"),
            ("p | q", "box p | box q"),
            ("p -> q", "box(box p -> box q)"),
            ("~ p", "box ~ box p"),
            ("forall p", "box forall box p"),
            ("exists p", "~ forall ~ box p"),
            ("forall p -> p", "box(box forall box p -> box p)"),
        ],
    )
    def test_clauses(self, text, expected):
        assert print_formula(godel_translate(parse(text))) == expected

    def test_rejects_modal_input(self):
        with pytest.raises(ValueError):
            godel_translate(parse("p", MODAL))

    def test_repeated_letters_share_one_node(self):
        # box p & box(box q -> box p): both `box p` are one node.
        translated = godel_translate(parse("p & (q -> p)"))
        assert translated.args[0] is translated.args[1].args[0].args[1]

    def test_unknown_kind_is_a_value_error(self):
        # An explicit error, not an assert that `python -O` would strip.
        phi = parse("p & p")
        object.__setattr__(phi, "kind", "xor")
        with pytest.raises(ValueError, match="xor"):
            godel_translate(phi)

    @given(formulas(INT))
    def test_output_is_modal_with_same_letters(self, phi):
        translated = godel_translate(phi)
        assert translated.lang == MODAL
        assert translated.letters() == phi.letters()


def oracle_godel(phi: Formula) -> Formula:
    """The translation built through the public, checked constructors."""
    kind = phi.kind
    if kind == "letter":
        return box(letter(phi.name, MODAL))
    if kind in ("top", "bottom"):
        return Formula(MODAL, kind)
    args = [oracle_godel(arg) for arg in phi.args]
    if kind == "and":
        return conj(*args)
    if kind == "or":
        return disj(*args)
    if kind == "implies":
        return box(implies(*args))
    if kind == "not":
        return box(neg(*args))
    if kind == "forall":
        return box(forall(*args))
    return neg(forall(neg(*args)))


def checked_copy(phi: Formula) -> Formula:
    return Formula(phi.lang, phi.kind, phi.name, tuple(checked_copy(a) for a in phi.args))


def assert_same_nodes(got: Formula, want: Formula) -> None:
    """Node by node: the same class, fields and structural fields."""
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        assert a.__class__ is b.__class__ is Formula
        fields = (a.lang, a.kind, a.name, len(a.args), a._hash, a._depth, a._size)
        assert fields == (b.lang, b.kind, b.name, len(b.args), b._hash, b._depth, b._size)
        stack.extend(zip(a.args, b.args))


@pytest.mark.parametrize("lang", [INT, MODAL])
def test_trusted_nodes_match_checked_construction(lang):
    # The parser and `godel_translate` skip the constructor's checks; their
    # nodes must be the ones the checked constructor builds, on 300 seeded
    # draws and on `<->` chains of three of them, whose sides are shared.
    draws = [
        random_formula(random.Random(seed), ("p", "q", "r")[: seed % 4], seed % 6, lang)
        for seed in range(300)
    ]
    texts = [print_formula(phi) for phi in draws]
    texts += [" <-> ".join(f"({text})" for text in texts[i : i + 3]) for i in range(0, 300, 3)]
    for text in texts:
        parsed = parse(text, lang)
        assert_same_nodes(parsed, checked_copy(parsed))
        if lang == INT:
            translated = godel_translate(parsed)
            assert_same_nodes(translated, checked_copy(translated))
            assert_same_nodes(translated, oracle_godel(parsed))


def assert_matches_the_oracle(phi: Formula) -> None:
    assert_same_nodes(godel_translate(phi), oracle_godel(phi))


@settings(max_examples=200)
@given(phi=formulas(INT), other=formulas(INT))
def test_godel_fold_matches_the_recursion(phi, other):
    assert_matches_the_oracle(phi)
    # A `<->` chain, whose sides are shared nodes.
    iff = parse(" <-> ".join(f"({print_formula(f)})" for f in (phi, other, phi)))
    assert_matches_the_oracle(iff)


def test_godel_fold_matches_the_recursion_on_the_corpora():
    for name in ("mipc_axioms", "monadic_casari"):
        for phi in corpus(name):
            assert_matches_the_oracle(phi)
    # The deepest formula `parse` accepts, and one level deeper.
    deepest = parse("~ " * MAX_NESTING + "p")
    assert_matches_the_oracle(deepest)
    assert_matches_the_oracle(neg(deepest))
    for phi in (parse("p", MODAL), parse("box p -> p", MODAL)):
        with pytest.raises(ValueError, match="intuitionistic"):
            godel_translate(phi)
    phi = parse("p & p")
    object.__setattr__(phi, "kind", "xor")
    with pytest.raises(ValueError, match="xor"):
        godel_translate(phi)


class TestStarTranslation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p", "p(x)"),
            ("forall p -> p", "forall x p(x) -> p(x)"),
            ("exists(p & q)", "exists x (p(x) & q(x))"),
            ("~ forall p", "~ forall x p(x)"),
            ("T -> F", "T -> F"),
        ],
    )
    def test_examples(self, text, expected):
        assert star_translate(parse(text)) == expected

    def test_rejects_modal_input(self):
        with pytest.raises(ValueError):
            star_translate(parse("box p", MODAL))


class TestCorpus:
    def test_family_sizes(self):
        assert len(corpus("mipc_axioms")) == 9
        assert len(corpus("ms4_axioms")) == 8
        assert len(corpus("grz")) == 1
        assert len(corpus("monadic_casari")) == 1
        assert len(corpus("casari_translated")) == 1

    def test_names(self):
        for name in ("mipc_axioms", "ms4_axioms", "grz", "monadic_casari", "casari_translated"):
            assert corpus(name)

    def test_languages(self):
        assert all(phi.lang == INT for phi in corpus("mipc_axioms"))
        assert all(phi.lang == MODAL for phi in corpus("ms4_axioms"))
        assert corpus("grz")[0].lang == MODAL

    def test_translated_casari_matches_translation(self):
        direct = godel_translate(corpus("monadic_casari")[0])
        assert corpus("casari_translated") == [direct]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            corpus("s5_axioms")

    def test_returns_fresh_list(self):
        first = corpus("grz")
        first.append(parse("p", MODAL))
        assert len(corpus("grz")) == 1


class TestRandomFormula:
    def test_deterministic_for_seed(self):
        one = [random_formula(random.Random(9), ("p", "q"), 4) for _ in range(20)]
        two = [random_formula(random.Random(9), ("p", "q"), 4) for _ in range(20)]
        assert one == two

    @pytest.mark.parametrize("lang", [INT, MODAL])
    def test_respects_bounds(self, lang):
        rng = random.Random(3)
        for _ in range(200):
            phi = random_formula(rng, ("p", "q"), 3, lang)
            assert phi.lang == lang
            assert phi.depth() <= 3
            assert set(phi.letters()) <= {"p", "q"}

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="max_depth"):
            random_formula(random.Random(0), ("p",), -1)
