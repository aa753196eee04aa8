import os
import random
import re
from dataclasses import dataclass

import pytest

from countqe import formula as fm
from countqe.elim import eliminate
from countqe.errors import ParameterError
from countqe.formula import (
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    Term,
    constant,
    iff,
    implies,
    variable,
)
from countqe.sets import DomainTag
from countqe.textio import (
    ParseError,
    SourceSpan,
    parse_formula,
    parse_presentation,
    print_formula,
)
from helpers import print_presentation, random_ast, random_presentation

x, y, z = variable("x"), variable("y"), variable("z")


# --- the token-object parser, kept as the reference for parse_formula ----------
#
# This is the recursive-descent parser over frozen token objects that
# parse_formula replaced; TestAgainstReferenceParser requires the same AST or
# the same ParseError (text, span, expected) from both on every input.

_KEYWORDS = {"true", "false", "mod"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|<=|>=|==|<|>|=|&|\||!|\+|-|\*|\(|\)|\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "keyword" | "end"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            line += value.count("\n")
            if "\n" in value:
                line_start = match.start() + value.rfind("\n") + 1
            pos = match.end()
            continue
        span = SourceSpan(match.start(), match.end(), line, match.start() - line_start + 1)
        if kind == "ident" and value in _KEYWORDS:
            kind = "keyword"
        tokens.append(_Token(kind, value, span))
        pos = match.end()
    end_span = SourceSpan(len(text), len(text), line, len(text) - line_start + 1)
    tokens.append(_Token("end", "", end_span))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def error(self, message: str, expected: str = "") -> ParseError:
        return ParseError(message, self.peek().span, expected)

    def expect_op(self, op: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise self.error(f"found {token.text!r}" if token.text else "unexpected end of input", f"'{op}'")
        return self.advance()

    def expect_ident(self) -> _Token:
        token = self.peek()
        if token.kind != "ident":
            raise self.error(
                f"found {token.text!r}" if token.text else "unexpected end of input",
                "identifier",
            )
        return self.advance()

    # grammar: formula := iff ; iff := impl ("<->" impl)*
    def parse_formula(self) -> Formula:
        left = self.parse_impl()
        while self.peek().kind == "op" and self.peek().text == "<->":
            self.advance()
            right = self.parse_impl()
            left = iff(left, right)
        return left

    def parse_impl(self) -> Formula:
        left = self.parse_disj()
        if self.peek().kind == "op" and self.peek().text == "->":
            self.advance()
            right = self.parse_impl()  # right associative
            return implies(left, right)
        return left

    def parse_disj(self) -> Formula:
        parts = [self.parse_conj()]
        while self.peek().kind == "op" and self.peek().text == "|":
            self.advance()
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().kind == "op" and self.peek().text == "&":
            self.advance()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _at_quantifier(self) -> bool:
        head = self.peek()
        if head.kind != "ident" or head.text not in ("E", "A", "C"):
            return False
        if head.text in ("E", "A"):
            return (
                self.peek(1).kind == "ident"
                and self.peek(2).kind == "op"
                and self.peek(2).text == "."
            )
        return (
            self.peek(1).kind == "ident"
            and self.peek(2).kind == "op"
            and self.peek(2).text == "="
            and self.peek(3).kind == "ident"
            and self.peek(4).kind == "op"
            and self.peek(4).text == "."
        )

    def parse_unary(self) -> Formula:
        token = self.peek()
        if token.kind == "op" and token.text == "!":
            self.advance()
            return Not(self.parse_unary())
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        if token.kind == "keyword" and token.text == "true":
            self.advance()
            return fm.TRUE
        if token.kind == "keyword" and token.text == "false":
            self.advance()
            return fm.FALSE
        if self._at_quantifier():
            kind = self.advance().text
            bound = self.expect_ident().text
            if kind == "C":
                self.expect_op("=")
                count_var = self.expect_ident().text
                self.expect_op(".")
                body = self.parse_unary()
                return CountEq(bound, count_var, body)
            self.expect_op(".")
            body = self.parse_unary()
            return Exists(bound, body) if kind == "E" else Forall(bound, body)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        left = self.parse_term()
        token = self.peek()
        if token.kind != "op" or token.text not in ("<=", "<", "=", ">=", ">", "=="):
            raise self.error(
                f"found {token.text!r}" if token.text else "unexpected end of input",
                "comparison operator",
            )
        op = self.advance().text
        if op == "==":
            residue = self.parse_integer()
            key = self.peek()
            if key.kind != "keyword" or key.text != "mod":
                raise self.error(f"found {key.text!r}", "'mod'")
            self.advance()
            mod_token = self.peek()
            modulus = self.parse_integer()
            if modulus < 1:
                raise ParseError("modulus must be positive", mod_token.span)
            return Cong(left, residue, modulus)
        right = self.parse_term()
        if op == "<=":
            return Le(left, right)
        if op == "<":
            return Lt(left, right)
        if op == "=":
            return Eq(left, right)
        if op == ">=":
            return Le(right, left)
        return Lt(right, left)

    def parse_integer(self) -> int:
        negative = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negative = True
        token = self.peek()
        if token.kind != "int":
            raise self.error(
                f"found {token.text!r}" if token.text else "unexpected end of input",
                "integer",
            )
        self.advance()
        value = int(token.text)
        return -value if negative else value

    def parse_term(self) -> Term:
        total = self._parse_addend(negative=self._take_minus())
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self.advance()
                total = total + self._parse_addend(negative=token.text == "-")
            else:
                return total

    def _take_minus(self) -> bool:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return True
        return False

    def _parse_addend(self, negative: bool) -> Term:
        token = self.peek()
        sign = -1 if negative else 1
        if token.kind == "int":
            self.advance()
            value = int(token.text)
            if self.peek().kind == "op" and self.peek().text == "*":
                self.advance()
                name = self.expect_ident().text
                return Term(0, {name: sign * value})
            return Term(sign * value)
        if token.kind == "ident":
            self.advance()
            return Term(0, {token.text: sign})
        raise self.error(
            f"found {token.text!r}" if token.text else "unexpected end of input",
            "integer or identifier",
        )


def _reference_parse_formula(text: str) -> Formula:
    parser = _ReferenceParser(text)
    try:
        result = parser.parse_formula()
    except ParameterError as exc:
        raise ParseError(str(exc), parser.peek().span) from exc
    tail = parser.peek()
    if tail.kind != "end":
        raise parser.error(f"trailing input {tail.text!r}")
    return result


class TestParseFormula:
    def test_counting_example(self):
        f = parse_formula("C x = y . (-1 <= x & x <= 3)")
        assert f == CountEq("x", "y", And((Le(constant(-1), x), Le(x, constant(3)))))

    def test_linear_equation(self):
        assert parse_formula("x + z = 4*y") == Eq(x + z, 4 * y)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("x == 0 mod 0")
        assert "modulus" in str(err.value)

    def test_congruence(self):
        assert parse_formula("2*x + 1 == 0 mod 3") == Cong(2 * x + 1, 0, 3)
        # negative residues are stored canonically
        assert parse_formula("x == -1 mod 3") == Cong(x, 2, 3)

    def test_reversed_comparisons(self):
        assert parse_formula("x >= 3") == Le(constant(3), x)
        assert parse_formula("x > 3") == Lt(constant(3), x)

    def test_quantifiers(self):
        f = parse_formula("E u . A v . u <= v")
        assert f == Exists("u", parse_formula("A v . u <= v"))

    def test_quantifier_body_one_unary(self):
        f = parse_formula("E u . u = 0 & x = 1")
        assert f == And((Exists("u", Eq(variable("u"), constant(0))), Eq(x, constant(1))))

    def test_implication_desugars(self):
        f = parse_formula("x = 0 -> y = 1")
        assert f == Or((Not(Eq(x, constant(0))), Eq(y, constant(1))))

    def test_iff_desugars(self):
        f = parse_formula("x = 0 <-> y = 1")
        a, b = Eq(x, constant(0)), Eq(y, constant(1))
        assert f == And((Or((Not(a), b)), Or((Not(b), a))))

    def test_identifier_named_like_quantifier(self):
        assert parse_formula("E <= 3") == Le(variable("E"), constant(3))

    def test_error_span_inside_input(self):
        text = "x <= ?"
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        span = err.value.span
        assert 0 <= span.begin <= span.end <= len(text)
        assert span.line == 1

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("x = 1 )")

    def test_bare_term_is_not_a_formula(self):
        with pytest.raises(ParseError):
            parse_formula("x + 1")


class TestPrintFormula:
    def test_counting(self):
        assert print_formula(CountEq("x", "y", Eq(x, constant(3)))) == "C x = y . x = 3"

    def test_nested_and_flattens(self):
        a, b, c = Eq(x, constant(0)), Eq(y, constant(1)), Eq(z, constant(2))
        assert print_formula(And((a, And((b, c))))) == "x = 0 & y = 1 & z = 2"

    def test_congruence(self):
        assert print_formula(Cong(2 * x + 1, 0, 3)) == "2*x + 1 == 0 mod 3"

    def test_precedence_parentheses(self):
        f = And((Or((Eq(x, constant(0)), Eq(y, constant(0)))), Eq(z, constant(0))))
        assert print_formula(f) == "(x = 0 | y = 0) & z = 0"

    def test_term_ordering_canonical(self):
        t = Term(5, {"b": -1, "a": 2})
        assert print_formula(Eq(t, constant(0))) == "2*a - b + 5 = 0"

    def test_unicode_display(self):
        f = CountEq("x", "y", And((Le(constant(-1), x), Cong(x, 1, 2))))
        rendered = print_formula(f, unicode_mode=True)
        assert "∃" in rendered and "∧" in rendered

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_ast(rng, 4)
            assert print_formula(f) == print_formula(f)


EXAMPLES = [
    "C x = y . (-1 <= x & x <= 3)",
    "E z1 . (0 <= z1 & x1 = 2*z1)",
    "!(x = 1 | y = 2) & true",
    "x == 2 mod 5",
    "-2*x + 3 < y - 7",
]


class TestRoundtrip:
    def test_seeded_asts(self):
        rng = random.Random(11)
        for _ in range(400):
            f = random_ast(rng, rng.randint(0, 6))
            printed = print_formula(f)
            again = parse_formula(printed)
            assert again == f, printed
            assert print_formula(again) == printed

    def test_examples(self):
        for text in EXAMPLES:
            f = parse_formula(text)
            assert parse_formula(print_formula(f)) == f


# Token soups draw from every token kind, the separators the lexer skips or
# counts, and characters it must reject (ASCII, Latin and a non-ASCII digit).
SOUP_WORDS = [
    "x", "y", "z1", "_u3", "E", "A", "C", "mod", "true", "false", "0", "3", "12",
    "<->", "->", "<=", ">=", "==", "<", ">", "=", "&", "|", "!", "+", "-", "*",
    "(", ")", ".", "\n", "\t", "≤", "é", "٣", "?",
]
MUTATION_CHARS = "xyzEAC_019 .=<>-+*!&|()\n\t≤é٣?"
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _outcome(parse, text):
    try:
        f = parse(text)
        return ("ok", f, repr(f))  # the repr shows each term's key order
    except ParseError as exc:
        return ("error", str(exc), exc.message, exc.span, exc.expected)


def _soup(rng):
    words = rng.choices(SOUP_WORDS, k=rng.randint(0, 12))
    return "".join(word + rng.choice(["", " ", " ", "\n"]) for word in words)


def _mutation(rng, text):
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3) if i < len(text) else 2
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(MUTATION_CHARS) + text[i + 1:]
    return text[:i] + rng.choice(MUTATION_CHARS) + text[i:]


def _eliminated_fixtures():
    for name in ("three_periods.sl", "natural.sl", "singleton.sl"):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
            presentation = parse_presentation(handle.read())
        yield print_formula(eliminate(presentation, "y").formula)


class TestAgainstReferenceParser:
    def test_seeded_corpus(self):
        rng = random.Random(20)
        corpus = ["x + y - x + x = 0", "0*x + y + 2*x - 2*x + x - 0*y < -x + 3 - 3"]
        corpus += [_soup(rng) for _ in range(2500)]
        corpus += [_mutation(rng, rng.choice(EXAMPLES)) for _ in range(2000)]
        for _ in range(300):
            printed = print_formula(random_ast(rng, rng.randint(0, 5)))
            corpus += [printed, _mutation(rng, printed)]
        outcomes = {"ok": 0, "error": 0}
        for text in corpus:
            expected = _outcome(_reference_parse_formula, text)
            assert _outcome(parse_formula, text) == expected, text
            outcomes[expected[0]] += 1
        assert len(corpus) >= 5000
        assert min(outcomes.values()) >= 500, outcomes

    def test_eliminated_fixtures(self):
        rng = random.Random(21)
        for text in _eliminated_fixtures():
            assert parse_formula(text) == _reference_parse_formula(text)
            for _ in range(3):
                mutated = _mutation(rng, text)
                assert _outcome(parse_formula, mutated) == _outcome(_reference_parse_formula, mutated)

    def test_error_spans(self):
        text = "x = 1 &\n  E y . y <= ?"
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.span == SourceSpan(21, 22, 2, 14)
        assert str(err.value) == "line 2, column 14: unexpected character '?'"
        with pytest.raises(ParseError) as err:
            parse_formula("x = 1 &\r\n\n (y")
        assert err.value.span == SourceSpan(13, 13, 3, 4)
        assert err.value.expected == "comparison operator"


def _binder_chain(depth):
    """A formula under ``depth`` unary heads cycling through all four kinds."""
    f = Eq(variable("v0"), variable("n"))
    for i in range(depth):
        kind = i % 4
        if kind == 0:
            f = Exists(f"v{i}", f)
        elif kind == 1:
            f = Forall(f"v{i}", f)
        elif kind == 2:
            f = Not(f)
        else:
            f = CountEq(f"v{i}", "n", f)
    return f


def _heads(f):
    out = []
    while f.children and len(f.children) == 1:
        out.append((type(f), f.binds, f.refs))
        f = f.body
    return out, f


class TestBinderChains:
    def test_print_parse_5000_heads(self):
        f = _binder_chain(5000)
        text = print_formula(f)
        assert text.startswith("C v4999 = n . !A v4997 . E v4996 . C v4995")
        again = parse_formula(text)
        assert _heads(again) == _heads(f)
        assert print_formula(again) == text
        assert print_formula(again, unicode_mode=True).startswith("∃^=n v4999. ¬∀v4997. ∃v4996. ")

    def test_roundtrip_equality_of_1200_mixed_heads(self):
        f = _binder_chain(1200)
        text = print_formula(f)
        again = parse_formula(text)
        assert again == f and hash(again) == hash(f)
        assert text.endswith(" . v0 = n")
        assert parse_formula(text[: -len("n")] + "n + 1") != f


THREE_PERIOD_TEXT = """\
# the worked three-period example
domain Z
dim 4
disjoint
simple
component
base 0 0 0 0
period 1 2 2 1
period 2 4 1 1
period -1 -2 0 -1
"""


class TestPresentations:
    def test_parse_worked_example(self):
        s = parse_presentation(THREE_PERIOD_TEXT)
        assert s.dimension == 4
        assert s.domain is DomainTag.Z
        assert s.asserted_disjoint and s.asserted_simple
        assert len(s.components) == 1
        comp = s.components[0]
        assert comp.base == (0, 0, 0, 0)
        assert comp.periods == ((1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1))
        from countqe.sets import check_simple

        assert check_simple(comp) is True

    def test_negative_entry_in_natural_domain(self):
        text = "domain N\ndim 2\ncomponent\nbase 0 0\nperiod 0 -1\n"
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.span.line == 5

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("domain Z\ndim 1\nfrobnicate\n")
        assert "frobnicate" in str(err.value)

    def test_span_covers_the_line_for_any_line_ending(self):
        lines = ["domain Z", "dim 1", "component", "base 0", "period x", "period 1"]
        for endings in (["\n"] * 6, ["\r\n"] * 6, ["\r\n", "\n", "\r", "\r\n", "\n", "\n"]):
            text = "".join(line + end for line, end in zip(lines, endings))
            with pytest.raises(ParseError) as err:
                parse_presentation(text)
            span = err.value.span
            assert (span.line, text[span.begin:span.end]) == (5, "period x"), endings

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("domain Z\ndim 2\ncomponent\nbase 1 2 3\n")
        assert err.value.span.line == 4

    def test_component_without_periods(self):
        s = parse_presentation("domain Z\ndim 1\ncomponent\nbase 7\n")
        assert s.components[0].periods == ()

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_presentation("component\nbase 1\n")

    def test_print_omits_unset_flags(self):
        s = parse_presentation("domain Z\ndim 1\ncomponent\nbase 0\n")
        text = print_presentation(s)
        assert "disjoint" not in text and "simple" not in text

    def test_roundtrip_worked_example(self):
        s = parse_presentation(THREE_PERIOD_TEXT)
        assert parse_presentation(print_presentation(s)) == s

    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(120):
            s = random_presentation(rng)
            printed = print_presentation(s)
            assert parse_presentation(printed) == s
            assert print_presentation(parse_presentation(printed)) == printed

    def test_component_order_preserved(self):
        text = "domain Z\ndim 1\ncomponent\nbase 5\ncomponent\nbase 2\n"
        s = parse_presentation(text)
        assert [c.base for c in s.components] == [(5,), (2,)]
