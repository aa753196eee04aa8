"""Concrete syntax: formula parser/printer and the presentation file format.

The formula surface syntax is ASCII-only so files stay portable:

    C x = y . (-1 <= x & x <= 3)        counting quantifier
    E z . x = 2*z                       existential, A for universal
    x + z = 4*y ,  2*x + 1 == 0 mod 3   comparison and congruence atoms
    & | ! -> <->                        connectives (-> and <-> desugar)

Precedence from loose to tight: <-> , -> , | , & , unary.  A quantifier
body extends through exactly one unary item; parenthesise for more.

The lexer is one regular expression whose matches are the tokens, kept as
plain strings in a flat list; the parser walks an index into it and reads a
run of ``!``/quantifier heads in a loop, as the printer prints one, so a
binder chain of any depth costs no stack.  A :class:`SourceSpan` is only
computed on the error path, by matching the text again up to the token.

Presentation files are line oriented: a header (``domain Z|N``, ``dim n``,
optional ``disjoint``/``simple`` flags) followed by components, each a
``component`` line, one ``base`` line and any number of ``period`` lines.
``#`` starts a comment.
"""

from __future__ import annotations

import re
import string
from itertools import islice
from typing import Optional, Sequence

from . import formula as fm
from .errors import CountQEError, ParameterError
from .formula import (
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    Term,
    TrueF,
    iff,
    implies,
)
from .sets import DomainTag, LinearSetPresentation, SemilinearPresentation
from .values import Value, set_field


class SourceSpan(Value):
    """Offsets ``begin`` and ``end`` into a text, and the 1-based line and
    column where it begins."""

    __slots__ = ("begin", "end", "line", "column")

    def __init__(self, begin: int, end: int, line: int, column: int):
        set_field(self, "begin", begin)
        set_field(self, "end", end)
        set_field(self, "line", line)
        set_field(self, "column", column)


class ParseError(CountQEError):
    """Syntax error with a span into the offending input."""

    def __init__(self, message: str, span: SourceSpan, expected: str = ""):
        location = f"line {span.line}, column {span.column}: {message}"
        if expected:
            location += f" (expected {expected})"
        super().__init__(location)
        self.message = message
        self.span = span
        self.expected = expected


_KEYWORDS = {"true", "false", "mod"}
_DIGITS = frozenset("0123456789")
_WORD_START = frozenset(string.ascii_letters + "_")
_COMPARISONS = {"<=": Le, "<": Lt, "=": Eq, ">=": Le, ">": Lt}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One token per match; the last branch catches any other visible character,
# which _BAD_CHAR reports before parsing starts.
_LEXEME = re.compile(r"[0-9]+|" + _WORD.pattern + r"|<->|->|<=|>=|==|[<>=&|!+\-*().]|\S")
_BAD_CHAR = re.compile(r"[^\sA-Za-z0-9_<>=&|!+\-*().]")
_LOOKAHEAD = 5  # end sentinels: a quantifier head is decided on five tokens


def _is_ident(token: str) -> bool:
    return token[:1] in _WORD_START and token not in _KEYWORDS


def is_identifier(name: str) -> bool:
    """True when ``name`` reads back as one variable: a word that is not a keyword."""
    return _WORD.fullmatch(name) is not None and name not in _KEYWORDS


def _found(token: str) -> str:
    return f"found {token!r}" if token else "unexpected end of input"


def _span(text: str, begin: int, end: int) -> SourceSpan:
    return SourceSpan(begin, end, text.count("\n", 0, begin) + 1, begin - text.rfind("\n", 0, begin))


class _FormulaParser:
    """Recursive descent over a flat list of token strings.  A token's kind
    is read off its first character (digit, letter or ``_``, else operator)
    and the empty string ends the input; only errors compute a span."""

    def __init__(self, text: str):
        bad = _BAD_CHAR.search(text)
        if bad is not None:
            raise ParseError(f"unexpected character {bad.group()!r}", _span(text, bad.start(), bad.end()))
        self.text = text
        self.tokens = _LEXEME.findall(text) + [""] * _LOOKAHEAD
        self.pos = 0

    def span(self, index: int) -> SourceSpan:
        text = self.text
        if index >= len(self.tokens) - _LOOKAHEAD:
            return _span(text, len(text), len(text))
        match = next(islice(_LEXEME.finditer(text), index, None))
        return _span(text, match.start(), match.end())

    def error(self, message: str, expected: str = "") -> ParseError:
        return ParseError(message, self.span(self.pos), expected)

    def expect(self, token: str) -> None:
        if self.tokens[self.pos] != token:
            raise self.error(_found(self.tokens[self.pos]), f"'{token}'")
        self.pos += 1

    # grammar: formula := iff ; iff := impl ("<->" impl)* ; impl := disj ("->" impl)?
    def parse_formula(self) -> Formula:
        left = self.parse_impl()
        while self.tokens[self.pos] == "<->":
            self.pos += 1
            left = iff(left, self.parse_impl())
        return left

    def parse_impl(self) -> Formula:
        parts = [self.parse_disj()]
        while self.tokens[self.pos] == "->":
            self.pos += 1
            parts.append(self.parse_disj())
        result = parts.pop()
        while parts:  # right associative
            result = implies(parts.pop(), result)
        return result

    def parse_disj(self) -> Formula:
        parts = [self.parse_conj()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Formula:
        parts = [self.parse_unary()]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        """Prefixes (``!``, ``E x .``, ``A x .``, ``C x = y .``) are read in
        a loop and wrapped around their body from the inside out, so a
        binder chain costs no stack depth."""
        tokens = self.tokens
        heads = []
        while True:
            i = self.pos
            token = tokens[i]
            if token == "!":
                heads.append((Not,))
                self.pos = i + 1
            elif token in ("E", "A") and _is_ident(tokens[i + 1]) and tokens[i + 2] == ".":
                heads.append((Exists if token == "E" else Forall, tokens[i + 1]))
                self.pos = i + 3
            elif (
                token == "C" and _is_ident(tokens[i + 1]) and tokens[i + 2] == "="
                and _is_ident(tokens[i + 3]) and tokens[i + 4] == "."
            ):
                heads.append((CountEq, tokens[i + 1], tokens[i + 3]))
                self.pos = i + 5
            else:
                break
        if token == "(":
            self.pos += 1
            body = self.parse_formula()
            self.expect(")")
        elif token == "true" or token == "false":
            self.pos += 1
            body = fm.TRUE if token == "true" else fm.FALSE
        else:
            body = self.parse_atom()
        for make, *names in reversed(heads):
            body = make(*names, body)
        return body

    def parse_atom(self) -> Formula:
        left = self.parse_term()
        op = self.tokens[self.pos]
        if op not in _COMPARISONS and op != "==":
            raise self.error(_found(op), "comparison operator")
        self.pos += 1
        if op == "==":
            residue = self.parse_integer()
            if self.tokens[self.pos] != "mod":
                raise self.error(f"found {self.tokens[self.pos]!r}", "'mod'")
            self.pos += 1
            mod_index = self.pos
            modulus = self.parse_integer()
            if modulus < 1:
                raise ParseError("modulus must be positive", self.span(mod_index))
            return Cong(left, residue, modulus)
        right = self.parse_term()
        if op[0] == ">":
            left, right = right, left
        return _COMPARISONS[op](left, right)

    def parse_integer(self) -> int:
        negative = self.tokens[self.pos] == "-"
        if negative:
            self.pos += 1
        token = self.tokens[self.pos]
        if token[:1] not in _DIGITS:
            raise self.error(_found(token), "integer")
        self.pos += 1
        return -int(token) if negative else int(token)

    def parse_term(self) -> Term:
        """``[-] addend (("+"|"-") addend)*`` summed into one coefficient
        map; a coefficient that cancels to zero leaves the map, so the map
        keeps the key order of a left-to-right sum of terms."""
        tokens = self.tokens
        i = self.pos
        constant = 0
        coeffs = {}
        sign = 1
        if tokens[i] == "-":
            sign = -1
            i += 1
        while True:
            token = tokens[i]
            if token[:1] in _DIGITS:
                if tokens[i + 1] != "*":
                    constant += sign * int(token)
                    name = None
                    i += 1
                else:
                    value = sign * int(token)
                    name = tokens[i + 2]
                    if name[:1] not in _WORD_START or name in _KEYWORDS:
                        self.pos = i + 2
                        raise self.error(_found(name), "identifier")
                    i += 3
            elif token[:1] in _WORD_START and token not in _KEYWORDS:
                name, value = token, sign
                i += 1
            else:
                self.pos = i
                raise self.error(_found(token), "integer or identifier")
            if name is not None:
                if name not in coeffs:
                    if value:
                        coeffs[name] = value
                elif coeffs[name] + value:
                    coeffs[name] += value
                else:
                    del coeffs[name]
            token = tokens[i]
            if token != "+" and token != "-":
                self.pos = i
                return Term(constant, coeffs)
            sign = 1 if token == "+" else -1
            i += 1


def parse_formula(text: str) -> Formula:
    """Parse the formula surface syntax; raises :class:`ParseError`."""
    parser = _FormulaParser(text)
    try:
        result = parser.parse_formula()
    except ParameterError as exc:
        raise ParseError(str(exc), parser.span(parser.pos)) from exc
    if parser.tokens[parser.pos]:
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}")
    return result


# --- printing -----------------------------------------------------------------

_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNARY = 3


def _print_term(t: Term, unicode_mode: bool = False) -> str:
    pieces = []
    for name in sorted(t.coeffs):
        pieces.append((t.coeffs[name], name))
    out = []
    for value, name in pieces:
        magnitude = abs(value)
        body = name if magnitude == 1 else f"{magnitude}*{name}"
        if not out:
            out.append(f"-{body}" if value < 0 else body)
        else:
            out.append(f"- {body}" if value < 0 else f"+ {body}")
    if t.constant or not pieces:
        value = t.constant
        if not out:
            out.append(str(value))
        else:
            out.append(f"- {abs(value)}" if value < 0 else f"+ {value}")
    return " ".join(out)


def _print(f: Formula, level: int, u: bool) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Le):
        op = " ≤ " if u else " <= "
        return _print_term(f.lhs, u) + op + _print_term(f.rhs, u)
    if isinstance(f, Lt):
        return _print_term(f.lhs, u) + " < " + _print_term(f.rhs, u)
    if isinstance(f, Eq):
        return _print_term(f.lhs, u) + " = " + _print_term(f.rhs, u)
    if isinstance(f, Cong):
        if u:
            return f"{_print_term(f.term, u)} ≡ {f.residue} (mod {f.modulus})"
        return f"{_print_term(f.term, u)} == {f.residue} mod {f.modulus}"
    if isinstance(f, And):
        sep = " ∧ " if u else " & "
        body = sep.join(_print(p, _LEVEL_AND, u) for p in f.parts)
        return f"({body})" if level > _LEVEL_AND else body
    if isinstance(f, Or):
        sep = " ∨ " if u else " | "
        body = sep.join(_print(p, _LEVEL_OR + 1, u) for p in f.parts)
        return f"({body})" if level > _LEVEL_OR else body
    if not isinstance(f, (Not, Exists, Forall, CountEq)):
        raise TypeError(f"not a formula: {f!r}")
    heads = []  # a run of unary heads is printed in a loop, not a frame each
    while True:
        if isinstance(f, Not):
            heads.append("¬" if u else "!")
        elif isinstance(f, Exists):
            heads.append(f"∃{f.var}. " if u else f"E {f.var} . ")
        elif isinstance(f, Forall):
            heads.append(f"∀{f.var}. " if u else f"A {f.var} . ")
        elif isinstance(f, CountEq):
            if u:
                heads.append(f"∃^={f.count_var} {f.counted_var}. ")
            else:
                heads.append(f"C {f.counted_var} = {f.count_var} . ")
        else:
            return "".join(heads) + _print(f, _LEVEL_UNARY, u)
        f = f.body


def print_formula(f: Formula, unicode_mode: bool = False) -> str:
    """Render a formula.

    The default ASCII form roundtrips through :func:`parse_formula` to a
    structurally identical AST; the unicode form is display-only.
    """
    return _print(f, 0, unicode_mode)


# --- presentation files ---------------------------------------------------------


def _line_span(offset: int, line_text: str, line_no: int) -> SourceSpan:
    return SourceSpan(offset, offset + len(line_text), line_no, 1)


def parse_presentation(text: str) -> SemilinearPresentation:
    """Parse the line-oriented presentation format; raises :class:`ParseError`."""
    domain: Optional[DomainTag] = None
    dim: Optional[int] = None
    disjoint = False
    simple = False
    components: list[LinearSetPresentation] = []
    current_base: Optional[tuple[int, ...]] = None
    current_periods: list[tuple[int, ...]] = []
    in_component = False
    header_done = False

    def flush(span: SourceSpan):
        nonlocal current_base, current_periods
        if not in_component:
            return
        if current_base is None:
            raise ParseError("component without a base line", span)
        try:
            components.append(
                LinearSetPresentation(
                    base=current_base,
                    periods=tuple(current_periods),
                    domain=domain,
                )
            )
        except (ParameterError, CountQEError) as exc:
            raise ParseError(str(exc), span) from exc
        current_base = None
        current_periods = []

    def parse_vector(args: Sequence[str], span: SourceSpan) -> tuple[int, ...]:
        values = []
        for piece in args:
            try:
                values.append(int(piece))
            except ValueError:
                raise ParseError(f"not an integer: {piece!r}", span) from None
        if dim is not None and len(values) != dim:
            raise ParseError(
                f"expected {dim} integers, found {len(values)}", span
            )
        return tuple(values)

    offset = 0
    last_span = SourceSpan(0, 0, 1, 1)
    lines = zip(text.splitlines(), text.splitlines(keepends=True))
    for line_no, (raw, ended) in enumerate(lines, 1):
        span = _line_span(offset, raw, line_no)
        offset += len(ended)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_span = span
        keyword, *args = line.split()
        if keyword == "domain":
            if header_done or domain is not None:
                raise ParseError("domain line out of place", span)
            if args not in (["Z"], ["N"]):
                raise ParseError("domain must be Z or N", span)
            domain = DomainTag(args[0])
        elif keyword == "dim":
            if header_done or dim is not None:
                raise ParseError("dim line out of place", span)
            if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
                raise ParseError("dim needs one positive integer", span)
            dim = int(args[0])
        elif keyword == "disjoint":
            if header_done:
                raise ParseError("flags belong in the header", span)
            disjoint = True
        elif keyword == "simple":
            if header_done:
                raise ParseError("flags belong in the header", span)
            simple = True
        elif keyword == "component":
            if domain is None or dim is None:
                raise ParseError("component before domain/dim header", span)
            if args:
                raise ParseError("component line takes no arguments", span)
            flush(span)
            header_done = True
            in_component = True
        elif keyword == "base":
            if not in_component:
                raise ParseError("base line outside a component", span)
            if current_base is not None:
                raise ParseError("component with two base lines", span)
            current_base = parse_vector(args, span)
        elif keyword == "period":
            if not in_component or current_base is None:
                raise ParseError("period line before the component's base", span)
            current_periods.append(parse_vector(args, span))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", span)
    flush(last_span)
    if domain is None or dim is None:
        raise ParseError("missing domain/dim header", last_span)
    if not components:
        raise ParseError("presentation without components", last_span)
    return SemilinearPresentation(
        components=tuple(components),
        asserted_disjoint=disjoint,
        asserted_simple=simple,
    )
