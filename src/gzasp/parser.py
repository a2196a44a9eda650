"""Text dialect: parsing, canonical rendering, ASP-Core-2 emission.

Grammar (whitespace-insensitive, `%` comments to end of line):

    program := { rule }
    rule    := head "." | [ head ] ":-" [ body ] "."
    head    := atom { "|" atom }
    body    := literal { "," literal }
    literal := { "not" } atom | aggregate
    agg     := ("count"|"sum"|"avg"|"min"|"max") "{" [ elems ] "}" cmp int
             | ("odd"|"even") "{" [ elems ] "}"
    elem    := [ int ":" ] atom
    atom    := /[a-z][A-Za-z0-9_]*/

`not` is a keyword. Aggregate function names double as ordinary atoms when
not followed by `{`. Atoms starting with `__` are reserved for rewritings
and rejected on input, with one exception: the distinguished `__bot`, so
that every program the toolkit can produce parses back to itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    AggregateFunc,
    AggregateSpec,
    Atom,
    AtomLiteral,
    PARITY_FUNCS,
    Program,
    RESERVED_PREFIX,
    Rule,
)
from .errors import (
    NegatedAggregateError,
    ParseError,
    ReservedNameError,
    UnsupportedConstructError,
)

__all__ = ["parse", "render", "render_rule", "render_literal", "emit_core2"]

_AGG_NAMES = {func.value: func for func in AggregateFunc}
_BOTTOM_NAME = "__bot"

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>-?[0-9]+)
    | (?P<arrow>:-)
    | (?P<cmp><=|>=|!=|<|>|=)
    | (?P<punct>[.{},|:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | arrow | cmp | punct | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        chunk = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: str) -> ParseError:
        token = self.current
        shown = repr(token.text) if token.kind != "eof" else "end of input"
        return ParseError(f"unexpected {shown}", token.line, token.column, expected)

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            raise self.fail(expected or (text or kind))
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def program(self) -> Program:
        rules = []
        while self.current.kind != "eof":
            rules.append(self.rule())
        return Program(tuple(rules))

    def rule(self) -> Rule:
        head: list[Atom] = []
        if not (self.current.kind == "arrow" or self.at_punct(".")):
            head.append(self.atom())
            while self.at_punct("|"):
                self.advance()
                head.append(self.atom())
        body: list = []
        if self.current.kind == "arrow":
            self.advance()
            if not self.at_punct("."):
                body.append(self.literal())
                while self.at_punct(","):
                    self.advance()
                    body.append(self.literal())
        elif not head:
            raise self.fail("atom or ':-'")
        self.expect("punct", ".", "'.'")
        return Rule(frozenset(head), tuple(body))

    def atom(self) -> Atom:
        token = self.current
        if token.kind != "ident" or token.text == "not":
            raise self.fail("atom")
        return Atom(self._atom_name(self.advance()))

    def _atom_name(self, token: _Token) -> str:
        name = token.text
        if name.startswith(RESERVED_PREFIX) and name != _BOTTOM_NAME:
            raise ReservedNameError(
                f"atom '{name}' uses the reserved '__' prefix", token.line, token.column
            )
        if name != _BOTTOM_NAME and not re.fullmatch(r"[a-z][A-Za-z0-9_]*", name):
            raise ParseError(f"invalid atom '{name}'", token.line, token.column, "atom")
        return name

    def literal(self):
        depth = 0
        while self.current.kind == "ident" and self.current.text == "not":
            self.advance()
            depth += 1
        token = self.current
        is_aggregate = (
            token.kind == "ident"
            and token.text in _AGG_NAMES
            and self.tokens[self.pos + 1].kind == "punct"
            and self.tokens[self.pos + 1].text == "{"
        )
        if is_aggregate:
            if depth:
                raise NegatedAggregateError(
                    "aggregates cannot be negated", token.line, token.column
                )
            return self.aggregate()
        return AtomLiteral(self.atom(), depth)

    def aggregate(self) -> AggregateSpec:
        func = _AGG_NAMES[self.advance().text]
        self.expect("punct", "{", "'{'")
        elements: list[tuple[int, Atom]] = []
        if not self.at_punct("}"):
            elements.append(self.element())
            while self.at_punct(","):
                self.advance()
                elements.append(self.element())
        self.expect("punct", "}", "'}'")
        if func in PARITY_FUNCS:
            return AggregateSpec(func, tuple(elements))
        if self.current.kind != "cmp":
            raise self.fail("comparator")
        comparator = self.advance().text
        if self.current.kind != "int":
            raise self.fail("integer bound")
        bound = int(self.advance().text)
        return AggregateSpec(func, tuple(elements), comparator, bound)

    def element(self) -> tuple[int, Atom]:
        if self.current.kind == "int":
            weight = int(self.advance().text)
            self.expect("punct", ":", "':'")
            return (weight, self.atom())
        return (1, self.atom())


def parse(text: str | bytes) -> Program:
    """Parse dialect text into a Program. All failures raise GzaspError
    subclasses carrying a source position where one makes sense."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8 ({exc.reason})", 1, exc.start + 1)
    return _Parser(_tokenize(text)).program()


def _render_elements(spec: AggregateSpec) -> str:
    if spec.func in (AggregateFunc.SUM, AggregateFunc.AVG, AggregateFunc.MIN, AggregateFunc.MAX):
        return ", ".join(f"{weight} : {atom.name}" for weight, atom in spec.elements)
    return ", ".join(atom.name for _, atom in spec.elements)


def render_literal(lit) -> str:
    """Canonical text of a single body literal or aggregate."""
    if isinstance(lit, AtomLiteral):
        return "not " * lit.negation_depth + lit.atom.name
    suffix = "" if lit.func in PARITY_FUNCS else f" {lit.comparator} {lit.bound}"
    return f"{lit.func.value}{{{_render_elements(lit)}}}{suffix}"


def render_rule(rule: Rule, literal=render_literal) -> str:
    """One rule in the canonical layout, with `literal` writing each body literal."""
    head = " | ".join(atom.name for atom in sorted(rule.head))
    body = ", ".join(literal(lit) for lit in rule.body)
    if not body:
        return f"{head}." if head else ":-."
    if not head:
        return f":- {body}."
    return f"{head} :- {body}."


def render(program: Program) -> str:
    """Canonical text: one rule per line, heads and aggregate elements in
    canonical atom order, body order preserved. parse(render(p)) == p."""
    return "".join(render_rule(rule) + "\n" for rule in program.rules)


_CORE2_FUNCS = {AggregateFunc.COUNT: "#count", AggregateFunc.SUM: "#sum"}


def _core2_literal(lit) -> str:
    if isinstance(lit, AtomLiteral):
        if lit.negation_depth > 2:
            raise UnsupportedConstructError(
                f"negation depth {lit.negation_depth} has no ASP-Core-2 form"
            )
        return "not " * lit.negation_depth + lit.atom.name
    name = _CORE2_FUNCS.get(lit.func)
    if name is None:
        raise UnsupportedConstructError(
            f"{lit.func.value} aggregate has no ASP-Core-2 form"
        )
    elements = "; ".join(
        f"{weight},{atom.name} : {atom.name}" for weight, atom in lit.elements
    )
    return f"{name}{{{elements}}} {lit.comparator} {lit.bound}"


def emit_core2(program: Program) -> str:
    """ASP-Core-2 text for programs using only count/sum aggregates and
    negation nested at most twice; each aggregate element becomes a distinct
    (weight, atom) term tuple so set semantics cannot merge elements."""
    return "".join(render_rule(rule, _core2_literal) + "\n" for rule in program.rules)
