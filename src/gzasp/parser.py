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
    atom    := /[a-z][A-Za-z0-9_]*/ | /__bot(__[tgf])*/

`not` is a keyword. Aggregate function names double as ordinary atoms when
not followed by `{`. Atoms starting with `__` are reserved for rewritings
and rejected on input, except `__bot` and its copies (the second atom form),
so that every program the toolkit can produce parses back to itself.

Tokenizing is one `findall` of the token texts. A token's kind is read
from its first character, and its line and column are worked out only for
an error, by scanning again up to it.
"""

from __future__ import annotations

import re
from itertools import islice

from .core import (
    COMPARATORS,
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
_BOTTOM_NAMES = re.compile(r"__bot(?:__[tgf])*")

# Skip whitespace and comments, then take one token; `.` takes a bad character and
# the empty text ends the input, so nothing backtracks (and no 3.11-only `*+` is needed).
_TOKEN_RE = re.compile(
    r"""\s*(?:%[^\n]*\s*)*
    ( [.,{}|] | [A-Za-z_][A-Za-z0-9_]* | -?[0-9]+ | :-? | [<>!]= | [<>=] | . | )""",
    re.VERBOSE | re.DOTALL,
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_INT_START = frozenset("-0123456789")
_SINGLE_TOKENS = _IDENT_START | frozenset("0123456789<>=.{},|:")


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token `index`, found by scanning again:
    only errors need positions."""
    start = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Parser:
    """Recursive descent over the token texts, each method from the token
    index `pos` it is given. A letter or `_` starts an ident, a digit or `-`
    an int; the rest is recognised by its text alone. `atoms` and `literals` keep what this
    parse built by name, so a name is checked at its first occurrence only."""

    def __init__(self, text: str):
        self.text = text
        self.texts = texts = _TOKEN_RE.findall(text)
        self.atoms: dict[str, Atom] = {}
        self.literals: dict[tuple[str, int], AtomLiteral] = {}
        bad = {token for token in set(texts) if len(token) == 1} - _SINGLE_TOKENS
        if bad:
            index = next(i for i, token in enumerate(texts) if token in bad)
            raise ParseError(
                f"unexpected character {texts[index]!r}", *_position(text, index)
            )

    def fail(self, expected: str, pos: int) -> ParseError:
        shown = repr(self.texts[pos]) if self.texts[pos] else "end of input"
        return ParseError(f"unexpected {shown}", *_position(self.text, pos), expected)

    def program(self) -> Program:
        """The rules. Atoms and literals this parse has built are taken here,
        the rest, and every error inside a literal, by the methods below."""
        texts, atoms, literals = self.texts, self.atoms, self.literals
        rules = []
        pos = 0
        while texts[pos]:
            head: list[Atom] = []
            if texts[pos] != ":-" and texts[pos] != ".":
                head.append(atoms.get(texts[pos]) or self.atom(pos))
                pos += 1
                while texts[pos] == "|":
                    head.append(atoms.get(texts[pos + 1]) or self.atom(pos + 1))
                    pos += 2
            body: list = []
            if texts[pos] == ":-":
                pos += 1
                while texts[pos] != "." or body:  # past a ',', a literal must follow
                    literal = literals.get((texts[pos], 0))
                    if literal is None or texts[pos + 1] == "{":
                        literal, pos = self.literal(pos)
                    else:
                        pos += 1
                    body.append(literal)
                    if texts[pos] != ",":
                        break
                    pos += 1
            elif not head:
                raise self.fail("atom or ':-'", pos)
            if texts[pos] != ".":
                raise self.fail("'.'", pos)
            pos += 1
            rules.append(Rule(frozenset(head), tuple(body)))
        return Program(tuple(rules))

    def atom(self, pos: int) -> Atom:
        name = self.texts[pos]
        atom = self.atoms.get(name)
        if atom is None:
            if name[:1] not in _IDENT_START or name == "not":
                raise self.fail("atom", pos)
            # the ident token fixes the rest of the name; __bot and its
            # copies are the reserved names the input may use
            if not "a" <= name[0] <= "z" and not _BOTTOM_NAMES.fullmatch(name):
                where = _position(self.text, pos)
                if name.startswith(RESERVED_PREFIX):
                    raise ReservedNameError(f"atom '{name}' uses the reserved '__' prefix", *where)
                raise ParseError(f"invalid atom '{name}'", *where, "atom")
            atom = self.atoms[name] = Atom(name)
        return atom

    def literal(self, first: int) -> tuple:
        """(literal, the index past it), and aggregate() likewise."""
        texts = self.texts
        pos = first
        while texts[pos] == "not":
            pos += 1
        name = texts[pos]
        if name in _AGG_NAMES and texts[pos + 1] == "{":
            if pos != first:
                raise NegatedAggregateError(
                    "aggregates cannot be negated", *_position(self.text, pos)
                )
            return self.aggregate(pos)
        key = (name, pos - first)
        literal = self.literals.get(key)
        if literal is None:
            literal = self.literals[key] = AtomLiteral(self.atom(pos), pos - first)
        return literal, pos + 1

    def aggregate(self, pos: int) -> tuple:
        texts, atoms = self.texts, self.atoms
        func = _AGG_NAMES[texts[pos]]
        pos += 2  # past the name and '{'
        elements: list[tuple[int, Atom]] = []
        while texts[pos] != "}" or elements:  # [ int ":" ] atom, one past each ','
            weight = 1
            if texts[pos][:1] in _INT_START:
                weight = int(texts[pos])
                if texts[pos + 1] != ":":
                    raise self.fail("':'", pos + 1)
                pos += 2
            elements.append((weight, atoms.get(texts[pos]) or self.atom(pos)))
            pos += 1
            if texts[pos] != ",":
                break
            pos += 1
        if texts[pos] != "}":
            raise self.fail("'}'", pos)
        if func in PARITY_FUNCS:
            return AggregateSpec(func, tuple(elements)), pos + 1
        if texts[pos + 1] not in COMPARATORS:
            raise self.fail("comparator", pos + 1)
        if texts[pos + 2][:1] not in _INT_START:
            raise self.fail("integer bound", pos + 2)
        return AggregateSpec(func, tuple(elements), texts[pos + 1], int(texts[pos + 2])), pos + 3


def parse(text: str | bytes) -> Program:
    """Parse dialect text into a Program. All failures raise GzaspError
    subclasses carrying a source position where one makes sense."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8 ({exc.reason})", 1, exc.start + 1)
    return _Parser(text).program()


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
