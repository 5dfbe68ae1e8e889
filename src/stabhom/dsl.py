"""Symbolic inequality expressions over per-site dichotomic settings.

Grammar (one inequality per ``.ineq`` file, ``#`` comments allowed):

    inequality := expr rel ["-"] number
    rel        := "<=" | "<"
    expr       := ["+"|"-"] term { ("+"|"-") term }
    term       := factor { ["*"] factor }
    factor     := number | setting | "(" expr ")" | "sq" "(" expr ")"
    number     := INT ["/" INT] | DECIMAL
    setting    := LETTER INT { "'" }          (INT >= 1, the site)

A term is a product: without ``*``, only a setting, ``(`` or ``sq`` may
follow a factor, and settings in one product sit on distinct sites.
Every canonical coefficient and the bound must be finite as floats.
Settings named X/Y/Z with no primes are fixed Pauli measurements; any
other (letter, primes) combination is a free dichotomic setting.  A
``Setting`` is the tuple (site, base, primes) and a monomial a sorted
tuple of settings, so both hash, compare and sort natively.  The
canonical form is fully expanded and like-term collected; ``sq(...)``
marks a squared sub-expression: it does not nest, appear inside
parentheses or share a product with anything but numbers.

``assign_paulis`` realises an expression as Pauli-string sums under an
assignment of observables to settings.  One expansion, ``_pauli_sums``,
turns (coefficient, monomial) pairs into string sums in
``PauliString.sort_key`` order.  A coefficient is a float in
``assign_paulis``, or an array with one entry per row in ``bounds``'
quantum-value kernel, which expands one expression or a stack of
descendant rows over one universe of monomials; each row then carries
the float bits of its own expression's expansion.  Both treat a sum
within ``ABSENT_SUM`` of zero as absent.
"""
from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .pauli import PauliString

Number = Union[Fraction, float]
ABSENT_SUM = 1e-14  # a Pauli-string sum no larger in magnitude is absent from the operator


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Setting(namedtuple("Setting", "site base primes", defaults=[0])):
    """One measurement choice at one site, e.g. A2' = Setting(2, 'A', 1)."""

    __slots__ = ()

    def __new__(cls, site: int, base: str, primes: int = 0):
        if site < 1:
            raise ValueError("site must be >= 1")
        if len(base) != 1 or not base.isupper():
            raise ValueError("base must be a single uppercase letter")
        return super().__new__(cls, site, base, primes)

    @property
    def is_fixed_pauli(self) -> bool:
        return self.base in "XYZ" and self.primes == 0

    def text(self) -> str:
        return f"{self.base}{self.site}" + "'" * self.primes


Monomial = tuple[Setting, ...]  # sorted by site, at most one setting per site
LinearTerms = tuple[tuple[Fraction, Monomial], ...]


def _merge(counter: dict, key, value):
    acc = counter.get(key, Fraction(0)) + value
    if acc == 0:
        counter.pop(key, None)
    else:
        counter[key] = acc


def _canon_linear(d: dict[Monomial, Fraction]) -> LinearTerms:
    return tuple((c, m) for m, c in sorted(d.items()))


@dataclass(frozen=True)
class InequalityAST:
    linear: LinearTerms
    squares: tuple[tuple[Fraction, LinearTerms], ...]
    relation: str
    bound: Number

    def __post_init__(self):
        if self.relation not in ("<=", "<"):
            raise ValueError("relation must be <= or <")
        if not self.linear and not self.squares:
            raise ValueError("inequality must have at least one term")

    @property
    def parts(self) -> tuple[LinearTerms, ...]:
        """The linear part, then the inner terms of each square."""
        return (self.linear, *(sub for _, sub in self.squares))

    @property
    def settings(self) -> tuple[Setting, ...]:
        return tuple(sorted({s for part in self.parts for _, mono in part for s in mono}))

    @property
    def width(self) -> int:
        return max((s.site for s in self.settings), default=1)

    @property
    def is_linear(self) -> bool:
        return not self.squares

    def with_bound(self, bound: Number, relation: str = "<=") -> "InequalityAST":
        return InequalityAST(self.linear, self.squares, relation, bound)


@dataclass(frozen=True)
class Inequality:
    ast: InequalityAST
    name: str = ""
    provenance: str = ""


def as_ast(expr: Inequality | InequalityAST) -> InequalityAST:
    """The AST of an inequality, or the AST itself."""
    return expr.ast if isinstance(expr, Inequality) else expr


# ---------------------------------------------------------------------------
# tokenizer / parser

_SETTING = re.compile(r"(?P<base>[A-Z])(?P<site>\d+)(?P<primes>'*)")
_TOKEN = re.compile(
    rf"\s*(?:(?P<sq>sq\b)|(?P<setting>{_SETTING.pattern})|(?P<number>\d+\.\d+|\d+)"
    r"|(?P<op><=|<|[-+*/()]))"
)
_SIGNS = (("op", "+"), ("op", "-"))


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        try:
            out.append((kind, _setting(m) if kind == "setting" else m.group(kind), pos))
        except ValueError as exc:  # a setting on site 0
            raise ParseError(str(exc), pos) from None
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _setting(m: re.Match) -> Setting:
    return Setting(int(m["site"]), m["base"], len(m["primes"]))


def parse_setting(text: str) -> Optional[Setting]:
    """The setting a text such as ``A2'`` names (letter, site, primes), or None."""
    m = _SETTING.fullmatch(text)
    return _setting(m) if m else None


def _times(a: dict[Monomial, Fraction], b: dict[Monomial, Fraction], pos: int):
    """The product of two polynomials; refuses two settings on one site, even at coefficient 0."""
    b_sites = [({s.site for s in mono}, mono, c) for mono, c in b.items()]
    out: dict[Monomial, Fraction] = {}
    for mono_a, ca in a.items():
        sites_a = {s.site for s in mono_a}
        for sites_b, mono_b, cb in b_sites:
            shared = sites_a & sites_b
            if shared:
                raise ParseError(f"two settings on site {min(shared)} in one product", pos)
            out[tuple(sorted(mono_a + mono_b))] = ca * cb
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or (value is not None and tok[1] != value):
            found = tok[1].text() if tok[0] == "setting" else tok[1]
            raise ParseError(f"expected {value or kind}, found {found!r}", tok[2])
        self.i += 1
        return tok

    # grammar ------------------------------------------------------------
    def parse_inequality(self) -> InequalityAST:
        linear, squares = self.parse_expr()
        kind, value, pos = self.peek()
        if not (kind == "op" and value in ("<=", "<")):
            raise ParseError("expected relation <= or <", pos)
        self.take()
        bound = self.parse_number()
        self.take("end")
        squares = tuple((c, _canon_linear(sub)) for c, sub in squares)
        ast = InequalityAST(_canon_linear(linear), squares, value, bound)
        try:
            for c in (bound, *(c for c, _ in squares), *(c for p in ast.parts for c, _ in p)):
                float(c)
        except OverflowError:
            raise ParseError("a coefficient or the bound is too large for a float", 0) from None
        return ast

    def parse_number(self) -> Fraction:
        neg = False
        if self.peek()[:2] == ("op", "-"):
            self.take()
            neg = True
        kind, value, pos = self.take("number")
        if "." in value:
            num = Fraction(value)
        else:
            num = Fraction(int(value))
            if self.peek()[:2] == ("op", "/"):
                self.take()
                _, den, dpos = self.take("number")
                if "." in den:
                    raise ParseError("fraction denominator must be integer", dpos)
                if not int(den):
                    raise ParseError("fraction denominator must not be zero", dpos)
                num /= int(den)
        return -num if neg else num

    def parse_expr(self):
        """(linear part, [(coefficient, linear part)] of its squares) of a signed sum."""
        linear, squares = {}, []
        op = self.take()[1] if self.peek()[:2] in _SIGNS else "+"
        while True:
            sign = -1 if op == "-" else 1
            product, square = self.parse_term()
            if square is None:
                for mono, c in product.items():
                    _merge(linear, mono, sign * c)
            else:
                squares.append((sign * product[()], square))
            if self.peek()[:2] not in _SIGNS:
                return linear, squares
            op = self.take()[1]

    def parse_term(self):
        """One product of factors: (its polynomial, the linear part of its square or None).

            term   := factor { ["*"] factor }
            factor := number | setting | "(" expr ")" | "sq" "(" expr ")"

        Each factor is a polynomial (monomial -> coefficient) that ``_times``
        multiplies into the product.  Without ``*``, only a setting, ``(`` or
        ``sq`` may follow a factor.  A product holding ``sq(...)`` holds only
        numbers besides it; their product is the square's coefficient.
        """
        product, square, non_numbers = {(): Fraction(1)}, None, 0
        while True:
            kind, value, pos = self.peek()
            if kind == "number":
                factor = {(): self.parse_number()}
            elif kind == "setting":
                self.take()
                factor = {(value,): Fraction(1)}
            elif kind == "sq":
                self.take()
                square = self.parse_group("nested squares are not allowed", pos)
                factor = {(): Fraction(1)}
            elif (kind, value) == ("op", "("):
                factor = self.parse_group("squared terms cannot appear inside products", pos)
            else:
                raise ParseError("expected a term", pos)
            non_numbers += kind != "number"
            if non_numbers > 1 and square is not None:
                raise ParseError("sq(...) cannot be multiplied by factors", pos)
            product = _times(product, factor, pos)
            kind, value, _ = self.peek()
            if (kind, value) == ("op", "*"):
                self.take()
            elif kind not in ("setting", "sq") and (kind, value) != ("op", "("):
                return product, square

    def parse_group(self, squares_message: str, pos: int) -> dict[Monomial, Fraction]:
        """The linear part of ``( expr )``, refusing square terms inside it."""
        self.take("op", "(")
        linear, squares = self.parse_expr()
        self.take("op", ")")
        if squares:
            raise ParseError(squares_message, pos)
        return linear


def parse(text: str, name: str = "", provenance: str = "") -> Inequality:
    return Inequality(_Parser(text).parse_inequality(), name, provenance)


# ---------------------------------------------------------------------------
# printing

def _format_number(x: Number) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _format_linear(terms: LinearTerms) -> str:
    parts = []
    for i, (coeff, mono) in enumerate(terms):
        mag = abs(coeff)
        body = "*".join(s.text() for s in mono) if mono else "1"
        if mono and mag == 1:
            chunk = body
        else:
            chunk = _format_number(mag) if not mono else f"{_format_number(mag)}*{body}"
        if i == 0:
            parts.append(chunk if coeff > 0 else f"-{chunk}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + chunk)
    return " ".join(parts)


def pretty_print(ineq: Inequality | InequalityAST) -> str:
    ast = as_ast(ineq)
    chunks = []
    if ast.linear:
        chunks.append(_format_linear(ast.linear))
    for coeff, sub in ast.squares:
        mag = abs(coeff)
        inner = _format_linear(sub)
        body = f"sq({inner})" if mag == 1 else f"{_format_number(mag)}*sq({inner})"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return f"{' '.join(chunks)} {ast.relation} {_format_number(ast.bound)}"


# ---------------------------------------------------------------------------
# .ineq file form

def load_ineq_text(text: str) -> Inequality:
    name = provenance = ""
    expr_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("name:"):
            name = stripped[5:].strip()
        elif stripped.startswith("provenance:"):
            provenance = stripped[11:].strip()
        else:
            expr_lines.append(stripped)
    if len(expr_lines) != 1:
        raise ParseError("expected exactly one expression line", 0)
    return parse(expr_lines[0], name, provenance)


def load_ineq(path) -> Inequality:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ineq_text(fh.read())


# ---------------------------------------------------------------------------
# pauli assignment

# an observable is a real combination of at most two anticommuting paulis,
# normalised so that it squares to the identity
Observable = tuple[tuple[float, str], ...]


class AssignmentError(ValueError):
    pass


def _check_observable(obs: Observable) -> Observable:
    try:
        obs = tuple((float(c), letter) for c, letter in obs)
    except (TypeError, ValueError):  # not a sequence of (number, letter) pairs
        raise AssignmentError(f"observable {obs!r} is not (coefficient, letter) pairs") from None
    letters = [l for _, l in obs]
    if not 1 <= len(obs) <= 2 or any(l not in ("X", "Y", "Z") for l in letters):
        raise AssignmentError("observable must combine one or two of X, Y, Z")
    if len(obs) == 2 and letters[0] == letters[1]:
        raise AssignmentError("observable letters must be distinct (anticommuting)")
    if abs(sum(c * c for c, _ in obs) - 1.0) > 1e-9:
        raise AssignmentError("observable must square to the identity")
    return obs


def parse_observable(text: str) -> Observable:
    """Parse assignment values like ``X1``, ``-Y1``, ``(X1+Z1)/sqrt2``."""
    s = text.replace(" ", "")
    sign = 1.0
    if s.startswith("-"):
        sign, s = -1.0, s[1:]
    elif s.startswith("+"):
        s = s[1:]
    m = re.fullmatch(r"([XYZ])\d*", s)
    if m:
        return ((sign, m.group(1)),)
    m = re.fullmatch(r"\(([XYZ])\d*([+-])([XYZ])\d*\)/sqrt2", s)
    if m:
        r = 1 / np.sqrt(2)
        second = r if m.group(2) == "+" else -r
        return _check_observable(((sign * r, m.group(1)), (sign * second, m.group(3))))
    raise AssignmentError(f"cannot parse observable {text!r}")


def _resolve_assignment(
    settings: Iterable[Setting], assignment: Mapping
) -> dict[Setting, Observable]:
    if not isinstance(assignment, Mapping):
        raise AssignmentError(f"assignment must be a JSON object, got {assignment!r}")
    given = {}  # a Setting key never equals a text key
    for key, value in assignment.items():
        try:
            value = _check_observable(parse_observable(value) if isinstance(value, str) else value)
        except AssignmentError as exc:
            raise AssignmentError(f"assignment for {key}: {exc}") from None
        given[key if isinstance(key, Setting) else str(key)] = value
    table: dict[Setting, Observable] = {}
    for s in settings:
        table[s] = given.get(s, given.get(s.text(), ((1.0, s.base),) if s.is_fixed_pauli else None))
        if table[s] is None:
            raise AssignmentError(f"no assignment for setting {s.text()}")
    return table


def _pauli_sums(terms, table: Mapping[Setting, Observable], width: int) -> list:
    """(sum, string) of every Pauli string the terms expand into, in ``sort_key`` order.

    A term is a (coefficient, monomial) pair.  Its monomial expands into
    one string per choice of a letter from each setting's observable, and
    that string's share is the coefficient times the observable
    coefficients, multiplied in setting order.  Shares add up in term order
    from 0.0.  A coefficient may be a float or an array with one entry per
    row; each row's sums then carry the float bits of that row's own terms.
    """
    sums: dict[PauliString, float | np.ndarray] = {}
    for coeff, mono in terms:
        partial = [(coeff, {})]
        for s in mono:
            partial = [
                (c * oc, {**sites, s.site: letter})
                for c, sites in partial
                for oc, letter in table[s]
            ]
        for c, sites in partial:
            string = PauliString.from_letters(
                "".join(sites.get(i, "I") for i in range(1, width + 1))
            )
            sums[string] = sums.get(string, 0.0) + c
    return [(sums[s], s) for s in sorted(sums, key=PauliString.sort_key)]


def _expand_terms(
    terms: LinearTerms, table: dict[Setting, Observable], width: int
) -> tuple[tuple[float, PauliString], ...]:
    sums = _pauli_sums([(float(c), mono) for c, mono in terms], table, width)
    return tuple((c, s) for c, s in sums if abs(c) > ABSENT_SUM)


@dataclass(frozen=True)
class OperatorExpression:
    """Expanded Pauli realisation of a left-hand side, each part as (coefficient, string) pairs."""

    width: int
    linear: tuple[tuple[float, PauliString], ...]
    squares: tuple[tuple[float, tuple[tuple[float, PauliString], ...]], ...] = ()


def assign_paulis(
    ineq: Inequality | InequalityAST, assignment: Mapping | None = None
) -> OperatorExpression:
    """Expand the inequality into explicit Pauli terms under an assignment.

    Fixed-Pauli settings map to themselves; every symbolic setting must
    appear in ``assignment`` (as a Setting or its text form) with a value
    that is a single Pauli letter or a normalised two-letter combination.
    The strings span the expression's own width, sites 1 to its largest.
    """
    ast = as_ast(ineq)
    width = ast.width
    table = _resolve_assignment(ast.settings, assignment or {})
    squares = tuple((float(c), _expand_terms(sub, table, width)) for c, sub in ast.squares)
    return OperatorExpression(width, _expand_terms(ast.linear, table, width), squares)

