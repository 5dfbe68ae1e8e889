"""Symbolic inequality expressions over per-site dichotomic settings.

Grammar (one inequality per ``.ineq`` file, ``#`` comments allowed):

    inequality := expr rel number
    rel        := "<=" | "<"
    expr       := ["+"|"-"] term { ("+"|"-") term }
    term       := [coefficient ["*"]] factor { ["*"] factor } | coefficient
    factor     := setting | "sq" "(" expr ")" | "(" expr ")" | "1"
    coefficient:= INT ["/" INT] | DECIMAL
    setting    := LETTER INT { "'" }

Settings named X/Y/Z with no primes are fixed Pauli measurements; any
other (letter, primes) combination is a free dichotomic setting.  The
canonical form is fully expanded and like-term collected; ``sq(...)``
marks a squared sub-expression and cannot be nested or multiplied by
further factors.

``assign_paulis`` realises an expression as Pauli-string sums under an
assignment of observables to settings.  One expansion, ``_pauli_sums``,
turns (coefficient, monomial) pairs into string sums in
``PauliString.sort_key`` order.  A coefficient is a float in
``assign_paulis``, or an array with one entry per row in ``bounds``'
quantum-value kernel, which expands one expression or a stack of
descendant rows over one universe of monomials; each row then carries
the float bits of its own expression's expansion.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .pauli import PauliString

Number = Union[Fraction, float]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, order=True)
class Setting:
    """One measurement choice at one site, e.g. A2' = Setting(2, 'A', 1)."""

    site: int
    base: str
    primes: int = 0

    def __post_init__(self):
        if self.site < 1:
            raise ValueError("site must be >= 1")
        if len(self.base) != 1 or not self.base.isupper():
            raise ValueError("base must be a single uppercase letter")

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
    return tuple(sorted(((c, m) for m, c in d.items() if c != 0),
                        key=lambda t: _mono_key(t[1])))


def _mono_key(m: Monomial):
    return tuple((s.site, s.base, s.primes) for s in m)


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
    def settings(self) -> tuple[Setting, ...]:
        seen = set()
        for _, mono in self.linear:
            seen.update(mono)
        for _, sub in self.squares:
            for _, mono in sub:
                seen.update(mono)
        return tuple(sorted(seen))

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


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = re.compile(
    r"\s*(?:(?P<sq>sq\b)|(?P<setting>[A-Z]\d+'*)|(?P<number>\d+\.\d+|\d+)"
    r"|(?P<op><=|<|[-+*/()]))"
)


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
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def parse_setting(text: str) -> Optional[Setting]:
    """The setting a text such as ``A2'`` names (letter, site, primes), or None."""
    m = re.fullmatch(r"([A-Z])(\d+)('*)", text)
    return Setting(int(m.group(2)), m.group(1), len(m.group(3))) if m else None


class _Expr:
    """Expanded expression: linear counter + square-term list."""

    __slots__ = ("linear", "squares")

    def __init__(self):
        self.linear: dict[Monomial, Fraction] = {}
        self.squares: list[tuple[Fraction, dict[Monomial, Fraction]]] = []


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    # grammar ------------------------------------------------------------
    def parse_inequality(self) -> InequalityAST:
        expr = self.parse_expr()
        kind, value, pos = self.peek()
        if not (kind == "op" and value in ("<=", "<")):
            raise ParseError("expected relation <= or <", pos)
        self.take()
        bound = self.parse_number()
        self.take("end")
        squares = tuple(
            (c, _canon_linear(sub)) for c, sub in expr.squares
        )
        return InequalityAST(_canon_linear(expr.linear), squares, value, bound)

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
                num /= int(den)
        return -num if neg else num

    def parse_expr(self) -> _Expr:
        out = _Expr()
        sign = Fraction(1)
        if self.peek()[:2] == ("op", "+"):
            self.take()
        elif self.peek()[:2] == ("op", "-"):
            self.take()
            sign = Fraction(-1)
        self._accumulate_term(out, sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = Fraction(1) if self.take()[1] == "+" else Fraction(-1)
            self._accumulate_term(out, sign)
        return out

    def _accumulate_term(self, out: _Expr, sign: Fraction):
        coeff, factors, square = self.parse_term()
        coeff *= sign
        if square is not None:
            out.squares.append((coeff, square))
            return
        # distribute the product of factors
        acc: dict[Monomial, Fraction] = {(): Fraction(1)}
        for factor in factors:
            nxt: dict[Monomial, Fraction] = {}
            for mono_a, ca in acc.items():
                for mono_b, cb in factor.items():
                    merged = self._merge_monomials(mono_a, mono_b)
                    _merge(nxt, merged, ca * cb)
            acc = nxt
        for mono, c in acc.items():
            _merge(out.linear, mono, coeff * c)

    def _merge_monomials(self, a: Monomial, b: Monomial) -> Monomial:
        sites = {s.site for s in a}
        for s in b:
            if s.site in sites:
                raise ParseError(
                    f"two settings on site {s.site} in one product", self.peek()[2]
                )
            sites.add(s.site)
        return tuple(sorted(a + b))

    def parse_term(self):
        """Returns (coefficient, [factor linear dicts], square or None)."""
        coeff = Fraction(1)
        factors: list[dict[Monomial, Fraction]] = []
        square: Optional[dict[Monomial, Fraction]] = None
        kind, value, pos = self.peek()
        if kind == "number":
            coeff = self.parse_number()
            if self.peek()[:2] == ("op", "*"):
                self.take()
            elif self.peek()[0] in ("setting", "sq") or self.peek()[:2] == ("op", "("):
                pass  # implicit product
            else:
                return coeff, factors, None  # bare number term
        saw_factor = False
        while True:
            kind, value, pos = self.peek()
            if kind == "setting":
                self.take()
                factors.append({(parse_setting(value),): Fraction(1)})
                saw_factor = True
            elif kind == "sq":
                self.take()
                self.take("op", "(")
                inner = self.parse_expr()
                self.take("op", ")")
                if inner.squares:
                    raise ParseError("nested squares are not allowed", pos)
                if square is not None or factors:
                    raise ParseError("sq(...) cannot be multiplied by factors", pos)
                square = inner.linear
                saw_factor = True
            elif kind == "op" and value == "(":
                self.take()
                inner = self.parse_expr()
                self.take("op", ")")
                if inner.squares:
                    raise ParseError("squared terms cannot appear inside products", pos)
                factors.append(inner.linear)
                saw_factor = True
            elif kind == "number" and value == "1" and not saw_factor:
                self.take()  # monomial "1"
                saw_factor = True
            else:
                break
            if self.peek()[:2] == ("op", "*"):
                self.take()
                if square is not None:
                    raise ParseError("sq(...) cannot be multiplied by factors",
                                     self.peek()[2])
                continue
            # implicit product continues only for adjacent settings/parens
            if self.peek()[0] in ("setting", "sq") or self.peek()[:2] == ("op", "("):
                continue
            break
        if not saw_factor and square is None:
            raise ParseError("expected a term", pos)
        return coeff, factors, square


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
    ast = ineq.ast if isinstance(ineq, Inequality) else ineq
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
    table: dict[Setting, Observable] = {}
    by_text = {}
    for key, value in assignment.items():
        try:
            value = _check_observable(parse_observable(value) if isinstance(value, str) else value)
        except AssignmentError as exc:
            raise AssignmentError(f"assignment for {key}: {exc}") from None
        if isinstance(key, Setting):
            table[key] = value
        else:
            by_text[str(key)] = value
    for s in settings:
        if s in table:
            continue
        if s.text() in by_text:
            table[s] = by_text[s.text()]
        elif s.is_fixed_pauli:
            table[s] = ((1.0, s.base),)
        else:
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
    return tuple((c, s) for c, s in sums if abs(c) > 1e-14)


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
    ast = ineq.ast if isinstance(ineq, Inequality) else ineq
    width = ast.width
    table = _resolve_assignment(ast.settings, assignment or {})
    squares = tuple((float(c), _expand_terms(sub, table, width)) for c, sub in ast.squares)
    return OperatorExpression(width, _expand_terms(ast.linear, table, width), squares)

