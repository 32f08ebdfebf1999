"""Tiny expression language over the generator ring.

Grammar (weights are inferred during parsing, so ill-graded sums are
rejected before anything is evaluated):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | power
    power  := atom ("^" INT)?
    atom   := NAME | NUMBER | "(" expr ")"
    NUMBER := INT ("/" INT)?        -- a rational literal, not division

Atoms are the generators X4 X6 X10 X12 X35 and the Eisenstein series
E4 E6 E8 E10 E12.  Numeric literals have weight 0; a sum requires equal
weights, a product adds them, and a power multiplies.  There is no
division operator: "1/2" is a single literal token pair, "X4/X6" is a
syntax error.

Tree nodes are named tuples, told apart by `isinstance`; their equality
is tuple equality, which does not see the node's class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .igusa import ATOM_WEIGHTS
from .qexp import Expansion

__all__ = [
    "ExprError",
    "ATOM_WEIGHTS",
    "Atom",
    "Number",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Pow",
    "parse",
    "literals",
    "eval_expr",
]

class ExprError(ValueError):
    """Parse or grading failure; carries the source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class Atom(NamedTuple):
    name: str
    weight: int


class Number(NamedTuple):
    value: object  # int or Fraction, canonical
    weight: int = 0


class Neg(NamedTuple):
    operand: object
    weight: int


class Add(NamedTuple):
    left: object
    right: object
    weight: int


class Sub(NamedTuple):
    left: object
    right: object
    weight: int


class Mul(NamedTuple):
    left: object
    right: object
    weight: int


class Pow(NamedTuple):
    base: object
    exponent: int
    weight: int


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<op>[-+*^()/]))")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            bad = src[pos:].lstrip()
            if not bad:
                break
            at = len(src) - len(bad)
            raise ExprError(f"unexpected character {bad[0]!r}", at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}", pos)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                if node.weight != rhs.weight:
                    raise ExprError(
                        f"weight mismatch in sum: {node.weight} vs {rhs.weight}", pos
                    )
                cls = Add if value == "+" else Sub
                node = cls(node, rhs, node.weight)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                rhs = self.factor()
                node = Mul(node, rhs, node.weight + rhs.weight)
            elif kind == "op" and value == "/":
                raise ExprError("there is no division operator", pos)
            else:
                return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            operand = self.factor()
            return Neg(operand, operand.weight)
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ExprError("exponent must be a non-negative integer literal", pos)
            self.take()
            e = int(value)
            node = Pow(node, e, node.weight * e)
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "name":
            weight = ATOM_WEIGHTS.get(value)
            if weight is None:
                raise ExprError(f"unknown atom {value!r}", pos)
            return Atom(value, weight)
        if kind == "int":
            num = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.take()
                kind3, value3, pos3 = self.peek()
                if kind3 != "int":
                    raise ExprError("rational literal needs an integer denominator", pos3)
                self.take()
                den = int(value3)
                if den == 0:
                    raise ExprError("zero denominator", pos3)
                frac = Fraction(num, den)
                return Number(int(frac) if frac.denominator == 1 else frac)
            return Number(num)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"expected an atom, got {value!r}" if value else "unexpected end of input", pos)


def parse(src: str):
    """Parse a source string into a weight-annotated syntax tree."""
    return _Parser(src).parse()


def literals(node):
    """The values of the numeric literals of a tree, left to right."""
    if isinstance(node, Number):
        yield node.value
    elif isinstance(node, Neg):
        yield from literals(node.operand)
    elif isinstance(node, Pow):
        yield from literals(node.base)
    elif isinstance(node, (Add, Sub, Mul)):
        yield from literals(node.left)
        yield from literals(node.right)


def eval_expr(node, gen, modulus: int | None = None) -> Expansion:
    """Evaluate a tree against a generator set, optionally mod a prime."""
    bound = gen.trace_bound

    def ev(n) -> Expansion:
        if isinstance(n, Atom):
            exp = gen.atom(n.name)
            return exp.reduce_mod(modulus) if modulus is not None else exp
        if isinstance(n, Number):
            return Expansion.constant(n.value, bound, modulus)
        if isinstance(n, Neg):
            return -ev(n.operand)
        if isinstance(n, Add):
            return ev(n.left) + ev(n.right)
        if isinstance(n, Sub):
            return ev(n.left) - ev(n.right)
        if isinstance(n, Mul):
            return ev(n.left) * ev(n.right)
        if isinstance(n, Pow):
            return ev(n.base) ** n.exponent
        raise TypeError(f"not an expression node: {n!r}")

    return ev(node)
