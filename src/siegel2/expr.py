"""Tiny expression language over the generator ring.

Grammar (weights are inferred during parsing, so ill-graded sums are
rejected before anything is evaluated):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | power
    power  := atom ("^" INT)?
    atom   := NAME | NUMBER | "(" expr ")"
    NUMBER := INT ("/" INT)?        -- a rational literal, not division
    INT    := [0-9]+                -- ASCII digits only

Atoms are the generators X4 X6 X10 X12 X35 and the Eisenstein series
E4 E6 E8 E10 E12.  Numeric literals have weight 0; a sum requires equal
weights, a product adds them, and a power multiplies.  There is no
division operator: "1/2" is a single literal token pair, "X4/X6" is a
syntax error.

A tree is made of one named tuple, `Node(op, args, weight)`.  `op` is
"atom" or "num" for a leaf, whose `args` hold the name or the value, and
otherwise the operator "neg", "+", "-", "*" or "^", whose `args` hold the
operands (for "^" the base and the int exponent).  `eval_expr` applies
each operator through one table, `_APPLY`, and walks the tree with a loop,
so a sum or product of thousands of terms evaluates; the parser recurses
only into parentheses, which may nest at most `MAX_NESTING` deep.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .igusa import ATOM_WEIGHTS
from .qexp import Expansion

__all__ = [
    "ExprError",
    "ATOM_WEIGHTS",
    "MAX_NESTING",
    "Node",
    "parse",
    "literals",
    "eval_expr",
]

# deeper parentheses are refused: each level costs the parser five frames
MAX_NESTING = 100


class ExprError(ValueError):
    """Parse or grading failure; carries the source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class Node(NamedTuple):
    op: str
    args: tuple
    weight: int


# the operators, applied to the values of their operands (and the exponent)
_APPLY = {
    "neg": operator.neg,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "^": operator.pow,
}


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>[0-9]+)|(?P<op>[-+*^()/])|(?P<bad>\S))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(src):  # `bad` takes any other non-space: nothing is skipped
        kind = match.lastgroup
        if kind == "bad":
            raise ExprError(f"unexpected character {match.group(kind)!r}", match.start(kind))
        tokens.append((kind, match.group(kind), match.start(kind)))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0  # open parentheses

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def at(self, op: str) -> bool:
        """Whether the next token is the operator `op`."""
        return self.tokens[self.i][:2] == ("op", op)

    def parse(self):
        node = self.expr()
        kind, value, pos = self.tokens[self.i]
        if kind != "end":
            raise ExprError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.at("+") or self.at("-"):
            _, op, pos = self.take()
            rhs = self.term()
            if node.weight != rhs.weight:
                raise ExprError(f"weight mismatch in sum: {node.weight} vs {rhs.weight}", pos)
            node = Node(op, (node, rhs), node.weight)
        return node

    def term(self):
        node = self.factor()
        while self.at("*"):
            self.take()
            rhs = self.factor()
            node = Node("*", (node, rhs), node.weight + rhs.weight)
        if self.at("/"):
            raise ExprError("there is no division operator", self.tokens[self.i][2])
        return node

    def factor(self):
        signs = 0
        while self.at("-"):
            self.take()
            signs += 1
        node = self.power()
        for _ in range(signs):
            node = Node("neg", (node,), node.weight)
        return node

    def power(self):
        node = self.atom()
        if self.at("^"):
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ExprError("exponent must be a non-negative integer literal", pos)
            node = Node("^", (node, int(value)), node.weight * int(value))
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "name":
            if value not in ATOM_WEIGHTS:
                raise ExprError(f"unknown atom {value!r}", pos)
            return Node("atom", (value,), ATOM_WEIGHTS[value])
        if kind == "int":
            num = int(value)
            if self.at("/"):
                self.take()
                kind, value, pos = self.take()
                if kind != "int":
                    raise ExprError("rational literal needs an integer denominator", pos)
                if int(value) == 0:
                    raise ExprError("zero denominator", pos)
                frac = Fraction(num, int(value))
                num = int(frac) if frac.denominator == 1 else frac
            return Node("num", (num,), 0)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            node = self.expr()
            if not self.at(")"):
                raise ExprError("expected ')'", self.tokens[self.i][2])
            self.take()
            self.depth -= 1
            return node
        raise ExprError(f"expected an atom, got {value!r}" if value else "unexpected end of input", pos)


def parse(src: str) -> Node:
    """Parse a source string into a weight-annotated syntax tree."""
    return _Parser(src).parse()


def _postorder(node: Node) -> list[Node]:
    """The nodes of a tree, each after its operands, left to right."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(a for a in n.args if isinstance(a, Node))
    return out[::-1]


def literals(node: Node) -> list:
    """The values of the numeric literals of a tree, left to right."""
    return [n.args[0] for n in _postorder(node) if n.op == "num"]


def eval_expr(node: Node, gen, modulus: int | None = None, at=None):
    """Evaluate a tree against a generator set, optionally mod a prime.

    With an index `at` = (m, n, r), the value is a(at) alone, found on the
    box of indices (m', n', r') with m' <= m and n' <= n: a coefficient of
    a sum or product there needs the operands' coefficients there only.
    Each atom is still reduced whole, so a coefficient that is not
    p-integral anywhere raises the same ReductionError.
    """
    bound = gen.trace_bound
    if at is not None:
        Expansion(None, bound, {at: 1})  # the constructor's bound and index checks
        bound = at[0] + at[1]
    values = []  # the values of the operands not yet consumed
    atoms = {}  # each atom's value, reduced once however often it occurs
    for n in _postorder(node):
        if n.op == "atom":
            name = n.args[0]
            if name not in atoms:
                exp = gen.atom(name)
                exp = exp.reduce_mod(modulus) if modulus is not None else exp
                atoms[name] = exp if at is None else _box(exp, at)
            values.append(atoms[name])
        elif n.op == "num":
            values.append(Expansion.constant(n.args[0], bound, modulus))
        else:
            k = len(n.args) - (n.op == "^")  # the exponent is an int, not an operand
            operands = values[-k:]
            del values[-k:]
            values.append(_APPLY[n.op](*operands, *n.args[k:]))
    value = values.pop()
    return value if at is None else value.coefficient(at)


def _box(exp: Expansion, at) -> Expansion:
    """exp cut to the indices (m', n', r') with m' <= m and n' <= n of
    at = (m, n, r), at trace bound m + n; exact on that box only, so it
    stays in `eval_expr`."""
    m, n, _ = at
    coeffs = {T: c for T, c in exp.coeffs.items() if T[0] <= m and T[1] <= n}
    return Expansion._raw(exp.weight, m + n, coeffs, exp.modulus)
