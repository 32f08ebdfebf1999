"""Tests of the expression parser and evaluator."""

import re
from fractions import Fraction

import pytest

from siegel2.cli import main
from siegel2.expr import MAX_NESTING, ExprError, eval_expr, literals, parse
from siegel2.qexp import Expansion, iter_l2_indices


def test_weight_inference():
    assert parse("X4^3 - X6^2").weight == 12
    assert parse("X10*X12").weight == 22
    assert parse("2*(X10*X12)").weight == 22
    assert parse("E4*E6 - E10").weight == 10
    assert parse("X35").weight == 35
    assert parse("3 + 1/2").weight == 0


def test_weight_mismatch_is_positional():
    with pytest.raises(ExprError) as err:
        parse("X4 + X6")
    assert "weight" in str(err.value)
    assert err.value.position == 3  # the offending '+'


def test_precedence_shapes():
    tree = parse("X4*X6 + X10")
    assert tree.op == "+" and tree.args[0].op == "*"
    tree = parse("-X4^2 * X4")
    # unary minus binds looser than the power, tighter than '*every term'?
    # convention: '-' applies to the whole factor, so (-(X4^2)) * X4
    assert tree.op == "*"
    tree = parse("X4^3 - X6^2 + 2*X12")
    assert tree.op == "+" and tree.args[0].op == "-"


def test_rational_literal():
    tree = parse("1/2*X10")
    assert tree.op == "*" and tree.args[0].op == "num"
    assert tree.args[0].args[0] == Fraction(1, 2)
    assert parse("7").args[0] == 7


def test_round_trip_corpus():
    corpus = {
        "X4^3 - X6^2": 12,
        "1/2*(X4^3 - X6^2)": 12,
        "X10*X12": 22,
        "-(X4*X6 - E10)": 10,
        "2*X12 - X4*X4*X4 + X6^2": 12,
        "X35^2": 70,
        "E4^2 - E8": 8,
        "-3/4*X10 + X4*X6": 10,
    }
    for src, weight in corpus.items():
        assert parse(src).weight == weight, src


def test_eval_identity_and_ring_ops(genset_small):
    assert eval_expr(parse("X4"), genset_small) == genset_small.atom("X4")
    zero = eval_expr(parse("E4^2 - E8"), genset_small)
    assert zero.support() == []
    prod = eval_expr(parse("X10*X12"), genset_small)
    assert prod == genset_small.atom("X10") * genset_small.atom("X12")
    assert prod.weight == 22


def test_eval_classical_cusp_combinations(genset_small):
    # weight-12 one-dimensional relation: the cusp part of E12 against X12
    F = eval_expr(parse("X4^3 - X6^2"), genset_small)
    assert F.weight == 12
    assert F.coefficient((0, 0, 0)) == 0
    assert F.phi()[1] != 0  # not a degree-2 cusp form, only the constant dies


def test_eval_mod_p(genset_small):
    prod = eval_expr(parse("X10*X12"), genset_small, modulus=23)
    assert prod.modulus == 23
    assert prod.coefficient((2, 2, -2)) != 0
    # evaluation commutes with reduction
    rational = eval_expr(parse("X10*X12 - 2*X4*X6*X12"), genset_small)
    assert rational.reduce_mod(23) == eval_expr(
        parse("X10*X12 - 2*X4*X6*X12"), genset_small, modulus=23
    )


def test_eval_mod_p_reduces_each_atom_once(genset_small, monkeypatch):
    calls = []
    reduce_mod = Expansion.reduce_mod

    def counted(self, p):
        calls.append(p)
        return reduce_mod(self, p)

    monkeypatch.setattr(Expansion, "reduce_mod", counted)
    got = eval_expr(parse("X4*X4*X6 - X4*(X4*X6) + X4^2*X6"), genset_small, modulus=7)
    assert calls == [7, 7]  # X4 and X6, however often they occur
    assert got == eval_expr(parse("X4^2*X6"), genset_small).reduce_mod(7)


@pytest.mark.parametrize("modulus", [None, 5, 7, 23])
@pytest.mark.parametrize("src", ["X10*X12*X4", "X4^3 - X6^2", "-2*X4*X6 + 1/3*E10", "X35*X4"])
def test_eval_at_an_index_is_the_full_coefficient(genset9, src, modulus):
    # with `at`, each atom is cut to the box {m' <= m, n' <= n} of the index
    node = parse(src)
    full = eval_expr(node, genset9, modulus)
    for T in iter_l2_indices(9):
        assert eval_expr(node, genset9, modulus, at=T) == full.coefficient(T), T
    with pytest.raises(ValueError, match="exceeds the trace bound 9"):
        eval_expr(node, genset9, modulus, at=(5, 5, 0))


def test_eval_scalar_weight_zero(genset_small):
    half = eval_expr(parse("1/2*X10"), genset_small)
    assert half.coefficient((1, 1, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        eval_expr(parse("1/5*X10"), genset_small, modulus=5)


def test_parse_errors():
    for src in ("X8", "X4 +", "X4^-2", "X4^X6", "X4/X6", "(X4", "X4 X6", ""):
        with pytest.raises(ExprError):
            parse(src)


def test_error_positions_point_at_offender():
    with pytest.raises(ExprError) as err:
        parse("X10 * X8")
    assert err.value.position == 6
    with pytest.raises(ExprError) as err:
        parse("X4^2 + ")
    assert err.value.position >= 7


def test_only_ascii_digits_are_numbers(tmp_path, capsys):
    # an Arabic-Indic three once parsed as the literal 3
    with pytest.raises(ExprError, match=re.escape("unexpected character '\u0663' (at position 0)")):
        parse("\u0663*X4")
    status = main(["coeff", "\u0663*X4", "1", "0", "0", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert (status, err) == (2, "error: unexpected character '\u0663' (at position 0)\n")
    assert list(tmp_path.iterdir()) == []


def test_pow_nodes_track_weight():
    tree = parse("X10^3")
    assert tree.op == "^" and tree.weight == 30
    assert tree.args[0].op == "atom"
    assert parse("X4^0").weight == 0


def test_pow_zero_evaluates_to_one(genset_small):
    one = eval_expr(parse("X4^0"), genset_small)
    assert one.coefficient((0, 0, 0)) == 1
    assert one.support() == [(0, 0, 0)]


def test_tree_equality_sees_the_operator():
    assert parse("X4 - X4") != parse("X4 + X4")
    assert parse("X4 * X4") != parse("X4 ^ 2")
    assert parse("(X10 + X4*X6) - E10") == parse("X10+X4*X6-E10")


@pytest.mark.parametrize("modulus", [None, 23])
def test_every_operator_agrees_with_expansion_arithmetic(genset_small, modulus):
    def atom(name):
        form = genset_small.atom(name)
        return form if modulus is None else form.reduce_mod(modulus)

    def const(value):
        return Expansion.constant(value, genset_small.trace_bound, modulus)

    X4, X6, X10, X12, E10 = map(atom, ("X4", "X6", "X10", "X12", "E10"))
    cases = {
        "-(X4*X6) + X10 - 1/2*E10": -(X4 * X6) + X10 - const(Fraction(1, 2)) * E10,
        "X4^3 - X6^2": X4 * X4 * X4 - X6 * X6,
        "X10^0*X12": const(1) * X12,
        "--X6": X6,
        "2*X12 - -X12": const(3) * X12,
    }
    for src, want in cases.items():
        got = eval_expr(parse(src), genset_small, modulus)
        assert got == want, src
        assert (got.weight, got.modulus) == (parse(src).weight, modulus), src


def test_literals_in_source_order():
    tree = parse("-3/4*X10^2 + 2*(X4*X6 - 1/3*E10)*X10")
    assert list(literals(tree)) == [Fraction(3, 4), 2, Fraction(1, 3)]
    assert list(literals(parse("X4^2"))) == []


def test_deep_unary_minus_and_the_nesting_cap(genset_small):
    assert eval_expr(parse("-" * 3001 + "X4"), genset_small) == -genset_small.atom("X4")
    assert parse("(" * MAX_NESTING + "X4" + ")" * MAX_NESTING) == parse("X4")
    with pytest.raises(ExprError) as err:
        parse("(" * (MAX_NESTING + 1) + "X4" + ")" * (MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING
