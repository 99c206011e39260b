"""Tests for the s-expression language: parsing, shapes, evaluation, lowering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patflow import (
    ExprSyntaxError,
    Scalar,
    ShapeMismatch,
    TupleShape,
    UnsupportedExpr,
    Vector,
    compile_expr,
    eval_expr,
    format_expr,
    infer_shape,
    parse_expr,
)
from patflow.exprs import Const, Lambda, PrimOp, Var, apply_prim, children


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "(add 1 2)",
    "(mul (input 0) (input 1))",
    "(map (lambda (a) (add a 7)) (input 0))",
    "(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))",
    "(foldl (lambda (acc x) (add acc x)) 0 (input 0))",
    "(foldl1 (lambda (a b) (max a b)) (input 0))",
    "(let ((x (add 1 2)) (y (mul x x))) (sub y x))",
    "(tuple (add (input 0) 1) (mul (input 0) 2))",
    "(proj (tuple 10 20) 1)",
    "(compare (min 1 2) (max 3 4))",
]


class TestParsing:
    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_round_trip(self, src):
        assert format_expr(parse_expr(src)) == src

    def test_reparse_is_stable(self):
        for src in ROUND_TRIP_SOURCES:
            once = format_expr(parse_expr(src))
            assert format_expr(parse_expr(once)) == once

    def test_comments_and_whitespace_ignored(self):
        src = """
        ; running sum over the input stream
        (foldl1 (lambda (a b) (add a b))
                (input 0))  ; one port
        """
        assert format_expr(parse_expr(src)) == "(foldl1 (lambda (a b) (add a b)) (input 0))"

    def test_bare_integer(self):
        e = parse_expr("42")
        assert isinstance(e, Const) and e.value == 42

    def test_bare_symbol_is_variable(self):
        e = parse_expr("x")
        assert isinstance(e, Var) and e.name == "x"

    @pytest.mark.parametrize(
        "src, message",
        [
            ("(add 1", "missing closing parenthesis"),
            (")", r"unexpected '\)'"),
            ("", "empty expression"),
            ("(frobnicate 1 2)", "unknown form"),
            ("(add 1 2 3)", "takes 2 arguments"),
            ("(foldl (lambda (a b) a) (input 0))", "takes 3 arguments"),
            ("(input x)", "integer literal"),
            ("(lambda a a)", "parameter list"),
            ("(add 1 2) extra", "trailing input"),
        ],
    )
    def test_syntax_errors(self, src, message):
        with pytest.raises(ExprSyntaxError, match=message):
            parse_expr(src)


# ---------------------------------------------------------------------------
# Shape inference
# ---------------------------------------------------------------------------

class TestShapes:
    def test_zipwith_preserves_length(self):
        e = parse_expr("(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))")
        assert infer_shape(e, [Vector(3), Vector(3)]) == Vector(3)

    def test_zipwith_length_mismatch(self):
        e = parse_expr("(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))")
        with pytest.raises(ShapeMismatch, match="length mismatch"):
            infer_shape(e, [Vector(2), Vector(3)])

    def test_fold_reduces_to_scalar(self):
        e = parse_expr("(foldl1 (lambda (a b) (add a b)) (input 0))")
        assert infer_shape(e, [Vector(4)]) == Scalar()

    def test_map_requires_vector(self):
        e = parse_expr("(map (lambda (a) a) (input 0))")
        with pytest.raises(ShapeMismatch, match="must be a vector"):
            infer_shape(e, [Scalar()])

    def test_tuple_shape(self):
        e = parse_expr("(tuple (input 0) 5)")
        assert infer_shape(e, [Vector(2)]) == TupleShape((Vector(2), Scalar()))

    def test_proj_selects_component(self):
        e = parse_expr("(proj (tuple (input 0) 5) 0)")
        assert infer_shape(e, [Vector(2)]) == Vector(2)

    def test_let_binds_shapes(self):
        e = parse_expr("(let ((s (foldl1 (lambda (a b) (add a b)) (input 0)))) (mul s s))")
        assert infer_shape(e, [Vector(3)]) == Scalar()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class TestEval:
    def test_zipwith_mul(self):
        e = parse_expr("(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))")
        assert eval_expr(e, [(1, 2, 3), (4, 5, 6)], 8) == (4, 10, 18)

    def test_fold_sum(self):
        e = parse_expr("(foldl1 (lambda (a b) (add a b)) (input 0))")
        assert eval_expr(e, [(1, 2, 3, 4)], 8) == 10

    def test_foldl_with_seed(self):
        e = parse_expr("(foldl (lambda (acc x) (add acc x)) 100 (input 0))")
        assert eval_expr(e, [(1, 2, 3)], 8) == 106

    def test_addition_wraps_at_width(self):
        e = parse_expr("(add (input 0) 10)")
        assert eval_expr(e, [250], 8) == 4

    def test_subtraction_wraps_below_zero(self):
        assert eval_expr(parse_expr("(sub 2 5)"), [], 8) == 253

    def test_multiplication_wraps(self):
        assert eval_expr(parse_expr("(mul 255 255)"), [], 8) == 1

    def test_compare_is_strict_less_than(self):
        assert eval_expr(parse_expr("(compare 1 2)"), [], 8) == 1
        assert eval_expr(parse_expr("(compare 2 1)"), [], 8) == 0
        assert eval_expr(parse_expr("(compare 2 2)"), [], 8) == 0

    def test_min_max_are_unsigned(self):
        assert eval_expr(parse_expr("(min 3 200)"), [], 8) == 3
        assert eval_expr(parse_expr("(max 3 200)"), [], 8) == 200

    def test_let_is_sequential(self):
        e = parse_expr("(let ((x (add 1 2)) (y (mul x x))) (sub y x))")
        assert eval_expr(e, [], 8) == 6

    def test_tuple_and_proj(self):
        e = parse_expr("(tuple (add (input 0) 1) (mul (input 0) 2))")
        assert eval_expr(e, [5], 8) == (6, 10)
        assert eval_expr(parse_expr("(proj (tuple 10 20) 1)"), [], 8) == 20

    def test_fold_of_map(self):
        e = parse_expr(
            "(foldl1 (lambda (a b) (add a b)) (map (lambda (x) (mul x x)) (input 0)))"
        )
        assert eval_expr(e, [(1, 2, 3)], 8) == 14

    def test_scalar_port_rejected_by_vector_op(self):
        e = parse_expr("(map (lambda (a) a) (input 0))")
        with pytest.raises(ShapeMismatch):
            eval_expr(e, [7], 8)

    @pytest.mark.parametrize("src, inputs, message", [
        ("(zipwith (lambda (a b) (add a b)) (input 0) (input 1))", [(1, 2), (1, 2, 3)],
         "zipwith length mismatch: 2 vs 3"),
        ("(map (lambda (a) a) (input 0))", [7], "map argument must be a vector, got 7"),
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [()],
         "foldl1 over an empty vector"),
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [((1, 2), 3)],
         "lambda argument 'a' must be scalar, got (1, 2)"),
        ("(foldl (lambda (a b) (add a b)) (input 0) (input 1))", [(1, 2), (3,)],
         "fold init must be scalar, got (1, 2)"),
        ("(map (lambda (x) (proj x 0)) (input 0))", [(5,)], "proj over a non-tuple value"),
        ("(let ((v (input 0))) (add v 1))", [(1, 2)],
         "add operand 0 must be scalar, got (1, 2)"),
        ("(add (input 0) 1)", [(1, 2)], "add operand 0 must be scalar, got (1, 2)"),
        ("(map (lambda (x) (tuple x x)) (input 0))", [(1,)],
         "lambda body must be scalar, got _TupleVal(items=(1, 1))"),
    ])
    def test_runtime_shape_errors(self, src, inputs, message):
        with pytest.raises(ShapeMismatch) as exc:
            eval_expr(parse_expr(src), inputs, 8)
        assert str(exc.value) == message

    @pytest.mark.parametrize("src", [
        "(map (lambda (x) (proj x 0)) (input 0))",
        "(map (lambda (x) (map (lambda (y) y) x)) (input 0))",
        "(map (lambda (x) (add x unbound)) (input 0))",
    ])
    def test_unevaluated_lambda_body_never_raises(self, src):
        # Compiling walks the whole body; only evaluating it checks shapes.
        f = compile_expr(parse_expr(src), 8)
        assert f([()]) == ()
        assert eval_expr(parse_expr(src), [()], 8) == ()
        with pytest.raises((ShapeMismatch, KeyError)):
            f([(4,)])

    def test_one_element_vectors_are_scalars(self):
        assert eval_expr(parse_expr("(add (input 0) 1)"), [(5,)], 8) == 6
        assert eval_expr(parse_expr("(let ((v (input 0))) (mul v 3))"), [(5,)], 8) == 15

    def test_compiled_function_is_reusable(self):
        e = parse_expr(
            "(let ((s (foldl1 (lambda (a b) (add a b)) (input 0)))) (tuple s (input 0)))"
        )
        f = compile_expr(e, 8)
        for xs in [(1, 2, 3), (200, 100), (7,)]:
            assert f([xs]) == eval_expr(e, [xs], 8) == (sum(xs) & 0xFF, xs)

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=8),
        width=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=100)
    def test_fold_sum_matches_python(self, xs, width):
        mask = (1 << width) - 1
        e = parse_expr("(foldl1 (lambda (a b) (add a b)) (input 0))")
        clipped = tuple(x & mask for x in xs)
        assert eval_expr(e, [clipped], width) == sum(clipped) & mask

    @given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
    @settings(max_examples=100)
    def test_apply_prim_matches_python(self, a, b):
        mask = 0xFFFF
        assert apply_prim("add", a, b, mask) == (a + b) & mask
        assert apply_prim("sub", a, b, mask) == (a - b) & mask
        assert apply_prim("mul", a, b, mask) == (a * b) & mask
        assert apply_prim("min", a, b, mask) == min(a, b)
        assert apply_prim("max", a, b, mask) == max(a, b)
        assert apply_prim("compare", a, b, mask) == int(a < b)


# ---------------------------------------------------------------------------
# AST construction guards
# ---------------------------------------------------------------------------

class TestAstNodes:
    def test_primop_rejects_unknown_op(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(xor 1 2)")

    def test_lambda_formats_parameters(self):
        lam = parse_expr("(lambda (a b) (add a b))")
        assert isinstance(lam, Lambda)
        assert lam.params == ("a", "b")
        assert isinstance(lam.body, PrimOp)

    def test_children_are_direct_subexpressions(self):
        cases = {
            "(input 0)": [],
            "(add (input 0) 1)": ["(input 0)", "1"],
            "(map (lambda (a) (add a 7)) (input 0))": ["(add a 7)", "(input 0)"],
            "(zipwith (lambda (a b) (mul a b)) (input 0) (input 1))":
                ["(mul a b)", "(input 0)", "(input 1)"],
            "(foldl (lambda (acc x) (add acc x)) 0 (input 0))":
                ["(add acc x)", "0", "(input 0)"],
            "(foldl1 (lambda (a b) (max a b)) (input 0))": ["(max a b)", "(input 0)"],
            "(let ((x (add 1 2)) (y (mul x x))) (sub y x))":
                ["(add 1 2)", "(mul x x)", "(sub y x)"],
            "(tuple (input 0) 2)": ["(input 0)", "2"],
            "(proj (tuple 10 20) 1)": ["(tuple 10 20)"],
            "(lambda (a) (input 0))": [],  # a stray lambda is opaque
        }
        for text, expected in cases.items():
            assert [format_expr(c) for c in children(parse_expr(text))] == expected, text
