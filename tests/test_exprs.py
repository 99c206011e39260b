"""Tests for the s-expression language: parsing, shapes, evaluation, lowering."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_node_doc
from patflow import (
    ExprSyntaxError,
    Scalar,
    ShapeMismatch,
    TupleShape,
    UnsupportedExpr,
    Vector,
    build_graph,
    eval_expr,
    format_expr,
    infer_shape,
    parse_expr,
    validate_graph,
)
from patflow import exprs
from patflow.exprs import (
    PRIM_OPS,
    Const,
    Expr,
    Foldl,
    Foldl1,
    InputRef,
    Lambda,
    Let,
    Map,
    PrimOp,
    Proj,
    Tuple,
    Var,
    ZipWith,
    apply_prim,
    children,
    compile_reference,
)


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


def loop_tokenize(text: str) -> list[str]:
    """The tokenizer that walked the text one character at a time, kept as
    the oracle for the one made of regular expressions."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == ";":  # comment to end of line
            while i < len(text) and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


# Unicode whitespace (some of it outside ASCII, some ASCII control
# characters that ``str.isspace`` counts), comment and line marks, and
# characters that are neither.
TOKEN_TEXT = st.text(
    st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000();")
                    + list("ab1-_x\u00e9\u200b\ufeff"))
    | st.characters(), max_size=40)


class TestTokenizer:
    @given(text=TOKEN_TEXT)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tokens_equal_the_character_loop(self, text):
        assert exprs._tokenize(text) == loop_tokenize(text)

    def test_comment_ends_an_atom(self):
        text = "(add x;note\n1)\u2003; tail"
        assert exprs._tokenize(text) == ["(", "add", "x", "1", ")"]
        assert exprs._tokenize(text) == loop_tokenize(text)

    @pytest.mark.parametrize("src, message", [
        ("(add 1 ; 2)", "missing closing parenthesis"),
        ("; (add 1 2)", "empty expression"),
        ("(add 1 2)\u3000x", "trailing input after expression: 'x'"),
    ])
    def test_comments_and_unicode_whitespace_in_errors(self, src, message):
        with pytest.raises(ExprSyntaxError, match=message):
            parse_expr(src)


# ---------------------------------------------------------------------------
# Shape inference
# ---------------------------------------------------------------------------

def inputs_read(e) -> set[int]:
    return {e.index} if isinstance(e, InputRef) else set().union(*map(inputs_read, children(e)))


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

    @pytest.mark.parametrize("body, lengths, message", [
        ("(add (input 1) 1)", [1], "(input 1) out of range for 1 input ports"),
        ("(add (input 0) y)", [1], "unbound variable 'y'"),
        ("(mul (input 0) 1)", [2], "mul operand 0 must be scalar, got vec[2]"),
        ("(sub 1 (tuple (input 0)))", [1], "sub operand 1 must be scalar, got (vec[1])"),
        ("(map (lambda (x) x) (foldl1 (lambda (a b) a) (input 0)))", [2],
         "map argument must be a vector, got scalar"),
        ("(zipwith (lambda (a b) a) 5 (input 0))", [2],
         "zipwith left must be a vector, got scalar"),
        ("(zipwith (lambda (a b) a) (input 0) (tuple 1))", [1],
         "zipwith right must be a vector, got (scalar)"),
        ("(foldl1 (lambda (a b) a) (add (input 0) 1))", [1],
         "fold argument must be a vector, got scalar"),
        ("(foldl (lambda (a b) (add a b)) (input 0) (input 0))", [2],
         "fold init must be scalar, got vec[2]"),
        # The argument is checked before the init.
        ("(foldl (lambda (a b) (add a b)) (input 0) 5)", [2],
         "fold argument must be a vector, got scalar"),
        ("(map (lambda (x) (tuple x x)) (input 0))", [2],
         "map lambda body must be scalar, got (scalar, scalar)"),
        # A lambda mapped over no elements is checked all the same.
        ("(map (lambda (x) (tuple x x)) (input 0))", [0],
         "map lambda body must be scalar, got (scalar, scalar)"),
        ("(zipwith (lambda (a b) (input 0)) (input 0) (input 0))", [2],
         "zipwith lambda body must be scalar, got vec[2]"),
        ("(foldl (lambda (a b) (tuple a)) 0 (input 0))", [3],
         "fold lambda body must be scalar, got (scalar)"),
        ("(zipwith (lambda (a b) (add a b)) (input 0) (input 1))", [2, 3],
         "zipwith length mismatch: 2 vs 3"),
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [0], "foldl1 needs a non-empty vector"),
        ("(proj (input 0) 0)", [2], "proj over non-tuple shape vec[2]"),
        ("(proj (tuple (input 0) 1) 2)", [2], "proj index 2 out of range"),
        ("(add (lambda (x) x) (input 0))", [1],
         "a lambda is only valid as a higher-order-function argument"),
        (PrimOp("add", (InputRef(0), Expr())), [1], "unknown expression Expr"),
        # A one-token vector coerces to a scalar.
        ("(add (input 0) (let ((v (input 0))) (foldl1 (lambda (a b) (max a v)) (input 0))))",
         [1], None),
        # Primitives built by hand, which the parser cannot make.
        (PrimOp("add", (Const(1),)), [], "add takes 2 operands, got 1"),
        (PrimOp("add", (Const(1), Const(2), Const(3))), [], "add takes 2 operands, got 3"),
        (PrimOp("xor", (Const(1), Const(2))), [], "unknown primitive 'xor'"),
    ])
    def test_static_shape_errors(self, body, lengths, message):
        e = parse_expr(body) if isinstance(body, str) else body
        shapes = [Vector(n) for n in lengths]
        zeros = [(0,) * n for n in lengths]
        if message is None:
            assert infer_shape(e, shapes) == Scalar()
            assert eval_expr(e, zeros, 8) == 0
        else:
            with pytest.raises(ShapeMismatch) as exc:
                infer_shape(e, shapes)
            assert str(exc.value) == message
            # Evaluation writes the body with the same checks.
            with pytest.raises(ShapeMismatch) as exc:
                eval_expr(e, zeros, 8)
            assert str(exc.value) == message
        # Validation reports the same text, where a graph can carry the body:
        # a port out of range is an ArityMismatch first, a port of no tokens
        # an AllZero pattern, and an unknown form cannot be written.
        if isinstance(body, str) and all(lengths) and inputs_read(e) == set(range(len(lengths))):
            g = build_graph(one_node_doc(body, [[n] for n in lengths], [[1]]))
            diags = [(d.code, d.message) for d in validate_graph(g)]
            assert diags == ([("ShapeMismatch", message)] if message else [])


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

    def test_repeated_calls_compile_once(self, monkeypatch):
        written = []

        class Counting(exprs._BodyWriter):
            def __init__(self, mask, shapes):
                written.append((mask, shapes))
                super().__init__(mask, shapes)

        monkeypatch.setattr(exprs, "_BodyWriter", Counting)
        exprs._compiled.cache_clear()
        e = parse_expr("(foldl (lambda (acc x) (add acc (mul x x))) 3 (input 0))")
        got = [eval_expr(e, [xs], 8) for xs in [(1, 2), (15, 16), (1, 2)] * 3]
        assert got == [8, 228, 8] * 3
        assert written == [(0xFF, (Vector(2),))]
        # An equal expression parsed again is the same body; another width
        # or another input shape is written again.
        assert eval_expr(parse_expr(format_expr(e)), [(15, 16)], 8) == 228
        assert eval_expr(e, [(15, 16)], 16) == 484
        assert eval_expr(e, [(15, 16, 1)], 8) == 229
        assert eval_expr(e, [(7,)], 8) == 52
        assert written == [(0xFF, (Vector(2),)), (0xFFFF, (Vector(2),)),
                           (0xFF, (Vector(3),)), (0xFF, (Vector(1),))]

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
        ("(map (lambda (a) a) (input 0))", [7], "map argument must be a vector, got scalar"),
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [()],
         "foldl1 needs a non-empty vector"),
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [((1, 2), 3)],
         "(input 0) must be an int or a tuple of ints, got ((1, 2), 3)"),
        ("(foldl (lambda (a b) (add a b)) (input 0) (input 1))", [(1, 2), (3,)],
         "fold init must be scalar, got vec[2]"),
        ("(map (lambda (x) (proj x 0)) (input 0))", [(5,)],
         "proj over non-tuple shape scalar"),
        ("(let ((v (input 0))) (add v 1))", [(1, 2)],
         "add operand 0 must be scalar, got vec[2]"),
        ("(add (input 0) 1)", [(1, 2)], "add operand 0 must be scalar, got vec[2]"),
        ("(map (lambda (x) (tuple x x)) (input 0))", [(1,)],
         "map lambda body must be scalar, got (scalar, scalar)"),
        ("(map (lambda (a) a) 5)", [], "map argument must be a vector, got scalar"),
        ("(proj 5 0)", [], "proj over non-tuple shape scalar"),
        ("(zipwith (lambda (a b) a) (input 0) (tuple 1))", [(1,)],
         "zipwith right must be a vector, got (scalar)"),
        # The argument is checked before the init.
        ("(foldl (lambda (a b) (add a b)) (input 0) 5)", [(1, 2)],
         "fold argument must be a vector, got scalar"),
        ("(add (input 1) 1)", [5], "(input 1) out of range for 1 input ports"),
        ("(add x 1)", [], "unbound variable 'x'"),
        ("(add (input 0) 1)", [[1, 2]], "(input 0) must be an int or a tuple of ints, got [1, 2]"),
        ("(add (input 0) 1)", [True], "(input 0) must be an int or a tuple of ints, got True"),
        ("(add (input 0) 1)", [(1, False)],
         "(input 0) must be an int or a tuple of ints, got (1, False)"),
    ])
    def test_runtime_shape_errors(self, src, inputs, message):
        with pytest.raises(ShapeMismatch) as exc:
            eval_expr(parse_expr(src), inputs, 8)
        assert str(exc.value) == message

    def test_env_values_are_checked_like_inputs(self):
        e = parse_expr("(map (lambda (y) (add y 1)) x)")
        assert eval_expr(e, [], 8, {"x": (1, 2)}) == (2, 3)
        for bad in [True, [1], (1, (2,)), None]:
            with pytest.raises(ShapeMismatch) as exc:
                eval_expr(e, [], 8, {"x": bad})
            assert str(exc.value) == f"variable 'x' must be an int or a tuple of ints, got {bad!r}"

    @pytest.mark.parametrize("src", [
        "(map (lambda (x) (proj x 0)) (input 0))",
        "(map (lambda (x) (map (lambda (y) y) x)) (input 0))",
        "(map (lambda (x) (add x unbound)) (input 0))",
    ])
    def test_unevaluated_lambda_body_raises_before_evaluation(self, src):
        # The whole body is written and checked from the inputs' shapes
        # before it runs, so a lambda mapped over no elements is checked
        # all the same, as validation checks it.
        e = parse_expr(src)
        with pytest.raises(ShapeMismatch) as static:
            infer_shape(e, [Vector(0)])
        for xs in [(), (4,)]:
            with pytest.raises(ShapeMismatch) as exc:
                eval_expr(e, [xs], 8)
            assert str(exc.value) == str(static.value)

    @pytest.mark.parametrize("src, inputs, expected", [
        ("(let ((x 0)) 7)", [], 7),
        ("(let ((t (tuple 1 (input 0)))) t)", [(2, 3)], (1, (2, 3))),
        ("(proj (tuple (tuple 1 2) 3) 0)", [], (1, 2)),
        # A vector of vectors is no input: a port carries words.
        ("(foldl1 (lambda (a b) (add a b)) (input 0))", [((4, 5),)],
         ShapeMismatch("(input 0) must be an int or a tuple of ints, got ((4, 5),)")),
        ("(tuple (tuple 1 (input 0)) 3)", [(2, 3)], ((1, (2, 3)), 3)),
    ])
    def test_root_values(self, src, inputs, expected):
        # A multi-output value leaves as the plain tuple of its items, at
        # every level.
        if isinstance(expected, ShapeMismatch):
            with pytest.raises(ShapeMismatch) as exc:
                eval_expr(parse_expr(src), inputs, 8)
            assert str(exc.value) == str(expected)
        else:
            assert eval_expr(parse_expr(src), inputs, 8) == expected

    def test_one_element_vectors_are_scalars(self):
        assert eval_expr(parse_expr("(add (input 0) 1)"), [(5,)], 8) == 6
        assert eval_expr(parse_expr("(let ((v (input 0))) (mul v 3))"), [(5,)], 8) == 15

    def test_compiled_function_is_reusable(self):
        e = parse_expr(
            "(let ((s (foldl1 (lambda (a b) (add a b)) (input 0)))) (tuple s (input 0)))"
        )
        for xs in [(1, 2, 3), (200, 100), (7,)]:
            assert eval_expr(e, [xs], 8) == (sum(xs) & 0xFF, xs)
            # The function written for these shapes serves other values.
            f = exprs._compiled(e, 8, (Vector(len(xs)),), ())
            ys = tuple(x + 50 for x in xs)
            assert f(xs) == (sum(xs) & 0xFF, xs)
            assert f(ys) == eval_expr(e, [ys], 8) == (sum(ys) & 0xFF, ys)

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


class TestNodeRecords:
    def test_nodes_compare_and_hash_by_structure(self):
        a, b = parse_expr(ROUND_TRIP_SOURCES[6]), parse_expr(ROUND_TRIP_SOURCES[6])
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, parse_expr(ROUND_TRIP_SOURCES[5])}) == 2
        assert Vector(3) == Vector(3) != Vector(4)
        assert Scalar() == Scalar() != Vector(1)
        assert Const(1) != Var(1)

    def test_positional_constructors_and_repr(self):
        assert PrimOp("add", (Const(1), Var("x"))) == parse_expr("(add 1 x)")
        assert repr(Lambda(("a",), InputRef(0))) == (
            "Lambda(params=('a',), body=InputRef(index=0))")
        assert repr(TupleShape()) == "TupleShape(items=())"
        assert TupleShape() == TupleShape(())
        assert str(TupleShape((Scalar(), Vector(2)))) == "(scalar, vec[2])"

    def test_nodes_are_frozen_slots(self):
        e = parse_expr("(proj (tuple 10 20) 1)")
        with pytest.raises(FrozenInstanceError):
            e.index = 0
        with pytest.raises(FrozenInstanceError):
            del e.tup
        with pytest.raises(AttributeError):
            e.note = "x"
        assert not hasattr(e, "__dict__")
        assert not hasattr(Vector(2), "__dict__")

    def test_nodes_copy_and_pickle(self):
        e = parse_expr(ROUND_TRIP_SOURCES[3])
        assert copy.deepcopy(e) == e
        assert pickle.loads(pickle.dumps(e)) == e
        assert pickle.loads(pickle.dumps(TupleShape((Scalar(),)))) == TupleShape((Scalar(),))


# ---------------------------------------------------------------------------
# A tree-walking oracle for compiled bodies and random well-shaped bodies.
# It shares nothing with the generated code, nor with ``lowering``.
# ---------------------------------------------------------------------------

INPUT_LENGTHS = (3, 3, 1)   # input 2 is one token, which coerces to a scalar
NAMES = ("x", "y", "a", "acc", "t1", "k0", "inputs", "env")


def oracle(e, inputs, mask, env=None):
    """The value of ``e``: an int, a tuple of ints, or a list for a
    multi-output value (a tuple at the root)."""
    value = _walk(e, inputs, mask, env or {})
    return tuple(value) if isinstance(value, list) else value


def _word(v):
    return v[0] if isinstance(v, tuple) else v


def _walk(e, inputs, mask, env):
    if isinstance(e, InputRef):
        return inputs[e.index]
    if isinstance(e, Const):
        return e.value & mask
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PrimOp):
        a, b = (_word(_walk(arg, inputs, mask, env)) for arg in e.args)
        return {"add": (a + b) & mask, "mul": (a * b) & mask, "sub": (a - b) & mask,
                "min": min(a, b), "max": max(a, b), "compare": int(a < b)}[e.op]

    def call(*args):
        inner = dict(env)
        inner.update(zip(e.fn.params, map(_word, args)))
        return _word(_walk(e.fn.body, inputs, mask, inner))

    if isinstance(e, Map):
        return tuple(call(x) for x in _walk(e.vec, inputs, mask, env))
    if isinstance(e, ZipWith):
        left, right = (_walk(v, inputs, mask, env) for v in (e.left, e.right))
        return tuple(call(x, y) for x, y in zip(left, right))
    if isinstance(e, (Foldl, Foldl1)):
        xs = list(_walk(e.vec, inputs, mask, env))
        acc = _word(_walk(e.init, inputs, mask, env)) if isinstance(e, Foldl) else xs.pop(0)
        for x in xs:
            acc = call(acc, x)
        return acc
    if isinstance(e, Let):
        inner = dict(env)
        for name, bound in e.bindings:
            inner[name] = _walk(bound, inputs, mask, inner)
        return _walk(e.body, inputs, mask, inner)
    if isinstance(e, Tuple):
        return [_walk(item, inputs, mask, env) for item in e.items]
    if isinstance(e, Proj):
        return _walk(e.tup, inputs, mask, env)[e.index]
    raise AssertionError(f"the oracle has no case for {e!r}")


def _names():
    return st.sampled_from(NAMES)


@st.composite
def _scalar(draw, depth, scope):
    """A scalar body; ``scope`` maps each bound name to "s" or "v"."""
    options = ["const", "input"] + (["var"] if "s" in scope.values() else [])
    if depth:
        options += ["prim", "prim", "foldl", "foldl1", "let", "proj"]
    form = draw(st.sampled_from(options))
    if form == "const":
        return Const(draw(st.integers(0, 300)))
    if form == "input":
        return InputRef(2)
    if form == "var":
        return Var(draw(st.sampled_from(sorted(n for n, k in scope.items() if k == "s"))))
    if form == "prim":
        return PrimOp(draw(st.sampled_from(PRIM_OPS)),
                      (draw(_scalar(depth - 1, scope)), draw(_scalar(depth - 1, scope))))
    if form in ("foldl", "foldl1"):
        a, x = draw(_names()), draw(_names())
        fn = Lambda((a, x), draw(_scalar(depth - 1, {**scope, a: "s", x: "s"})))
        vec = draw(_vector(depth - 1, scope))
        if form == "foldl1":
            return Foldl1(fn, vec)
        return Foldl(fn, draw(_scalar(depth - 1, scope)), vec)
    if form == "let":
        return _let(draw, depth, scope, _scalar)
    return _proj(draw, depth, scope, _scalar)


@st.composite
def _vector(draw, depth, scope):
    """A body of three tokens."""
    options = ["input"] + (["var"] if "v" in scope.values() else [])
    if depth:
        options += ["map", "zipwith", "let", "proj"]
    form = draw(st.sampled_from(options))
    if form == "input":
        return InputRef(draw(st.sampled_from([0, 1])))
    if form == "var":
        return Var(draw(st.sampled_from(sorted(n for n, k in scope.items() if k == "v"))))
    if form == "map":
        x = draw(_names())
        return Map(Lambda((x,), draw(_scalar(depth - 1, {**scope, x: "s"}))),
                   draw(_vector(depth - 1, scope)))
    if form == "zipwith":
        x, y = draw(_names()), draw(_names())
        return ZipWith(Lambda((x, y), draw(_scalar(depth - 1, {**scope, x: "s", y: "s"}))),
                       draw(_vector(depth - 1, scope)), draw(_vector(depth - 1, scope)))
    if form == "let":
        return _let(draw, depth, scope, _vector)
    return _proj(draw, depth, scope, _vector)


def _let(draw, depth, scope, body):
    """One or two sequential bindings, each a scalar or a vector."""
    bindings, inner = [], dict(scope)
    for _ in range(draw(st.integers(1, 2))):
        name, kind = draw(_names()), draw(st.sampled_from("sv"))
        bound = draw((_scalar if kind == "s" else _vector)(depth - 1, inner))
        bindings.append((name, bound))
        inner[name] = kind
    return Let(tuple(bindings), draw(body(depth - 1, inner)))


def _proj(draw, depth, scope, item):
    """The ``item``-shaped member of a tuple literal."""
    other = draw(st.sampled_from([_scalar, _vector]))
    items = [draw(item(depth - 1, scope)), draw(other(depth - 1, scope))]
    index = draw(st.integers(0, 1))
    if index:
        items.reverse()
    return Proj(Tuple(tuple(items)), index)


def bodies(depth=4):
    """Random well-shaped bodies over inputs of INPUT_LENGTHS tokens."""
    return st.one_of(
        _scalar(depth, {}),
        _vector(depth, {}),
        st.builds(lambda a, b: Tuple((a, b)), _scalar(depth - 1, {}), _vector(depth - 1, {})),
    )


# ---------------------------------------------------------------------------
# Compiled bodies: hazards of generated code
# ---------------------------------------------------------------------------

class TestCompiledBodies:
    def test_body_300_operators_deep(self):
        src = "(input 0)"
        for _ in range(300):
            src = f"(add {src} 1)"
        assert eval_expr(parse_expr(src), [5], 16) == 305
        e = InputRef(0)
        for k in range(150):
            e = Let(((f"v{k}", PrimOp("sub", (e, Const(1)))),), PrimOp("max", (Var(f"v{k}"), Const(2))))
        assert eval_expr(e, [(1000,)], 16) == 850

    def test_loops_nested_past_the_block_limit(self):
        # CPython allows 20 statically nested blocks in one function.
        depth = 40

        def level(k):
            inner = level(k + 1) if k < depth else f"x{k}"
            return f"(foldl (lambda (a{k} x{k}) (add a{k} (add x{k} {inner}))) x{k - 1} (input 0))"

        src = f"(map (lambda (x0) {level(1)}) (input 0))"
        assert eval_expr(parse_expr(src), [(3,)], 32) == (3 + 6 * depth,)
        # The reference nests the body in its loop over firings.
        assert compile_reference(parse_expr(src), 32, [1])(2, [3, 3]) == ([3 + 6 * depth] * 2,)

    @pytest.mark.parametrize("src, inputs, expected", [
        # an inner lambda reads the outer one's parameter
        ("(map (lambda (x) (foldl1 (lambda (a b) (add a (mul b x))) (input 1))) (input 0))",
         [(1, 2), (3, 4, 5)], (12, 21)),
        # an inner parameter shadows the outer one; the seed reads the outer
        ("(map (lambda (x) (foldl (lambda (x y) (add x y)) x (input 1))) (input 0))",
         [(1, 2), (3, 4)], (8, 9)),
        # a let shadows a lambda parameter, and reads it in its own binding
        ("(map (lambda (x) (let ((x (mul x 10)) (y x)) (sub y 1))) (input 0))",
         [(1, 2)], (9, 19)),
        # a parameter shadows a let name, which is back in scope after it
        ("(let ((a 100)) (add (foldl1 (lambda (a b) (max a b)) (input 0)) a))",
         [(3, 9, 4)], 109),
        # one lambda applied at two depths sees the binding of each
        ("(zipwith (lambda (p q) (foldl (lambda (acc r) (add acc (mul r p))) q (input 0)))"
         " (input 0) (input 1))", [(1, 2), (10, 20)], (13, 26)),
    ])
    def test_inner_lambdas_capture_outer_names(self, src, inputs, expected):
        assert eval_expr(parse_expr(src), inputs, 8) == expected
        assert oracle(parse_expr(src), inputs, 0xFF) == expected

    def test_names_like_generated_or_python_identifiers(self):
        names = ["t1", "t2", "k0", "inputs", "env", "body", "None", "True", "class",
                 "lambda", "i0", "e0", "__class__", "print"]
        bindings = " ".join(f"({n} {k + 1})" for k, n in enumerate(names))
        total = "0"
        for n in names:
            total = f"(add {total} {n})"
        e = parse_expr(f"(let ({bindings}) (map (lambda (t1) (add t1 {total})) (input 0)))")
        # Inside the lambda, its parameter t1 stands for the let's t1 (1).
        assert eval_expr(e, [(1000, 2000)], 16) == (2 * 1000 + 104, 2 * 2000 + 104)
        # Free names are read from ``env`` under any spelling.
        e = parse_expr("(add (add t1 env) (add inputs k0))")
        assert eval_expr(e, [], 8, {"t1": 1, "env": 2, "inputs": 3, "k0": 4}) == 10
        # A free name spelled like the local of another name or of a port
        # still reads its own value.
        e = parse_expr("(add (add e1 (mul e0 10)) (add i0 (input 0)))")
        assert eval_expr(e, [100], 8, {"e1": 1, "e0": 2, "i0": 4}) == 125
        # A name that is no identifier at all never reaches the source.
        odd = "x) + 1; import os; (x"
        e = Let(((odd, Const(3)),), PrimOp("add", (Var(odd), Var(odd))))
        assert eval_expr(e, [], 8) == 6

    @given(case=bodies(),
           width=st.sampled_from([4, 8, 18]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_bodies_match_a_tree_walk(self, case, width, data):
        inputs = data.draw(st.tuples(
            *(st.tuples(*[st.integers(0, 2**width - 1)] * n) for n in INPUT_LENGTHS)))
        mask = (1 << width) - 1
        assert eval_expr(case, inputs, width) == oracle(case, list(inputs), mask)


# ---------------------------------------------------------------------------
# Reference loops: one compiled loop over all of a node's firings
# ---------------------------------------------------------------------------



def constant_bodies():
    """Random bodies that read no input: scalar arithmetic, ``let`` and
    ``proj`` over literals, or a tuple of two of them."""
    scalars = st.recursive(st.builds(Const, st.integers(0, 300)), lambda inner: st.one_of(
        st.builds(lambda op, a, b: PrimOp(op, (a, b)), st.sampled_from(PRIM_OPS), inner, inner),
        st.builds(lambda k, a, b: Proj(Tuple((a, b)), k), st.integers(0, 1), inner, inner),
        st.builds(lambda a, b: Let((("x", a),), PrimOp("sub", (b, Var("x")))), inner, inner),
    ), max_leaves=6)
    return st.one_of(scalars, st.builds(lambda a, b: Tuple((a, b)), scalars, scalars))


class TestReferenceLoops:
    @given(case=st.one_of(bodies(), constant_bodies()),
           width=st.sampled_from([4, 8, 18]),
           firings=st.integers(0, 4),
           data=st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_ports_lay_the_oracle_end_to_end(self, case, width, firings, data):
        # An input-less body runs as a node without inputs, ``firings``
        # times; every other one over INPUT_LENGTHS, the last of which is
        # one token that coerces to a scalar.
        lengths = INPUT_LENGTHS if inputs_read(case) else ()
        streams = [data.draw(st.lists(st.integers(0, 2**width - 1),
                                      min_size=firings * n, max_size=firings * n))
                   for n in lengths]
        want = [[] for _ in range(len(case.items) if isinstance(case, Tuple) else 1)]
        mask = (1 << width) - 1
        for f in range(firings):
            inputs = [tuple(s[f * n:(f + 1) * n]) for s, n in zip(streams, lengths)]
            values = _walk(case, inputs, mask, {})  # a list for a multi-output value
            for port, v in zip(want, values if isinstance(values, list) else [values]):
                port.extend(v if isinstance(v, tuple) else [v])
        assert list(compile_reference(case, width, lengths)(firings, *streams)) == want

    def test_a_tuple_inside_an_output_tuple_is_no_port(self):
        # Validation rejects such a body; an unvalidated graph's reference
        # raises rather than put tuples into a token stream.
        with pytest.raises(ShapeMismatch, match="output 0 is a tuple"):
            compile_reference(parse_expr("(tuple (tuple 1 2) 3)"), 8, [])

    @given(case=st.one_of(bodies(), constant_bodies()),
           shapes=st.one_of(
               st.permutations(INPUT_LENGTHS).map(lambda ns: [Vector(n) for n in ns]),
               st.lists(st.sampled_from([Scalar(), Vector(0), Vector(1), Vector(2), Vector(3)]),
                        max_size=3)),
           width=st.sampled_from([4, 8, 18]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_ill_shaped_bodies_fail_alike(self, case, shapes, width):
        # A body over input shapes it was not drawn for: evaluation raises
        # and the reference compiles exactly when the shapes check, and
        # validation reports the check's message.
        try:
            shape, message = infer_shape(case, shapes), None
        except ShapeMismatch as exc:
            shape, message = None, str(exc)
        zeros = [0 if isinstance(s, Scalar) else (0,) * s.length for s in shapes]
        try:
            value = eval_expr(case, zeros, width)
            assert message is None
            assert value == oracle(case, zeros, (1 << width) - 1)
        except ShapeMismatch as exc:
            assert str(exc) == message
        if not all(isinstance(s, Vector) for s in shapes):
            return  # a graph's ports, and so the reference's, are vectors
        lengths = [s.length for s in shapes]
        try:
            compile_reference(case, 8, lengths)
            assert message is None
        except ShapeMismatch as exc:
            assert str(exc) == message
        # A graph carries the body when it reads every port and no port
        # moves no tokens.
        outputs = [[1]]
        if shape is not None:
            ports = shape.items if isinstance(shape, TupleShape) else [shape]
            outputs = [[s.length if isinstance(s, Vector) else 1] for s in ports]
        carried = all(lengths) and all(n for [n] in outputs)
        if carried and inputs_read(case) == set(range(len(lengths))):
            g = build_graph(one_node_doc(format_expr(case), [[n] for n in lengths], outputs))
            diags = [(d.code, d.message) for d in validate_graph(g)]
            assert diags == ([("ShapeMismatch", message)] if message else [])
