"""The node-body expression language.

Node bodies are small pure functions over fixed-width unsigned integers,
written as s-expressions, e.g. the dot product::

    (foldl1 (lambda (a b) (add a b))
            (zipwith (lambda (x y) (mul x y)) (input 0) (input 1)))

The core is deliberately tiny: input references, constants, six scalar
primitives (``add mul sub min max compare``), the higher-order functions
``map``/``zipwith``/``foldl``/``foldl1``, ``let`` bindings, and
``tuple``/``proj`` for multi-output nodes.  Every vector length is known
statically, which is what lets the toolkit unroll bodies into parallel
hardware lanes.

Arithmetic wraps around at the node's element width (unsigned).
``compare`` yields 1 when its first operand is strictly less than its
second, else 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

from .errors import ExprSyntaxError, ShapeMismatch, UnsupportedExpr

__all__ = [
    "Expr",
    "InputRef",
    "Const",
    "Var",
    "PrimOp",
    "Lambda",
    "Map",
    "ZipWith",
    "Foldl",
    "Foldl1",
    "Let",
    "Tuple",
    "Proj",
    "PRIM_OPS",
    "Shape",
    "Scalar",
    "Vector",
    "TupleShape",
    "parse_expr",
    "format_expr",
    "children",
    "infer_shape",
    "eval_expr",
    "compile_expr",
    "apply_prim",
]

PRIM_OPS = ("add", "mul", "sub", "min", "max", "compare")


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class InputRef(Expr):
    """The node's input port ``index`` (a statically sized vector)."""

    index: int


@dataclass(frozen=True)
class Const(Expr):
    """An integer literal (scalar)."""

    value: int


@dataclass(frozen=True)
class Var(Expr):
    """A name bound by an enclosing ``lambda`` or ``let``."""

    name: str


@dataclass(frozen=True)
class PrimOp(Expr):
    """A scalar primitive applied to scalar operands."""

    op: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Lambda(Expr):
    """A function literal; only valid as a higher-order-function argument."""

    params: tuple[str, ...]
    body: Expr


@dataclass(frozen=True)
class Map(Expr):
    fn: Lambda
    vec: Expr


@dataclass(frozen=True)
class ZipWith(Expr):
    fn: Lambda
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Foldl(Expr):
    fn: Lambda
    init: Expr
    vec: Expr


@dataclass(frozen=True)
class Foldl1(Expr):
    fn: Lambda
    vec: Expr


@dataclass(frozen=True)
class Let(Expr):
    bindings: tuple[tuple[str, Expr], ...]
    body: Expr


@dataclass(frozen=True)
class Tuple(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Proj(Expr):
    tup: Expr
    index: int


# ---------------------------------------------------------------------------
# Shapes


class Shape:
    __slots__ = ()


@dataclass(frozen=True)
class Scalar(Shape):
    def __str__(self) -> str:
        return "scalar"


@dataclass(frozen=True)
class Vector(Shape):
    length: int

    def __str__(self) -> str:
        return f"vec[{self.length}]"


@dataclass(frozen=True)
class TupleShape(Shape):
    items: tuple[Shape, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.items) + ")"


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str) -> list[str]:
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


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ExprSyntaxError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ExprSyntaxError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise ExprSyntaxError("unexpected ')'")
    return tok, pos + 1


def _as_int(tok, what: str) -> int:
    if isinstance(tok, str):
        try:
            return int(tok, 0)
        except ValueError:
            pass
    raise ExprSyntaxError(f"{what} must be an integer literal, got {tok!r}")


def _expect_len(form: list, n: int, head: str) -> None:
    if len(form) != n:
        raise ExprSyntaxError(f"({head} ...) takes {n - 1} arguments, got {len(form) - 1}")


def _build(sx) -> Expr:
    if isinstance(sx, str):
        try:
            return Const(int(sx, 0))
        except ValueError:
            return Var(sx)
    if not isinstance(sx, list) or not sx:
        raise ExprSyntaxError("empty form '()'")
    head = sx[0]
    if not isinstance(head, str):
        raise ExprSyntaxError("form head must be a symbol")
    head = head.lower()
    if head == "input":
        _expect_len(sx, 2, head)
        return InputRef(_as_int(sx[1], "input port"))
    if head == "const":
        _expect_len(sx, 2, head)
        return Const(_as_int(sx[1], "const value"))
    if head in PRIM_OPS:
        _expect_len(sx, 3, head)
        return PrimOp(head, (_build(sx[1]), _build(sx[2])))
    if head == "lambda":
        _expect_len(sx, 3, head)
        params = sx[1]
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ExprSyntaxError("lambda parameter list must be (name ...)")
        return Lambda(tuple(params), _build(sx[2]))
    if head == "map":
        _expect_len(sx, 3, head)
        return Map(_build_lambda(sx[1], 1), _build(sx[2]))
    if head == "zipwith":
        _expect_len(sx, 4, head)
        return ZipWith(_build_lambda(sx[1], 2), _build(sx[2]), _build(sx[3]))
    if head == "foldl":
        _expect_len(sx, 4, head)
        return Foldl(_build_lambda(sx[1], 2), _build(sx[2]), _build(sx[3]))
    if head == "foldl1":
        _expect_len(sx, 3, head)
        return Foldl1(_build_lambda(sx[1], 2), _build(sx[2]))
    if head == "let":
        _expect_len(sx, 3, head)
        raw = sx[1]
        if not isinstance(raw, list):
            raise ExprSyntaxError("let bindings must be ((name expr) ...)")
        bindings = []
        for b in raw:
            if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                raise ExprSyntaxError("let bindings must be ((name expr) ...)")
            bindings.append((b[0], _build(b[1])))
        return Let(tuple(bindings), _build(sx[2]))
    if head == "tuple":
        if len(sx) < 2:
            raise ExprSyntaxError("(tuple ...) needs at least one item")
        return Tuple(tuple(_build(item) for item in sx[1:]))
    if head == "proj":
        _expect_len(sx, 3, head)
        return Proj(_build(sx[1]), _as_int(sx[2], "proj index"))
    raise ExprSyntaxError(f"unknown form '{head}'")


def _build_lambda(sx, arity: int) -> Lambda:
    lam = _build(sx)
    if not isinstance(lam, Lambda):
        raise ExprSyntaxError("higher-order function argument must be a lambda")
    if len(lam.params) != arity:
        raise ExprSyntaxError(
            f"lambda takes {len(lam.params)} parameters, expected {arity}"
        )
    return lam


def parse_expr(text: str) -> Expr:
    """Parse s-expression text into an :class:`Expr`.

    Raises
    ------
    ExprSyntaxError
        On any lexical or structural problem, including trailing input.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    sx, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ExprSyntaxError(f"trailing input after expression: {tokens[pos]!r}")
    return _build(sx)


def format_expr(e: Expr) -> str:
    """Render an expression back to canonical s-expression text."""
    if isinstance(e, InputRef):
        return f"(input {e.index})"
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, PrimOp):
        return "(" + e.op + " " + " ".join(format_expr(a) for a in e.args) + ")"
    if isinstance(e, Lambda):
        return "(lambda (" + " ".join(e.params) + ") " + format_expr(e.body) + ")"
    if isinstance(e, Map):
        return f"(map {format_expr(e.fn)} {format_expr(e.vec)})"
    if isinstance(e, ZipWith):
        return f"(zipwith {format_expr(e.fn)} {format_expr(e.left)} {format_expr(e.right)})"
    if isinstance(e, Foldl):
        return f"(foldl {format_expr(e.fn)} {format_expr(e.init)} {format_expr(e.vec)})"
    if isinstance(e, Foldl1):
        return f"(foldl1 {format_expr(e.fn)} {format_expr(e.vec)})"
    if isinstance(e, Let):
        inner = " ".join(f"({n} {format_expr(x)})" for n, x in e.bindings)
        return f"(let ({inner}) {format_expr(e.body)})"
    if isinstance(e, Tuple):
        return "(tuple " + " ".join(format_expr(i) for i in e.items) + ")"
    if isinstance(e, Proj):
        return f"(proj {format_expr(e.tup)} {e.index})"
    raise UnsupportedExpr(f"cannot format {type(e).__name__}")


_CHILDREN = {
    PrimOp: lambda e: e.args,
    Map: lambda e: (e.fn.body, e.vec),
    ZipWith: lambda e: (e.fn.body, e.left, e.right),
    Foldl: lambda e: (e.fn.body, e.init, e.vec),
    Foldl1: lambda e: (e.fn.body, e.vec),
    Let: lambda e: (*(bound for _, bound in e.bindings), e.body),
    Tuple: lambda e: e.items,
    Proj: lambda e: (e.tup,),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of ``e``.  A higher-order function's
    lambda contributes its body; a lambda anywhere else has no children."""
    get = _CHILDREN.get(type(e))
    return get(e) if get else ()


# ---------------------------------------------------------------------------
# Shape inference


def _as_scalar(shape: Shape, what: str) -> Scalar:
    # A length-1 vector coerces to a scalar so single-token ports can feed
    # scalar primitives directly.
    if isinstance(shape, Scalar):
        return shape
    if isinstance(shape, Vector) and shape.length == 1:
        return Scalar()
    raise ShapeMismatch(f"{what} must be scalar, got {shape}")


def _as_vector(shape: Shape, what: str) -> Vector:
    if isinstance(shape, Vector):
        return shape
    raise ShapeMismatch(f"{what} must be a vector, got {shape}")


def infer_shape(
    e: Expr,
    input_shapes: Sequence[Shape],
    env: dict[str, Shape] | None = None,
) -> Shape:
    """Infer the static shape of ``e`` given the node's input port shapes.

    Raises
    ------
    ShapeMismatch
        If the expression is not well-shaped (including a bare lambda or an
        out-of-range input/projection index).
    """
    env = env or {}
    if isinstance(e, InputRef):
        if not 0 <= e.index < len(input_shapes):
            raise ShapeMismatch(
                f"(input {e.index}) out of range for {len(input_shapes)} input ports"
            )
        return input_shapes[e.index]
    if isinstance(e, Const):
        return Scalar()
    if isinstance(e, Var):
        if e.name not in env:
            raise ShapeMismatch(f"unbound variable '{e.name}'")
        return env[e.name]
    if isinstance(e, PrimOp):
        for k, a in enumerate(e.args):
            _as_scalar(infer_shape(a, input_shapes, env), f"{e.op} operand {k}")
        return Scalar()
    if isinstance(e, Map):
        v = _as_vector(infer_shape(e.vec, input_shapes, env), "map argument")
        body_env = dict(env)
        body_env[e.fn.params[0]] = Scalar()
        _as_scalar(infer_shape(e.fn.body, input_shapes, body_env), "map lambda body")
        return v
    if isinstance(e, ZipWith):
        a = _as_vector(infer_shape(e.left, input_shapes, env), "zipwith left")
        b = _as_vector(infer_shape(e.right, input_shapes, env), "zipwith right")
        if a.length != b.length:
            raise ShapeMismatch(
                f"zipwith length mismatch: {a.length} vs {b.length}"
            )
        body_env = dict(env)
        body_env[e.fn.params[0]] = Scalar()
        body_env[e.fn.params[1]] = Scalar()
        _as_scalar(infer_shape(e.fn.body, input_shapes, body_env), "zipwith lambda body")
        return a
    if isinstance(e, (Foldl, Foldl1)):
        v = _as_vector(infer_shape(e.vec, input_shapes, env), "fold argument")
        if isinstance(e, Foldl):
            _as_scalar(infer_shape(e.init, input_shapes, env), "fold init")
        elif v.length < 1:
            raise ShapeMismatch("foldl1 needs a non-empty vector")
        body_env = dict(env)
        body_env[e.fn.params[0]] = Scalar()
        body_env[e.fn.params[1]] = Scalar()
        _as_scalar(infer_shape(e.fn.body, input_shapes, body_env), "fold lambda body")
        return Scalar()
    if isinstance(e, Let):
        body_env = dict(env)
        for name, bound in e.bindings:
            body_env[name] = infer_shape(bound, input_shapes, body_env)
        return infer_shape(e.body, input_shapes, body_env)
    if isinstance(e, Tuple):
        return TupleShape(tuple(infer_shape(i, input_shapes, env) for i in e.items))
    if isinstance(e, Proj):
        t = infer_shape(e.tup, input_shapes, env)
        if not isinstance(t, TupleShape):
            raise ShapeMismatch(f"proj over non-tuple shape {t}")
        if not 0 <= e.index < len(t.items):
            raise ShapeMismatch(f"proj index {e.index} out of range")
        return t.items[e.index]
    if isinstance(e, Lambda):
        raise ShapeMismatch("a lambda is only valid as a higher-order-function argument")
    raise ShapeMismatch(f"unknown expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is compiled once into nested closures ``f(inputs, env)``:
# ``inputs`` holds one value per input port and ``env`` maps bound names to
# values.  Runtime values are int (scalar), tuple[int, ...] (vector), and
# _TupleVal for multi-output bodies.  Every shape check runs when the
# closure that needs it runs, so a sub-expression that is never evaluated
# (a lambda mapped over an empty vector, say) never raises.


@dataclass(frozen=True)
class _TupleVal:
    items: tuple


_PRIMS = {
    "add": lambda a, b, mask: (a + b) & mask,
    "mul": lambda a, b, mask: (a * b) & mask,
    "sub": lambda a, b, mask: (a - b) & mask,
    "min": lambda a, b, mask: a if a <= b else b,
    "max": lambda a, b, mask: a if a >= b else b,
    "compare": lambda a, b, mask: 1 if a < b else 0,
}

# Closures never modify ``env``; they bind names in a copy.
_NO_ENV: dict = {}


def apply_prim(op: str, a: int, b: int, mask: int) -> int:
    """Apply one scalar primitive with wrap-around at ``mask``."""
    fn = _PRIMS.get(op)
    if fn is None:
        raise UnsupportedExpr(f"unknown primitive '{op}'")
    return fn(a, b, mask)


def _scalar_val(v, what: str) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, tuple) and len(v) == 1 and isinstance(v[0], int):
        return v[0]
    raise ShapeMismatch(f"{what} must be scalar, got {v!r}")


def _vector_val(v, what: str) -> tuple:
    if isinstance(v, tuple) and not isinstance(v, _TupleVal):
        return v
    raise ShapeMismatch(f"{what} must be a vector, got {v!r}")


def compile_expr(e: Expr, width: int):
    """Compile ``e`` into a function ``f(inputs, env={})``.

    ``f`` returns what :func:`eval_expr` returns for the same arguments, and
    raises the same errors, but walks the expression tree only once, here.
    """
    f = _compile(e, (1 << width) - 1)
    if not isinstance(e, (Let, Tuple, Proj)):
        return f  # cannot yield a multi-output value

    def run(inputs, env=_NO_ENV):
        v = f(inputs, env)
        return v.items if isinstance(v, _TupleVal) else v

    return run


def eval_expr(e: Expr, inputs: Sequence, width: int, env: dict | None = None):
    """Evaluate ``e`` over concrete input vectors.

    Parameters
    ----------
    e : Expr
    inputs : sequence
        One value per input port: a tuple of ints for vector ports.
    width : int
        Element width in bits; all arithmetic wraps modulo ``2 ** width``.

    Returns
    -------
    int, tuple of int, or a tuple of those for multi-output bodies.
    """
    return compile_expr(e, width)(list(inputs), env or _NO_ENV)


def _raising(exc: Exception):
    def f(inputs, env=_NO_ENV):
        raise exc

    return f


def _compile(e: Expr, mask: int):
    if isinstance(e, InputRef):
        index = e.index
        return lambda inputs, env=_NO_ENV: inputs[index]
    if isinstance(e, Const):
        value = e.value & mask
        return lambda inputs, env=_NO_ENV: value
    if isinstance(e, Var):
        name = e.name
        return lambda inputs, env=_NO_ENV: env[name]
    if isinstance(e, PrimOp):
        a = _compile_scalar(e.args[0], mask, f"{e.op} operand 0")
        b = _compile_scalar(e.args[1], mask, f"{e.op} operand 1")
        # An unknown primitive raises once its operands are evaluated.
        prim = _PRIMS.get(e.op) or partial(apply_prim, e.op)
        return lambda inputs, env=_NO_ENV: prim(a(inputs, env), b(inputs, env), mask)
    if isinstance(e, Map):
        vec = _compile_vector(e.vec, mask, "map argument")
        fn = _compile_lambda(e.fn, mask)
        return lambda inputs, env=_NO_ENV: tuple(fn(inputs, env, (x,)) for x in vec(inputs, env))
    if isinstance(e, ZipWith):
        left = _compile_vector(e.left, mask, "zipwith left")
        right = _compile_vector(e.right, mask, "zipwith right")
        fn = _compile_lambda(e.fn, mask)

        def zipwith(inputs, env=_NO_ENV):
            a = left(inputs, env)
            b = right(inputs, env)
            if len(a) != len(b):
                raise ShapeMismatch(f"zipwith length mismatch: {len(a)} vs {len(b)}")
            return tuple(fn(inputs, env, xy) for xy in zip(a, b))

        return zipwith
    if isinstance(e, Foldl):
        init = _compile_scalar(e.init, mask, "fold init")
        vec = _compile_vector(e.vec, mask, "fold argument")
        fn = _compile_lambda(e.fn, mask)

        def foldl(inputs, env=_NO_ENV):
            acc = init(inputs, env)
            for x in vec(inputs, env):
                acc = fn(inputs, env, (acc, x))
            return acc

        return foldl
    if isinstance(e, Foldl1):
        vec = _compile_vector(e.vec, mask, "fold argument")
        fn = _compile_lambda(e.fn, mask)

        def foldl1(inputs, env=_NO_ENV):
            v = vec(inputs, env)
            if not v:
                raise ShapeMismatch("foldl1 over an empty vector")
            acc = v[0]
            for x in v[1:]:
                acc = fn(inputs, env, (acc, x))
            return acc

        return foldl1
    if isinstance(e, Let):
        bindings = [(name, _compile(bound, mask)) for name, bound in e.bindings]
        body = _compile(e.body, mask)

        def let(inputs, env=_NO_ENV):
            inner = dict(env)
            for name, bound in bindings:
                inner[name] = bound(inputs, inner)
            return body(inputs, inner)

        return let
    if isinstance(e, Tuple):
        items = [_compile(i, mask) for i in e.items]
        return lambda inputs, env=_NO_ENV: _TupleVal(tuple(f(inputs, env) for f in items))
    if isinstance(e, Proj):
        tup = _compile(e.tup, mask)
        index = e.index

        def proj(inputs, env=_NO_ENV):
            t = tup(inputs, env)
            if not isinstance(t, _TupleVal):
                raise ShapeMismatch("proj over a non-tuple value")
            return t.items[index]

        return proj
    if isinstance(e, Lambda):
        return _raising(
            ShapeMismatch("a lambda is only valid as a higher-order-function argument")
        )
    return _raising(UnsupportedExpr(f"cannot evaluate {type(e).__name__}"))


def _compile_scalar(e: Expr, mask: int, what: str):
    """Compile ``e`` with the scalar check of a ``what`` operand applied."""
    if isinstance(e, (Const, PrimOp)):
        return _compile(e, mask)  # always an int
    if isinstance(e, Var):
        name = e.name

        def scalar_var(inputs, env=_NO_ENV):
            v = env[name]
            return v if v.__class__ is int else _scalar_val(v, what)

        return scalar_var
    if isinstance(e, InputRef):
        index = e.index

        def scalar_input(inputs, env=_NO_ENV):
            v = inputs[index]
            return v if v.__class__ is int else _scalar_val(v, what)

        return scalar_input
    f = _compile(e, mask)

    def scalar(inputs, env=_NO_ENV):
        v = f(inputs, env)
        return v if v.__class__ is int else _scalar_val(v, what)

    return scalar


def _compile_vector(e: Expr, mask: int, what: str):
    """Compile ``e`` with the vector check of a ``what`` operand applied."""
    f = _compile(e, mask)

    def vector(inputs, env=_NO_ENV):
        v = f(inputs, env)
        return v if v.__class__ is tuple else _vector_val(v, what)

    return vector


def _compile_lambda(fn: Lambda, mask: int):
    """Compile a HOF argument into ``call(inputs, env, args)``: the body's
    scalar value with the parameters bound to the scalar ``args``."""
    body = _compile_scalar(fn.body, mask, "lambda body")
    params = [(name, f"lambda argument '{name}'") for name in fn.params]

    def call(inputs, env, args):
        inner = dict(env)
        for (name, what), v in zip(params, args):
            inner[name] = v if v.__class__ is int else _scalar_val(v, what)
        return body(inputs, inner)

    return call
