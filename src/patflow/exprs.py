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

Expression and shape nodes are immutable ``__slots__`` records with
structural equality.  One pass writes a body from its input shapes as
generated Python and is also the one shape check, so a shape error is
raised before anything runs.  :func:`compile_reference` turns a node's
body into one generated loop over all of its firings: the functional
reference that value simulation checks the hardware form against.
:func:`eval_expr` evaluates a body over concrete values, written from their
shapes, and :func:`infer_shape` runs the pass with nothing compiled.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from functools import lru_cache

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
    "compile_reference",
    "apply_prim",
    "PRIMS",
    "PRIM_CODE",
]

PRIM_OPS = ("add", "mul", "sub", "min", "max", "compare")


# ---------------------------------------------------------------------------
# AST


# Sets a field of a record in its constructor.
_set = object.__setattr__


class _Record:
    """An immutable record over ``__slots__``, which list its fields in
    constructor order: structural ``==`` and hash, a
    ``Name(field=value, ...)`` repr, and no assignment after
    construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Expr(_Record):
    """Base class for expression nodes."""

    __slots__ = ()


class InputRef(Expr):
    """The node's input port ``index`` (a statically sized vector)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class Const(Expr):
    """An integer literal (scalar)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Var(Expr):
    """A name bound by an enclosing ``lambda`` or ``let``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class PrimOp(Expr):
    """A scalar primitive applied to scalar operands."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Expr, ...]):
        _set(self, "op", op)
        _set(self, "args", args)


class Lambda(Expr):
    """A function literal; only valid as a higher-order-function argument."""

    __slots__ = ("params", "body")

    def __init__(self, params: tuple[str, ...], body: Expr):
        _set(self, "params", params)
        _set(self, "body", body)


class Map(Expr):
    __slots__ = ("fn", "vec")

    def __init__(self, fn: Lambda, vec: Expr):
        _set(self, "fn", fn)
        _set(self, "vec", vec)


class ZipWith(Expr):
    __slots__ = ("fn", "left", "right")

    def __init__(self, fn: Lambda, left: Expr, right: Expr):
        _set(self, "fn", fn)
        _set(self, "left", left)
        _set(self, "right", right)


class Foldl(Expr):
    __slots__ = ("fn", "init", "vec")

    def __init__(self, fn: Lambda, init: Expr, vec: Expr):
        _set(self, "fn", fn)
        _set(self, "init", init)
        _set(self, "vec", vec)


class Foldl1(Expr):
    __slots__ = ("fn", "vec")

    def __init__(self, fn: Lambda, vec: Expr):
        _set(self, "fn", fn)
        _set(self, "vec", vec)


class Let(Expr):
    __slots__ = ("bindings", "body")

    def __init__(self, bindings: tuple[tuple[str, Expr], ...], body: Expr):
        _set(self, "bindings", bindings)
        _set(self, "body", body)


class Tuple(Expr):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Expr, ...]):
        _set(self, "items", items)


class Proj(Expr):
    __slots__ = ("tup", "index")

    def __init__(self, tup: Expr, index: int):
        _set(self, "tup", tup)
        _set(self, "index", index)


# ---------------------------------------------------------------------------
# Shapes


class Shape(_Record):
    __slots__ = ()


class Scalar(Shape):
    __slots__ = ()

    def __str__(self) -> str:
        return "scalar"


class Vector(Shape):
    __slots__ = ("length",)

    def __init__(self, length: int):
        _set(self, "length", length)

    def __str__(self) -> str:
        return f"vec[{self.length}]"


class TupleShape(Shape):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Shape, ...] = ()):
        _set(self, "items", items)

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.items) + ")"


# ---------------------------------------------------------------------------
# Parsing


_COMMENT = re.compile(r";[^\n]*")
_TOKEN = re.compile(r"[()]|[^\s();]+")


def _tokenize(text: str) -> list[str]:
    """The parentheses and atoms of ``text``, with ``;`` comments (to the
    end of the line) dropped; whitespace is what ``str.isspace`` says."""
    return _TOKEN.findall(_COMMENT.sub("", text))


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
# Evaluation
#
# A body is compiled from its input shapes into generated Python: every
# operator is one statement into a fresh local, a higher-order function is
# a loop, and lambda parameters and ``let`` names are locals too.  The pass
# that writes it decides every shape check, so the generated code checks
# none.  Runtime values are int (scalar) and tuples or lists of ints
# (vector); a multi-output value is one value per item.

# A scalar's shape, which most values have.
_SCALAR = Scalar()


# Each primitive as a Python expression over the operands ``{a}`` and
# ``{b}`` and the wrap-around ``{mask}``: what every evaluator that
# generates code writes inline.
PRIM_CODE = {
    "add": "({a} + {b}) & {mask}",
    "mul": "({a} * {b}) & {mask}",
    "sub": "({a} - {b}) & {mask}",
    "min": "{a} if {a} <= {b} else {b}",
    "max": "{a} if {a} >= {b} else {b}",
    "compare": "1 if {a} < {b} else 0",
}

# The same primitives as functions ``f(a, b, mask)``.
PRIMS = {
    op: eval(f"lambda a, b, mask: {code.format(a='a', b='b', mask='mask')}")
    for op, code in PRIM_CODE.items()
}


def apply_prim(op: str, a: int, b: int, mask: int) -> int:
    """Apply one scalar primitive with wrap-around at ``mask``."""
    fn = PRIMS.get(op)
    if fn is None:
        raise UnsupportedExpr(f"unknown primitive '{op}'")
    return fn(a, b, mask)


def _atom(name: str, shape: Shape):
    """The static atom of a value of ``shape`` held in ``name``."""
    if isinstance(shape, TupleShape):
        return tuple(_atom(f"{name}[{k}]", item) for k, item in enumerate(shape.items))
    return name


def _scope(env) -> dict:
    """The writer's scope for free names of the ``(name, shape)`` pairs
    ``env``: the k-th name is the local ``e<k>``."""
    return {name: (_atom(f"e{k}", shape), shape) for k, (name, shape) in enumerate(env)}


def infer_shape(
    e: Expr,
    input_shapes: Sequence[Shape],
    env: dict[str, Shape] | None = None,
) -> Shape:
    """The static shape of ``e`` given the node's input port shapes, and
    free names of the shapes in ``env``: what the writer behind
    :func:`compile_reference` and :func:`eval_expr` finds writing ``e``,
    with nothing compiled.

    Raises
    ------
    ShapeMismatch
        If the expression is not well-shaped (including a bare lambda, an
        out-of-range input/projection index, or a primitive that is
        unknown or not given two operands).
    """
    return _BodyWriter(0, input_shapes).value(e, _scope((env or {}).items()))[1]


def compile_reference(e: Expr, width: int, lengths: Sequence[int]):
    """Compile a node's body into one loop over all of its firings,
    ``f(firings, *streams)``, which returns one stream per output port.

    Each firing takes the next ``lengths[k]`` tokens of ``streams[k]`` as
    its input port ``k`` while every stream holds them; a node without
    inputs fires ``firings`` times.  A port's stream is the firings' values
    end to end, a vector port's element by element.  The one pass that
    writes the loop checks the body's shapes as :func:`infer_shape` does,
    and raises its :class:`ShapeMismatch` on an ill-shaped body, so the
    loop checks no shape.
    """
    w = _BodyWriter((1 << width) - 1, [Vector(n) for n in lengths])
    w.indent, w.loops = 2, 1  # the body runs inside the firing loop
    atom, shape = w.value(e, {})
    outs = tuple(zip(atom, shape.items)) if isinstance(shape, TupleShape) else ((atom, shape),)
    ins = "".join(f"i{k}, " for k in range(len(lengths)))
    cuts = ", ".join(f"zip(*[iter(s{k})] * {n})" for k, n in enumerate(lengths))
    head = [f"def reference(firings, {ins.replace('i', 's')}):"]
    for port, (atom, shape) in enumerate(outs):
        if isinstance(shape, TupleShape):
            raise ShapeMismatch(f"output {port} is a tuple, not a scalar or a vector")
        head.append(f"    p{port} = []; w{port} = p{port}."
                    f"{'extend' if isinstance(shape, Vector) else 'append'}")
        w.emit(f"w{port}({atom})")
    head.append(f"    for {ins}in zip({cuts}):" if lengths else "    for _ in range(firings):")
    ports = "".join(f"p{k}, " for k in range(len(outs)))
    source = "\n".join(head + w.lines) + f"\n    return {ports}\n"
    namespace: dict = {}
    exec(compile(source, "<reference>", "exec"), namespace)
    return namespace["reference"]


def _plain(atom, shape: Shape) -> str:
    """The value of ``atom`` as :func:`eval_expr` returns it: a vector as a
    tuple, and a multi-output value as the plain tuple of its items."""
    if isinstance(shape, TupleShape):
        return "(" + "".join(f"{_plain(a, s)}, " for a, s in zip(atom, shape.items)) + ")"
    return f"tuple({atom})" if isinstance(shape, Vector) else atom


@lru_cache(maxsize=256)
def _compiled(e: Expr, width: int, shapes: tuple, env: tuple):
    """The function ``f(*inputs, *env values)`` that evaluates ``e`` over
    inputs of ``shapes`` and free names of the ``(name, shape)`` pairs
    ``env``, kept for the most recently evaluated bodies: a ``compile()``
    costs about 100 evaluations."""
    w = _BodyWriter((1 << width) - 1, shapes)
    atom, shape = w.value(e, _scope(env))
    params = [f"i{k}" for k in range(len(shapes))] + [f"e{k}" for k in range(len(env))]
    source = (f"def body({', '.join(params)}):\n" + "\n".join(w.lines)
              + f"\n    return {_plain(atom, shape)}\n")
    namespace: dict = {}
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["body"]


def _shape_of(v, what: str) -> Shape:
    """The shape of a concrete value: an int is a scalar, a tuple of ints
    a vector."""
    if type(v) is int:
        return _SCALAR
    if type(v) is tuple and all(type(x) is int for x in v):
        return Vector(len(v))
    raise ShapeMismatch(f"{what} must be an int or a tuple of ints, got {v!r}")


def eval_expr(e: Expr, inputs: Sequence, width: int, env: dict | None = None):
    """Evaluate ``e`` over concrete input vectors.

    The body is written from the shapes of ``inputs`` and of ``env``'s
    values by the pass behind :func:`infer_shape`, and compiled once per
    body, width and shapes, so an ill-shaped body raises before anything is
    evaluated: :func:`eval_expr` accepts exactly the bodies that
    :func:`infer_shape` accepts over those shapes.

    Parameters
    ----------
    e : Expr
    inputs : sequence
        One value per input port: an int for a scalar port, a tuple of ints
        for a vector port.
    width : int
        Element width in bits; all arithmetic wraps modulo ``2 ** width``.
    env : dict, optional
        Values of free names, each an int or a tuple of ints.

    Returns
    -------
    int, tuple of int, or a tuple of those for multi-output bodies.

    Raises
    ------
    ShapeMismatch
        If a value is neither an int nor a tuple of ints, or ``e`` is not
        well-shaped over the values' shapes, with :func:`infer_shape`'s
        message.
    """
    inputs = tuple(inputs)
    env = env or {}
    shapes = tuple(_shape_of(v, f"(input {k})") for k, v in enumerate(inputs))
    names = tuple((name, _shape_of(v, f"variable '{name}'")) for name, v in env.items())
    return _compiled(e, width, shapes, names)(*inputs, *env.values())


# Loops nested in one generated function before the next one moves into a
# nested function: CPython allows 20 statically nested blocks per function.
_MAX_LOOPS = 16


class _BodyWriter:
    """Writes the statements of one compiled body from its input port
    ``shapes``, and is the one shape checker.

    :meth:`value` emits the statements that compute an expression and
    returns an atom naming the result, a local or a parenthesized int
    literal, with its :class:`Shape`.  Input port ``k`` is the local
    ``i<k>``, a tuple's atom is the tuple of its items' atoms, and only
    generated names reach the source: ``t<n>`` locals and the atoms a
    caller puts in the scope.  Each shape check is decided as the body is
    written, raising :class:`ShapeMismatch` there and then, so none reaches
    the code.  A one-token vector used as a scalar is its word ``x[0]``,
    and a vector that a ``map`` or ``zipwith`` computes is a list.
    :func:`infer_shape` runs the writer with nothing compiled;
    :func:`compile_reference` and :func:`eval_expr` compile what it writes.
    """

    def __init__(self, mask: int, shapes: Sequence[Shape]):
        self.mask = mask
        self.shapes = shapes
        self.lines: list[str] = []
        self.count = 0
        self.indent = 1
        self.loops = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def assign(self, expr: str) -> str:
        t = self.fresh()
        self.emit(f"{t} = {expr}")
        return t

    def scalar(self, e: Expr, scope: dict, what: str) -> str:
        """``e``'s value with the scalar check of a ``what`` operand."""
        atom, shape = self.value(e, scope)
        if isinstance(shape, Scalar):
            return atom
        if not (isinstance(shape, Vector) and shape.length == 1):
            raise ShapeMismatch(f"{what} must be scalar, got {shape}")
        return self.assign(f"{atom}[0]")  # a one-token vector

    def vector(self, e: Expr, scope: dict, what: str) -> tuple[str, Vector]:
        """``e``'s value with the vector check of a ``what`` operand, and
        its shape."""
        atom, shape = self.value(e, scope)
        if not isinstance(shape, Vector):
            raise ShapeMismatch(f"{what} must be a vector, got {shape}")
        return atom, shape

    def value(self, e: Expr, scope: dict) -> tuple:
        """Emit ``e``; ``scope`` maps bound names to ``(atom, shape)``."""
        if isinstance(e, InputRef):
            if not 0 <= e.index < len(self.shapes):
                raise ShapeMismatch(
                    f"(input {e.index}) out of range for {len(self.shapes)} input ports")
            return _atom(f"i{e.index}", self.shapes[e.index]), self.shapes[e.index]
        if isinstance(e, Const):
            return f"({e.value & self.mask})", _SCALAR
        if isinstance(e, Var):
            if e.name not in scope:
                raise ShapeMismatch(f"unbound variable '{e.name}'")
            return scope[e.name]
        if isinstance(e, PrimOp):
            form = PRIM_CODE.get(e.op)
            if form is None:
                raise ShapeMismatch(f"unknown primitive '{e.op}'")
            if len(e.args) != 2:
                raise ShapeMismatch(f"{e.op} takes 2 operands, got {len(e.args)}")
            a = self.scalar(e.args[0], scope, f"{e.op} operand 0")
            b = self.scalar(e.args[1], scope, f"{e.op} operand 1")
            return self.assign(form.format(a=a, b=b, mask=self.mask)), _SCALAR
        if isinstance(e, (Map, ZipWith, Foldl, Foldl1)):
            if self.loops < _MAX_LOOPS:
                return self.hof(e, scope)
            fn = self.fresh()
            self.emit(f"def {fn}():")
            self.indent, loops, self.loops = self.indent + 1, self.loops, 0
            atom, shape = self.hof(e, scope)
            self.emit(f"return {atom}")
            self.indent, self.loops = self.indent - 1, loops
            return self.assign(f"{fn}()"), shape
        if isinstance(e, Let):
            inner = dict(scope)
            for name, bound in e.bindings:
                inner[name] = self.value(bound, inner)
            return self.value(e.body, inner)
        if isinstance(e, Tuple):
            items = [self.value(item, scope) for item in e.items]
            return tuple(a for a, _ in items), TupleShape(tuple(s for _, s in items))
        if isinstance(e, Proj):
            t, shape = self.value(e.tup, scope)
            if not isinstance(shape, TupleShape):
                raise ShapeMismatch(f"proj over non-tuple shape {shape}")
            if not 0 <= e.index < len(shape.items):
                raise ShapeMismatch(f"proj index {e.index} out of range")
            return t[e.index], shape.items[e.index]
        if isinstance(e, Lambda):
            raise ShapeMismatch("a lambda is only valid as a higher-order-function argument")
        raise ShapeMismatch(f"unknown expression {type(e).__name__}")

    def hof(self, e: Expr, scope: dict) -> tuple[str, Shape]:
        """A higher-order function as one loop over its vector(s)."""
        out, x = self.fresh(), self.fresh()
        if isinstance(e, Map):
            vec, shape = self.vector(e.vec, scope, "map argument")
            self.emit(f"{out} = []")
            self.emit(f"for {x} in {vec}:")
            params, form = (x,), "map"
        elif isinstance(e, ZipWith):
            a, shape = self.vector(e.left, scope, "zipwith left")
            b, right = self.vector(e.right, scope, "zipwith right")
            if shape.length != right.length:
                raise ShapeMismatch(f"zipwith length mismatch: {shape.length} vs {right.length}")
            y = self.fresh()
            self.emit(f"{out} = []")
            self.emit(f"for {x}, {y} in zip({a}, {b}):")
            params, form = (x, y), "zipwith"
        elif isinstance(e, Foldl):
            # The argument is checked before the init.
            vec, shape = self.vector(e.vec, scope, "fold argument")
            init = self.scalar(e.init, scope, "fold init")
            self.emit(f"{out} = {init}")
            self.emit(f"for {x} in {vec}:")
            params, form = (out, x), "fold"
        else:
            vec, shape = self.vector(e.vec, scope, "fold argument")
            if shape.length < 1:
                raise ShapeMismatch("foldl1 needs a non-empty vector")
            self.emit(f"{out} = {vec}[0]")
            self.emit(f"for {x} in {vec}[1:]:")
            params, form = (out, x), "fold"
        self.indent += 1
        self.loops += 1
        # The lambda's parameters are scalars.
        inner = dict(scope)
        inner.update((name, (atom, _SCALAR)) for name, atom in zip(e.fn.params, params))
        result = self.scalar(e.fn.body, inner, f"{form} lambda body")
        folds = form == "fold"
        self.emit(f"{out} = {result}" if folds else f"{out}.append({result})")
        self.indent -= 1
        self.loops -= 1
        # A fold is a scalar; a map or zipwith a list as long as its first
        # operand.
        return out, _SCALAR if folds else shape
