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
structural equality.  :func:`compile_expr` turns a body into one generated
Python function, and :func:`compile_reference` turns a node's body into one
generated loop over all of its firings: the functional reference that
value simulation checks the hardware form against.  The pass that writes
that loop from the node's input shapes is also the one static shape check:
:func:`infer_shape` runs it with nothing compiled.
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
    "compile_expr",
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
# An expression is compiled once into one generated Python function
# ``f(inputs, env)``: ``inputs`` holds one value per input port and ``env``
# maps free names to values.  Runtime values are int (scalar),
# tuple[int, ...] (vector), and _TupleVal for multi-output bodies.  Every
# operator is one statement into a fresh local, a higher-order function is
# a loop, and lambda parameters and ``let`` names are locals too.  Each
# shape check is a statement just before the value it guards is used, so a
# sub-expression that is never evaluated (a lambda mapped over an empty
# vector, say) never raises.


class _TupleVal(_Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        _set(self, "items", items)


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

# Compiled bodies never modify ``env``.
_NO_ENV: dict = {}


def apply_prim(op: str, a: int, b: int, mask: int) -> int:
    """Apply one scalar primitive with wrap-around at ``mask``."""
    fn = PRIMS.get(op)
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
    raises the same errors, but walks the expression tree only once, here,
    into the source of one Python function.
    """
    w = _BodyWriter((1 << width) - 1)
    atom, kind = w.value(e, {})
    # A multi-output value is returned as the plain tuple of its items.
    if kind is _TUP:
        atom = f"{atom}.items"
    elif kind is None and isinstance(e, (Let, Proj)):
        atom = f"{atom}.items if {atom}.__class__ is _TupleVal else {atom}"
    source = "def body(inputs, env=_NO_ENV):\n" + "\n".join(w.lines) + f"\n    return {atom}\n"
    namespace = {
        "_NO_ENV": _NO_ENV, "_TupleVal": _TupleVal, "_scalar_val": _scalar_val,
        "_vector_val": _vector_val, "apply_prim": apply_prim,
        "ShapeMismatch": ShapeMismatch, "UnsupportedExpr": UnsupportedExpr,
        **w.consts,
    }
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["body"]


def _atom(name: str, shape: Shape):
    """The static atom of a value of ``shape`` held in ``name``."""
    if isinstance(shape, TupleShape):
        return tuple(_atom(f"{name}[{k}]", item) for k, item in enumerate(shape.items))
    return name


def infer_shape(
    e: Expr,
    input_shapes: Sequence[Shape],
    env: dict[str, Shape] | None = None,
) -> Shape:
    """The static shape of ``e`` given the node's input port shapes, and
    free names of the shapes in ``env``: what the static writer behind
    :func:`compile_reference` finds writing ``e``, with nothing compiled.

    Raises
    ------
    ShapeMismatch
        If the expression is not well-shaped (including a bare lambda or an
        out-of-range input/projection index).
    """
    scope = {name: (_atom("env", shape), shape) for name, shape in (env or {}).items()}
    return _BodyWriter(0, input_shapes).value(e, scope)[1]


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
    namespace = {"apply_prim": apply_prim, "ShapeMismatch": ShapeMismatch,
                 "UnsupportedExpr": UnsupportedExpr, **w.consts}
    exec(compile(source, "<reference>", "exec"), namespace)
    return namespace["reference"]


@lru_cache(maxsize=256)
def _compiled(e: Expr, width: int):
    """:func:`compile_expr`, kept for the most recently evaluated bodies:
    a ``compile()`` costs about 100 evaluations."""
    return compile_expr(e, width)


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
    return _compiled(e, width)(list(inputs), env or _NO_ENV)


# What a dynamic writer knows of a value: an int, a tuple of ints of some
# length or a _TupleVal; ``None`` when it knows nothing.  A static writer
# knows each value's exact Shape.
_INT, _VEC, _TUP = Scalar(), Vector(None), TupleShape()

# Loops nested in one generated function before the next one moves into a
# nested function: CPython allows 20 statically nested blocks per function.
_MAX_LOOPS = 16


class _BodyWriter:
    """Writes the statements of one compiled body.

    :meth:`value` emits the statements that compute an expression and
    returns an atom naming the result, a local or a parenthesized int
    literal, with its kind.  Only generated names reach the source:
    ``t<n>`` locals, ``k<n>`` constants (user names, error texts, odd
    literals), and the helpers bound in :func:`compile_expr`'s namespace.

    A writer given the input port ``shapes`` is static: it is the one
    shape checker (:func:`infer_shape`) and writes the body of
    :func:`compile_reference`'s loop.  Input port ``k`` is the local
    ``i<k>`` and a kind is the value's :class:`Shape`.  Each shape check is
    decided as the body is written, raising :class:`ShapeMismatch` there
    and then, so none reaches the code; a one-token vector used as a scalar
    is its word ``x[0]``, and a tuple's atom is the tuple of its items'
    atoms.
    """

    def __init__(self, mask: int, shapes: Sequence[Shape] | None = None):
        self.mask = mask
        self.static = shapes is not None
        self.shapes = shapes
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self.count = 0
        self.indent = 1
        self.loops = 0
        # Locals a scope name refers to.
        self.named: set[str] = set()

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def assign(self, expr: str) -> str:
        t = self.fresh()
        self.emit(f"{t} = {expr}")
        return t

    def const(self, value) -> str:
        if type(value) is int and value >= 0:
            return f"({value})"  # parenthesized, so ``(0).__class__`` parses
        name = f"k{len(self.consts)}"
        self.consts[name] = value
        return name

    def owned(self, atom: str) -> bool:
        """Whether ``atom`` is a local that only its one use reads, which a
        shape check may then coerce in place."""
        return atom[0] == "t" and atom not in self.named

    def fail(self, exc: type, message: str) -> tuple[str, None]:
        """Raise ``exc(message)``: a static writer now, else the code."""
        if self.static:
            raise exc(message)
        self.emit(f"raise {exc.__name__}({self.const(message)})")
        return "None", None

    def scalar(self, e: Expr, scope: dict, what: str) -> str:
        """``e``'s value with the scalar check of a ``what`` operand."""
        atom, kind = self.value(e, scope)
        if isinstance(kind, Scalar):
            return atom
        if self.static:
            if not (isinstance(kind, Vector) and kind.length == 1):
                raise ShapeMismatch(f"{what} must be scalar, got {kind}")
            return self.assign(f"{atom}[0]")  # a one-token vector
        target = atom if self.owned(atom) else self.fresh()
        self.emit(f"{target} = {atom} if {atom}.__class__ is int "
                  f"else _scalar_val({atom}, {self.const(what)})")
        return target

    def vector(self, e: Expr, scope: dict, what: str) -> tuple[str, Vector | None]:
        """``e``'s value with the vector check of a ``what`` operand, and
        its kind: a :class:`Vector` when its elements are known ints."""
        atom, kind = self.value(e, scope)
        if isinstance(kind, Vector):
            return atom, kind
        if self.static:
            raise ShapeMismatch(f"{what} must be a vector, got {kind}")
        target = atom if self.owned(atom) else self.fresh()
        self.emit(f"{target} = {atom} if {atom}.__class__ is tuple "
                  f"else _vector_val({atom}, {self.const(what)})")
        return target, None

    def value(self, e: Expr, scope: dict) -> tuple:
        """Emit ``e``; ``scope`` maps bound names to ``(atom, kind)``."""
        if isinstance(e, InputRef):
            if not self.static:
                return self.assign(f"inputs[{self.const(e.index)}]"), None
            if not 0 <= e.index < len(self.shapes):
                raise ShapeMismatch(
                    f"(input {e.index}) out of range for {len(self.shapes)} input ports")
            return _atom(f"i{e.index}", self.shapes[e.index]), self.shapes[e.index]
        if isinstance(e, Const):
            return self.const(e.value & self.mask), _INT
        if isinstance(e, Var):
            if e.name in scope:
                return scope[e.name]
            if self.static:
                raise ShapeMismatch(f"unbound variable '{e.name}'")
            return self.assign(f"env[{self.const(e.name)}]"), None
        if isinstance(e, PrimOp):
            a = self.scalar(e.args[0], scope, f"{e.op} operand 0")
            b = self.scalar(e.args[1], scope, f"{e.op} operand 1")
            form = PRIM_CODE.get(e.op)
            if form is None:  # raises once its operands are evaluated
                return self.assign(f"apply_prim({self.const(e.op)}, {a}, {b}, {self.mask})"), _INT
            return self.assign(form.format(a=a, b=b, mask=self.mask)), _INT
        if isinstance(e, (Map, ZipWith, Foldl, Foldl1)):
            if self.loops < _MAX_LOOPS:
                return self.hof(e, scope)
            fn = self.fresh()
            self.emit(f"def {fn}():")
            self.indent, loops, self.loops = self.indent + 1, self.loops, 0
            atom, kind = self.hof(e, scope)
            self.emit(f"return {atom}")
            self.indent, self.loops = self.indent - 1, loops
            return self.assign(f"{fn}()"), kind
        if isinstance(e, Let):
            inner = dict(scope)
            for name, bound in e.bindings:
                inner[name] = self.value(bound, inner)
                self.named.add(inner[name][0])
            return self.value(e.body, inner)
        if isinstance(e, Tuple):
            items = [self.value(item, scope) for item in e.items]
            if self.static:
                return tuple(a for a, _ in items), TupleShape(tuple(k for _, k in items))
            atoms = "".join(f"{a}, " for a, _ in items)
            return self.assign(f"_TupleVal(({atoms}))"), _TUP
        if isinstance(e, Proj):
            t, kind = self.value(e.tup, scope)
            if self.static:
                if not isinstance(kind, TupleShape):
                    raise ShapeMismatch(f"proj over non-tuple shape {kind}")
                if not 0 <= e.index < len(kind.items):
                    raise ShapeMismatch(f"proj index {e.index} out of range")
                return t[e.index], kind.items[e.index]
            if kind is not _TUP:
                self.emit(f"if {t}.__class__ is not _TupleVal: "
                          f"raise ShapeMismatch({self.const('proj over a non-tuple value')})")
            return self.assign(f"{t}.items[{self.const(e.index)}]"), None
        if isinstance(e, Lambda):
            return self.fail(ShapeMismatch,
                             "a lambda is only valid as a higher-order-function argument")
        if self.static:
            raise ShapeMismatch(f"unknown expression {type(e).__name__}")
        return self.fail(UnsupportedExpr, f"cannot evaluate {type(e).__name__}")

    def hof(self, e: Expr, scope: dict) -> tuple[str, Shape | None]:
        """A higher-order function as one loop over its vector(s)."""
        out, x = self.fresh(), self.fresh()
        if isinstance(e, Map):
            vec, kind = self.vector(e.vec, scope, "map argument")
            self.emit(f"{out} = []")
            self.emit(f"for {x} in {vec}:")
            params, form = [(x, kind)], "map"
        elif isinstance(e, ZipWith):
            a, kind = self.vector(e.left, scope, "zipwith left")
            b, kb = self.vector(e.right, scope, "zipwith right")
            if not self.static:
                self.emit(f"if len({a}) != len({b}): raise ShapeMismatch("
                          f"f\"zipwith length mismatch: {{len({a})}} vs {{len({b})}}\")")
            elif kind.length != kb.length:
                raise ShapeMismatch(f"zipwith length mismatch: {kind.length} vs {kb.length}")
            y = self.fresh()
            self.emit(f"{out} = []")
            self.emit(f"for {x}, {y} in zip({a}, {b}):")
            params, form = [(x, kind), (y, kb)], "zipwith"
        elif isinstance(e, Foldl):
            if self.static:  # the argument is checked before the init
                vec, kind = self.vector(e.vec, scope, "fold argument")
                init = self.scalar(e.init, scope, "fold init")
            else:  # and evaluated after it
                init = self.scalar(e.init, scope, "fold init")
                vec, kind = self.vector(e.vec, scope, "fold argument")
            self.emit(f"{out} = {init}")
            self.emit(f"for {x} in {vec}:")
            params, form = [(out, _INT), (x, kind)], "fold"
        else:
            vec, kind = self.vector(e.vec, scope, "fold argument")
            if not self.static:
                self.emit(f"if not {vec}: raise ShapeMismatch("
                          f"{self.const('foldl1 over an empty vector')})")
            elif kind.length < 1:
                raise ShapeMismatch("foldl1 needs a non-empty vector")
            self.emit(f"{out} = {vec}[0]")
            self.emit(f"for {x} in {vec}[1:]:")
            params, form = [(out, kind), (x, kind)], "fold"
        self.indent += 1
        self.loops += 1
        # The lambda's parameters, each checked scalar as it is bound unless
        # it is known to be an int.
        inner = dict(scope)
        for name, (atom, kind) in zip(e.fn.params, params):
            if kind is None:
                what = self.const(f"lambda argument '{name}'")
                self.emit(f"if {atom}.__class__ is not int: {atom} = _scalar_val({atom}, {what})")
            inner[name] = (atom, _INT)
            self.named.add(atom)
        what = f"{form} lambda body" if self.static else "lambda body"
        result = self.scalar(e.fn.body, inner, what)
        folds = form == "fold"
        self.emit(f"{out} = {result}" if folds else f"{out}.append({result})")
        self.indent -= 1
        self.loops -= 1
        if folds:
            return out, None if params[0][1] is None else _INT
        if self.static:  # a list, as long as its first operand
            return out, params[0][1]
        self.emit(f"{out} = tuple({out})")
        return out, _VEC
