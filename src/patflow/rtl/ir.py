"""A small structural RTL form: modules, nets, registers, continuous
assignments, clocked processes and instances.

The expression nodes cover exactly what the lowering emits; rendering
parenthesizes everything, so operator precedence never matters.  Nodes are
plain ``__slots__`` classes with structural equality, never changed once
built, so one node may sit in many places: the lowering shares each
reference and literal across a design.  A module is a name, a comment and
an :class:`RtlBody`; modules of one structural class share a frozen body.

:func:`check_design` checks each distinct body once.  The names a body
references come from the same walk that renders it (``emit.walk_bodies``),
so emission and the check walk each body once between them.
"""

from __future__ import annotations

__all__ = [
    "Port", "Net", "RegDecl", "Param",
    "RExpr", "RRef", "RLit", "RBin", "RNot", "RMux", "RIndex", "RSlice", "RConcat",
    "SAssign", "SIf",
    "Assign", "AlwaysFF", "Instance", "RtlBody", "RtlModule", "RtlDesign",
    "check_design",
]


class _Node:
    """Structural equality and hashing over a node's ``__slots__``, which
    list its fields in constructor order.  Nodes are never changed after
    construction."""

    __slots__ = ()

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


class Port(_Node):
    __slots__ = ("name", "width", "direction")

    def __init__(self, name: str, width: int, direction: str):
        self.name = name
        self.width = width
        self.direction = direction  # "input" | "output"


class Net(_Node):
    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width


class RegDecl(_Node):
    __slots__ = ("name", "width", "depth")

    def __init__(self, name: str, width: int, depth: int | None = None):
        self.name = name
        self.width = width
        self.depth = depth  # a depth makes this a memory array


class Param(_Node):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value


class RExpr(_Node):
    __slots__ = ()


class RRef(RExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class RLit(RExpr):
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int | None = None):
        self.value = value
        self.width = width


class RBin(RExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: RExpr, right: RExpr):
        self.op = op
        self.left = left
        self.right = right


class RNot(RExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: RExpr):
        self.operand = operand


class RMux(RExpr):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: RExpr, then: RExpr, orelse: RExpr):
        self.cond = cond
        self.then = then
        self.orelse = orelse


class RIndex(RExpr):
    __slots__ = ("base", "index")

    def __init__(self, base: str, index: RExpr):
        self.base = base
        self.index = index


class RSlice(RExpr):
    __slots__ = ("base", "hi", "lo")

    def __init__(self, base: str, hi: int, lo: int):
        self.base = base
        self.hi = hi
        self.lo = lo


class RConcat(RExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[RExpr, ...]):
        self.parts = parts  # most significant first


class SAssign(_Node):
    __slots__ = ("target", "value")

    def __init__(self, target: RExpr, value: RExpr):
        self.target = target  # RRef or RIndex
        self.value = value


class SIf(_Node):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: RExpr, then: tuple = (), orelse: tuple = ()):
        self.cond = cond
        self.then = then
        self.orelse = orelse


class Assign(_Node):
    __slots__ = ("target", "value")

    def __init__(self, target: str, value: RExpr):
        self.target = target
        self.value = value


class AlwaysFF(_Node):
    __slots__ = ("body",)

    def __init__(self, body: tuple):
        self.body = body  # statements, applied at posedge clk


class Instance(_Node):
    __slots__ = ("module", "name", "conns")

    def __init__(self, module: str, name: str, conns: tuple[tuple[str, RExpr], ...]):
        self.module = module
        self.name = name
        self.conns = conns


class RtlBody:
    """Everything of a module but its name and comment: ports, parameters,
    declarations, assigns, clocked processes and instances.

    The fields are lists while a body is built.  :meth:`freeze` turns them
    into tuples; a frozen body may then be shared by several modules, and
    none of them can change what the others hold.
    """

    __slots__ = ("ports", "params", "nets", "regs", "assigns", "always", "instances")

    def __init__(self):
        self.ports: list[Port] = []
        self.params: list[Param] = []
        self.nets: list[Net] = []
        self.regs: list[RegDecl] = []
        self.assigns: list[Assign] = []
        self.always: list[AlwaysFF] = []
        self.instances: list[Instance] = []

    def port(self, name: str, width: int, direction: str) -> str:
        self.ports.append(Port(name, width, direction))
        return name

    def net(self, name: str, width: int) -> str:
        self.nets.append(Net(name, width))
        return name

    def freeze(self) -> RtlBody:
        for f in self.__slots__:
            setattr(self, f, tuple(getattr(self, f)))
        return self


class RtlModule:
    """A named module: a comment, a ``module <name>`` line and a body,
    which it may share with modules of the same structure."""

    __slots__ = ("name", "comment", "body")

    def __init__(self, name: str, comment: str = "", body: RtlBody | None = None):
        self.name = name
        self.comment = comment
        self.body = RtlBody() if body is None else body


class RtlDesign:
    """Modules by name, the top module's name and the manifest."""

    __slots__ = ("name", "top", "modules", "manifest")

    def __init__(self, name: str, top: str, modules: dict[str, RtlModule] | None = None,
                 manifest: dict | None = None):
        self.name = name
        self.top = top
        self.modules = {} if modules is None else modules
        self.manifest = {} if manifest is None else manifest

    def add(self, module: RtlModule) -> RtlModule:
        self.modules[module.name] = module
        return module


def _decl_widths(b: RtlBody) -> dict[str, int]:
    widths: dict[str, int] = {}
    for p in b.ports:
        widths[p.name] = p.width
    for n in b.nets:
        widths[n.name] = n.width
    for r in b.regs:
        if r.depth is None:
            widths[r.name] = r.width
    return widths


def _expr_width(e: RExpr, widths: dict[str, int]) -> int | None:
    if isinstance(e, RRef):
        return widths.get(e.name)
    if isinstance(e, RLit):
        return e.width
    if isinstance(e, RSlice):
        return e.hi - e.lo + 1
    if isinstance(e, RConcat):
        total = 0
        for p in e.parts:
            w = _expr_width(p, widths)
            if w is None:
                return None
            total += w
        return total
    return None


def _body_problems(b: RtlBody, used: set[str], modules: dict[str, RtlModule],
                   child_ports: dict[RtlBody, dict[str, Port]]) -> list[str]:
    """The problems of one body that references the names ``used``, each
    to be prefixed with the name of a module that has it.  ``child_ports``
    caches each instantiated body's ports by name."""
    problems: list[str] = []
    decls = [p.name for p in b.ports] + [n.name for n in b.nets] + [r.name for r in b.regs]
    seen = set(decls)
    if len(seen) < len(decls):
        problems += [f": duplicate declaration '{d}'" for i, d in enumerate(decls)
                     if d in decls[:i]]
    unknown = used - seen
    if unknown:
        unknown -= {p.name for p in b.params}
        for name in sorted(unknown):
            problems.append(f": reference to undeclared name '{name}'")
    if not b.instances:
        return problems
    widths = _decl_widths(b)
    for inst in b.instances:
        child = modules.get(inst.module)
        if child is None:
            problems.append(
                f": instance '{inst.name}' references undefined module '{inst.module}'"
            )
            continue
        ports = child_ports.get(child.body)
        if ports is None:
            ports = child_ports[child.body] = {p.name: p for p in child.body.ports}
        connected = set()
        for port_name, expr in inst.conns:
            port = ports.get(port_name)
            if port is None:
                problems.append(f".{inst.name}: no port '{port_name}' on '{inst.module}'")
                continue
            connected.add(port_name)
            got = _expr_width(expr, widths)
            if got is not None and got != port.width:
                problems.append(
                    f".{inst.name}: port '{port_name}' is {port.width} bits, "
                    f"connected to {got}"
                )
        if len(connected) < len(ports):
            for missing in sorted(set(ports) - connected):
                if ports[missing].direction == "input":
                    problems.append(f".{inst.name}: input '{missing}' unconnected")
    return problems


def design_problems(design: RtlDesign, names: dict[RtlBody, set[str]]) -> list[str]:
    """The problems :func:`check_design` reports, given the names each
    distinct body of ``design`` references."""
    problems: list[str] = []
    if design.top not in design.modules:
        problems.append(f"top module '{design.top}' is not defined")
    found: dict[RtlBody, list[str]] = {}
    child_ports: dict[RtlBody, dict[str, Port]] = {}
    for m in design.modules.values():
        own = found.get(m.body)
        if own is None:
            own = found[m.body] = _body_problems(m.body, names[m.body], design.modules,
                                                 child_ports)
        problems += [m.name + p for p in own]
    return problems


def check_design(design: RtlDesign) -> list[str]:
    """Structural consistency problems; empty when the design is sound.

    Checks that the top module exists, that every instance references a
    defined module, connects only declared ports, drives every input, that
    every referenced name resolves to a declaration, and that connection
    widths agree wherever both sides are known.  A body shared by several
    modules is checked once; each of its problems is reported under every
    module that has it.  The names come from the walk that renders each
    body, whose text is dropped here.
    """
    from .emit import walk_bodies  # the renderer imports this module

    return design_problems(design, walk_bodies(design)[1])
