"""The kernel front end: the one place kernel source becomes readable.

The linter, the kernel certifier and the range analysis all read a
program's device functions through this module:

- :func:`parse_kernel` returns a kernel's function AST, source position
  and parameters (``self`` excluded);
- :func:`scan_kernel` records, syntactically, every ``param["field"]``
  subscript (line, read/write, the literals it meets) and every
  nondeterminism reference.  It sees every statement, loops included;
- :func:`lower_kernel` lowers a kernel body into a small typed expression
  IR, resolving ``self``-attribute constants through the program and
  inlining small helpers (``TraversalSpec.proposal`` closures, bound
  methods).  Loops and other unmodeled statements make a lowering
  *opaque*: its extraction does not count;
- :func:`walk`, :func:`substitute`, :func:`simplify`,
  :func:`messages_returns` and friends query the IR.

Names here are public within :mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass

import numpy as np

#: kernel methods of a :class:`~repro.vertexcentric.program.VertexProgram`.
KERNELS = (
    "init_compute",
    "compute",
    "update_condition",
    "init_local",
    "messages",
    "apply",
    "begin_iteration",
)

#: Modules whose use makes a kernel nondeterministic: lint ``L005`` flags
#: them and the kernel certifier's ``C404`` refutes purity on them.
NONDET_ROOTS = frozenset({"random", "time", "datetime", "secrets", "uuid", "os"})


def field_dtype(dtype, field: str) -> np.dtype | None:
    """Base dtype of ``field`` in structured ``dtype`` (subarray shapes
    unwrapped), or ``None`` when ``dtype`` has no such field."""
    fields = getattr(dtype, "fields", None)
    if not fields or field not in fields:
        return None
    return fields[field][0].base


# ======================================================================
# Parsing
# ======================================================================

@dataclass(frozen=True, eq=False)
class KernelSource:
    """One kernel's function AST and where its source lives."""

    node: ast.FunctionDef
    filename: str
    first_line: int
    params: tuple[str, ...]  # positional parameters, ``self`` excluded
    globals: dict

    def location(self, lineno: int) -> str:
        """``file:line`` of AST line ``lineno`` (1 = the ``def`` line)."""
        return f"{self.filename}:{self.first_line + lineno - 1}"


def parse_kernel(fn) -> KernelSource | None:
    """Parse a kernel method or helper function; ``None`` when its source
    is unavailable (e.g. defined in a REPL) or is not a function."""
    fn = inspect.unwrap(getattr(fn, "__func__", fn))
    try:
        src, first_line = inspect.getsourcelines(fn)
        tree = ast.parse(textwrap.dedent("".join(src)))
    except (OSError, TypeError, SyntaxError, ValueError):
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in node.args.args]
            if params and params[0] == "self":
                params = params[1:]
            return KernelSource(
                node, fn.__code__.co_filename, first_line, tuple(params),
                fn.__globals__,
            )
    return None


# ======================================================================
# Syntactic scan
# ======================================================================

@dataclass(frozen=True)
class FieldAccess:
    """One ``param["field"]`` subscript (or ``param[self.attr]`` whose
    attribute is a field-name string on the program instance)."""

    param: str
    field: str
    lineno: int
    write: bool
    literals: tuple = ()  # numeric literals assigned to / compared with it


@dataclass(frozen=True)
class NondetRef:
    """A dotted reference rooted in :data:`NONDET_ROOTS` or reaching a
    ``random`` attribute (``np.random``, ``rng.random``)."""

    source: str  # the module, or the dotted prefix through ``.random``
    dotted: str  # the whole reference
    lineno: int


@dataclass(frozen=True)
class KernelScan:
    accesses: tuple[FieldAccess, ...]
    nondet: tuple[NondetRef, ...]


def _dotted_name(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _literal(node: ast.AST):
    """The numeric value of a literal expression, or ``None``.

    Unwraps unary sign and single-argument ``np.<ctor>(...)`` calls, so
    ``np.uint32(1)`` and ``-5`` both count as literals.
    """
    if isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return v
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _literal(node.operand)
        if v is None:
            return None
        return -v if isinstance(node.op, ast.USub) else v
    if (
        isinstance(node, ast.Call)
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ):
        return _literal(node.args[0])
    return None


class _Scanner(ast.NodeVisitor):
    def __init__(self, instance) -> None:
        self.instance = instance
        self.accesses: list[FieldAccess] = []
        self.nondet: list[NondetRef] = []
        self.meets: dict[int, list] = {}  # id(subscript) -> literals

    def field_of(self, node) -> tuple[str, str] | None:
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
            return None
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return node.value.id, key.value
        if (
            self.instance is not None
            and isinstance(key, ast.Attribute)
            and isinstance(key.value, ast.Name)
            and key.value.id == "self"
        ):
            field = getattr(self.instance, key.attr, None)
            if isinstance(field, str):
                return node.value.id, field
        return None

    def meet(self, target, value) -> None:
        lit = _literal(value)
        if lit is not None and isinstance(target, ast.Subscript):
            self.meets.setdefault(id(target), []).append(lit)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.meet(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``rec["f"] += x`` is a read-modify-write: the Store-context target
        # is recorded as a write by visit_Subscript; add the implied read.
        self.meet(node.target, node.value)
        hit = self.field_of(node.target)
        if hit is not None:
            self.accesses.append(FieldAccess(*hit, node.target.lineno, False))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        items = [node.left, *node.comparators]
        for a, b in zip(items, items[1:]):
            self.meet(a, b)
            self.meet(b, a)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        hit = self.field_of(node)
        if hit is not None:
            self.accesses.append(FieldAccess(
                *hit, node.lineno, isinstance(node.ctx, (ast.Store, ast.Del)),
                tuple(self.meets.pop(id(node), ())),
            ))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.note_nondet(node.id, node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted_name(node)
        if dotted is None:
            self.generic_visit(node)
        else:  # a whole ``a.b.c`` chain: one reference, no subscripts inside
            self.note_nondet(dotted, node.lineno)

    def note_nondet(self, dotted: str, lineno: int) -> None:
        parts = dotted.split(".")
        if parts[0] in NONDET_ROOTS:
            source = parts[0]
        else:
            hits = [i for i, p in enumerate(parts) if i and p.startswith("random")]
            if not hits:
                return
            source = ".".join(parts[: hits[0] + 1])
        self.nondet.append(NondetRef(source, dotted, lineno))


def scan_kernel(source: KernelSource, instance=None) -> KernelScan:
    """Field subscripts and nondeterminism references of one kernel body.

    ``instance`` resolves ``param[self.attr]`` subscripts whose attribute
    is a field-name string (the :class:`MultiSourceTraversal` idiom).
    """
    scanner = _Scanner(instance)
    for stmt in source.node.body:
        scanner.visit(stmt)
    return KernelScan(tuple(scanner.accesses), tuple(scanner.nondet))


# ======================================================================
# Expression IR
# ======================================================================

@dataclass(frozen=True)
class Const:
    """A fully resolved value (literal, self-attribute, or global)."""

    value: object


@dataclass(frozen=True)
class Param:
    """A kernel parameter used whole (the struct record itself)."""

    name: str


@dataclass(frozen=True)
class FieldRead:
    """``param["field"]`` — one field of a kernel parameter."""

    param: str
    field: str


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/", "//", "%", "**", "&", "|"
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "-", "~", "not"
    operand: object


@dataclass(frozen=True)
class Compare:
    op: str  # "<", ">", "<=", ">=", "==", "!="
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    """A recognized operation: ``min``/``max``/``abs``/``any``/``full``/
    ufunc names (``tanh``, ...)."""

    func: str
    args: tuple


@dataclass(frozen=True)
class Where:
    """``np.where(cond, then, other)`` (also non-constant ``IfExp``)."""

    cond: object
    then: object
    other: object


@dataclass(frozen=True)
class Unknown:
    """Anything the lowerer cannot model; poisons proofs, never refutes."""

    reason: str = ""


class StructVal:
    """A structured-array value under construction (``np.empty_like`` /
    ``np.zeros_like`` / ``.copy()`` results with per-field stores)."""

    __slots__ = ("source", "default", "fields")

    def __init__(self, source: str | None = None, default=None) -> None:
        self.source = source  # param name backing unset field reads
        self.default = default  # Const fallback (zeros_like -> Const(0.0))
        self.fields: dict[str, object] = {}

    def read(self, field: str):
        if field in self.fields:
            return self.fields[field]
        if self.source is not None:
            return FieldRead(self.source, field)
        if self.default is not None:
            return self.default
        return Unknown(f"read of unset struct field {field!r}")

    def copy(self) -> "StructVal":
        out = StructVal(self.source, self.default)
        out.fields = dict(self.fields)
        return out


@dataclass
class Store:
    """One store ``param[field] = expr`` (or ``+=``) inside a kernel."""

    param: str
    field: str
    expr: object  # resolved RHS; for aug stores, the *increment*
    aug: str | None  # "+" for +=; None for plain assignment


@dataclass
class Lowered:
    """Result of lowering one kernel body."""

    source: KernelSource
    returns: list  # lowered return values (with guard context stripped)
    stores: list[Store]
    opaque: bool  # hit a loop / unsupported construct

    @property
    def params(self) -> tuple[str, ...]:
        return self.source.params


_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
    ast.BitAnd: "&", ast.BitOr: "|",
}
_CMPOPS = {
    ast.Lt: "<", ast.Gt: ">", ast.LtE: "<=", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}
_PYOPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": lambda a, b: a / b,
    "//": lambda a, b: a // b, "%": lambda a, b: a % b,
    "**": lambda a, b: a ** b, "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "<": lambda a, b: a < b, ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}

#: numeric wrapper types treated as transparent casts during lowering.
_CAST_TYPES = (
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.int8, np.int16, np.int32, np.int64,
    np.float16, np.float32, np.float64,
)

_MISSING = object()
_MAX_INLINE_DEPTH = 2


def _const_fold(op, left: Const, right: Const):
    try:
        return Const(_PYOPS[op](left.value, right.value))
    except Exception:
        return Unknown(f"constant fold of {op!r} failed")


class Lowerer:
    """Lowers one kernel body (AST) into the expression IR."""

    def __init__(self, globals_: dict, depth: int = 0) -> None:
        self.globals = globals_
        self.env: dict[str, object] = {}
        self.params: list[str] = []
        self.store_env: dict[tuple[str, str], object] = {}
        self.stores: list[Store] = []
        self.returns: list = []
        self.guards: list = []
        self.opaque = False
        self.depth = depth

    # -- statements ----------------------------------------------------
    def exec_block(self, stmts) -> bool:
        """Execute statements; returns True if the block returned."""
        for stmt in stmts:
            if self._stmt(stmt):
                return True
        return False

    def _stmt(self, node) -> bool:
        if isinstance(node, ast.Return):
            value = self._expr(node.value) if node.value is not None else Const(None)
            self.returns.append(value)
            # An unguarded return terminates the block for real; a guarded
            # one only *may* return, so lowering continues past it.
            return not self.guards
        if isinstance(node, ast.Assign):
            value = self._expr(node.value)
            for target in node.targets:
                self._assign(target, value)
            return False
        if isinstance(node, ast.AugAssign):
            op = _BINOPS.get(type(node.op))
            value = self._expr(node.value)
            self._aug_assign(node.target, op, value)
            return False
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._expr(node.value))
            return False
        if isinstance(node, ast.If):
            test = self._expr(node.test)
            if isinstance(test, Const):
                return self.exec_block(node.body if test.value else node.orelse)
            self.guards.append(test)
            try:
                self.exec_block(node.body)
                self.exec_block(node.orelse)
            finally:
                self.guards.pop()
            return False
        if isinstance(node, (ast.Expr, ast.Pass, ast.Assert)):
            # Expression statements (e.g. declared-state method calls) have
            # no dataflow effect on the extraction; C404 audits them on the
            # raw AST.
            return False
        # Loops, with, try and the rest: not modeled.
        self.opaque = True
        return False

    def _assign(self, target, value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            field = self._index_field(target.slice)
            if isinstance(base, ast.Name) and field is not None:
                bound = self.env.get(base.id, _MISSING)
                if isinstance(bound, StructVal):
                    bound.fields[field] = value
                    return
                if base.id in self.params or isinstance(bound, Param):
                    pname = base.id
                    self.stores.append(Store(pname, field, value, None))
                    self.store_env[(pname, field)] = value
                    return
            return  # stores to anything else carry no certifiable dataflow
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._assign(elt, Unknown("tuple unpack"))
            return
        # self.X = ... : hidden-state mutation; C404 flags it from the AST.

    def _aug_assign(self, target, op, value) -> None:
        if op is None:
            self.opaque = True
            return
        if isinstance(target, ast.Name):
            prev = self.env.get(target.id, Unknown("augassign read"))
            self.env[target.id] = BinOp(op, prev, value)
            return
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            field = self._index_field(target.slice)
            base = target.value.id
            if field is None:
                return
            bound = self.env.get(base, _MISSING)
            if isinstance(bound, StructVal):
                bound.fields[field] = BinOp(op, bound.read(field), value)
                return
            if base in self.params or isinstance(bound, Param):
                increment = value if op == "+" else Unknown(f"augassign {op}=")
                self.stores.append(Store(base, field, increment, op))
                prev = self.store_env.get((base, field), FieldRead(base, field))
                self.store_env[(base, field)] = BinOp(op, prev, value)

    def _index_field(self, slc) -> str | None:
        """Resolve a subscript index to a field name when possible."""
        idx = self._expr(slc)
        if isinstance(idx, Const) and isinstance(idx.value, str):
            return idx.value
        return None

    # -- expressions ---------------------------------------------------
    def _expr(self, node):
        if node is None:
            return Const(None)
        if isinstance(node, ast.Constant):
            return Const(node.value)
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id, _MISSING)
            if bound is not _MISSING:
                return bound
            if node.id in self.params:
                return Param(node.id)
            value = self.globals.get(
                node.id, getattr(builtins, node.id, _MISSING)
            )
            if value is _MISSING:
                return Unknown(f"unresolved name {node.id!r}")
            return Const(value)
        if isinstance(node, ast.Attribute):
            base = self._expr(node.value)
            if isinstance(base, Const):
                try:
                    return Const(getattr(base.value, node.attr))
                except AttributeError:
                    return Unknown(f"attribute {node.attr!r}")
            return Unknown(f"attribute {node.attr!r} on symbolic value")
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                return Unknown("unsupported operator")
            return self._binop(op, self._expr(node.left), self._expr(node.right))
        if isinstance(node, ast.BoolOp):
            op = "&" if isinstance(node.op, ast.And) else "|"
            out = self._expr(node.values[0])
            for value in node.values[1:]:
                out = self._binop(op, out, self._expr(value))
            return out
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                return Unknown("chained comparison")
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                return Unknown("unsupported comparison")
            left = self._expr(node.left)
            right = self._expr(node.comparators[0])
            if isinstance(left, Const) and isinstance(right, Const):
                return _const_fold(op, left, right)
            return Compare(op, left, right)
        if isinstance(node, ast.IfExp):
            test = self._expr(node.test)
            if isinstance(test, Const):
                return self._expr(node.body if test.value else node.orelse)
            then = self._expr(node.body)
            other = self._expr(node.orelse)
            if then == other:
                return then
            return Where(test, then, other)
        if isinstance(node, ast.Call):
            return self._call_node(node)
        if isinstance(node, ast.Dict):
            out = {}
            for key, value in zip(node.keys, node.values):
                k = self._expr(key)
                if not (isinstance(k, Const) and isinstance(k.value, str)):
                    return Unknown("non-literal dict key")
                out[k.value] = self._expr(value)
            return out
        if isinstance(node, ast.Tuple):
            return tuple(self._expr(elt) for elt in node.elts)
        return Unknown(type(node).__name__)

    def _subscript(self, node):
        base = self._expr(node.value)
        idx = self._expr(node.slice)
        if isinstance(base, StructVal):
            if isinstance(idx, Const) and isinstance(idx.value, str):
                return base.read(idx.value)
            return base  # positional/slice indexing keeps the struct view
        if isinstance(base, Param):
            if isinstance(idx, Const) and isinstance(idx.value, str):
                key = (base.name, idx.value)
                if key in self.store_env:
                    return self.store_env[key]
                return FieldRead(base.name, idx.value)
            return base  # shape adapters ([:, None], fancy index) pass through
        if isinstance(base, Const):
            if isinstance(idx, Const):
                try:
                    return Const(base.value[idx.value])
                except Exception:
                    return Unknown("subscript on constant")
            return Unknown("symbolic subscript on constant")
        if isinstance(base, (FieldRead, BinOp, Call, Where, Compare, UnaryOp)):
            # Slicing a symbolic array value reshapes it without changing
            # its content for certification purposes.
            if not (isinstance(idx, Const) and isinstance(idx.value, str)):
                return base
        return Unknown("subscript")

    def _binop(self, op, left, right):
        if isinstance(left, Const) and isinstance(right, Const):
            return _const_fold(op, left, right)
        return BinOp(op, left, right)

    def _unary(self, node):
        operand = self._expr(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, Const):
                try:
                    return Const(-operand.value)
                except TypeError:
                    return Unknown("negation of non-numeric constant")
            return UnaryOp("-", operand)
        if isinstance(node.op, ast.Not):
            if isinstance(operand, Const):
                return Const(not operand.value)
            return UnaryOp("not", operand)
        if isinstance(node.op, ast.Invert):
            if isinstance(operand, Const):
                try:
                    return Const(~operand.value)
                except TypeError:
                    return Const(not operand.value)
            return UnaryOp("~", operand)
        return Unknown("unary op")

    # -- calls ----------------------------------------------------------
    def _call_node(self, node: ast.Call):
        args = [self._expr(a) for a in node.args]
        func = node.func
        if isinstance(func, ast.Attribute):
            recv = self._expr(func.value)
            name = func.attr
            if isinstance(recv, Const):
                try:
                    fnval = getattr(recv.value, name)
                except AttributeError:
                    return Unknown(f"method {name!r}")
                return self._call_value(fnval, args)
            # Method call on a symbolic value.
            if name == "copy":
                if isinstance(recv, StructVal):
                    return recv.copy()
                if isinstance(recv, Param):
                    return StructVal(source=recv.name)
                return recv
            if name in ("astype", "ravel", "reshape", "item", "view"):
                return recv
            if name in ("any", "all"):
                return Call(name, (recv,))
            return Unknown(f"method {name!r} on symbolic value")
        fnv = self._expr(func)
        if isinstance(fnv, Const):
            return self._call_value(fnv.value, args)
        return Unknown("call through symbolic value")

    def _call_value(self, fnval, args):
        if fnval is min or fnval is np.minimum or fnval is np.fmin:
            return Call("min", tuple(args))
        if fnval is max or fnval is np.maximum or fnval is np.fmax:
            return Call("max", tuple(args))
        if fnval is np.add:
            if len(args) == 2:
                return self._binop("+", args[0], args[1])
            return Unknown("np.add arity")
        if fnval is abs or fnval is np.abs or fnval is np.absolute:
            return Call("abs", (args[0],)) if args else Unknown("abs arity")
        if fnval is np.where:
            if len(args) == 3:
                if isinstance(args[0], Const):
                    return args[1] if args[0].value else args[2]
                return Where(args[0], args[1], args[2])
            return Unknown("np.where arity")
        if fnval is np.full:
            return Call("full", tuple(args))
        if fnval in (np.asarray, np.ascontiguousarray, np.asanyarray):
            return args[0] if args else Unknown("asarray arity")
        if fnval is np.array:
            if not args:
                return Unknown("np.array arity")
            if isinstance(args[0], StructVal):
                return args[0].copy()
            return args[0]
        if fnval is np.empty_like:
            return StructVal()
        if fnval is np.zeros_like:
            return StructVal(default=Const(0.0))
        if fnval is np.ones_like:
            return StructVal(default=Const(1.0))
        if fnval in (np.any, np.all):
            name = "any" if fnval is np.any else "all"
            return Call(name, (args[0],)) if args else Unknown("any arity")
        if fnval in (bool, int, float) or fnval in _CAST_TYPES:
            if not args:
                return Unknown("cast arity")
            if isinstance(args[0], Const):
                try:
                    return Const(fnval(args[0].value))
                except Exception:
                    return Unknown("constant cast failed")
            return args[0]
        if isinstance(fnval, np.ufunc):
            return Call(fnval.__name__, tuple(args))
        if inspect.isfunction(fnval) or inspect.ismethod(fnval):
            return self._inline(fnval, args)
        return Unknown(f"call to {getattr(fnval, '__name__', fnval)!r}")

    def _inline(self, fnval, args):
        """Inline a small helper (proposal closure, bound method)."""
        if self.depth >= _MAX_INLINE_DEPTH:
            return Unknown("inline depth exceeded")
        source = parse_kernel(fnval)
        if source is None:
            return Unknown("helper source unavailable")
        fdef = source.node
        sub = Lowerer(source.globals, depth=self.depth + 1)
        names = [a.arg for a in fdef.args.args]
        if inspect.ismethod(fnval) and names and names[0] == "self":
            sub.env["self"] = Const(fnval.__self__)
            names = names[1:]
        defaults = fdef.args.defaults
        for i, name in enumerate(names):
            if i < len(args):
                sub.env[name] = args[i]
            else:
                # Right-aligned defaults for missing trailing arguments.
                d = i - (len(names) - len(defaults))
                if 0 <= d < len(defaults):
                    sub.env[name] = sub._expr(defaults[d])
                else:
                    sub.env[name] = Unknown(f"missing argument {name!r}")
        sub.params = list(sub.env.keys())
        sub.exec_block(fdef.body)
        if sub.opaque or not sub.returns:
            return Unknown("helper body not fully lowered")
        first = sub.returns[0]
        if all(r == first for r in sub.returns[1:]):
            return first
        return Unknown("helper has divergent returns")


def lower_kernel(program, name: str) -> Lowered | None:
    """Lower one kernel method of ``program`` (class- or instance-declared);
    ``None`` when the program has no such method or its source is
    unavailable."""
    fn = getattr(program, name, None)
    if fn is None:
        return None
    source = parse_kernel(fn)
    if source is None:
        return None
    low = Lowerer(source.globals)
    args = source.node.args.args
    if args and args[0].arg == "self":
        low.env["self"] = Const(program)
    low.params = list(source.params)
    for p in source.params:
        low.env[p] = Param(p)
    low.exec_block(source.node.body)
    return Lowered(source, low.returns, low.stores, low.opaque)


def lower_kernels(program) -> dict[str, Lowered | None]:
    """:func:`lower_kernel` for every name in :data:`KERNELS`."""
    return {name: lower_kernel(program, name) for name in KERNELS}


# ======================================================================
# IR queries
# ======================================================================

def walk(node):
    """Yield every IR node in ``node`` (pre-order)."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, (BinOp, Compare)):
            stack += [cur.left, cur.right]
        elif isinstance(cur, UnaryOp):
            stack.append(cur.operand)
        elif isinstance(cur, Call):
            stack += list(cur.args)
        elif isinstance(cur, Where):
            stack += [cur.cond, cur.then, cur.other]


def has_unknown(node) -> bool:
    return any(isinstance(n, Unknown) for n in walk(node))


def reads_field(node, param: str, field: str) -> bool:
    return any(
        isinstance(n, FieldRead) and n.param == param and n.field == field
        for n in walk(node)
    )


def reads_param(node, param: str) -> bool:
    return any(
        (isinstance(n, FieldRead) and n.param == param)
        or (isinstance(n, Param) and n.name == param)
        for n in walk(node)
    )


def substitute(node, mapping):
    """Rewrite ``node`` bottom-up through ``mapping`` (FieldRead -> node)."""
    if isinstance(node, FieldRead):
        return mapping.get((node.param, node.field), node)
    if isinstance(node, (BinOp, Compare)):
        return type(node)(node.op, substitute(node.left, mapping),
                          substitute(node.right, mapping))
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, substitute(node.operand, mapping))
    if isinstance(node, Call):
        return Call(node.func, tuple(substitute(a, mapping) for a in node.args))
    if isinstance(node, Where):
        return Where(substitute(node.cond, mapping),
                     substitute(node.then, mapping),
                     substitute(node.other, mapping))
    return node


def simplify(node):
    """Bottom-up algebraic simplification (the C405 proof's normal form)."""
    if isinstance(node, BinOp):
        left, right = simplify(node.left), simplify(node.right)
        if isinstance(left, Const) and isinstance(right, Const):
            out = _const_fold(node.op, left, right)
            if isinstance(out, Const):
                return out
        if node.op == "-" and left == right:
            return Const(0)
        if node.op == "&":
            for a, b in ((left, right), (right, left)):
                if isinstance(a, Const):
                    return b if a.value else Const(False)
        if node.op == "|":
            for a, b in ((left, right), (right, left)):
                if isinstance(a, Const):
                    return Const(True) if a.value else b
        return BinOp(node.op, left, right)
    if isinstance(node, UnaryOp):
        operand = simplify(node.operand)
        if isinstance(operand, Const):
            if node.op == "-":
                try:
                    return Const(-operand.value)
                except TypeError:
                    pass
            else:  # "~" / "not" on a proof-level boolean
                return Const(not operand.value)
        return UnaryOp(node.op, operand)
    if isinstance(node, Compare):
        left, right = simplify(node.left), simplify(node.right)
        if isinstance(left, Const) and isinstance(right, Const):
            out = _const_fold(node.op, left, right)
            if isinstance(out, Const):
                return Const(bool(out.value))
        if left == right:
            if node.op in ("<", ">", "!="):
                return Const(False)
            if node.op in ("<=", ">=", "=="):
                return Const(True)
        return Compare(node.op, left, right)
    if isinstance(node, Call):
        args = tuple(simplify(a) for a in node.args)
        if node.func == "abs" and len(args) == 1 and isinstance(args[0], Const):
            try:
                return Const(abs(args[0].value))
            except TypeError:
                pass
        if node.func in ("any", "all") and len(args) == 1:
            if isinstance(args[0], Const):
                return Const(bool(args[0].value))
        if node.func in ("min", "max") and len(set(args)) == 1:
            return args[0]
        return Call(node.func, args)
    if isinstance(node, Where):
        cond = simplify(node.cond)
        then, other = simplify(node.then), simplify(node.other)
        if isinstance(cond, Const):
            return then if cond.value else other
        if then == other:
            return then
        return Where(cond, then, other)
    return node


def struct_fields(value, names) -> dict | None:
    """Per-field expressions of a lowered record value (a whole parameter
    or a :class:`StructVal`); ``None`` for anything else."""
    if isinstance(value, Param):
        return {f: FieldRead(value.name, f) for f in names}
    if isinstance(value, StructVal):
        return {f: value.read(f) for f in names}
    return None


def messages_returns(lowered: Lowered | None):
    """``(msgs_dict, mask_node)`` per return of a lowered ``messages``;
    ``None`` when the kernel is missing or any return shape could not be
    modeled.  Callers decide whether an opaque lowering's returns count."""
    if lowered is None or not lowered.returns:
        return None
    out = []
    for ret in lowered.returns:
        if not (isinstance(ret, tuple) and len(ret) == 2):
            return None
        msgs, mask = ret
        if not isinstance(msgs, dict):
            return None
        out.append((msgs, mask))
    return out
