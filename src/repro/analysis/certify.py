"""Kernel property certifier: prove the contracts the fast paths assume.

The frontier-gated sparse sweeps, the asynchronous shard schedule, and the
service layer's multi-source batching all lean on *algebraic* properties of
the vertex program that nothing in the :class:`~repro.vertexcentric.program.
VertexProgram` interface enforces: the reducer's identity element must be a
true identity, ``compute`` must fold through the declared commutative/
associative operator, values must move monotonically through the reducer's
lattice, the kernels must be pure, a quiescent vertex must stay quiescent,
and the fixpoint must not depend on reduce order.  This module *proves* (or
refutes) each of those properties per program and caches the result as a
:class:`Certificate` keyed by :func:`program_fingerprint`.

How it works
------------
Kernel bodies are lowered from their Python AST into a small typed
expression IR (:class:`Const` / :class:`FieldRead` / :class:`BinOp` /
:class:`Where` / ...), resolving ``self``-attribute constants through the
program instance and inlining small helper functions (the batching layer's
``TraversalSpec.proposal`` closures, bound helper methods) so that the
instance-declared programs certify exactly like the class-declared ones.
Six checkers then run over the IR:

========  ====================  ==============================================
``C401``  reduce-identity       unmasked messages may only synthesize the
                                reducer's identity element
``C402``  reduce-commutativity  every ``compute`` store to a reduced field is
                                a fold ``f <- op(f, contrib)`` through the
                                declared op, and ``contrib`` never reads ``f``
``C403``  reduce-monotonicity   min/max: accumulator seeded from the current
                                value, emitted unchanged, update compares in
                                the lattice direction; add: fresh accumulator
``C404``  apply-purity          no nondeterminism, no hidden-state mutation
                                outside the declared ``certify_state`` attrs
``C405``  frontier-safety       symbolic proof that ``final == old`` forces
                                the updated mask to ``False``
``C406``  async-safety          reduce-order independence (exact for pure
                                min/max, within tolerance for float add)
========  ====================  ==============================================

Each check returns ``PROVED`` / ``REFUTED`` / ``UNKNOWN``.  ``UNKNOWN``
(the lowering hit something it cannot model) falls back to a seeded,
deterministic property-falsification harness that drives the *actual*
scalar kernels over a tiny graph: a counterexample flips the verdict to
``REFUTED``; a clean pass keeps ``UNKNOWN`` — falsifiers never prove.

Runtime gate
------------
:func:`runtime_gate` is called from :meth:`Engine.run` when
``RunConfig(certify=...)`` is not ``"off"``.  Frontier-gated runs require
:data:`FRONTIER_REQUIRED`, async engines require :data:`ASYNC_REQUIRED`,
and the service batcher requires :data:`BATCH_REQUIRED`.  Under
``certify="enforce"`` a missing certificate raises
:class:`~repro.errors.CertificationError`; under ``certify="warn"`` the run
degrades to the safe full-sweep path and records an ``F407`` violation.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import inspect
import textwrap
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.analysis.violations import CODES, Violation
from repro.errors import CertificationError

__all__ = [
    "PROVED",
    "REFUTED",
    "UNKNOWN",
    "CHECK_CODES",
    "CheckResult",
    "Certificate",
    "program_fingerprint",
    "certify_program",
    "certify_violations",
    "FRONTIER_REQUIRED",
    "ASYNC_REQUIRED",
    "BATCH_REQUIRED",
    "runtime_gate",
]

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"

CHECK_CODES = ("C401", "C402", "C403", "C404", "C405", "C406")

#: certificates a frontier-gated (sparse/auto) run relies on: skipped
#: quiescent shards and identity-valued contributions must be no-ops.
FRONTIER_REQUIRED = ("C401", "C403", "C404", "C405")
#: certificates the async shard schedule relies on: immediate write-back
#: reorders reductions and interleaves stale reads.
ASYNC_REQUIRED = ("C402", "C404", "C406")
#: certificates the service batcher relies on: per-column guard-as-identity
#: encoding plus column-retirement (a fixpoint column stays at its fixpoint).
BATCH_REQUIRED = ("C401", "C402", "C403", "C405")

#: kernel methods whose bodies the certifier inspects.
_KERNELS = (
    "init_compute",
    "compute",
    "update_condition",
    "init_local",
    "messages",
    "apply",
    "begin_iteration",
)

_FALSIFY_SEED = 0xC45A
_FALSIFY_MAX_SWEEPS = 64


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


class _StructVal:
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

    def copy(self) -> "_StructVal":
        out = _StructVal(self.source, self.default)
        out.fields = dict(self.fields)
        return out


@dataclass
class _Store:
    """One store ``param[field] = expr`` (or ``+=``) inside a kernel."""

    param: str
    field: str
    expr: object  # resolved RHS; for aug stores, the *increment*
    aug: str | None  # "+" for +=; None for plain assignment
    guards: tuple  # non-constant branch conditions enclosing the store


@dataclass
class _Lowered:
    """Result of lowering one kernel body."""

    params: list[str]
    returns: list  # lowered return values (with guard context stripped)
    stores: list[_Store]
    opaque: bool  # hit a loop / unsupported construct


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


class _Lowerer:
    """Lowers one kernel body (AST) into the expression IR."""

    def __init__(self, instance, fn, depth: int = 0) -> None:
        self.instance = instance
        self.globals = getattr(fn, "__globals__", {})
        self.env: dict[str, object] = {}
        self.params: list[str] = []
        self.store_env: dict[tuple[str, str], object] = {}
        self.stores: list[_Store] = []
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
        if isinstance(node, (ast.For, ast.While, ast.With, ast.Try)):
            self.opaque = True
            return False
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
                if isinstance(bound, _StructVal):
                    bound.fields[field] = value
                    return
                if base.id in self.params or isinstance(bound, Param):
                    pname = base.id
                    self.stores.append(
                        _Store(pname, field, value, None, tuple(self.guards))
                    )
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
            if isinstance(bound, _StructVal):
                bound.fields[field] = BinOp(op, bound.read(field), value)
                return
            if base in self.params or isinstance(bound, Param):
                if op == "+":
                    self.stores.append(
                        _Store(base, field, value, "+", tuple(self.guards))
                    )
                else:
                    self.stores.append(
                        _Store(
                            base, field, Unknown(f"augassign {op}="), op,
                            tuple(self.guards),
                        )
                    )
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
                return self._const_fold(op, left, right)
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
        if isinstance(base, _StructVal):
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
            return self._const_fold(op, left, right)
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

    @staticmethod
    def _const_fold(op, left: Const, right: Const):
        try:
            return Const(_PYOPS[op](left.value, right.value))
        except Exception:
            return Unknown(f"constant fold of {op!r} failed")

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
                if isinstance(recv, _StructVal):
                    return recv.copy()
                if isinstance(recv, Param):
                    return _StructVal(source=recv.name)
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
            if isinstance(args[0], _StructVal):
                return args[0].copy()
            return args[0]
        if fnval is np.empty_like:
            return _StructVal()
        if fnval is np.zeros_like:
            return _StructVal(default=Const(0.0))
        if fnval is np.ones_like:
            return _StructVal(default=Const(1.0))
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
        fdef = _parse_function(fnval)
        if fdef is None:
            return Unknown("helper source unavailable")
        raw = getattr(fnval, "__func__", fnval)
        sub = _Lowerer(self.instance, raw, depth=self.depth + 1)
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


def _parse_function(fn) -> ast.FunctionDef | None:
    try:
        src = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(src)
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    return None


def _lower_method(program, name: str) -> _Lowered | None:
    """Lower one kernel method of ``program`` (class- or instance-declared)."""
    fn = getattr(program, name, None)
    if fn is None:
        return None
    fdef = _parse_function(fn)
    if fdef is None:
        return None
    low = _Lowerer(program, getattr(fn, "__func__", fn))
    names = [a.arg for a in fdef.args.args]
    if names and names[0] == "self":
        low.env["self"] = Const(program)
        names = names[1:]
    low.params = list(names)
    for p in names:
        low.env[p] = Param(p)
    low.exec_block(fdef.body)
    return _Lowered(
        params=names, returns=low.returns, stores=low.stores, opaque=low.opaque
    )


# ======================================================================
# IR utilities
# ======================================================================

def _walk(node):
    """Yield every IR node in ``node`` (pre-order)."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, BinOp):
            stack += [cur.left, cur.right]
        elif isinstance(cur, UnaryOp):
            stack.append(cur.operand)
        elif isinstance(cur, Compare):
            stack += [cur.left, cur.right]
        elif isinstance(cur, Call):
            stack += list(cur.args)
        elif isinstance(cur, Where):
            stack += [cur.cond, cur.then, cur.other]


def _has_unknown(node) -> bool:
    return any(isinstance(n, Unknown) for n in _walk(node))


def _reads_field(node, param: str, field: str) -> bool:
    return any(
        isinstance(n, FieldRead) and n.param == param and n.field == field
        for n in _walk(node)
    )


def _reads_param(node, param: str) -> bool:
    return any(
        (isinstance(n, FieldRead) and n.param == param)
        or (isinstance(n, Param) and n.name == param)
        for n in _walk(node)
    )


def _substitute(node, mapping):
    """Rewrite ``node`` bottom-up through ``mapping`` (FieldRead -> node)."""
    if isinstance(node, FieldRead):
        return mapping.get((node.param, node.field), node)
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, mapping),
                     _substitute(node.right, mapping))
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, _substitute(node.operand, mapping))
    if isinstance(node, Compare):
        return Compare(node.op, _substitute(node.left, mapping),
                       _substitute(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.func, tuple(_substitute(a, mapping) for a in node.args))
    if isinstance(node, Where):
        return Where(_substitute(node.cond, mapping),
                     _substitute(node.then, mapping),
                     _substitute(node.other, mapping))
    return node


def _simplify(node):
    """Bottom-up algebraic simplification used by the C405 proof."""
    if isinstance(node, BinOp):
        left, right = _simplify(node.left), _simplify(node.right)
        if isinstance(left, Const) and isinstance(right, Const):
            out = _Lowerer._const_fold(node.op, left, right)
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
        operand = _simplify(node.operand)
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
        left, right = _simplify(node.left), _simplify(node.right)
        if isinstance(left, Const) and isinstance(right, Const):
            out = _Lowerer._const_fold(node.op, left, right)
            if isinstance(out, Const):
                return Const(bool(out.value))
        if left == right:
            if node.op in ("<", ">", "!="):
                return Const(False)
            if node.op in ("<=", ">=", "=="):
                return Const(True)
        return Compare(node.op, left, right)
    if isinstance(node, Call):
        args = tuple(_simplify(a) for a in node.args)
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
        cond = _simplify(node.cond)
        then, other = _simplify(node.then), _simplify(node.other)
        if isinstance(cond, Const):
            return then if cond.value else other
        if then == other:
            return then
        return Where(cond, then, other)
    return node


# ======================================================================
# Certificates
# ======================================================================

@dataclass(frozen=True)
class CheckResult:
    """Verdict of one certification check."""

    code: str  # "C401" .. "C406"
    status: str  # PROVED | REFUTED | UNKNOWN
    method: str  # "static" | "falsifier"
    detail: str = ""

    def to_dict(self) -> dict[str, str]:
        entry = CODES.get(self.code)
        return {
            "code": self.code,
            "kind": entry[0] if entry else "unknown",
            "status": self.status,
            "method": self.method,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Certificate:
    """All check verdicts for one program, keyed by its fingerprint."""

    program: str
    fingerprint: str
    checks: tuple

    def result(self, code: str) -> CheckResult | None:
        for check in self.checks:
            if check.code == code:
                return check
        return None

    def proved(self, code: str) -> bool:
        check = self.result(code)
        return check is not None and check.status == PROVED

    @property
    def failed(self) -> tuple:
        """(code, status) pairs for every non-PROVED check."""
        return tuple(
            (c.code, c.status) for c in self.checks if c.status != PROVED
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "fingerprint": self.fingerprint,
            "checks": [c.to_dict() for c in self.checks],
        }


def program_fingerprint(program) -> str:
    """Content hash of everything the certificate's validity depends on:
    kernel sources, dtypes, reducers, tolerance, declared state, and the
    scalar instance configuration (damping, sources, tolerance overrides)."""
    h = hashlib.blake2b(digest_size=16)
    cls = program if isinstance(program, type) else type(program)
    parts = [cls.__module__, cls.__qualname__, str(getattr(program, "name", ""))]
    for attr in ("vertex_dtype", "static_dtype", "edge_dtype"):
        dt = getattr(program, attr, None)
        parts.append("none" if dt is None else str(np.dtype(dt).descr))
    parts.append(repr(sorted(getattr(program, "reduce_ops", {}).items())))
    parts.append(repr(float(getattr(program, "tolerance", 0.0))))
    parts.append(repr(tuple(getattr(program, "certify_state", ()))))
    for name in _KERNELS:
        fn = getattr(program, name, None)
        try:
            parts.append(textwrap.dedent(inspect.getsource(fn)))
        except (OSError, TypeError):
            parts.append(f"{name}:<no source>")
    if not isinstance(program, type):
        try:
            inst_vars = vars(program)
        except TypeError:
            inst_vars = {}
        for key in sorted(inst_vars):
            value = inst_vars[key]
            if isinstance(value, (str, int, float, bool, tuple)):
                parts.append(f"{key}={value!r}")
    h.update("\x1f".join(parts).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


# ======================================================================
# Checkers
# ======================================================================

def _field_base_dtype(program, field: str) -> np.dtype:
    return np.dtype(program.vertex_dtype[field]).base


def _identity_for(op: str, dtype: np.dtype):
    """The reducer's identity element for one field dtype."""
    if op == "add":
        return 0
    if dtype.kind == "f":
        return np.inf if op == "min" else -np.inf
    info = np.iinfo(dtype)
    return info.max if op == "min" else info.min


def _const_equals(value, ident) -> bool:
    try:
        return bool(float(value) == float(ident))
    except (TypeError, ValueError, OverflowError):
        return False


def _skip_constants(node):
    """Constants a message expression can *synthesize* for masked-out /
    retired entries: ``np.where`` arms, ``np.full`` fills, bare constants."""
    out = []
    if isinstance(node, Const):
        out.append(node.value)
        return out
    for n in _walk(node):
        if isinstance(n, Where):
            for arm in (n.then, n.other):
                if isinstance(arm, Const) and arm.value is not None:
                    out.append(arm.value)
        elif isinstance(n, Call) and n.func == "full" and len(n.args) >= 2:
            if isinstance(n.args[1], Const):
                out.append(n.args[1].value)
    return out


def _messages_returns(lowered: _Lowered):
    """Extract ``(msgs_dict, mask_node)`` pairs from lowered ``messages``.

    Returns None when any return shape could not be modeled.
    """
    if not lowered.returns:
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


def _check_identity(program, msgs_low: _Lowered | None) -> CheckResult:
    """C401 — the reducer identity is a true identity for this program."""
    code = "C401"
    if msgs_low is None or msgs_low.opaque:
        return CheckResult(code, UNKNOWN, "static", "messages not lowerable")
    rets = _messages_returns(msgs_low)
    if rets is None:
        return CheckResult(
            code, UNKNOWN, "static", "could not extract (msgs, mask) returns"
        )
    masked_paths = 0
    for field, op in program.reduce_ops.items():
        ident = _identity_for(op, _field_base_dtype(program, field))
        for msgs, mask in rets:
            if isinstance(mask, Unknown):
                return CheckResult(
                    code, UNKNOWN, "static", "mask expression not lowerable"
                )
            if not (isinstance(mask, Const) and mask.value is None):
                masked_paths += 1
                continue  # explicit mask: identity never synthesized
            expr = msgs.get(field)
            if expr is None:
                continue
            if _has_unknown(expr) and not _skip_constants(expr):
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"message for {field!r} not fully lowerable",
                )
            for value in _skip_constants(expr):
                if not _const_equals(value, ident):
                    return CheckResult(
                        code, REFUTED, "static",
                        f"unmasked message for {field!r} synthesizes "
                        f"{value!r}, but the {op} identity is {ident!r}",
                    )
    detail = (
        "guards use an explicit edge mask"
        if masked_paths
        else "every synthesized message constant equals the reducer identity"
    )
    return CheckResult(code, PROVED, "static", detail)


_NOT_FOLD = object()


def _fold_contrib(store: _Store, op: str, local: str, field: str):
    """The non-accumulator operand of a fold store, or ``_NOT_FOLD``."""
    if store.aug == "+":
        return store.expr if op == "add" else _NOT_FOLD
    if store.aug is not None:
        return _NOT_FOLD
    expr = store.expr
    acc = FieldRead(local, field)
    if op in ("min", "max"):
        if isinstance(expr, Call) and expr.func == op:
            args = list(expr.args)
            if args.count(acc) == 1:
                args.remove(acc)
                if len(args) == 1:
                    return args[0]
                return Call(op, tuple(args))
        return _NOT_FOLD
    # add
    if isinstance(expr, BinOp) and expr.op == "+":
        if expr.left == acc:
            return expr.right
        if expr.right == acc:
            return expr.left
    return _NOT_FOLD


def _check_fold(program, comp_low: _Lowered | None) -> CheckResult:
    """C402 — compute folds through the declared commutative reducer."""
    code = "C402"
    if comp_low is None or comp_low.opaque:
        return CheckResult(code, UNKNOWN, "static", "compute not lowerable")
    if not comp_low.params:
        return CheckResult(code, UNKNOWN, "static", "compute has no parameters")
    local = comp_low.params[-1]  # (src_v, src_static, edge, local_v)
    float_add = []
    for store in comp_low.stores:
        if store.param != local or store.field not in program.reduce_ops:
            continue  # undeclared-field writes are the linter's L001
        op = program.reduce_ops[store.field]
        contrib = _fold_contrib(store, op, local, store.field)
        if contrib is _NOT_FOLD:
            return CheckResult(
                code, REFUTED, "static",
                f"store to {store.field!r} is not a fold through the "
                f"declared {op!r} reducer (overwrite or wrong operator)",
            )
        if _has_unknown(contrib):
            return CheckResult(
                code, UNKNOWN, "static",
                f"contribution to {store.field!r} not fully lowerable",
            )
        if _reads_field(contrib, local, store.field):
            return CheckResult(
                code, REFUTED, "static",
                f"contribution to {store.field!r} reads the accumulator "
                "itself, making the fold order-dependent",
            )
        if op == "add" and _field_base_dtype(program, store.field).kind == "f":
            float_add.append(store.field)
    if float_add:
        detail = (
            "fold form verified; float add for "
            f"{sorted(set(float_add))} is associative only to rounding "
            "(certified within the program tolerance, the R203 contract)"
        )
    else:
        detail = "every reduced-field store folds through the declared reducer"
    return CheckResult(code, PROVED, "static", detail)


def _init_seed_exprs(program, init_low: _Lowered | None):
    """Final stored expr per field from scalar ``init_compute``."""
    if init_low is None or init_low.opaque or len(init_low.params) < 2:
        return None
    local, v = init_low.params[0], init_low.params[1]
    seeds: dict[str, object] = {}
    for store in init_low.stores:
        if store.param == local:
            seeds[store.field] = store.expr
    return seeds, local, v


def _apply_model(program, apply_low: _Lowered | None):
    """(final_exprs, updated_expr, local, old) extracted from ``apply``."""
    if apply_low is None or apply_low.opaque or len(apply_low.params) < 2:
        return None
    local, old = apply_low.params[0], apply_low.params[1]
    if len(apply_low.returns) != 1:
        return None
    ret = apply_low.returns[0]
    if not (isinstance(ret, tuple) and len(ret) == 2):
        return None
    final_val, updated = ret
    names = program.vertex_dtype.names or ()
    if isinstance(final_val, Param):
        final_exprs = {f: FieldRead(final_val.name, f) for f in names}
    elif isinstance(final_val, _StructVal):
        final_exprs = {f: final_val.read(f) for f in names}
    else:
        return None
    return final_exprs, updated, local, old


def _find_direction(updated, local: str, old: str, field: str) -> str | None:
    """The comparison direction between local.f and old.f in ``updated``."""
    lhs = FieldRead(local, field)
    rhs = FieldRead(old, field)
    for node in _walk(updated):
        if not isinstance(node, Compare):
            continue
        if node.left == lhs and node.right == rhs:
            return node.op
        if node.left == rhs and node.right == lhs:
            flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
                    "==": "==", "!=": "!="}
            return flip[node.op]
    return None


def _check_monotone(
    program, init_low: _Lowered | None, apply_low: _Lowered | None
) -> CheckResult:
    """C403 — values move monotonically through the reducer's lattice."""
    code = "C403"
    seeded = _init_seed_exprs(program, init_low)
    if seeded is None:
        return CheckResult(code, UNKNOWN, "static", "init_compute not lowerable")
    seeds, _, v = seeded
    model = _apply_model(program, apply_low)
    for field, op in program.reduce_ops.items():
        seed = seeds.get(field)
        if seed is None or isinstance(seed, Unknown):
            return CheckResult(
                code, UNKNOWN, "static",
                f"accumulator seed for {field!r} not lowerable",
            )
        if op in ("min", "max"):
            if seed != FieldRead(v, field):
                return CheckResult(
                    code, REFUTED, "static",
                    f"{op} accumulator for {field!r} is not seeded from the "
                    "current value, so a sweep can move against the lattice",
                )
            if model is None:
                return CheckResult(
                    code, UNKNOWN, "static", "apply not lowerable"
                )
            final_exprs, updated, local, old = model
            if final_exprs.get(field) != FieldRead(local, field):
                return CheckResult(
                    code, REFUTED, "static",
                    f"apply transforms the {op}-reduced field {field!r} "
                    "instead of emitting the accumulator unchanged",
                )
            direction = _find_direction(updated, local, old, field)
            want = "<" if op == "min" else ">"
            if direction is None:
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"no lattice comparison found for {field!r} in apply",
                )
            if direction.rstrip("=") != want:
                return CheckResult(
                    code, REFUTED, "static",
                    f"update compares {field!r} with {direction!r}, against "
                    f"the {op} lattice direction {want!r}",
                )
        else:  # add: the accumulator must be fresh every sweep
            if _has_unknown(seed):
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"accumulator seed for {field!r} not fully lowerable",
                )
            if any(
                isinstance(n, FieldRead) and n.field == field
                for n in _walk(seed)
            ):
                return CheckResult(
                    code, REFUTED, "static",
                    f"add accumulator {field!r} is seeded from itself, so "
                    "contributions compound across sweeps",
                )
    return CheckResult(
        code, PROVED, "static",
        "seed, emission, and update direction match the reducer lattice",
    )


_NONDET_ROOTS = {"random", "time", "datetime", "secrets", "uuid", "os"}


def _dotted_name(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_target_attr(node) -> str | None:
    """The first attribute of a ``self.X...`` store target, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def _check_purity(program) -> CheckResult:
    """C404 — kernels are deterministic and mutate no hidden state."""
    code = "C404"
    state = tuple(getattr(program, "certify_state", ()))
    for name in _KERNELS:
        fn = getattr(program, name, None)
        if fn is None:
            continue
        fdef = _parse_function(fn)
        if fdef is None:
            return CheckResult(
                code, UNKNOWN, "static", f"{name} source unavailable"
            )
        for node in ast.walk(fdef):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                return CheckResult(
                    code, REFUTED, "static",
                    f"{name} declares global/nonlocal state",
                )
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = _dotted_name(node)
                if dotted and (
                    dotted.split(".")[0] in _NONDET_ROOTS
                    or ".random" in dotted
                ):
                    return CheckResult(
                        code, REFUTED, "static",
                        f"{name} references the nondeterminism source "
                        f"{dotted!r}",
                    )
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = _self_target_attr(target)
                if attr is not None and attr not in state:
                    return CheckResult(
                        code, REFUTED, "static",
                        f"{name} mutates undeclared state self.{attr} "
                        "(declare it in certify_state if intentional)",
                    )
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Attribute):
                    attr = _self_target_attr(func)
                    if attr is not None and attr not in state:
                        if attr == func.attr:
                            # Bare self.method(...) statement: opaque effect.
                            detail = (
                                f"{name} calls self.{attr}() for effect"
                            )
                        else:
                            detail = (
                                f"{name} mutates undeclared state "
                                f"self.{attr} through a method call"
                            )
                        return CheckResult(code, REFUTED, "static", detail)
    detail = "kernels are pure"
    if state:
        detail += f" up to declared certify_state {state!r}"
    return CheckResult(code, PROVED, "static", detail)


def _copied_fields(program, init_local_low: _Lowered | None) -> set[str]:
    """Non-reduced fields ``init_local`` carries over verbatim from the
    current values, so at apply time ``local[f] == old[f]``."""
    if init_local_low is None or init_local_low.opaque:
        return set()
    if not init_local_low.params or len(init_local_low.returns) != 1:
        return set()
    current = init_local_low.params[0]
    ret = init_local_low.returns[0]
    names = program.vertex_dtype.names or ()
    out = set()
    for field in names:
        if field in program.reduce_ops:
            continue
        if isinstance(ret, Param) and ret.name == current:
            out.add(field)
        elif isinstance(ret, _StructVal):
            if ret.read(field) == FieldRead(current, field):
                out.add(field)
    return out


def _check_frontier_safety(
    program, apply_low: _Lowered | None, init_local_low: _Lowered | None
) -> CheckResult:
    """C405 — symbolic proof of 'value unchanged => no update claimed'."""
    code = "C405"
    model = _apply_model(program, apply_low)
    if model is None:
        return CheckResult(code, UNKNOWN, "static", "apply not lowerable")
    final_exprs, updated, local, old = model
    copied = _copied_fields(program, init_local_low)
    copy_map = {(local, f): FieldRead(old, f) for f in copied}
    # Hypothesis: the sweep changed nothing, i.e. final == old.  Normalize
    # each final expression through the copied-field identities first, and
    # drop self-referential entries (final[f] == old[f] carries no info).
    quiesce_map = {}
    for field, expr in final_exprs.items():
        norm = _substitute(expr, copy_map)
        if norm == FieldRead(old, field) or _has_unknown(norm):
            continue
        quiesce_map[(old, field)] = norm
    expr = _substitute(updated, copy_map)
    for _ in range(5):
        nxt = _simplify(_substitute(expr, quiesce_map))
        if nxt == expr:
            break
        expr = nxt
    if isinstance(expr, Const):
        if not expr.value:
            return CheckResult(
                code, PROVED, "static",
                "under final == old the updated mask simplifies to False",
            )
        return CheckResult(
            code, REFUTED, "static",
            "a vertex whose value did not change still claims an update "
            "(non-strict comparison), so skipped quiescent shards would "
            "have produced updates",
        )
    return CheckResult(
        code, UNKNOWN, "static",
        "updated mask did not simplify to a constant under final == old",
    )


def _check_async_safety(
    program,
    comp_low: _Lowered | None,
    msgs_low: _Lowered | None,
) -> CheckResult:
    """C406 — the fixpoint does not depend on reduce/visit order."""
    code = "C406"
    ops = set(program.reduce_ops.values())
    add_fields = [f for f, op in program.reduce_ops.items() if op == "add"]
    tolerance = float(getattr(program, "tolerance", 0.0) or 0.0)
    if ops == {"add"} and tolerance > 0.0 and all(
        _field_base_dtype(program, f).kind == "f" for f in add_fields
    ):
        # Independent of how contributions are formed: float relaxation
        # converges to the same fixpoint within tolerance under any
        # schedule (the R203 order-sensitivity contract).
        return CheckResult(
            code, PROVED, "static",
            "float relaxation with a positive tolerance: asynchronous "
            "(chaotic) sweeps reach the same fixpoint within tolerance",
        )
    dest_dependent, why = _dest_dependence(program, comp_low, msgs_low)
    if dest_dependent is None:
        return CheckResult(code, UNKNOWN, "static", why)
    if not dest_dependent and ops <= {"min", "max"}:
        return CheckResult(
            code, PROVED, "static",
            "idempotent min/max folds over source-only contributions are "
            "order-independent exactly",
        )
    if dest_dependent:
        return CheckResult(
            code, REFUTED, "static",
            f"contributions read destination state ({why}) under an exact "
            "(integer or zero-tolerance) reduction, so stale asynchronous "
            "reads change the fixpoint",
        )
    return CheckResult(
        code, UNKNOWN, "static",
        "exact add reduction: order independence not statically provable",
    )


def _dest_dependence(program, comp_low, msgs_low):
    """Does any contribution read destination (accumulator-side) state?

    Returns (bool | None, detail).
    """
    if comp_low is None or comp_low.opaque or not comp_low.params:
        return None, "compute not lowerable"
    local = comp_low.params[-1]
    for store in comp_low.stores:
        if store.param != local or store.field not in program.reduce_ops:
            continue
        op = program.reduce_ops[store.field]
        contrib = _fold_contrib(store, op, local, store.field)
        if contrib is _NOT_FOLD or _has_unknown(contrib):
            return None, f"contribution to {store.field!r} not lowerable"
        if _reads_param(contrib, local):
            return True, f"compute contribution reads {local}"
    if msgs_low is not None and not msgs_low.opaque and len(msgs_low.params) >= 4:
        dest = msgs_low.params[3]
        rets = _messages_returns(msgs_low)
        if rets is None:
            return None, "messages returns not lowerable"
        for msgs, mask in rets:
            for expr in list(msgs.values()) + [mask]:
                if _reads_param(expr, dest):
                    return True, f"messages reads {dest}"
    return False, ""


# ======================================================================
# Falsification harness (UNKNOWN fallback; never proves)
# ======================================================================

def _tiny_setup(program):
    from repro.graph import generators
    from repro.graph.order import edge_order

    graph = generators.rmat(48, 192, seed=7)
    if program.edge_dtype is not None and graph.weights is None:
        graph = generators.random_weights(graph, low=1, high=8, seed=11)
    values = program.initial_values(graph)
    statics = program.static_values(graph)
    edges = program.edge_values(graph)
    order = edge_order(graph.dst)
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.add.at(indptr[1:], graph.dst, 1)
    np.cumsum(indptr, out=indptr)
    return graph, values, statics, edges, indptr, order


def _scalar_sweep(
    program, graph, values, statics, edges, indptr, order,
    *, jacobi: bool = True, rng=None,
) -> int:
    """One reference iteration over the scalar kernels; returns updates.

    ``jacobi=True`` reads from a pre-sweep snapshot (BSP); ``jacobi=False``
    reads live values (Gauss-Seidel, the async schedule's limit case).
    ``rng`` permutes each vertex's in-edge fold order when given.
    """
    read = values.copy() if jacobi else values
    scratch = np.empty(1, dtype=values.dtype)
    updates = 0
    for v in range(graph.num_vertices):
        local = scratch[0]
        program.init_compute(local, read[v])
        eidx = order[indptr[v]:indptr[v + 1]]
        if rng is not None and len(eidx) > 1:
            eidx = rng.permutation(eidx)
        for e in eidx:
            src = graph.src[e]
            program.compute(
                read[src],
                None if statics is None else statics[src],
                None if edges is None else edges[e],
                local,
            )
        if program.update_condition(local, read[v]):
            values[v] = local
            updates += 1
    return updates


def _run_to_fixpoint(program, graph, values, statics, edges, indptr, order,
                     *, jacobi: bool) -> bool:
    for _ in range(_FALSIFY_MAX_SWEEPS):
        if _scalar_sweep(
            program, graph, values, statics, edges, indptr, order,
            jacobi=jacobi,
        ) == 0:
            return True
    return False


def _values_close(program, a: np.ndarray, b: np.ndarray) -> bool:
    tolerance = float(getattr(program, "tolerance", 0.0) or 0.0)
    for field in a.dtype.names:
        av, bv = a[field], b[field]
        if av.dtype.kind == "f" and tolerance > 0.0:
            if not np.allclose(av, bv, rtol=0.0, atol=2.0 * tolerance):
                return False
        elif not np.array_equal(av, bv):
            return False
    return True


def _falsify(code: str, program) -> tuple[str, str]:
    """Deterministic counterexample search for one UNKNOWN check.

    Returns (status, detail) — REFUTED with a counterexample, else UNKNOWN.
    """
    rng = np.random.default_rng(_FALSIFY_SEED)
    try:
        if code == "C401":
            return _falsify_identity(program, rng)
        if code == "C402":
            return _falsify_fold_order(program, rng)
        if code == "C403":
            return _falsify_monotone(program)
        if code == "C404":
            return _falsify_purity(program, rng)
        if code == "C405":
            return _falsify_frontier_safety(program)
        if code == "C406":
            return _falsify_async_safety(program)
    except Exception as exc:  # kernels may reject the synthetic fixture
        return UNKNOWN, f"falsifier could not run: {exc!r}"
    return UNKNOWN, "no falsifier for this check"


def _random_records(dtype: np.dtype, n: int, rng) -> np.ndarray:
    out = np.zeros(n, dtype=dtype)
    for field in dtype.names or ():
        sub = out[field]
        if sub.dtype.kind in "ui":
            sub[...] = rng.integers(0, 16, size=sub.shape).astype(sub.dtype)
        elif sub.dtype.kind == "f":
            sub[...] = rng.random(sub.shape).astype(sub.dtype)
    return out


def _falsify_identity(program, rng) -> tuple[str, str]:
    from repro.vertexcentric.program import apply_reductions

    src = _random_records(program.vertex_dtype, 48, rng)
    statics = (
        None if program.static_dtype is None
        else _random_records(program.static_dtype, 48, rng)
    )
    edges = (
        None if program.edge_dtype is None
        else _random_records(program.edge_dtype, 48, rng)
    )
    dest_old = _random_records(program.vertex_dtype, 8, rng)
    dest_idx = rng.integers(0, 8, size=48)
    msgs, mask = program.messages(src, statics, edges, dest_old)
    base_mask = np.ones(48, dtype=bool) if mask is None else mask.copy()
    # Additionally drop every contribution that equals the identity on all
    # reduced fields: if the identity is real, the reduction cannot move.
    is_identity = np.ones(48, dtype=bool)
    for field, op in program.reduce_ops.items():
        ident = _identity_for(op, _field_base_dtype(program, field))
        eq = np.asarray(msgs[field]) == np.asarray(ident, dtype=msgs[field].dtype)
        while eq.ndim > 1:
            eq = eq.all(axis=-1)
        is_identity &= eq
    local_a = program.init_local(dest_old.copy())
    local_b = program.init_local(dest_old.copy())
    apply_reductions(program, local_a, dest_idx, msgs, mask)
    apply_reductions(program, local_b, dest_idx, msgs, base_mask & ~is_identity)
    if local_a.tobytes() != local_b.tobytes():
        return (
            REFUTED,
            "dropping identity-valued contributions changed the reduction: "
            "the declared identity is not a true identity",
        )
    return UNKNOWN, "no counterexample: identity-valued contributions inert"


def _falsify_fold_order(program, rng) -> tuple[str, str]:
    graph, values, statics, edges, indptr, order = _tiny_setup(program)
    baseline = values.copy()
    _scalar_sweep(
        program, graph, baseline, statics, edges, indptr, order, jacobi=True
    )
    for trial in range(3):
        permuted = values.copy()
        _scalar_sweep(
            program, graph, permuted, statics, edges, indptr, order,
            jacobi=True, rng=rng,
        )
        if not _values_close(program, baseline, permuted):
            return (
                REFUTED,
                f"permuting the per-vertex fold order (trial {trial}) "
                "changed the sweep result beyond tolerance",
            )
    return UNKNOWN, "no counterexample in 3 permuted-fold sweeps"


def _falsify_monotone(program) -> tuple[str, str]:
    graph, values, statics, edges, indptr, order = _tiny_setup(program)
    minmax = {
        f: op for f, op in program.reduce_ops.items() if op in ("min", "max")
    }
    for sweep in range(8):
        before = values.copy()
        if _scalar_sweep(
            program, graph, values, statics, edges, indptr, order, jacobi=True
        ) == 0:
            break
        for field, op in minmax.items():
            moved_up = values[field].astype(np.float64) > before[field].astype(
                np.float64
            )
            moved_down = values[field].astype(np.float64) < before[
                field
            ].astype(np.float64)
            against = moved_up if op == "min" else moved_down
            if bool(np.any(against)):
                return (
                    REFUTED,
                    f"sweep {sweep} moved {field!r} against the {op} "
                    "lattice direction",
                )
    return UNKNOWN, "no counterexample: 8 sweeps stayed lattice-monotone"


def _falsify_purity(program, rng) -> tuple[str, str]:
    src = _random_records(program.vertex_dtype, 32, rng)
    statics = (
        None if program.static_dtype is None
        else _random_records(program.static_dtype, 32, rng)
    )
    edges = (
        None if program.edge_dtype is None
        else _random_records(program.edge_dtype, 32, rng)
    )
    dest_old = _random_records(program.vertex_dtype, 8, rng)
    snapshots = [
        None if a is None else a.copy() for a in (src, statics, edges, dest_old)
    ]

    def run_once():
        msgs, mask = program.messages(src, statics, edges, dest_old)
        local = program.init_local(dest_old.copy())
        final, updated = program.apply(local, dest_old.copy())
        blobs = [np.ascontiguousarray(m).tobytes() for m in msgs.values()]
        blobs.append(b"" if mask is None else np.ascontiguousarray(mask).tobytes())
        blobs.append(np.ascontiguousarray(final).tobytes())
        blobs.append(np.ascontiguousarray(updated).tobytes())
        return b"".join(blobs)

    first, second = run_once(), run_once()
    if first != second:
        return (
            REFUTED,
            "two identical kernel invocations produced different outputs "
            "(hidden state or nondeterminism)",
        )
    for arr, snap in zip((src, statics, edges, dest_old), snapshots):
        if arr is not None and arr.tobytes() != snap.tobytes():
            return REFUTED, "kernels mutated their (read-only) inputs"
    return UNKNOWN, "no counterexample: kernels replayed bit-identically"


def _falsify_frontier_safety(program) -> tuple[str, str]:
    graph, values, statics, edges, indptr, order = _tiny_setup(program)
    if not _run_to_fixpoint(
        program, graph, values, statics, edges, indptr, order, jacobi=True
    ):
        return (
            UNKNOWN,
            f"no fixpoint within {_FALSIFY_MAX_SWEEPS} sweeps on the "
            "falsification fixture",
        )
    before = values.copy()
    updates = _scalar_sweep(
        program, graph, values, statics, edges, indptr, order, jacobi=True
    )
    if updates != 0 or values.tobytes() != before.tobytes():
        return (
            REFUTED,
            f"a quiescent sweep still reported {updates} update(s): "
            "skipped shards would have produced work",
        )
    return UNKNOWN, "no counterexample: the fixpoint sweep stayed quiescent"


def _falsify_async_safety(program) -> tuple[str, str]:
    graph, values, statics, edges, indptr, order = _tiny_setup(program)
    sync_vals = values.copy()
    async_vals = values.copy()
    ok_sync = _run_to_fixpoint(
        program, graph, sync_vals, statics, edges, indptr, order, jacobi=True
    )
    ok_async = _run_to_fixpoint(
        program, graph, async_vals, statics, edges, indptr, order, jacobi=False
    )
    if not (ok_sync and ok_async):
        return (
            UNKNOWN,
            f"no fixpoint within {_FALSIFY_MAX_SWEEPS} sweeps on the "
            "falsification fixture",
        )
    if not _values_close(program, sync_vals, async_vals):
        return (
            REFUTED,
            "synchronous (snapshot) and asynchronous (immediate write-back) "
            "schedules reached different fixpoints",
        )
    return UNKNOWN, "no counterexample: sync and async fixpoints agree"


# ======================================================================
# Entry points
# ======================================================================

def _certify(program, fingerprint: str) -> Certificate:
    low = {name: _lower_method(program, name) for name in _KERNELS}
    checks = [
        _check_identity(program, low["messages"]),
        _check_fold(program, low["compute"]),
        _check_monotone(program, low["init_compute"], low["apply"]),
        _check_purity(program),
        _check_frontier_safety(program, low["apply"], low["init_local"]),
        _check_async_safety(program, low["compute"], low["messages"]),
    ]
    final = []
    for check in checks:
        if check.status == UNKNOWN:
            status, note = _falsify(check.code, program)
            if status == REFUTED:
                check = CheckResult(check.code, REFUTED, "falsifier", note)
            else:
                check = CheckResult(
                    check.code, UNKNOWN, "falsifier",
                    f"{check.detail}; {note}",
                )
        final.append(check)
    return Certificate(
        program=str(getattr(program, "name", type(program).__name__)),
        fingerprint=fingerprint,
        checks=tuple(final),
    )


def certify_program(program, *, cache=None) -> Certificate:
    """Prove/refute all six contracts for ``program``, with caching.

    ``cache`` follows the representation-cache convention: ``None`` uses
    the process-wide default cache, ``False`` disables caching, and a
    :class:`~repro.cache.RepresentationCache` instance is used directly.
    Certificates share the cache with representations, keyed by
    ``("certificate", fingerprint)``.
    """
    from repro.cache import resolve_cache

    if isinstance(program, type):
        try:
            program = program()
        except Exception:
            pass  # certify the class as far as class attributes allow
    fingerprint = program_fingerprint(program)
    store = resolve_cache(cache)
    key = ("certificate", fingerprint)
    if store is not None:
        hit = store.peek(key)
        if isinstance(hit, Certificate):
            return hit
    cert = _certify(program, fingerprint)
    if store is not None:
        store.put(key, cert)
    return cert


def certify_violations(program, *, cache=None) -> list[Violation]:
    """Warning-severity :class:`Violation` records for non-PROVED checks.

    The analysis preflight appends these when ``RunConfig(certify=...)`` is
    not ``"off"``; enforcement (raising / degrading) happens in
    :func:`runtime_gate`, not here.
    """
    cert = certify_program(program, cache=cache)
    out = []
    for code, status in cert.failed:
        check = cert.result(code)
        detail = f" ({check.detail})" if check and check.detail else ""
        out.append(
            Violation(
                code=code,
                message=f"certificate {code} is {status}{detail}",
                subject=cert.program,
                severity="warning",
            )
        )
    return out


def runtime_gate(engine, program, config):
    """Consult the program's certificate before a certify-gated run.

    Called from :meth:`Engine.run` when ``config.certify != "off"``.
    Returns the config to run with — possibly degraded to the safe
    full-sweep path under ``certify="warn"`` — or raises
    :class:`CertificationError` under ``certify="enforce"``.
    """
    tracer = config.tracer
    metrics = tracer.metrics
    name = str(getattr(program, "name", type(program).__name__))
    with tracer.span("analysis.certify.gate", "analysis", program=name):
        cert = certify_program(program, cache=getattr(engine, "cache", None))
        metrics.counter("analysis.certify.certified").inc()
        for check in cert.checks:
            metrics.counter(
                f"analysis.certify.{check.status.lower()}"
            ).inc()
        needs: list[str] = []
        if config.frontier != "off":
            needs.extend(FRONTIER_REQUIRED)
        if getattr(engine, "sync_mode", None) == "async":
            needs.extend(ASYNC_REQUIRED)
        needs = list(dict.fromkeys(needs))
        if not needs:
            return config
        failed = tuple(
            (code, _status_of(cert, code))
            for code in needs
            if not cert.proved(code)
        )
        if not failed:
            metrics.counter("analysis.certify.gate.pass").inc()
            return config
        summary = ", ".join(f"{code}={status}" for code, status in failed)
        if config.certify == "enforce":
            metrics.counter("analysis.certify.gate.refused").inc()
            raise CertificationError(
                f"program {name!r} lacks required kernel certificates for "
                f"this run mode: {summary} (frontier={config.frontier!r}, "
                f"sync_mode={getattr(engine, 'sync_mode', None)!r}); run "
                "'repro check --certify' for details or set certify='warn' "
                "to degrade to the full-sweep path",
                program=name,
                failed=failed,
            )
        violations = [
            Violation(
                code=code,
                message=(
                    f"required certificate {code} is {status} for this "
                    "run mode"
                ),
                subject=name,
                severity="warning",
            )
            for code, status in failed
        ]
        degraded = config
        if config.frontier != "off":
            violations.append(
                Violation(
                    code="F407",
                    message=(
                        f"frontier={config.frontier!r} degraded to the safe "
                        f"full-sweep path: {summary}"
                    ),
                    subject=name,
                    severity="warning",
                )
            )
            degraded = dc_replace(config, frontier="off")
        from repro.analysis.preflight import publish_violations

        publish_violations(metrics, violations)
        metrics.counter("analysis.certify.gate.degraded").inc()
        tracer.emit(
            "analysis.certify.degrade"
            if degraded is not config
            else "analysis.certify.warn",
            "analysis",
            program=name,
            failed=summary,
        )
        return degraded


def _status_of(cert: Certificate, code: str) -> str:
    check = cert.result(code)
    return check.status if check is not None else UNKNOWN
