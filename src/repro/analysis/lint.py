"""AST-based static linter for :class:`~repro.vertexcentric.program.VertexProgram`.

The paper's programming contract (section 4, Table 3) is implicit in how a
program's scalar device functions and vectorized kernels use their record
arguments.  This linter makes it machine-checked:

- every vertex field ``compute`` writes must be declared in ``reduce_ops``
  (the engines apply exactly those ufuncs atomically — an undeclared write
  is silently lost on the parallel paths) — ``L001``;
- declared reducers must come from the commutative/associative set
  ``{min, max, add}`` — ``L002``;
- fields touched by scalar device functions must exist in the declared
  ``vertex_dtype`` / ``static_dtype`` / ``edge_dtype`` — ``L003``;
- scalar and vectorized kernel pairs must cover the same field sets:
  ``messages`` must emit exactly the fields ``compute`` reduces, and an
  overridden ``init_local`` must only initialize fields ``init_compute``
  initializes — ``L004``;
- nondeterminism sources (the :data:`NONDET_ROOTS` modules and
  ``np.random``) are flagged inside device functions — ``L005`` (warning);
- the read-only records (``src_v``, ``src_static``, ``edge``, the current
  value ``v``) must never be written — ``L006``;
- ``name`` / ``vertex_dtype`` / ``reduce_ops`` must be declared — ``L007``;
- reducers that ``compute`` never writes are dead declarations — ``L008``
  (warning);
- a literal constant assigned to or compared against a field must be
  representable in that field's declared dtype (no overflow, no negative
  literal into an unsigned field) — ``L009``.

The linter works on source via :func:`inspect.getsource`; methods whose
source is unavailable (e.g. classes defined in a REPL) are skipped rather
than failed.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np

from repro.analysis.violations import Violation
from repro.vertexcentric.program import VertexProgram

__all__ = ["NONDET_ROOTS", "lint_program"]

_VALID_REDUCE_OPS = frozenset({"min", "max", "add"})

#: Modules whose use makes a kernel nondeterministic: lint ``L005`` flags
#: them and the kernel certifier's ``C404`` refutes purity on them.
NONDET_ROOTS = frozenset({"random", "time", "datetime", "secrets", "uuid", "os"})

#: scalar device functions and the role of each positional parameter
#: (``self`` excluded).  Roles: ``local`` = writable vertex-local record;
#: ``vertex`` / ``static`` / ``edge`` = read-only records of the matching
#: declared dtype.
_SCALAR_ROLES: dict[str, tuple[str, ...]] = {
    "init_compute": ("local", "vertex"),
    "compute": ("vertex", "static", "edge", "local"),
    "update_condition": ("local", "vertex"),
}
_VECTOR_METHODS = ("init_local", "messages", "apply")

#: every kernel L009 scans, with the role of each positional parameter —
#: the scalar table plus the vectorized kernels' array arguments.
_L009_ROLES: dict[str, tuple[str, ...]] = {
    **_SCALAR_ROLES,
    "init_local": ("vertex",),
    "messages": ("vertex", "static", "edge", "vertex"),
    "apply": ("vertex", "vertex"),
}


class _Access:
    __slots__ = ("param", "field", "lineno", "write")

    def __init__(self, param: str, field: str, lineno: int, write: bool):
        self.param = param
        self.field = field
        self.lineno = lineno
        self.write = write


class _AccessCollector(ast.NodeVisitor):
    """Collect ``param["field"]`` reads/writes and nondeterminism refs.

    When the linted program is an *instance*, ``self_obj`` lets the
    collector resolve ``param[self.attr]`` subscripts whose field name is
    a string instance attribute (the :class:`MultiSourceTraversal` idiom,
    whose ``(K,)`` subarray field is picked at construction time).
    """

    def __init__(self, self_obj=None) -> None:
        self.accesses: list[_Access] = []
        self.nondet: list[tuple[str, int]] = []
        self._self = self_obj

    def _subscript_field(self, node: ast.AST):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
            return None
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            return node.value.id, node.slice.value, node.lineno
        if (
            self._self is not None
            and isinstance(node.slice, ast.Attribute)
            and isinstance(node.slice.value, ast.Name)
            and node.slice.value.id == "self"
        ):
            field = getattr(self._self, node.slice.attr, None)
            if isinstance(field, str):
                return node.value.id, field, node.lineno
        return None

    def visit_Subscript(self, node: ast.Subscript) -> None:
        hit = self._subscript_field(node)
        if hit is not None:
            param, fld, line = hit
            self.accesses.append(
                _Access(param, fld, line, isinstance(node.ctx, (ast.Store, ast.Del)))
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``rec["f"] += x`` is a read-modify-write: the Store-context target
        # is recorded as a write by visit_Subscript; add the implied read.
        hit = self._subscript_field(node.target)
        if hit is not None:
            param, fld, line = hit
            self.accesses.append(_Access(param, fld, line, False))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in NONDET_ROOTS:
            self.nondet.append((node.id, node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # np.random / numpy.random (plain ``random`` etc. is visit_Name's).
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            self.nondet.append((f"{node.value.id}.random", node.lineno))
        self.generic_visit(node)


def _own_method(cls: type, name: str):
    """The method ``cls`` (or an intermediate base, but not VertexProgram
    itself) defines, or ``None`` when only the base default exists."""
    for klass in cls.__mro__:
        if klass is VertexProgram:
            return None
        fn = klass.__dict__.get(name)
        if fn is not None:
            return fn
    return None


def _parse(fn) -> tuple[ast.FunctionDef, str, int] | None:
    """``(func_ast, filename, first_line)`` or ``None`` when unavailable."""
    fn = inspect.unwrap(getattr(fn, "__func__", fn))
    try:
        src, first_line = inspect.getsourcelines(fn)
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(textwrap.dedent("".join(src)))
    except SyntaxError:  # pragma: no cover - getsource returned a fragment
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node, fn.__code__.co_filename, first_line
    return None


def _collect(fn, self_obj=None) -> tuple[list[str], _AccessCollector, str, int] | None:
    parsed = _parse(fn)
    if parsed is None:
        return None
    node, filename, first_line = parsed
    params = [a.arg for a in node.args.args]
    if params and params[0] == "self":
        params = params[1:]
    visitor = _AccessCollector(self_obj)
    for stmt in node.body:
        visitor.visit(stmt)
    return params, visitor, filename, first_line


def _loc(filename: str, first_line: int, lineno: int) -> str:
    return f"{filename}:{first_line + lineno - 1}"


def _literal_value(node: ast.AST):
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
        v = _literal_value(node.operand)
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
        return _literal_value(node.args[0])
    return None


def _literal_fits(value, dt: np.dtype) -> bool:
    """Whether ``value`` is representable in field dtype ``dt``.

    Only overflow and sign violations count; a fractional literal in an
    integer field truncates but does not wrap, so it is not L009's call.
    """
    if dt.kind in "ui":
        if isinstance(value, float) and not value.is_integer():
            return True
        info = np.iinfo(dt)
        return info.min <= int(value) <= info.max
    if dt.kind == "f":
        return abs(float(value)) <= float(np.finfo(dt).max)
    return True


def _field_base_dtype(dtype, field: str):
    """Base dtype of ``field`` (unwrapping subarray shapes), or ``None``."""
    fields = getattr(dtype, "fields", None)
    if not fields or field not in fields:
        return None
    ft = fields[field][0]
    return ft.base if ft.subdtype is not None else ft


class _LiteralFitVisitor(ast.NodeVisitor):
    """Collects ``(param, field, literal, lineno)`` pairs for L009.

    A pair is a field subscript meeting a numeric literal in an
    assignment, augmented assignment, or comparison.
    """

    def __init__(self, self_obj=None) -> None:
        self._sub = _AccessCollector(self_obj)._subscript_field
        self.pairs: list[tuple[str, str, object, int]] = []

    def _pair(self, target: ast.AST, value: ast.AST) -> None:
        hit = self._sub(target)
        if hit is None:
            return
        lit = _literal_value(value)
        if lit is None:
            return
        param, field, lineno = hit
        self.pairs.append((param, field, lit, lineno))

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._pair(t, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._pair(node.target, node.value)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        items = [node.left] + list(node.comparators)
        for a, b in zip(items, items[1:]):
            self._pair(a, b)
            self._pair(b, a)
        self.generic_visit(node)


def _dtype_fields(dtype) -> frozenset[str] | None:
    if dtype is None:
        return None
    names = getattr(dtype, "names", None)
    if names is None:
        return None
    return frozenset(names)


def _returned_dict_keys(fn, self_obj=None) -> frozenset[str] | None:
    """String keys of the dict a ``messages`` implementation returns as the
    first tuple element; ``None`` when not statically extractable.

    ``self.attr`` keys resolve through ``self_obj`` when the linted program
    is an instance whose attribute is a field-name string."""
    parsed = _parse(fn)
    if parsed is None:
        return None
    node = parsed[0]
    keys: set[str] = set()
    found = False
    for ret in ast.walk(node):
        if not isinstance(ret, ast.Return) or ret.value is None:
            continue
        value = ret.value
        if isinstance(value, ast.Tuple) and value.elts:
            value = value.elts[0]
        if isinstance(value, ast.Dict):
            found = True
            for k in value.keys:
                if isinstance(k, ast.Constant) and isinstance(k.value, str):
                    keys.add(k.value)
                elif (
                    self_obj is not None
                    and isinstance(k, ast.Attribute)
                    and isinstance(k.value, ast.Name)
                    and k.value.id == "self"
                    and isinstance(getattr(self_obj, k.attr, None), str)
                ):
                    keys.add(getattr(self_obj, k.attr))
                else:
                    return None  # computed key: not statically analyzable
    return frozenset(keys) if found else None


def _local_store_fields(fn, self_obj=None) -> frozenset[str] | None:
    """Fields subscript-assigned anywhere inside ``fn`` (for init_local)."""
    collected = _collect(fn, self_obj)
    if collected is None:
        return None
    _params, visitor, _f, _l = collected
    return frozenset(a.field for a in visitor.accesses if a.write)


def lint_program(program) -> list[Violation]:
    """Statically lint a :class:`VertexProgram` subclass (or instance).

    Returns the list of violations; an empty list means the program
    satisfies every statically checkable part of the paper's contract.
    """
    cls = program if isinstance(program, type) else type(program)
    if not (isinstance(cls, type) and issubclass(cls, VertexProgram)):
        raise TypeError(f"expected a VertexProgram subclass, got {cls!r}")
    # Instance-declared programs (MultiSourceTraversal picks its name,
    # dtype, and reduce_ops per construction) resolve declarations — and
    # ``self.attr`` field subscripts — through the instance.
    inst = None if isinstance(program, type) else program
    out: list[Violation] = []
    subject = cls.__name__

    # ---- declarations (L007 / L002 / L003 / parts of L001) ------------
    if _own_method(cls, "name") is None and (
        inst is None or "name" not in inst.__dict__
    ):
        out.append(Violation(
            "L007", "program does not declare a `name`", subject,
        ))
    vertex_fields = _dtype_fields(getattr(program, "vertex_dtype", None))
    if vertex_fields is None:
        out.append(Violation(
            "L007",
            "program does not declare a structured `vertex_dtype`",
            subject,
        ))
    static_fields = _dtype_fields(getattr(program, "static_dtype", None))
    edge_fields = _dtype_fields(getattr(program, "edge_dtype", None))

    reduce_ops = getattr(program, "reduce_ops", None)
    if not isinstance(reduce_ops, dict) or not reduce_ops:
        out.append(Violation(
            "L007",
            "program does not declare a non-empty `reduce_ops` mapping",
            subject,
        ))
        reduce_ops = {}
    for fld, op in reduce_ops.items():
        if op not in _VALID_REDUCE_OPS:
            out.append(Violation(
                "L002",
                f"reduce_ops[{fld!r}] = {op!r} is not in "
                f"{sorted(_VALID_REDUCE_OPS)}",
                subject,
            ))
        if vertex_fields is not None and fld not in vertex_fields:
            out.append(Violation(
                "L003",
                f"reduce_ops declares field {fld!r} which is not in "
                f"vertex_dtype {sorted(vertex_fields)}",
                subject,
            ))

    role_fields = {
        "local": vertex_fields,
        "vertex": vertex_fields,
        "static": static_fields,
        "edge": edge_fields,
    }
    role_dtype_name = {
        "local": "vertex_dtype",
        "vertex": "vertex_dtype",
        "static": "static_dtype",
        "edge": "edge_dtype",
    }

    compute_writes: set[str] = set()

    # ---- scalar device functions --------------------------------------
    for method, roles in _SCALAR_ROLES.items():
        fn = _own_method(cls, method)
        if fn is None:
            continue
        collected = _collect(fn, inst)
        if collected is None:
            continue
        params, visitor, filename, first_line = collected
        param_role = dict(zip(params, roles))
        for acc in visitor.accesses:
            role = param_role.get(acc.param)
            if role is None:
                continue
            loc = _loc(filename, first_line, acc.lineno)
            fields = role_fields[role]
            if fields is None:
                out.append(Violation(
                    "L003",
                    f"{method} accesses {acc.param}[{acc.field!r}] but the "
                    f"program declares no {role_dtype_name[role]}",
                    subject, loc,
                ))
            elif acc.field not in fields:
                out.append(Violation(
                    "L003",
                    f"{method} accesses {acc.param}[{acc.field!r}]; "
                    f"{role_dtype_name[role]} has {sorted(fields)}",
                    subject, loc,
                ))
            if acc.write:
                if role != "local":
                    out.append(Violation(
                        "L006",
                        f"{method} writes read-only record "
                        f"{acc.param}[{acc.field!r}]",
                        subject, loc,
                    ))
                elif method == "compute":
                    compute_writes.add(acc.field)
                    if reduce_ops and acc.field not in reduce_ops:
                        out.append(Violation(
                            "L001",
                            f"compute writes {acc.param}[{acc.field!r}] "
                            f"which is not declared in reduce_ops "
                            f"{sorted(reduce_ops)}",
                            subject, loc,
                        ))
        for name, lineno in visitor.nondet:
            out.append(Violation(
                "L005",
                f"{method} references nondeterminism source {name!r}",
                subject, _loc(filename, first_line, lineno),
                severity="warning",
            ))

    # ---- vectorized kernels: nondeterminism only ----------------------
    for method in _VECTOR_METHODS:
        fn = _own_method(cls, method)
        if fn is None:
            continue
        collected = _collect(fn, inst)
        if collected is None:
            continue
        _params, visitor, filename, first_line = collected
        for name, lineno in visitor.nondet:
            out.append(Violation(
                "L005",
                f"{method} references nondeterminism source {name!r}",
                subject, _loc(filename, first_line, lineno),
                severity="warning",
            ))

    # ---- literal/dtype fit (L009) -------------------------------------
    role_decl = {
        "local": getattr(program, "vertex_dtype", None),
        "vertex": getattr(program, "vertex_dtype", None),
        "static": getattr(program, "static_dtype", None),
        "edge": getattr(program, "edge_dtype", None),
    }
    for method, roles in _L009_ROLES.items():
        fn = _own_method(cls, method)
        if fn is None:
            continue
        parsed = _parse(fn)
        if parsed is None:
            continue
        node, filename, first_line = parsed
        params = [a.arg for a in node.args.args]
        if params and params[0] == "self":
            params = params[1:]
        param_role = dict(zip(params, roles))
        checker = _LiteralFitVisitor(inst)
        for stmt in node.body:
            checker.visit(stmt)
        for param, field, lit, lineno in checker.pairs:
            role = param_role.get(param)
            if role is None:
                continue
            dt = _field_base_dtype(role_decl[role], field)
            if dt is None or _literal_fits(lit, dt):
                continue
            out.append(Violation(
                "L009",
                f"{method} uses literal {lit!r} with {param}[{field!r}] "
                f"but it is not representable in {dt}",
                subject, _loc(filename, first_line, lineno),
            ))

    # ---- kernel-pair coverage (L004 / L001 / L008) --------------------
    messages_fn = _own_method(cls, "messages")
    if messages_fn is not None:
        msg_fields = _returned_dict_keys(messages_fn, inst)
        if msg_fields is not None:
            for fld in sorted(msg_fields - set(reduce_ops)):
                if reduce_ops:
                    out.append(Violation(
                        "L001",
                        f"messages emits field {fld!r} which is not "
                        f"declared in reduce_ops {sorted(reduce_ops)}",
                        subject,
                    ))
            if compute_writes and msg_fields != compute_writes:
                out.append(Violation(
                    "L004",
                    f"messages emits {sorted(msg_fields)} but compute "
                    f"writes {sorted(compute_writes)}; the scalar and "
                    f"vectorized kernels must cover the same fields",
                    subject,
                ))
    init_local_fn = _own_method(cls, "init_local")
    init_compute_fn = _own_method(cls, "init_compute")
    if init_local_fn is not None and init_compute_fn is not None:
        vec_init = _local_store_fields(init_local_fn, inst)
        collected = _collect(init_compute_fn, inst)
        if vec_init is not None and collected is not None:
            params, visitor, _f, _l = collected
            roles = dict(zip(params, _SCALAR_ROLES["init_compute"]))
            scalar_init = {
                a.field for a in visitor.accesses
                if a.write and roles.get(a.param) == "local"
            }
            extra = vec_init - scalar_init
            if extra:
                out.append(Violation(
                    "L004",
                    f"init_local initializes {sorted(extra)} which "
                    f"init_compute never writes (init pair out of sync)",
                    subject,
                ))

    for fld in sorted(set(reduce_ops) - compute_writes):
        if compute_writes:  # only judge when compute was analyzable
            out.append(Violation(
                "L008",
                f"reduce_ops declares {fld!r} but compute never writes it",
                subject, severity="warning",
            ))
    return out
