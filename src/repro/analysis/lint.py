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
  ``.random`` attributes such as ``np.random``) are flagged inside device
  functions — ``L005`` (warning);
- the read-only records (``src_v``, ``src_static``, ``edge``, the current
  value ``v``) must never be written — ``L006``;
- ``name`` / ``vertex_dtype`` / ``reduce_ops`` must be declared — ``L007``;
- reducers that ``compute`` never writes are dead declarations — ``L008``
  (warning);
- a literal constant assigned to or compared against a field must be
  representable in that field's declared dtype (no overflow, no negative
  literal into an unsigned field) — ``L009``.

Field accesses, literals and nondeterminism references come from the
syntactic scan of :mod:`repro.analysis.kernel_ir`, which sees every
statement (loops included) and reports each finding's ``file:line``;
``L004`` reads the lowered ``messages`` and ``init_local`` kernels.
Methods whose source is unavailable (e.g. classes defined in a REPL) are
skipped rather than failed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.kernel_ir import (
    NONDET_ROOTS,
    Param,
    StructVal,
    field_dtype,
    lower_kernel,
    messages_returns,
    scan_kernel,
)
from repro.analysis.violations import Violation
from repro.vertexcentric.program import VertexProgram

__all__ = ["NONDET_ROOTS", "lint_program"]

_VALID_REDUCE_OPS = frozenset({"min", "max", "add"})

#: every kernel the linter scans, with the role of each positional
#: parameter (``self`` excluded).  Roles: ``local`` = writable
#: vertex-local record; ``vertex`` / ``static`` / ``edge`` = read-only
#: records (or arrays) of the matching declared dtype.
_ROLES: dict[str, tuple[str, ...]] = {
    "init_compute": ("local", "vertex"),
    "compute": ("vertex", "static", "edge", "local"),
    "update_condition": ("local", "vertex"),
    "init_local": ("vertex",),
    "messages": ("vertex", "static", "edge", "vertex"),
    "apply": ("vertex", "vertex"),
}
#: the scalar device functions, whose field accesses L001/L003/L006 check.
_SCALAR = ("init_compute", "compute", "update_condition")
_ROLE_DTYPE = {
    "local": "vertex_dtype",
    "vertex": "vertex_dtype",
    "static": "static_dtype",
    "edge": "edge_dtype",
}


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


def _message_fields(lowered) -> frozenset[str] | None:
    """Keys of the dicts a lowered ``messages`` returns; ``None`` when not
    statically extractable (opaque lowering, computed keys, other shapes)."""
    rets = None if lowered is None or lowered.opaque else messages_returns(lowered)
    return None if rets is None else frozenset(k for msgs, _ in rets for k in msgs)


def _init_local_fields(lowered) -> frozenset[str] | None:
    """Fields of the struct a lowered ``init_local`` returns; ``None`` when
    not statically extractable."""
    if lowered is None or lowered.opaque or len(lowered.returns) != 1:
        return None
    ret = lowered.returns[0]
    if isinstance(ret, StructVal):
        return frozenset(ret.fields)
    if isinstance(ret, Param):
        return frozenset(s.field for s in lowered.stores if s.param == ret.name)
    return None


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
    decl = {
        role: getattr(program, attr, None) for role, attr in _ROLE_DTYPE.items()
    }
    role_fields = {
        role: None if getattr(dt, "names", None) is None else frozenset(dt.names)
        for role, dt in decl.items()
    }

    # ---- declarations (L007 / L002 / L003 / parts of L001) ------------
    if _own_method(cls, "name") is None and (
        inst is None or "name" not in inst.__dict__
    ):
        out.append(Violation(
            "L007", "program does not declare a `name`", subject,
        ))
    vertex_fields = role_fields["vertex"]
    if vertex_fields is None:
        out.append(Violation(
            "L007",
            "program does not declare a structured `vertex_dtype`",
            subject,
        ))

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

    # One lowering and one scan per overridden kernel; each scanned
    # access carries the role of the parameter it subscripts.
    kernels = {}
    for method, roles in _ROLES.items():
        if _own_method(cls, method) is None:
            continue
        lowered = lower_kernel(program, method)
        if lowered is None:
            continue
        param_role = dict(zip(lowered.params, roles))
        scan = scan_kernel(lowered.source, inst)
        accesses = [
            (acc, param_role[acc.param]) for acc in scan.accesses
            if acc.param in param_role
        ]
        kernels[method] = (lowered, accesses, scan.nondet)

    compute_writes: set[str] = set()

    # ---- scalar field accesses (L003 / L006 / L001), then L005 --------
    for method, (lowered, accesses, nondet) in kernels.items():
        loc = lowered.source.location
        for acc, role in accesses if method in _SCALAR else ():
            fields = role_fields[role]
            if fields is None:
                out.append(Violation(
                    "L003",
                    f"{method} accesses {acc.param}[{acc.field!r}] but the "
                    f"program declares no {_ROLE_DTYPE[role]}",
                    subject, loc(acc.lineno),
                ))
            elif acc.field not in fields:
                out.append(Violation(
                    "L003",
                    f"{method} accesses {acc.param}[{acc.field!r}]; "
                    f"{_ROLE_DTYPE[role]} has {sorted(fields)}",
                    subject, loc(acc.lineno),
                ))
            if acc.write:
                if role != "local":
                    out.append(Violation(
                        "L006",
                        f"{method} writes read-only record "
                        f"{acc.param}[{acc.field!r}]",
                        subject, loc(acc.lineno),
                    ))
                elif method == "compute":
                    compute_writes.add(acc.field)
                    if reduce_ops and acc.field not in reduce_ops:
                        out.append(Violation(
                            "L001",
                            f"compute writes {acc.param}[{acc.field!r}] "
                            f"which is not declared in reduce_ops "
                            f"{sorted(reduce_ops)}",
                            subject, loc(acc.lineno),
                        ))
        for ref in nondet:
            out.append(Violation(
                "L005",
                f"{method} references nondeterminism source {ref.source!r}",
                subject, loc(ref.lineno),
                severity="warning",
            ))

    # ---- literal/dtype fit (L009) -------------------------------------
    for method, (lowered, accesses, _nondet) in kernels.items():
        for acc, role in accesses:
            dt = field_dtype(decl[role], acc.field)
            for lit in acc.literals if dt is not None else ():
                if not _literal_fits(lit, dt):
                    out.append(Violation(
                        "L009",
                        f"{method} uses literal {lit!r} with "
                        f"{acc.param}[{acc.field!r}] but it is not "
                        f"representable in {dt}",
                        subject, lowered.source.location(acc.lineno),
                    ))

    # ---- kernel-pair coverage (L004 / L001 / L008) --------------------
    lowered_of = {method: k[0] for method, k in kernels.items()}
    msg_fields = _message_fields(lowered_of.get("messages"))
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
    vec_init = _init_local_fields(lowered_of.get("init_local"))
    if vec_init is not None and "init_compute" in kernels:
        scalar_init = {
            acc.field for acc, role in kernels["init_compute"][1]
            if acc.write and role == "local"
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
