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
Kernel bodies are parsed and lowered by :mod:`repro.analysis.kernel_ir`,
the one front end the linter and the range analysis share, into a small
typed expression IR (``Const`` / ``FieldRead`` / ``BinOp`` / ``Where`` /
...).  ``self``-attribute constants resolve through the program instance
and small helpers (the batching layer's ``TraversalSpec.proposal``
closures, bound helper methods) are inlined, so the instance-declared
programs certify exactly like the class-declared ones.  Six checkers then
run over the IR:

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
import hashlib
import inspect
import textwrap
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.analysis.kernel_ir import (
    KERNELS,
    BinOp,
    Call,
    Compare,
    Const,
    FieldRead,
    Lowered,
    Store,
    Unknown,
    Where,
    field_dtype,
    has_unknown,
    lower_kernels,
    messages_returns,
    reads_field,
    reads_param,
    scan_kernel,
    simplify,
    struct_fields,
    substitute,
    walk,
)
from repro.analysis.violations import CODES, Violation
from repro.errors import CertificationError
from repro.frameworks.scalar import vertex_sweep

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

_FALSIFY_SEED = 0xC45A
#: sweep budget of the falsifiers' fixpoint runs (shared with ranges).
FALSIFY_MAX_SWEEPS = 64


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

    def violations(self, noun: str, refuted: str = "warning") -> list[Violation]:
        """One :class:`Violation` per non-PROVED check, worded
        ``"<noun> <code> is <status> (<detail>)"``: a REFUTED check has
        severity ``refuted``, an UNKNOWN one is a warning."""
        return [
            Violation(
                code=c.code,
                message=f"{noun} {c.code} is {c.status}"
                + (f" ({c.detail})" if c.detail else ""),
                subject=self.program,
                severity=refuted if c.status == REFUTED else "warning",
            )
            for c in self.checks if c.status != PROVED
        ]

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
    for name in KERNELS:
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

def identity_for(op: str, dtype: np.dtype):
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
    for n in walk(node):
        if isinstance(n, Where):
            for arm in (n.then, n.other):
                if isinstance(arm, Const) and arm.value is not None:
                    out.append(arm.value)
        elif isinstance(n, Call) and n.func == "full" and len(n.args) >= 2:
            if isinstance(n.args[1], Const):
                out.append(n.args[1].value)
    return out


def _check_identity(program, msgs_low: Lowered | None) -> CheckResult:
    """C401 — the reducer identity is a true identity for this program."""
    code = "C401"
    if msgs_low is None or msgs_low.opaque:
        return CheckResult(code, UNKNOWN, "static", "messages not lowerable")
    rets = messages_returns(msgs_low)
    if rets is None:
        return CheckResult(
            code, UNKNOWN, "static", "could not extract (msgs, mask) returns"
        )
    masked_paths = 0
    for field, op in program.reduce_ops.items():
        ident = identity_for(op, field_dtype(program.vertex_dtype, field))
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
            if has_unknown(expr) and not _skip_constants(expr):
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


def _fold_contrib(store: Store, op: str, local: str, field: str):
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


def _check_fold(program, comp_low: Lowered | None) -> CheckResult:
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
        if has_unknown(contrib):
            return CheckResult(
                code, UNKNOWN, "static",
                f"contribution to {store.field!r} not fully lowerable",
            )
        if reads_field(contrib, local, store.field):
            return CheckResult(
                code, REFUTED, "static",
                f"contribution to {store.field!r} reads the accumulator "
                "itself, making the fold order-dependent",
            )
        if op == "add" and field_dtype(program.vertex_dtype, store.field).kind == "f":
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


def _init_seed_exprs(program, init_low: Lowered | None):
    """Final stored expr per field from scalar ``init_compute``."""
    if init_low is None or init_low.opaque or len(init_low.params) < 2:
        return None
    local, v = init_low.params[0], init_low.params[1]
    seeds: dict[str, object] = {}
    for store in init_low.stores:
        if store.param == local:
            seeds[store.field] = store.expr
    return seeds, local, v


def apply_model(program, apply_low: Lowered | None):
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
    final_exprs = struct_fields(final_val, program.vertex_dtype.names or ())
    if final_exprs is None:
        return None
    return final_exprs, updated, local, old


def init_local_model(program, init_local_low: Lowered | None):
    """Per-field expressions of the record ``init_local`` returns."""
    low = init_local_low
    if low is None or low.opaque or not low.params or len(low.returns) != 1:
        return None
    return struct_fields(low.returns[0], program.vertex_dtype.names or ())


def _find_direction(updated, local: str, old: str, field: str) -> str | None:
    """The comparison direction between local.f and old.f in ``updated``."""
    lhs = FieldRead(local, field)
    rhs = FieldRead(old, field)
    for node in walk(updated):
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
    program, init_low: Lowered | None, apply_low: Lowered | None
) -> CheckResult:
    """C403 — values move monotonically through the reducer's lattice."""
    code = "C403"
    seeded = _init_seed_exprs(program, init_low)
    if seeded is None:
        return CheckResult(code, UNKNOWN, "static", "init_compute not lowerable")
    seeds, _, v = seeded
    model = apply_model(program, apply_low)
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
            if has_unknown(seed):
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"accumulator seed for {field!r} not fully lowerable",
                )
            if any(
                isinstance(n, FieldRead) and n.field == field
                for n in walk(seed)
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


def _check_purity(program, low) -> CheckResult:
    """C404 — kernels are deterministic and mutate no hidden state."""
    code = "C404"
    state = tuple(getattr(program, "certify_state", ()))
    for name in KERNELS:
        if getattr(program, name, None) is None:
            continue
        if low[name] is None:
            return CheckResult(
                code, UNKNOWN, "static", f"{name} source unavailable"
            )
        source = low[name].source
        nondet = scan_kernel(source).nondet
        if nondet:
            return CheckResult(
                code, REFUTED, "static",
                f"{name} references the nondeterminism source "
                f"{nondet[0].dotted!r}",
            )
        for node in ast.walk(source.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                return CheckResult(
                    code, REFUTED, "static",
                    f"{name} declares global/nonlocal state",
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


def _copied_fields(program, init_local_low: Lowered | None) -> set[str]:
    """Non-reduced fields ``init_local`` carries over verbatim from the
    current values, so at apply time ``local[f] == old[f]``."""
    seeds = init_local_model(program, init_local_low) or {}
    current = init_local_low.params[0] if seeds else None
    return {
        field for field, expr in seeds.items()
        if field not in program.reduce_ops
        and expr == FieldRead(current, field)
    }


def _check_frontier_safety(
    program, apply_low: Lowered | None, init_local_low: Lowered | None
) -> CheckResult:
    """C405 — symbolic proof of 'value unchanged => no update claimed'."""
    code = "C405"
    model = apply_model(program, apply_low)
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
        norm = substitute(expr, copy_map)
        if norm == FieldRead(old, field) or has_unknown(norm):
            continue
        quiesce_map[(old, field)] = norm
    expr = substitute(updated, copy_map)
    for _ in range(5):
        nxt = simplify(substitute(expr, quiesce_map))
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
    comp_low: Lowered | None,
    msgs_low: Lowered | None,
) -> CheckResult:
    """C406 — the fixpoint does not depend on reduce/visit order."""
    code = "C406"
    ops = set(program.reduce_ops.values())
    add_fields = [f for f, op in program.reduce_ops.items() if op == "add"]
    tolerance = float(getattr(program, "tolerance", 0.0) or 0.0)
    if ops == {"add"} and tolerance > 0.0 and all(
        field_dtype(program.vertex_dtype, f).kind == "f" for f in add_fields
    ):
        # Independent of how contributions are formed: float relaxation
        # converges to the same fixpoint within tolerance under any
        # schedule (the R203 order-sensitivity contract).
        return CheckResult(
            code, PROVED, "static",
            "float relaxation with a positive tolerance: asynchronous "
            "(chaotic) sweeps reach the same fixpoint within tolerance",
        )
    dest_dependent, why = dest_dependence(program, comp_low, msgs_low)
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


def dest_dependence(program, comp_low, msgs_low):
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
        if contrib is _NOT_FOLD or has_unknown(contrib):
            return None, f"contribution to {store.field!r} not lowerable"
        if reads_param(contrib, local):
            return True, f"compute contribution reads {local}"
    if msgs_low is not None and not msgs_low.opaque and len(msgs_low.params) >= 4:
        dest = msgs_low.params[3]
        rets = messages_returns(msgs_low)
        if rets is None:
            return None, "messages returns not lowerable"
        for msgs, mask in rets:
            for expr in list(msgs.values()) + [mask]:
                if reads_param(expr, dest):
                    return True, f"messages reads {dest}"
    return False, ""


# ======================================================================
# Falsification harness (UNKNOWN fallback; never proves)
# ======================================================================

def tiny_setup(program):
    from repro.graph import generators

    graph = generators.rmat(48, 192, seed=7)
    if program.edge_dtype is not None and graph.weights is None:
        graph = generators.random_weights(graph, low=1, high=8, seed=11)
    return (graph, program.initial_values(graph),
            program.static_values(graph), program.edge_values(graph))


def _run_to_fixpoint(program, graph, values, statics, edges,
                     *, jacobi: bool) -> bool:
    for _ in range(FALSIFY_MAX_SWEEPS):
        if vertex_sweep(
            program, graph, values, statics, edges, jacobi=jacobi
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


def _random_inputs(program, n: int, rng) -> tuple:
    """Random ``(src, statics, edges, dest_old)`` kernel inputs for ``n``
    edges into 8 destinations; ``None`` where a dtype is undeclared."""

    def records(dtype, size):
        if dtype is None:
            return None
        out = np.zeros(size, dtype=dtype)
        for field in dtype.names or ():
            sub = out[field]
            if sub.dtype.kind in "ui":
                sub[...] = rng.integers(0, 16, size=sub.shape).astype(sub.dtype)
            elif sub.dtype.kind == "f":
                sub[...] = rng.random(sub.shape).astype(sub.dtype)
        return out

    return (
        records(program.vertex_dtype, n), records(program.static_dtype, n),
        records(program.edge_dtype, n), records(program.vertex_dtype, 8),
    )


def _falsify_identity(program, rng) -> tuple[str, str]:
    from repro.vertexcentric.program import apply_reductions

    src, statics, edges, dest_old = _random_inputs(program, 48, rng)
    dest_idx = rng.integers(0, 8, size=48)
    msgs, mask = program.messages(src, statics, edges, dest_old)
    base_mask = np.ones(48, dtype=bool) if mask is None else mask.copy()
    # Additionally drop every contribution that equals the identity on all
    # reduced fields: if the identity is real, the reduction cannot move.
    is_identity = np.ones(48, dtype=bool)
    for field, op in program.reduce_ops.items():
        ident = identity_for(op, field_dtype(program.vertex_dtype, field))
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
    graph, values, statics, edges = tiny_setup(program)
    baseline = values.copy()
    vertex_sweep(program, graph, baseline, statics, edges)
    for trial in range(3):
        permuted = values.copy()
        vertex_sweep(program, graph, permuted, statics, edges, rng=rng)
        if not _values_close(program, baseline, permuted):
            return (
                REFUTED,
                f"permuting the per-vertex fold order (trial {trial}) "
                "changed the sweep result beyond tolerance",
            )
    return UNKNOWN, "no counterexample in 3 permuted-fold sweeps"


def _falsify_monotone(program) -> tuple[str, str]:
    graph, values, statics, edges = tiny_setup(program)
    minmax = {
        f: op for f, op in program.reduce_ops.items() if op in ("min", "max")
    }
    for sweep in range(8):
        before = values.copy()
        if vertex_sweep(program, graph, values, statics, edges) == 0:
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
    src, statics, edges, dest_old = _random_inputs(program, 32, rng)
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
    graph, values, statics, edges = tiny_setup(program)
    if not _run_to_fixpoint(program, graph, values, statics, edges,
                            jacobi=True):
        return (
            UNKNOWN,
            f"no fixpoint within {FALSIFY_MAX_SWEEPS} sweeps on the "
            "falsification fixture",
        )
    before = values.copy()
    updates = vertex_sweep(program, graph, values, statics, edges)
    if updates != 0 or values.tobytes() != before.tobytes():
        return (
            REFUTED,
            f"a quiescent sweep still reported {updates} update(s): "
            "skipped shards would have produced work",
        )
    return UNKNOWN, "no counterexample: the fixpoint sweep stayed quiescent"


def _falsify_async_safety(program) -> tuple[str, str]:
    graph, values, statics, edges = tiny_setup(program)
    sync_vals = values.copy()
    async_vals = values.copy()
    ok_sync = _run_to_fixpoint(
        program, graph, sync_vals, statics, edges, jacobi=True
    )
    ok_async = _run_to_fixpoint(
        program, graph, async_vals, statics, edges, jacobi=False
    )
    if not (ok_sync and ok_async):
        return (
            UNKNOWN,
            f"no fixpoint within {FALSIFY_MAX_SWEEPS} sweeps on the "
            "falsification fixture",
        )
    if not _values_close(program, sync_vals, async_vals):
        return (
            REFUTED,
            "synchronous (snapshot) and asynchronous (immediate write-back) "
            "schedules reached different fixpoints",
        )
    return UNKNOWN, "no counterexample: sync and async fixpoints agree"


def falsify_unknowns(checks, falsify, program) -> tuple:
    """Run ``falsify(code, program)`` on every UNKNOWN check: a
    counterexample flips it to REFUTED, a clean pass keeps it UNKNOWN with
    the falsifier's note appended to the static detail."""
    final = []
    for check in checks:
        if check.status == UNKNOWN:
            status, note = falsify(check.code, program)
            refuted = status == REFUTED
            check = CheckResult(
                check.code, REFUTED if refuted else UNKNOWN, "falsifier",
                note if refuted else f"{check.detail}; {note}",
            )
        final.append(check)
    return tuple(final)


# ======================================================================
# Entry points
# ======================================================================

def _certify(program, fingerprint: str) -> Certificate:
    low = lower_kernels(program)
    checks = [
        _check_identity(program, low["messages"]),
        _check_fold(program, low["compute"]),
        _check_monotone(program, low["init_compute"], low["apply"]),
        _check_purity(program, low),
        _check_frontier_safety(program, low["apply"], low["init_local"]),
        _check_async_safety(program, low["compute"], low["messages"]),
    ]
    return Certificate(
        program=str(getattr(program, "name", type(program).__name__)),
        fingerprint=fingerprint,
        checks=falsify_unknowns(checks, _falsify, program),
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
    return certify_program(program, cache=cache).violations("certificate")


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
            (code, getattr(cert.result(code), "status", UNKNOWN))
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
