"""Abstract interpretation over the kernel IR: value ranges, overflow,
NaN/Inf, and termination certificates that make dtype narrowing sound.

The kernel certifier (:mod:`repro.analysis.certify`) proves *algebraic*
kernel contracts; this module adds the *value* layer.  Two cooperating
abstract domains run over the IR :mod:`repro.analysis.kernel_ir` lowers:

interval domain
    Per-field value ranges.  Each :class:`FieldRange` is a finite interval
    ``[lo, hi]`` plus an optional *INF atom* — the ``UINT_INF`` sentinel of
    unsigned traversal fields (or a float infinity) tracked as a separate
    lattice point so that ``min(INF, x) == x`` and mask refinements such as
    ``src != UINT_INF`` are exact.  Ranges are seeded from the concrete
    ``init`` / ``static_values`` / ``edge_values`` arrays (captured as
    :class:`GraphBounds`), then widened through ``messages`` → reduce →
    ``apply`` to a fixpoint.  Reducer monotonicity (C403) closes min/max
    lattices; traversal-style ``src + c`` messages that do not converge
    pointwise get the *additive path bound* ``init_hi + (V - 1) * c_hi``
    (sound for monotone-nonincreasing stores under any schedule, jacobi or
    chaotic, because every stored value is dominated by some simple-path
    sum).  Float add-reduce programs go through shape-matched closed-form
    rules (PageRank mass conservation, heat-kernel convex combination,
    circuit-sim weighted average) or a bounded generic fixpoint, each
    widened by a roundoff slack of ``tol + (D + 8) * 1.2e-7 * scale``.

dtype/width domain
    Exactness of each evaluated op at the declared (and candidate
    narrower) NumPy dtypes: integer ops must fit ``iinfo`` bounds, float
    ops must stay below ``finfo(float32).max``, and the ``UINT_INF``
    sentinel remaps to the narrow dtype's max value (which therefore must
    stay strictly above the finite range).

Four certificates come out, each PROVED / REFUTED / UNKNOWN with the same
seeded falsifier fallback as the C4xx checks (seed ``0xC45A``):

========  ===================  ===========================================
``W501``  overflow-safety      no evaluated op can wrap or saturate its
                               target field dtype given the graph bounds
``W502``  nonfinite-safety     float kernels cannot produce NaN/Inf from
                               finite inputs (division denominators are
                               proven nonzero or rule-bounded)
``W503``  termination-bound    a static max-iteration certificate from
                               finite lattice height, cross-checked
                               against observed sweeps on a tiny fixture
``W504``  invariant-ranges     per-field invariant value ranges (only
                               claimed when W501 holds, and checked
                               against a program-declared ``value_bounds``
                               contract when present)
========  ===================  ===========================================

Certificates cache in the :class:`~repro.cache.RepresentationCache` under
``("ranges", fingerprint)`` where the fingerprint extends
:func:`~repro.analysis.certify.program_fingerprint` with the graph-bound
inputs.  :func:`narrowing_plan` turns a PROVED W501+W504 pair into a
field → narrower-dtype map consumed by ``RunConfig(narrow="auto")``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.algorithms import rebuild_for
from repro.analysis.certify import (
    FALSIFY_MAX_SWEEPS,
    PROVED,
    REFUTED,
    UNKNOWN,
    Certificate,
    CheckResult,
    apply_model,
    dest_dependence,
    falsify_unknowns,
    identity_for,
    init_local_model,
    program_fingerprint,
    tiny_graph,
    tiny_setup,
)
from repro.analysis.kernel_ir import (
    BinOp,
    Call,
    Compare,
    Const,
    FieldRead,
    Param,
    UnaryOp,
    Unknown,
    Where,
    field_dtype,
    has_unknown,
    lower_kernels,
    messages_returns,
    reads_param,
)
from repro.analysis.violations import Violation
from repro.errors import ProgramKeyError
from repro.frameworks.scalar import vertex_sweep

__all__ = [
    "RANGE_CHECK_CODES",
    "FieldRange",
    "GraphBounds",
    "RangesCertificate",
    "ranges_fingerprint",
    "analyze_ranges",
    "ranges_violations",
    "narrowing_plan",
]

RANGE_CHECK_CODES = ("W501", "W502", "W503", "W504")

#: fixpoint sweeps before the interval iteration gives up (or widens).
_MAX_FIXPOINT_SWEEPS = 8
#: relative float headroom per accumulated term (one float32 ulp, rounded
#: up) used by the roundoff slack that keeps W504 sound for live values.
_F32_ULP = 1.2e-7
_UINT_INF_INT = 0xFFFFFFFF


# ======================================================================
# Graph bounds (the concrete inputs the abstract run is seeded from)
# ======================================================================

def _array_stats(arr: np.ndarray) -> tuple[float, float, bool]:
    """(finite lo, finite hi, has_inf) over a flattened field array."""
    flat = np.asarray(arr).ravel()
    if flat.dtype.kind == "f":
        inf_mask = ~np.isfinite(flat)
    elif flat.dtype == np.uint32:
        inf_mask = flat == np.uint32(_UINT_INF_INT)
    else:
        inf_mask = np.zeros(flat.shape, dtype=bool)
    finite = flat[~inf_mask]
    if finite.size == 0:
        return math.inf, -math.inf, bool(inf_mask.any())
    return (
        float(finite.min()), float(finite.max()), bool(inf_mask.any())
    )


def _fields_stats(arr: np.ndarray | None) -> tuple:
    if arr is None or arr.dtype.names is None:
        return ()
    return tuple(
        (field, _array_stats(arr[field])) for field in arr.dtype.names
    )


@dataclass(frozen=True)
class GraphBounds:
    """Concrete value bounds of one (graph, program) pairing.

    Everything the abstract run assumes about the world: the vertex/edge
    counts, degree bounds, and per-field (lo, hi, has_inf) hulls of the
    initial, static, and edge value arrays.  Hashable — it extends the
    program fingerprint for the ranges-certificate cache key.
    """

    num_vertices: int
    num_edges: int
    max_in_degree: int
    max_out_degree: int
    init: tuple
    static: tuple
    edge: tuple

    @classmethod
    def from_graph(cls, graph, program) -> "GraphBounds":
        in_deg = graph.in_degrees()
        out_deg = graph.out_degrees()
        return cls(
            num_vertices=int(graph.num_vertices),
            num_edges=int(graph.num_edges),
            max_in_degree=int(in_deg.max()) if in_deg.size else 0,
            max_out_degree=int(out_deg.max()) if out_deg.size else 0,
            init=_fields_stats(program.initial_values(graph)),
            static=_fields_stats(program.static_values(graph)),
            edge=_fields_stats(program.edge_values(graph)),
        )

    def key(self) -> tuple:
        return (
            self.num_vertices, self.num_edges,
            self.max_in_degree, self.max_out_degree,
            self.init, self.static, self.edge,
        )


# ======================================================================
# The interval domain
# ======================================================================

@dataclass(frozen=True)
class FieldRange:
    """Finite interval plus an optional INF sentinel atom.

    ``lo > hi`` encodes an empty finite part (the range is then pure INF,
    or bottom when ``has_inf`` is also False).
    """

    lo: float = math.inf
    hi: float = -math.inf
    has_inf: bool = False
    integral: bool = False

    @property
    def finite(self) -> bool:
        return self.lo <= self.hi

    def hull(self, other: "FieldRange") -> "FieldRange":
        return FieldRange(
            min(self.lo, other.lo), max(self.hi, other.hi),
            self.has_inf or other.has_inf,
            self.integral and other.integral,
        )

    def contains(self, other: "FieldRange", *, eps: float = 0.0) -> bool:
        if other.has_inf and not self.has_inf:
            return False
        if not other.finite:
            return True
        scale = max(1.0, abs(self.lo), abs(self.hi))
        return (
            self.finite
            and other.lo >= self.lo - eps * scale
            and other.hi <= self.hi + eps * scale
        )

    def widened(self, slack: float) -> "FieldRange":
        if not self.finite:
            return self
        return FieldRange(
            self.lo - slack, self.hi + slack, self.has_inf, self.integral
        )

    def describe(self) -> str:
        if not self.finite:
            body = "{}" if not self.has_inf else ""
        elif self.integral:
            body = f"[{int(self.lo)}, {int(self.hi)}]"
        else:
            body = f"[{self.lo:.6g}, {self.hi:.6g}]"
        if self.has_inf:
            return (body + " u {INF}") if body else "{INF}"
        return body


def _hull_all(ranges) -> FieldRange | None:
    out = None
    for r in ranges:
        if r is None:
            return None
        out = r if out is None else out.hull(r)
    return out


def _from_stats(stats: tuple[float, float, bool], integral: bool) -> FieldRange:
    lo, hi, has_inf = stats
    return FieldRange(lo, hi, has_inf, integral)


def _min2(a: FieldRange, b: FieldRange) -> FieldRange:
    parts = []
    if a.finite and b.finite:
        parts.append((min(a.lo, b.lo), min(a.hi, b.hi)))
    if a.has_inf and b.finite:
        parts.append((b.lo, b.hi))
    if b.has_inf and a.finite:
        parts.append((a.lo, a.hi))
    lo = min((p[0] for p in parts), default=math.inf)
    hi = max((p[1] for p in parts), default=-math.inf)
    return FieldRange(lo, hi, a.has_inf and b.has_inf,
                      a.integral and b.integral)


def _max2(a: FieldRange, b: FieldRange) -> FieldRange:
    if a.finite and b.finite:
        lo, hi = max(a.lo, b.lo), max(a.hi, b.hi)
    else:
        lo, hi = math.inf, -math.inf
    return FieldRange(lo, hi, a.has_inf or b.has_inf,
                      a.integral and b.integral)


def _const_float(value) -> float | None:
    """A scalar (or 0-d/1-element array) constant as a float, else None."""
    try:
        arr = np.asarray(value)
        if arr.size != 1 or arr.dtype.kind not in "uifb":
            return None
        return float(arr.reshape(())[()])
    except (TypeError, ValueError):
        return None


def _is_inf_const(value) -> bool:
    if isinstance(value, np.uint32) and int(value) == _UINT_INF_INT:
        return True
    if isinstance(value, (float, np.floating)) and math.isinf(value):
        return True
    return False


def _const_range(value) -> FieldRange | None:
    if isinstance(value, (bool, np.bool_)):
        return FieldRange(0.0, 1.0, integral=True)
    if _is_inf_const(value):
        return FieldRange(has_inf=True, integral=isinstance(value, np.uint32))
    if isinstance(value, (int, np.integer)):
        f = float(value)
        return FieldRange(f, f, integral=True)
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return None
        return FieldRange(float(value), float(value))
    if isinstance(value, np.ndarray) and value.dtype.kind in "uif":
        lo, hi, has_inf = _array_stats(value)
        return FieldRange(lo, hi, has_inf, value.dtype.kind in "ui")
    return None


class _Ctx:
    """Side-channel record of everything one evaluation pass observed."""

    __slots__ = ("label", "ops", "unresolved", "div_nodes", "facts")

    def __init__(self, facts: dict | None = None) -> None:
        self.label: np.dtype | None = None  # target-field dtype for ops
        self.ops: list = []  # (dtype | None, op name, lo, hi)
        self.unresolved: list[str] = []
        self.div_nodes: list = []  # IR nodes dividing by a 0-containing range
        self.facts = facts if facts is not None else {}


def _arith(op: str, a: FieldRange, b: FieldRange, node, ctx: _Ctx):
    """Interval arithmetic for one BinOp; records the op for W501."""
    if a.has_inf or b.has_inf:
        # Arithmetic on a value that may be the INF sentinel wraps (uint)
        # or propagates (float); refinement should have stripped it.
        ctx.unresolved.append(
            f"arithmetic {op!r} with a possibly-INF operand"
        )
        return None
    if not (a.finite and b.finite):
        return None
    integral = a.integral and b.integral and op in ("+", "-", "*", "//", "%")
    if op == "+":
        lo, hi = a.lo + b.lo, a.hi + b.hi
    elif op == "-":
        lo, hi = a.lo - b.hi, a.hi - b.lo
    elif op == "*":
        corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        lo, hi = min(corners), max(corners)
    elif op in ("/", "//"):
        if b.lo <= 0.0 <= b.hi:
            ctx.div_nodes.append(node)
            return None
        corners = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
        lo, hi = min(corners), max(corners)
        if op == "//":
            lo, hi = math.floor(lo), math.floor(hi)
    elif op == "%":
        if b.lo <= 0.0:
            ctx.unresolved.append("modulo with non-positive divisor range")
            return None
        lo, hi = 0.0, b.hi - (1.0 if integral else 0.0)
    else:
        ctx.unresolved.append(f"unsupported arithmetic operator {op!r}")
        return None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        # Float overflow in the abstract arithmetic itself; an interval
        # with infinite endpoints would pass every containment test.
        ctx.unresolved.append(f"arithmetic {op!r} overflows the analysis")
        return None
    ctx.ops.append((ctx.label, op, lo, hi))
    return FieldRange(lo, hi, False, integral)


_NEGATE = {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "==": "!=", "!=": "=="}
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}


def _refine(env: dict, cond, branch: bool):
    """Environment refined by ``cond == branch``; None when infeasible.

    Only simple ``field <op> const`` atoms refine; everything else is a
    sound no-op.  ``&`` distributes on the True branch, ``|`` on False.
    """
    if isinstance(cond, Const):
        truth = bool(np.all(cond.value)) if cond.value is not None else False
        return env if truth == branch else None
    if isinstance(cond, UnaryOp) and cond.op in ("not", "~"):
        return _refine(env, cond.operand, not branch)
    if isinstance(cond, BinOp) and cond.op in ("&", "|"):
        both_on = branch if cond.op == "&" else not branch
        if both_on:
            env = _refine(env, cond.left, branch)
            if env is None:
                return None
            return _refine(env, cond.right, branch)
        return env  # a disjunctive split would need union environments
    if not isinstance(cond, Compare):
        return env
    op, lhs, rhs = cond.op, cond.left, cond.right
    if isinstance(lhs, Const) and isinstance(rhs, FieldRead):
        op, lhs, rhs = _FLIP[op], rhs, lhs
    if not (isinstance(lhs, FieldRead) and isinstance(rhs, Const)):
        return env
    if not branch:
        op = _NEGATE[op]
    key = (lhs.param, lhs.field)
    r = env.get(key)
    if r is None:
        return env
    r2 = _refine_range(r, op, rhs.value)
    if r2 is None:
        return None
    env = dict(env)
    env[key] = r2
    return env


def _refine_range(r: FieldRange, op: str, const) -> FieldRange | None:
    """``r`` restricted to values satisfying ``value <op> const``."""
    if _is_inf_const(const):
        if op == "==":
            return FieldRange(has_inf=True, integral=r.integral) \
                if r.has_inf else None
        if op == "!=":
            r2 = dc_replace(r, has_inf=False)
            return r2 if r2.finite else None
        # The sentinel is the dtype maximum, so e.g. `x < INF` is `x != INF`.
        if op in ("<", "<="):
            r2 = dc_replace(r, has_inf=False) if op == "<" else r
            return r2 if (r2.finite or r2.has_inf) else None
        return r
    try:
        c = float(const)
    except (TypeError, ValueError):
        return r
    step = 1.0 if r.integral else 0.0
    lo, hi, has_inf = r.lo, r.hi, r.has_inf
    if op == "==":
        if r.finite and lo <= c <= hi:
            return FieldRange(c, c, False, r.integral)
        return None
    if op == "!=":
        if r.integral and r.finite:
            if lo == c == hi:
                lo, hi = math.inf, -math.inf
            elif lo == c:
                lo = lo + 1
            elif hi == c:
                hi = hi - 1
        elif r.finite:
            if lo == c:
                lo = math.nextafter(c, math.inf)
            if hi == c:
                hi = math.nextafter(c, -math.inf)
    elif op in ("<", "<="):
        bound = c - step if op == "<" else c
        hi = min(hi, bound)
        has_inf = False  # the sentinel is the dtype maximum
    elif op in (">", ">="):
        bound = c + step if op == ">" else c
        lo = max(lo, bound)
    out = FieldRange(lo, hi, has_inf, r.integral)
    return out if (out.finite or out.has_inf) else None


_MONOTONE_CALLS = {
    "tanh": (math.tanh, -1.0, 1.0),
    "sqrt": (math.sqrt, 0.0, math.inf),
    "exp": (math.exp, 0.0, math.inf),
}


def _eval(node, env: dict, ctx: _Ctx) -> FieldRange | None:
    """Range of one IR expression under ``env``; None when not modeled."""
    fact = ctx.facts.get(id(node))
    if fact is not None:
        return fact
    if isinstance(node, Const):
        r = _const_range(node.value)
        if r is None:
            ctx.unresolved.append(
                f"constant {type(node.value).__name__} has no range"
            )
        return r
    if isinstance(node, FieldRead):
        r = env.get((node.param, node.field))
        if r is None:
            ctx.unresolved.append(
                f"no range for {node.param}[{node.field!r}]"
            )
        return r
    if isinstance(node, BinOp):
        if node.op in ("&", "|"):
            ctx.unresolved.append("bitwise op in value position")
            return None
        a = _eval(node.left, env, ctx)
        b = _eval(node.right, env, ctx)
        if a is None or b is None:
            return None
        return _arith(node.op, a, b, node, ctx)
    if isinstance(node, UnaryOp):
        if node.op == "-":
            r = _eval(node.operand, env, ctx)
            if r is None:
                return None
            if r.has_inf:
                ctx.unresolved.append("negation of a possibly-INF value")
                return None
            return FieldRange(-r.hi, -r.lo, False, r.integral)
        ctx.unresolved.append(f"unary {node.op!r} in value position")
        return None
    if isinstance(node, Compare):
        return FieldRange(0.0, 1.0, integral=True)
    if isinstance(node, Where):
        return _eval_where(node, env, ctx)
    if isinstance(node, Call):
        return _eval_call(node, env, ctx)
    if isinstance(node, Param):
        ctx.unresolved.append(f"whole-record parameter {node.name!r}")
        return None
    if isinstance(node, Unknown):
        ctx.unresolved.append(f"unlowered expression ({node.reason})")
        return None
    ctx.unresolved.append(type(node).__name__)
    return None


def _eval_where(node: Where, env: dict, ctx: _Ctx) -> FieldRange | None:
    arms = []
    for arm, branch in ((node.then, True), (node.other, False)):
        env2 = _refine(env, node.cond, branch)
        if env2 is None:
            continue  # this arm is unreachable under the refinement
        r = _eval(arm, env2, ctx)
        if r is None:
            return None
        arms.append(r)
    if not arms:
        ctx.unresolved.append("no feasible where() arm")
        return None
    return _hull_all(arms)


def _eval_call(node: Call, env: dict, ctx: _Ctx) -> FieldRange | None:
    if node.func == "full":
        # np.full(shape, fill): only the fill value carries a range.
        if len(node.args) >= 2:
            return _eval(node.args[-1], env, ctx)
        ctx.unresolved.append("full() without a fill value")
        return None
    if node.func in ("min", "max"):
        fold = _min2 if node.func == "min" else _max2
        out = None
        for arg in node.args:
            r = _eval(arg, env, ctx)
            if r is None:
                return None
            out = r if out is None else fold(out, r)
        return out
    if node.func == "abs":
        r = _eval(node.args[0], env, ctx) if node.args else None
        if r is None or r.has_inf or not r.finite:
            ctx.unresolved.append("abs of an unmodeled range")
            return None
        lo = 0.0 if r.lo <= 0.0 <= r.hi else min(abs(r.lo), abs(r.hi))
        return FieldRange(lo, max(abs(r.lo), abs(r.hi)), False, r.integral)
    if node.func in ("any", "all"):
        return FieldRange(0.0, 1.0, integral=True)
    if node.func in _MONOTONE_CALLS:
        fn, flo, fhi = _MONOTONE_CALLS[node.func]
        r = _eval(node.args[0], env, ctx) if node.args else None
        if r is None or r.has_inf or not r.finite:
            ctx.unresolved.append(f"{node.func} of an unmodeled range")
            return None
        try:
            lo, hi = fn(r.lo), fn(r.hi)
        except ValueError:
            ctx.unresolved.append(f"{node.func} outside its domain")
            return None
        ctx.ops.append((ctx.label, node.func, lo, hi))
        return FieldRange(max(lo, flo), min(hi, fhi), False, False)
    ctx.unresolved.append(f"call to {node.func!r}")
    return None


# ======================================================================
# Certificate record
# ======================================================================

@dataclass(frozen=True)
class RangesCertificate(Certificate):
    """W501–W504 verdicts plus the derived per-field invariant ranges."""

    ranges: tuple  # ((field, (lo, hi, has_inf)), ...) for derived fields
    bounds: tuple  # GraphBounds.key() snapshot the proof is relative to

    def field_range(self, field: str) -> tuple | None:
        for name, triple in self.ranges:
            if name == field:
                return triple
        return None

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "ranges": {
                name: {"lo": lo, "hi": hi, "has_inf": has_inf}
                for name, (lo, hi, has_inf) in self.ranges
            },
        }


def ranges_fingerprint(program, bounds: GraphBounds) -> str:
    """Program fingerprint extended with the graph-bound inputs."""
    h = hashlib.blake2b(digest_size=16)
    h.update(program_fingerprint(program).encode("ascii"))
    h.update(repr(bounds.key()).encode("utf-8", "backslashreplace"))
    h.update(repr(sorted(
        (k, tuple(v) if isinstance(v, (tuple, list)) else v)
        for k, v in (getattr(program, "value_bounds", None) or {}).items()
    )).encode("utf-8"))
    return h.hexdigest()


# ======================================================================
# The analysis proper
# ======================================================================

class _Analysis:
    def __init__(self, program, graph, cert, bounds: GraphBounds) -> None:
        self.program = program
        self.graph = graph
        self.cert = cert  # the C4xx certificate (preconditions)
        self.bounds = bounds
        self.low = lower_kernels(program)
        self.seeds = init_local_model(program, self.low["init_local"])
        self.model = apply_model(program, self.low["apply"])
        # Do contributions read only source state (C406's static half)?
        self.source_only = dest_dependence(
            program, self.low["compute"], self.low["messages"]
        )[0] is False
        self.facts: dict[int, FieldRange] = {}
        self.ranges: dict[str, FieldRange] = {}
        self.range_notes: dict[str, str] = {}
        self.derived = False

    # -- environments ---------------------------------------------------
    def _integral(self, field: str) -> bool:
        return field_dtype(self.program.vertex_dtype, field).kind in "ui"

    def _init_ranges(self) -> dict[str, FieldRange]:
        return {
            field: _from_stats(stats, self._integral(field))
            for field, stats in self.bounds.init
        }

    def _msgs_env(self, R: dict[str, FieldRange]) -> dict | None:
        ml = self.low.get("messages")
        if ml is None or ml.opaque or len(ml.params) < 4:
            return None
        p_src, p_static, p_edge, p_dest = ml.params[:4]
        env: dict = {}
        for field, r in R.items():
            env[(p_src, field)] = r
            env[(p_dest, field)] = r
        for param, attr, stats_of in (
            (p_static, "static_dtype", self.bounds.static),
            (p_edge, "edge_dtype", self.bounds.edge),
        ):
            # Integrality follows the declared dtype (integral if undeclared).
            dt = getattr(self.program, attr, None)
            for field, stats in stats_of:
                fdt = field_dtype(dt, field)
                env[(param, field)] = _from_stats(
                    stats, fdt is None or fdt.kind in "ui"
                )
        return env

    def _message_ranges(self, R, ctx: _Ctx, *, label: bool = False):
        """Per-return dict field -> FieldRange under mask refinement.

        Returns None when the message structure cannot be modeled.
        """
        rets = messages_returns(self.low["messages"])
        env = self._msgs_env(R)
        if rets is None or env is None:
            return None
        out = []
        for msgs, mask in rets:
            env2 = env
            if not (isinstance(mask, Const) and mask.value is None):
                env2 = _refine(env, mask, True)
                if env2 is None:
                    continue  # statically unreachable return
            evald = {}
            for field, expr in msgs.items():
                if label:
                    ctx.label = field_dtype(self.program.vertex_dtype, field)
                evald[field] = _eval(expr, env2, ctx)
                ctx.label = None
            out.append(evald)
        return out

    # -- fixpoints ------------------------------------------------------
    def _reduce_identity_range(self, op: str, field: str) -> FieldRange:
        ident = identity_for(
            op, field_dtype(self.program.vertex_dtype, field)
        )
        r = _const_range(
            np.uint32(ident) if (
                not isinstance(ident, float)
                and int(ident) == _UINT_INF_INT
            ) else ident
        )
        return r if r is not None else FieldRange()

    def _is_identity_range(self, r: FieldRange, op: str, field: str) -> bool:
        ident = self._reduce_identity_range(op, field)
        if ident.has_inf:
            return r.has_inf and not r.finite
        return (
            not r.has_inf and r.finite
            and r.lo == r.hi == ident.lo == ident.hi
        )

    def derive(self) -> None:
        ops = set(self.program.reduce_ops.values())
        names = self.program.vertex_dtype.names or ()
        if not ops or not names:
            return
        all_int = all(self._integral(f) for f in self.program.reduce_ops)
        all_float = all(
            field_dtype(self.program.vertex_dtype, f).kind == "f"
            for f in names
        )
        if ops <= {"min", "max"} and all_int \
                and set(names) == set(self.program.reduce_ops):
            self._derive_minmax()
        elif ops == {"add"} and all_float and self.seeds is not None \
                and self.model is not None:
            for rule in (self._rule_pr_mass, self._rule_hs_convex,
                         self._rule_cs_ratio, self._derive_add_generic):
                if rule():
                    break
        if self.derived and any(f not in self.ranges for f in names):
            self.derived = False

    def _derive_minmax(self) -> None:
        """Interval fixpoint for pure min/max reducers, with the additive
        path-bound widening for traversal-style ``src + c`` messages."""
        if not (self.cert.proved("C401") and self.cert.proved("C403")
                and self.source_only):
            return
        R = self._init_ranges()
        if set(R) != set(self.program.reduce_ops):
            return
        reduce_ops = self.program.reduce_ops
        converged = False
        for _sweep in range(_MAX_FIXPOINT_SWEEPS):
            ctx = _Ctx(self.facts)
            msgrs = self._message_ranges(R, ctx)
            if msgrs is None or ctx.unresolved:
                return
            newR = {}
            for field, op in reduce_ops.items():
                contribs = []
                for evald in msgrs:
                    r = evald.get(field)
                    if r is None and field in evald:
                        return
                    if r is None or self._is_identity_range(r, op, field):
                        continue
                    contribs.append(r)
                m = _hull_all(contribs) if contribs else None
                if m is None:
                    newR[field] = R[field]
                else:
                    fold = _min2 if op == "min" else _max2
                    newR[field] = R[field].hull(fold(R[field], m))
            if all(R[f].contains(newR[f]) for f in R):
                converged = True
                break
            R = newR
        if converged:
            self.ranges = R
            for field in R:
                self.range_notes[field] = "interval fixpoint"
            self.derived = True
            return
        self._widen_additive(R)

    def _widen_additive(self, R: dict[str, FieldRange]) -> None:
        """Path-bound widening: a min-reduced field whose every message is
        ``src[f] + c`` with ``c >= 0`` (possibly masked / Where-guarded by
        the sentinel test) is bounded by ``init_hi + (V - 1) * c_hi``:
        under C403-monotone stores every finite stored value is dominated
        by a simple-path sum, for jacobi and chaotic schedules alike."""
        rets = messages_returns(self.low["messages"])
        env = self._msgs_env(self._init_ranges())
        if rets is None or env is None:
            return
        p_src = self.low["messages"].params[0]
        init = self._init_ranges()
        out: dict[str, FieldRange] = {}
        for field, op in self.program.reduce_ops.items():
            if op != "min":
                return
            c_hi = 0.0
            for msgs, _mask in rets:
                expr = msgs.get(field)
                if expr is None:
                    continue
                r_id = _Ctx(self.facts)
                const_r = _eval(expr, env, r_id) if isinstance(expr, (Const, Call)) else None
                if const_r is not None and \
                        self._is_identity_range(const_r, op, field):
                    continue  # identity-synthesizing path (retired columns)
                cr = self._match_additive(expr, p_src, field, env)
                if cr is None:
                    return
                c_hi = max(c_hi, cr.hi)
            seed = init[field]
            if not seed.finite:
                return
            V = self.bounds.num_vertices
            out[field] = FieldRange(
                seed.lo, seed.hi + (V - 1) * c_hi, seed.has_inf,
                seed.integral,
            )
        self.ranges = out
        for field in out:
            self.range_notes[field] = (
                "additive path bound init_hi + (V-1)*c_hi under C403 "
                "monotone stores (schedule-independent)"
            )
        self.derived = True

    def _match_additive(self, expr, p_src: str, field: str, env):
        """The constant-increment range of a ``src[f] + c`` message."""
        op = self.program.reduce_ops[field]
        while isinstance(expr, Where):
            picked = None
            for arm in (expr.then, expr.other):
                if isinstance(arm, Const):
                    r = _const_range(arm.value)
                    if r is not None and self._is_identity_range(r, op, field):
                        continue
                picked = arm if picked is None else picked
            other_arms = [a for a in (expr.then, expr.other) if a is not picked]
            if picked is None or not all(
                isinstance(a, Const) and (
                    (r := _const_range(a.value)) is not None
                    and self._is_identity_range(r, op, field)
                )
                for a in other_arms
            ):
                return None
            expr = picked
        if not (isinstance(expr, BinOp) and expr.op == "+"):
            return None
        acc = FieldRead(p_src, field)
        if expr.left == acc:
            cexpr = expr.right
        elif expr.right == acc:
            cexpr = expr.left
        else:
            return None
        ml = self.low["messages"]
        p_dest = ml.params[3] if len(ml.params) >= 4 else None
        for bad in (p_src, p_dest):
            if bad is not None and reads_param(cexpr, bad):
                return None
        ctx = _Ctx(self.facts)
        cr = _eval(cexpr, env, ctx)
        if cr is None or ctx.unresolved or cr.has_inf or not cr.finite:
            return None
        if cr.lo < 0.0:
            return None
        return cr

    # -- float add-reduce -----------------------------------------------
    def _float_slack(self, r: FieldRange) -> float:
        tol = float(getattr(self.program, "tolerance", 0.0) or 0.0)
        scale = max(1.0, abs(r.lo), abs(r.hi)) if r.finite else 1.0
        return tol + (self.bounds.max_in_degree + 8) * _F32_ULP * scale

    def _finish_float(self, ranges: dict[str, FieldRange], note: str) -> bool:
        self.ranges = {
            f: r.widened(self._float_slack(r)) for f, r in ranges.items()
        }
        for field in self.ranges:
            self.range_notes[field] = note
        self.derived = True
        return True

    def _single_return(self):
        rets = messages_returns(self.low.get("messages"))
        if rets is None or len(rets) != 1:
            return None
        return rets[0]

    def _rule_pr_mass(self) -> bool:
        """PageRank-shaped mass conservation: ``msg = src[f] / max(deg, 1)``
        over concrete out-degrees with an affine damped apply keeps the
        total mass bounded, so ``hi = a + b * S_max + tol``."""
        reduce_ops = self.program.reduce_ops
        if len(reduce_ops) != 1:
            return False
        (field, op), = reduce_ops.items()
        names = self.program.vertex_dtype.names or ()
        tol = float(getattr(self.program, "tolerance", 0.0) or 0.0)
        if op != "add" or tuple(names) != (field,) or tol <= 0.0:
            return False
        ret = self._single_return()
        if ret is None:
            return False
        msgs, mask = ret
        ml = self.low["messages"]
        p_src, p_static = ml.params[0], ml.params[1]
        expr = msgs.get(field)
        if not (isinstance(expr, BinOp) and expr.op == "/"
                and expr.left == FieldRead(p_src, field)):
            return False
        denom = expr.right
        if not (isinstance(denom, Call) and denom.func == "max"
                and len(denom.args) == 2):
            return False
        deg_reads = [a for a in denom.args if isinstance(a, FieldRead)
                     and a.param == p_static]
        ones = [a for a in denom.args if isinstance(a, Const)
                and not has_unknown(a)
                and _const_float(a.value) == 1.0]
        if len(deg_reads) != 1 or len(ones) != 1:
            return False
        deg_field = deg_reads[0].field
        if not (isinstance(mask, Compare) and mask.op == "!="
                and FieldRead(p_static, deg_field) in (mask.left, mask.right)):
            return False
        statics = self.program.static_values(self.graph)
        if statics is None or not np.array_equal(
            np.asarray(statics[deg_field], dtype=np.int64),
            self.graph.out_degrees(),
        ):
            return False
        if self.seeds.get(field) != Const(0.0):
            return False
        final_exprs, _updated, local, _old = self.model
        affine = self._match_affine(final_exprs.get(field), local, field)
        if affine is None:
            return False
        a, b = affine
        if not (0.0 < b < 1.0 and a - tol > 0.0):
            return False
        init = np.asarray(
            self.program.initial_values(self.graph)[field], dtype=np.float64
        )
        if init.min() < 0.0:
            return False
        V = self.bounds.num_vertices
        s0 = float(init.sum())
        s_max = max(s0, (a + tol) * V / (1.0 - b))
        hi = max(float(init.max()), a + b * s_max + tol)
        lo = min(float(init.min()), a - tol)
        return self._finish_float(
            {field: FieldRange(lo, hi)},
            f"mass-conservation bound (S_max={s_max:.6g})",
        )

    @staticmethod
    def _match_affine(expr, local: str, field: str):
        """``a + b * local[field]`` with constant a, b — returns (a, b)."""
        if not (isinstance(expr, BinOp) and expr.op == "+"):
            return None
        for const_side, lin_side in ((expr.left, expr.right),
                                     (expr.right, expr.left)):
            if not isinstance(const_side, Const):
                continue
            try:
                a = float(const_side.value)
            except (TypeError, ValueError):
                continue
            if not (isinstance(lin_side, BinOp) and lin_side.op == "*"):
                continue
            acc = FieldRead(local, field)
            for x, y in ((lin_side.left, lin_side.right),
                         (lin_side.right, lin_side.left)):
                if x == acc and isinstance(y, Const):
                    try:
                        return a, float(y.value)
                    except (TypeError, ValueError):
                        return None
        return None

    def _rule_hs_convex(self) -> bool:
        """Heat-kernel shape: ``msg = (src[b] - dest[b]) * edge[c]`` with
        concrete nonnegative coefficients whose per-destination sums stay
        <= 1 make every update a convex combination of current values, so
        both fields stay inside the initial hull."""
        reduce_ops = self.program.reduce_ops
        names = tuple(self.program.vertex_dtype.names or ())
        if len(reduce_ops) != 1 or len(names) != 2:
            return False
        (af, op), = reduce_ops.items()
        if op != "add":
            return False
        bf = next(f for f in names if f != af)
        ret = self._single_return()
        if ret is None:
            return False
        msgs, mask = ret
        if not (isinstance(mask, Const) and mask.value is None):
            return False
        ml = self.low["messages"]
        p_src, p_edge, p_dest = ml.params[0], ml.params[2], ml.params[3]
        expr = msgs.get(af)
        if not (isinstance(expr, BinOp) and expr.op == "*"):
            return False
        diff = edge_read = None
        for x, y in ((expr.left, expr.right), (expr.right, expr.left)):
            if (isinstance(x, BinOp) and x.op == "-"
                    and x.left == FieldRead(p_src, bf)
                    and x.right == FieldRead(p_dest, bf)
                    and isinstance(y, FieldRead) and y.param == p_edge):
                diff, edge_read = x, y
        if diff is None:
            return False
        edges = self.program.edge_values(self.graph)
        if edges is None:
            return False
        coeff = np.asarray(edges[edge_read.field], dtype=np.float64).ravel()
        if coeff.size != self.graph.num_edges or coeff.min() < 0.0:
            return False
        sums = np.zeros(self.graph.num_vertices, dtype=np.float64)
        np.add.at(sums, self.graph.dst, coeff)
        if sums.max(initial=0.0) > 1.0 + 1e-9:
            return False
        current = self.low["init_local"].params[0]
        if self.seeds.get(af) != FieldRead(current, bf) \
                or self.seeds.get(bf) != FieldRead(current, bf):
            return False
        final_exprs, _updated, local, _old = self.model
        if final_exprs.get(af) != FieldRead(local, af) \
                or final_exprs.get(bf) != FieldRead(local, af):
            return False
        stats = dict(self.bounds.init)
        hull = _from_stats(stats[af], False).hull(_from_stats(stats[bf], False))
        if hull.has_inf or not hull.finite:
            return False
        return self._finish_float(
            {af: hull, bf: hull},
            "convex-combination bound (per-dest coefficient sums <= 1)",
        )

    def _rule_cs_ratio(self) -> bool:
        """Circuit-sim shape: ``msgs = {v: src[v] * g, gsum: g}`` with
        concrete nonnegative conductances and a guarded ratio apply —
        the ratio is a weighted average of source values, so the stored
        field stays inside ``hull(init, 0)``."""
        reduce_ops = self.program.reduce_ops
        names = tuple(self.program.vertex_dtype.names or ())
        if len(reduce_ops) != 2 or set(names) != set(reduce_ops):
            return False
        if set(reduce_ops.values()) != {"add"}:
            return False
        ret = self._single_return()
        if ret is None:
            return False
        msgs, mask = ret
        if not (isinstance(mask, Const) and mask.value is None):
            return False
        ml = self.low["messages"]
        p_src, p_edge = ml.params[0], ml.params[2]
        vf = gf = weight = None
        for f1 in names:
            w = msgs.get(f1)
            if isinstance(w, FieldRead) and w.param == p_edge:
                gf, weight = f1, w
        if gf is None:
            return False
        vf = next(f for f in names if f != gf)
        prod = msgs.get(vf)
        if not (isinstance(prod, BinOp) and prod.op == "*" and {
            prod.left, prod.right
        } == {FieldRead(p_src, vf), weight}):
            return False
        edges = self.program.edge_values(self.graph)
        if edges is None:
            return False
        g = np.asarray(edges[weight.field], dtype=np.float64).ravel()
        if g.size != self.graph.num_edges or g.min() < 0.0:
            return False
        if self.seeds.get(vf) != Const(0.0) \
                or self.seeds.get(gf) != Const(0.0):
            return False
        final_exprs, _updated, local, _old = self.model
        final_g = final_exprs.get(gf)
        if not (isinstance(final_g, Const)
                and _const_float(final_g.value) == 0.0):
            return False
        final_v = final_exprs.get(vf)
        if not self._cs_ratio_shape(final_v, local, vf, gf):
            return False
        stats = dict(self.bounds.init)
        zero = FieldRange(0.0, 0.0)
        rv = _from_stats(stats[vf], False).hull(zero)
        rg = _from_stats(stats[gf], False).hull(zero)
        if rv.has_inf or rg.has_inf or not (rv.finite and rg.finite):
            return False
        rv = rv.widened(self._float_slack(rv))
        rg = rg.widened(self._float_slack(rg))
        # The guarded ratio is a weighted average of source values: teach
        # the evaluator its true range so W501/W502 never see the division.
        self.facts[id(final_v)] = rv
        self.ranges = {vf: rv, gf: rg}
        self.range_notes[vf] = "weighted-average (ratio) bound"
        self.range_notes[gf] = "guarded-reset bound hull(init, 0)"
        self.derived = True
        return True

    @staticmethod
    def _cs_ratio_shape(expr, local: str, vf: str, gf: str) -> bool:
        """``where(local[gf] != 0, local[vf] / <guarded gf>, 0)``."""
        acc_g = FieldRead(local, gf)

        def _is_nonzero_test(cond) -> bool:
            return (isinstance(cond, Compare) and cond.op == "!="
                    and acc_g in (cond.left, cond.right)
                    and any(isinstance(s, Const)
                            and _const_float(s.value) == 0.0
                            for s in (cond.left, cond.right)))

        if not (isinstance(expr, Where) and _is_nonzero_test(expr.cond)):
            return False
        other_ok = isinstance(expr.other, Const)
        ratio = expr.then
        if not (isinstance(ratio, BinOp) and ratio.op == "/"
                and ratio.left == FieldRead(local, vf)):
            return False
        denom = ratio.right
        if denom == acc_g:
            return other_ok
        if isinstance(denom, Where) and _is_nonzero_test(denom.cond) \
                and denom.then == acc_g and isinstance(denom.other, Const):
            try:
                guard = float(denom.other.value)
            except (TypeError, ValueError):
                return False
            return other_ok and guard > 0.0
        return False

    def _derive_add_generic(self) -> bool:
        """Bounded fixpoint for float add-reduce programs whose apply maps
        the accumulator through range-contracting ops (e.g. ``tanh``)."""
        final_exprs, _updated, local, old = self.model
        D = max(self.bounds.max_in_degree, 1)
        R = self._init_ranges()
        names = self.program.vertex_dtype.names or ()
        if any(not R[f].finite or R[f].has_inf for f in names):
            return False
        for _sweep in range(_MAX_FIXPOINT_SWEEPS):
            ctx = _Ctx(self.facts)
            A = self._accumulate(R, ctx)
            if A is None or ctx.unresolved or ctx.div_nodes:
                return False
            env = {(local, f): r for f, r in A.items()}
            env.update({(old, f): r for f, r in R.items()})
            newR = {}
            for field in names:
                fr = _eval(final_exprs[field], env, ctx)
                if fr is None or fr.has_inf or not fr.finite:
                    return False
                newR[field] = R[field].hull(fr)
            if ctx.unresolved or ctx.div_nodes:
                return False
            if all(R[f].contains(newR[f], eps=1e-12) for f in names):
                return self._finish_float(newR, "generic add fixpoint")
            R = newR
        return False

    def _accumulate(self, R, ctx: _Ctx):
        """Accumulator ranges after folding D in-messages onto the seed
        (callers ensure ``self.seeds`` exists, so ``init_local`` lowered)."""
        msgrs = self._message_ranges(R, ctx)
        if msgrs is None:
            return None
        current = self.low["init_local"].params[0]
        seed_env = {(current, field): r for field, r in R.items()}
        D = max(self.bounds.max_in_degree, 1)
        names = self.program.vertex_dtype.names or ()
        A = {}
        for field in names:
            sr = _eval(self.seeds[field], seed_env, ctx)
            if sr is None or sr.has_inf or not sr.finite:
                return None
            op = self.program.reduce_ops.get(field)
            contribs = [e[field] for e in msgrs if field in e]
            if op is None or not contribs:
                A[field] = sr
                continue
            if any(c is None for c in contribs):
                return None
            m = _hull_all(contribs)
            if op == "add":
                if m.has_inf or not m.finite:
                    return None
                A[field] = FieldRange(
                    sr.lo + D * min(0.0, m.lo), sr.hi + D * max(0.0, m.hi),
                    False, False,
                )
            else:
                fold = _min2 if op == "min" else _max2
                # A vertex with no in-messages keeps the seed, so the
                # accumulator range is the hull of both outcomes.
                A[field] = sr.hull(fold(sr, m))
        return A

    # -- W checks -------------------------------------------------------
    def _evaluate(self) -> _Ctx | None:
        """Evaluate messages, accumulation and apply under the derived
        ranges, labeling each op with its target field dtype; ``None`` when
        the messages are not modelable."""
        ctx = _Ctx(self.facts)
        if self._message_ranges(self.ranges, ctx, label=True) is None:
            return None
        A = None
        if self.seeds is not None and self.model is not None:
            A = self._accumulate(self.ranges, ctx)
        if A is not None:
            for field, r in A.items():
                if self.program.reduce_ops.get(field) == "add":
                    ctx.label = field_dtype(self.program.vertex_dtype, field)
                    ctx.ops.append((ctx.label, "accumulate", r.lo, r.hi))
            final_exprs, _updated, local, old = self.model
            env = {(local, f): r for f, r in A.items()}
            env.update({(old, f): r for f, r in self.ranges.items()})
            for field, expr in final_exprs.items():
                ctx.label = field_dtype(self.program.vertex_dtype, field)
                _eval(expr, env, ctx)
            ctx.label = None
        return ctx

    @staticmethod
    def _unmodeled(code: str, ctx: _Ctx) -> CheckResult | None:
        if ctx.div_nodes:
            return CheckResult(
                code, UNKNOWN, "static",
                "division with a possibly-zero denominator range",
            )
        if ctx.unresolved:
            return CheckResult(
                code, UNKNOWN, "static",
                f"unmodeled expression: {ctx.unresolved[0]}",
            )
        return None

    def check_overflow(self) -> CheckResult:
        """W501 — no evaluated op can wrap or saturate its field dtype."""
        code = "W501"
        if not self.derived:
            return CheckResult(
                code, UNKNOWN, "static",
                "no invariant ranges derived to evaluate ops under",
            )
        ctx = self._evaluate()
        if ctx is None:
            return CheckResult(
                code, UNKNOWN, "static", "messages not modelable"
            )
        unmodeled = self._unmodeled(code, ctx)
        if unmodeled is not None:
            return unmodeled
        checked = 0
        for dtype, op, lo, hi in ctx.ops:
            if dtype is None:
                continue
            checked += 1
            if dtype.kind in "ui":
                info = np.iinfo(dtype)
                dlo, dhi = float(info.min), float(info.max)
            else:
                info = np.finfo(dtype if dtype.kind == "f" else np.float32)
                dlo, dhi = float(-info.max), float(info.max)
            if lo > dhi or hi < dlo:
                return CheckResult(
                    code, REFUTED, "static",
                    f"op {op!r} range [{lo:.6g}, {hi:.6g}] lies entirely "
                    f"outside {dtype} ([{dlo:.6g}, {dhi:.6g}]): every "
                    "executed instance wraps",
                )
            if lo < dlo or hi > dhi:
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"op {op!r} range [{lo:.6g}, {hi:.6g}] may exceed "
                    f"{dtype}",
                )
        return CheckResult(
            code, PROVED, "static",
            f"{checked} evaluated op(s) stay within their target dtypes "
            "(masked sentinel lanes excluded as unobservable)",
        )

    def check_nonfinite(self, w501: CheckResult) -> CheckResult:
        """W502 — float kernels cannot produce NaN/Inf from finite input."""
        code = "W502"
        dtypes = [
            np.dtype(dt) for dt in (
                getattr(self.program, attr, None)
                for attr in ("vertex_dtype", "static_dtype", "edge_dtype")
            ) if dt is not None
        ]
        if not any(
            field_dtype(dt, f).kind == "f" for dt in dtypes for f in dt.names or ()
        ):
            return CheckResult(
                code, PROVED, "static",
                "integer-only program: no op can produce a non-finite value",
            )
        if not self.derived:
            return CheckResult(
                code, UNKNOWN, "static",
                "no invariant ranges derived to bound float ops under",
            )
        unmodeled = self._unmodeled(code, self._evaluate() or _Ctx())
        if unmodeled is not None:
            return unmodeled
        if w501.status == REFUTED:
            return CheckResult(
                code, UNKNOWN, "static",
                "overflow refuted (W501): float exactness not claimable",
            )
        return CheckResult(
            code, PROVED, "static",
            "every division denominator is bounded away from zero and all "
            "op ranges are finite",
        )

    def check_termination(self) -> CheckResult:
        """W503 — static max-iteration bound from finite lattice height."""
        code = "W503"
        program = self.program
        V = self.bounds.num_vertices
        upd = self.low.get("update_condition")
        if upd is not None and not upd.opaque and len(upd.returns) == 1:
            ret = upd.returns[0]
            if isinstance(ret, Const) and bool(ret.value):
                return CheckResult(
                    code, REFUTED, "static",
                    "update_condition is constant-true: every sweep claims "
                    "an update, so the run never quiesces",
                )
        ops = set(program.reduce_ops.values())
        tol = float(getattr(program, "tolerance", 0.0) or 0.0)
        bound_fn = None
        why = ""
        if ops and ops <= {"min", "max"} and self.cert.proved("C403") \
                and self.source_only:
            bound_fn = lambda n: n + 1  # noqa: E731
            why = (
                "monotone min/max lattice: every improvement follows a "
                "simple path, so V sweeps reach the fixpoint and one "
                "more detects it"
            )
        if bound_fn is None and ops == {"add"} and tol > 0.0 and self.derived:
            spans = [
                r.hi - r.lo for r in self.ranges.values()
                if r.finite and not r.has_inf
            ]
            if spans and all(math.isfinite(s) for s in spans):
                height = max(1, math.ceil(max(spans) / tol))
                bound_fn = lambda n, h=height: n * h + 1  # noqa: E731
                why = (
                    "tolerance-quantized value lattice over the proven "
                    "W504 ranges (assumes the relaxation does not cycle "
                    "across quanta, the R203 contract)"
                )
        if bound_fn is None:
            return CheckResult(
                code, UNKNOWN, "static",
                "no finite lattice height established for this reducer",
            )
        bound = bound_fn(V)
        ok, note = self._cross_check_bound(bound_fn)
        if ok is False:
            return CheckResult(code, REFUTED, "static", note)
        return CheckResult(
            code, PROVED, "static",
            f"max {bound} iterations on this graph; {why}; {note}",
        )

    def _cross_check_bound(self, bound_fn):
        """Drive the scalar kernels on the tiny falsifier fixture and
        compare observed sweeps against the bound recomputed for it.

        A bundled program that seeds a vertex the fixture lacks (CS pins
        vertex ``n - 1`` of the graph it was built for) is rebuilt for the
        fixture first; any other such program skips the cross-check."""
        program = self.program
        try:
            graph, values, statics, edges = tiny_setup(program)
        except IndexError:
            try:
                program = rebuild_for(program, tiny_graph(program))
            except ProgramKeyError as exc:
                return None, f"cross-check skipped ({exc})"
            graph, values, statics, edges = tiny_setup(program)
        tiny_bound = bound_fn(graph.num_vertices)
        budget = min(tiny_bound, FALSIFY_MAX_SWEEPS)
        observed = None
        with np.errstate(all="ignore"):
            for sweep in range(budget):
                if vertex_sweep(
                    program, graph, values, statics, edges
                ) == 0:
                    observed = sweep + 1
                    break
        if observed is not None:
            return True, (
                f"cross-check: observed {observed} sweep(s) on a "
                f"{graph.num_vertices}-vertex fixture, within its bound "
                f"{tiny_bound}"
            )
        if tiny_bound <= FALSIFY_MAX_SWEEPS:
            return False, (
                f"cross-check refuted the bound: no fixpoint within "
                f"{tiny_bound} sweeps on a {graph.num_vertices}-vertex "
                "fixture"
            )
        return None, "cross-check inconclusive (bound exceeds fixture budget)"

    def check_invariants(self, w501: CheckResult) -> CheckResult:
        """W504 — per-field invariant ranges, honoring ``value_bounds``."""
        code = "W504"
        declared = getattr(self.program, "value_bounds", None) or {}
        # Concrete initial values escaping the declared contract is a real
        # counterexample regardless of what the abstract run derived.
        init = dict(self.bounds.init)
        for field, (dlo, dhi) in declared.items():
            stats = init.get(field)
            if stats is None:
                continue
            lo, hi, _has_inf = stats
            if lo <= hi and (lo < float(dlo) or hi > float(dhi)):
                return CheckResult(
                    code, REFUTED, "static",
                    f"initial values of {field!r} span [{lo:.6g}, "
                    f"{hi:.6g}], escaping the declared value_bounds "
                    f"[{float(dlo):.6g}, {float(dhi):.6g}]",
                )
        if not self.derived:
            return CheckResult(
                code, UNKNOWN, "static",
                "no closure rule matched this program's kernel shape",
            )
        if w501.status != PROVED:
            return CheckResult(
                code, UNKNOWN, "static",
                "ranges unsound under possible overflow (W501 not PROVED)",
            )
        for field, (dlo, dhi) in declared.items():
            r = self.ranges.get(field)
            if r is None:
                continue
            if r.finite and (r.lo < float(dlo) or r.hi > float(dhi)):
                return CheckResult(
                    code, UNKNOWN, "static",
                    f"derived range {r.describe()} for {field!r} does not "
                    "fit the declared value_bounds (over-approximation or "
                    "a real escape)",
                )
        detail = "; ".join(
            f"{field} in {r.describe()} ({self.range_notes.get(field, '?')})"
            for field, r in sorted(self.ranges.items())
        )
        return CheckResult(code, PROVED, "static", detail)

    def ranges_tuple(self) -> tuple:
        return tuple(
            (field, (r.lo, r.hi, r.has_inf))
            for field, r in sorted(self.ranges.items())
        )


# ======================================================================
# Falsifiers (UNKNOWN fallback; REFUTE or stay UNKNOWN, never prove)
# ======================================================================

def _observe_sweeps(program, *, track_nonfinite: bool = False):
    """Run the scalar kernels on the tiny fixture, recording per-field
    observed hulls; returns (hulls, saw_nonfinite, quiesced)."""
    graph, values, statics, edges = tiny_setup(program)
    hulls: dict[str, FieldRange] = {}
    saw_nonfinite = False
    quiesced = False

    def record() -> bool:
        nonlocal saw_nonfinite
        bad = False
        for field in values.dtype.names or ():
            integral = values[field].dtype.kind in "ui"
            stats = _array_stats(values[field])
            r = _from_stats(stats, integral)
            hulls[field] = r if field not in hulls else hulls[field].hull(r)
            if track_nonfinite and values[field].dtype.kind == "f":
                arr = values[field]
                if not np.isfinite(arr).all():
                    bad = True
        return bad

    # The falsifier exists to provoke exactly the overflows and zero
    # divisions the static pass could not rule out — their RuntimeWarnings
    # are the expected signal, not noise worth surfacing.
    with np.errstate(all="ignore"):
        saw_nonfinite |= record()
        for _sweep in range(FALSIFY_MAX_SWEEPS):
            updates = vertex_sweep(program, graph, values, statics, edges)
            saw_nonfinite |= record()
            if updates == 0:
                quiesced = True
                break
    return hulls, saw_nonfinite, quiesced


def _describe_hulls(hulls: dict) -> str:
    return ", ".join(
        f"{field} in {r.describe()}" for field, r in sorted(hulls.items())
    )


def _falsify_ranges(code: str, program) -> tuple[str, str]:
    try:
        if code == "W501":
            hulls, _, _ = _observe_sweeps(program)
            return UNKNOWN, (
                "falsifier cannot observe wraparound post-hoc; observed "
                f"hull {_describe_hulls(hulls)}"
            )
        if code == "W502":
            _, saw_nonfinite, _ = _observe_sweeps(
                program, track_nonfinite=True
            )
            if saw_nonfinite:
                return REFUTED, (
                    "sweeps on the falsification fixture produced NaN/Inf "
                    "from finite inputs"
                )
            return UNKNOWN, "no non-finite value observed on the fixture"
        if code == "W503":
            _, _, quiesced = _observe_sweeps(program)
            if quiesced:
                return UNKNOWN, (
                    "fixture quiesced, but no static bound exists to "
                    "certify against"
                )
            return UNKNOWN, (
                f"no fixpoint within {FALSIFY_MAX_SWEEPS} sweeps on "
                "the falsification fixture"
            )
        if code == "W504":
            hulls, _, _ = _observe_sweeps(program)
            declared = getattr(program, "value_bounds", None) or {}
            for field, (dlo, dhi) in declared.items():
                r = hulls.get(field)
                if r is not None and r.finite and (
                    r.lo < float(dlo) or r.hi > float(dhi)
                ):
                    return REFUTED, (
                        f"observed values of {field!r} ({r.describe()}) "
                        "escape the declared value_bounds"
                    )
            return UNKNOWN, f"observed hull {_describe_hulls(hulls)}"
    except Exception as exc:  # kernels may reject the synthetic fixture
        return UNKNOWN, f"falsifier could not run: {exc!r}"
    return UNKNOWN, "no falsifier for this check"


# ======================================================================
# Entry points
# ======================================================================

def _analyze(program, graph, cert, bounds, fingerprint) -> RangesCertificate:
    analysis = _Analysis(program, graph, cert, bounds)
    analysis.derive()
    w501 = analysis.check_overflow()
    checks = [
        w501,
        analysis.check_nonfinite(w501),
        analysis.check_termination(),
        analysis.check_invariants(w501),
    ]
    ranges = analysis.ranges_tuple() if analysis.derived else ()
    return RangesCertificate(
        program=str(getattr(program, "name", type(program).__name__)),
        fingerprint=fingerprint,
        checks=falsify_unknowns(checks, _falsify_ranges, program),
        ranges=ranges,
        bounds=bounds.key(),
    )


def analyze_ranges(program, graph, *, cache=None) -> RangesCertificate:
    """Run the abstract interpretation for ``program`` on ``graph``.

    ``cache`` follows the representation-cache convention (``None`` =
    process default, ``False`` = disabled, instance = use directly);
    results key by ``("ranges", fingerprint)`` where the fingerprint
    covers the program *and* the graph bounds.
    """
    from repro.analysis.certify import certify_program
    from repro.cache import resolve_cache

    if isinstance(program, type):
        try:
            program = program()
        except Exception:
            pass
    cert = certify_program(program, cache=cache)
    bounds = GraphBounds.from_graph(graph, program)
    fingerprint = ranges_fingerprint(program, bounds)
    store = resolve_cache(cache)
    key = ("ranges", fingerprint)
    if store is not None:
        hit = store.peek(key)
        if isinstance(hit, RangesCertificate):
            return hit
    out = _analyze(program, graph, cert, bounds, fingerprint)
    if store is not None:
        store.put(key, out)
    return out


def ranges_violations(program, graph, *, cache=None) -> list[Violation]:
    """Violation records for non-PROVED range certificates.

    REFUTED checks are errors (the kernel is provably unsafe for this
    graph's bounds); UNKNOWN checks are warnings.
    """
    return analyze_ranges(program, graph, cache=cache).violations(
        "range certificate", refuted="error"
    )


#: narrowing candidates per signedness, smallest first.
_NARROW_UNSIGNED = (np.uint8, np.uint16)
_NARROW_SIGNED = (np.int8, np.int16, np.int32)


def narrowing_plan(cert: RangesCertificate, program) -> dict[str, np.dtype]:
    """field -> narrower dtype map justified by a PROVED W501 + W504 pair.

    Only integer fields reduced through ``min``/``max`` (or not reduced at
    all) narrow: the ``UINT_INF`` sentinel remaps to the narrow dtype's
    max, which is order-preserving for min/max but not for sums.  A field
    with the sentinel present needs ``hi`` strictly below the narrow max
    so the remapped sentinel stays distinguishable.
    """
    out: dict[str, np.dtype] = {}
    if not (cert.proved("W501") and cert.proved("W504")):
        return out
    names = getattr(program, "vertex_dtype", None)
    names = names.names if names is not None else ()
    for field in names or ():
        base = field_dtype(program.vertex_dtype, field)
        if base.kind not in "ui":
            continue
        if program.reduce_ops.get(field) not in (None, "min", "max"):
            continue
        triple = cert.field_range(field)
        if triple is None:
            continue
        lo, hi, has_inf = triple
        if lo > hi:
            continue
        if has_inf and base != np.dtype(np.uint32):
            continue  # sentinel remapping is defined for UINT_INF only
        candidates = _NARROW_UNSIGNED if base.kind == "u" else _NARROW_SIGNED
        for cand in candidates:
            dt = np.dtype(cand)
            if dt.itemsize >= base.itemsize:
                break
            info = np.iinfo(dt)
            if has_inf:
                if lo >= 0 and hi < float(info.max):
                    out[field] = dt
                    break
            elif lo >= float(info.min) and hi <= float(info.max):
                out[field] = dt
                break
    return out
