"""Out-of-program tracing of locce's layer boundaries.

A :class:`Tracer` rebinds a fixed set of public locce callables to
wrappers that record one span per call: name, parent span, start, end
and a few counts taken from the arguments and the result. The wrappers
are installed by identity: every ``locce`` module attribute that holds
the original object is rebound, so ``from .tensor import apply_to_batch``
copies in ``locce.zoo`` and ``locce.protocols`` are traced as well.
``restore`` puts every original binding back.

Count hooks run outside the measured interval, and a parent's self time
subtracts each child's whole interval including its hooks, so the
bookkeeping does not land in any layer's time.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

# Family constructors; their outermost calls make up ``families.build_s``.
FAMILY_BUILDERS = (
    "bell_basis", "ghz_basis", "ghz_state", "lattice_basis",
    "graph_state_basis", "parametric_basis",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0  # the traced call itself
    end: float = 0.0
    outer_start: float = 0.0  # the call plus the tracer's hooks
    outer_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _leaf_count(node) -> int:
    children = getattr(node, "children", None)
    if children is None:
        return 1
    return sum(_leaf_count(c) for c in children)


def _batch_counts(args, kwargs):
    import numpy as np

    mat, targets, batch, dims = (list(args) + [None] * 4)[:4]
    batch = kwargs.get("batch", batch)
    dims = kwargs.get("dims", dims)
    arr = np.asarray(batch)
    rows = 1 if arr.ndim == 1 else arr.shape[0]
    flat = arr.reshape(rows, -1)
    zero_rows = rows - int(np.count_nonzero(np.any(flat != 0, axis=1)))
    dim = 1
    for d in dims:
        dim *= int(d)
    return {"rows": rows, "zero_rows": zero_rows, "bytes_in": rows * dim * 16}


def _tree_counts(_args, _kwargs, out):
    return {"leaves": _leaf_count(out)}


def _protocol_result_counts(_args, _kwargs, out):
    return {"branches": len(out.branches)}


def _povm_counts(_args, _kwargs, out):
    povm = out[0]
    d = 1
    for x in povm.dims:
        d *= int(x)
    return {"elements": povm.n_outcomes, "bytes": povm.n_outcomes * d * d * 16}


def _povm_init_counts(args, _kwargs):
    return {"elements": len(args[0].elements)}


def _minimize_counts(_args, _kwargs, out):
    return {"nfev": int(out.nfev), "nit": int(out.nit), "status": int(out.status)}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` (or ``module.cls.attr``)."""

    span: str
    module: str
    attr: str
    cls: str | None = None
    pre: object = None   # (args, kwargs) -> attrs, before the call
    post: object = None  # (args, kwargs, result) -> attrs, after it


TARGETS = (
    Target("tensor.apply_to_batch", "locce.tensor", "apply_to_batch", pre=_batch_counts),
    Target("zoo.build_tree", "locce.zoo", "build_tree", post=_tree_counts),
    Target("zoo.graph_outcome_table", "locce.zoo", "graph_outcome_table"),
    Target("protocols.run_protocol", "locce.protocols", "run_protocol",
           post=_protocol_result_counts),
    Target("protocols.validate_tree", "locce.protocols", "validate_tree"),
    Target("protocols.flatten_to_povm", "locce.protocols", "flatten_to_povm",
           post=_povm_counts),
    Target("fidelity.Povm.validate", "locce.fidelity", "__post_init__", cls="Povm",
           pre=_povm_init_counts),
    Target("fidelity.average_fidelity", "locce.fidelity", "average_fidelity"),
    Target("oneway.feasibility_search", "locce.oneway", "feasibility_search"),
    Target("oneway.minimize", "locce.oneway", "minimize", post=_minimize_counts),
) + tuple(
    Target(f"families.{name}", "locce.families", name) for name in FAMILY_BUILDERS
)


class Tracer:
    """Spans in memory for one traced pass; install, run, then restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        tracer = self

        def traced(*args, **kwargs):
            outer_start = time.perf_counter()
            span = Span(tracer._next_id, tracer._stack[-1] if tracer._stack else None,
                        target.span)
            tracer._next_id += 1
            if target.pre is not None:
                span.attrs.update(target.pre(args, kwargs))
            tracer._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if target.post is not None:
                span.attrs.update(target.post(args, kwargs, out))
            tracer.spans.append(span)
            span.outer_start, span.outer_end = outer_start, time.perf_counter()
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "locce" or name.startswith("locce."))]
        try:
            for target in TARGETS:
                owner = sys.modules[target.module]
                if target.cls is not None:
                    owner = getattr(owner, target.cls)
                    original = owner.__dict__[target.attr]
                    self._rebind(owner, target.attr, self._wrap(target, original))
                    continue
                original = getattr(owner, target.attr)
                wrapper = self._wrap(target, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def _rebind(self, owner, key: str, value) -> None:
        self._bindings.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._bindings:
            owner, key, original = self._bindings.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the whole intervals of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.outer_end - s.outer_start
    return own


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the stdlib's inclusive method; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def group(name):
        return named.get(name, [])

    def total(name, key=None):
        if key is None:
            return sum(s.duration for s in group(name))
        return sum(s.attrs.get(key, 0) for s in group(name))

    def self_total(name):
        return sum(own[s.id] for s in group(name))

    batches = group("tensor.apply_to_batch")
    rows = total("tensor.apply_to_batch", "rows")
    zero_rows = total("tensor.apply_to_batch", "zero_rows")

    def outermost_family(s):
        if not s.name.startswith("families."):
            return False
        parent = s.parent
        while parent is not None:
            if by_id[parent].name.startswith("families."):
                return False
            parent = by_id[parent].parent
        return True

    family_s = sum(s.duration for s in spans if outermost_family(s))
    restarts = group("oneway.minimize")
    restart_ms = [s.duration * 1e3 for s in restarts]
    nfev = total("oneway.minimize", "nfev")
    return {
        "tensor.apply_to_batch.calls": len(batches),
        "tensor.apply_to_batch.s": total("tensor.apply_to_batch"),
        "tensor.apply_to_batch.rows": rows,
        "tensor.apply_to_batch.bytes_in": total("tensor.apply_to_batch", "bytes_in"),
        "tensor.apply_to_batch.zero_row_frac": zero_rows / rows if rows else 0.0,
        "zoo.build_tree.calls": len(group("zoo.build_tree")),
        "zoo.build_tree.self_s": self_total("zoo.build_tree"),
        "zoo.leaves": total("zoo.build_tree", "leaves"),
        "zoo.graph_outcome_table.s": total("zoo.graph_outcome_table"),
        "families.build_s": family_s,
        "protocols.run_protocol.calls": len(group("protocols.run_protocol")),
        "protocols.run_protocol.self_s": self_total("protocols.run_protocol"),
        "protocols.run_protocol.branches": total("protocols.run_protocol", "branches"),
        "protocols.validate_tree.s": total("protocols.validate_tree"),
        "protocols.flatten_to_povm.self_s": self_total("protocols.flatten_to_povm"),
        "protocols.flatten_to_povm.elements": total("protocols.flatten_to_povm", "elements"),
        "protocols.flatten_to_povm.bytes": total("protocols.flatten_to_povm", "bytes"),
        "fidelity.Povm.validate_s": total("fidelity.Povm.validate"),
        "fidelity.Povm.elements": total("fidelity.Povm.validate", "elements"),
        "fidelity.average_fidelity.calls": len(group("fidelity.average_fidelity")),
        "fidelity.average_fidelity.s": total("fidelity.average_fidelity"),
        "oneway.feasibility_search.s": total("oneway.feasibility_search"),
        "oneway.restarts": len(restarts),
        "oneway.restart_ms_p50": _quantile(restart_ms, 50),
        "oneway.restart_ms_p90": _quantile(restart_ms, 90),
        "oneway.nfev": nfev,
        "oneway.nit": total("oneway.minimize", "nit"),
        "oneway.eval_us": sum(restart_ms) * 1e3 / nfev if nfev else 0.0,
        "oneway.converged_frac": (
            sum(1 for s in restarts if s.attrs["status"] == 0) / len(restarts)
            if restarts else 0.0
        ),
    }


# name -> (unit, better) of every metric ``layer_metrics`` returns.
LAYER_METRICS = {
    "tensor.apply_to_batch.calls": ("count", "lower"),
    "tensor.apply_to_batch.s": ("s", "lower"),
    "tensor.apply_to_batch.rows": ("count", "lower"),
    "tensor.apply_to_batch.bytes_in": ("B", "lower"),
    "tensor.apply_to_batch.zero_row_frac": ("frac", "lower"),
    "zoo.build_tree.calls": ("count", "lower"),
    "zoo.build_tree.self_s": ("s", "lower"),
    "zoo.leaves": ("count", "lower"),
    "zoo.graph_outcome_table.s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "protocols.run_protocol.calls": ("count", "lower"),
    "protocols.run_protocol.self_s": ("s", "lower"),
    "protocols.run_protocol.branches": ("count", "lower"),
    "protocols.validate_tree.s": ("s", "lower"),
    "protocols.flatten_to_povm.self_s": ("s", "lower"),
    "protocols.flatten_to_povm.elements": ("count", "lower"),
    "protocols.flatten_to_povm.bytes": ("B", "lower"),
    "fidelity.Povm.validate_s": ("s", "lower"),
    "fidelity.Povm.elements": ("count", "lower"),
    "fidelity.average_fidelity.calls": ("count", "lower"),
    "fidelity.average_fidelity.s": ("s", "lower"),
    "oneway.feasibility_search.s": ("s", "lower"),
    "oneway.restarts": ("count", "lower"),
    "oneway.restart_ms_p50": ("ms", "lower"),
    "oneway.restart_ms_p90": ("ms", "lower"),
    "oneway.nfev": ("count", "lower"),
    "oneway.nit": ("count", "lower"),
    "oneway.eval_us": ("us", "lower"),
    "oneway.converged_frac": ("frac", "higher"),
}

# Metrics that count work rather than time it: equal between two traced
# passes of one seed when the program is deterministic.
COUNT_METRICS = tuple(
    name for name, (unit, _better) in LAYER_METRICS.items() if unit in ("count", "B", "frac")
)
