"""Spans around the public functions of each opindex layer, from outside.

The tracer patches attributes where callers look them up (``witten`` imports
``herm_eig`` by name, so it is wrapped as ``opindex.witten.herm_eig``) and
wraps methods rather than classes, so classmethods and isinstance checks keep
working.  Each wrapped call is one span; a layer's self time is the duration
of its spans minus the part covered by their child spans, so the self times
of all layers partition the time spent inside the outermost spans.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "witten", "linalg", "toeplitz", "scattering")


class _Span:
    __slots__ = ("metric", "bound", "child_s", "sweeps", "k_eval")

    def __init__(self, metric, bound):
        self.metric = metric
        self.bound = bound
        self.child_s = 0.0
        self.sweeps = 0
        self.k_eval = 0


class Tracer:
    """Counters of every wrapped function and layer over one traced pass."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original, wrapper)
        self._stack: list[_Span] = []
        self.stats: dict[str, float] = defaultdict(float)

    def add(self, owner, attr: str, layer: str, name: str, extra=None):
        """Wrap ``owner.attr`` as the span ``<layer>.<name>``."""
        original = owner.__dict__[attr]
        metric = f"{layer}.{name}"
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            span = _Span(metric, signature.bind(*args, **kwargs) if extra else None)
            outer = any(s.metric == metric for s in tracer._stack)
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer._stack.pop()
                stats = tracer.stats
                stats[metric + ".calls"] += 1
                if not outer:
                    stats[metric + ".busy_s"] += dur
                stats[layer + ".self_s"] += dur - span.child_s
                if tracer._stack:
                    tracer._stack[-1].child_s += dur
            if extra is not None:
                extra(tracer, span, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def parent(self) -> _Span | None:
        return self._stack[-1] if self._stack else None

    def install(self):
        self.stats = defaultdict(float)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# counters beyond calls and busy time


def _herm_eig_size(tracer, span, result):
    n = len(result.values)
    tracer.stats["linalg.herm_eig.dim_max"] = max(tracer.stats["linalg.herm_eig.dim_max"], n)
    # computed, not measured: the O(n^3) work of one dense eigensolve
    tracer.stats["linalg.herm_eig.n3_sum"] += float(n) ** 3


def _matmul_dim(tracer, span, result):
    key = "toeplitz.ShiftLatticeOperator.__matmul__.dim"
    tracer.stats[key] = max(tracer.stats[key], result.matrix.shape[0])


def _transfer_work(tracer, span, result):
    args = span.bound.arguments
    k_count, slabs = result.shape[0], _slab_count(span.bound)
    tracer.stats["scattering.transfer_matrices.k_slabs"] += k_count * slabs
    parent = tracer.parent()
    # sweeps of scattering_matrix over its own potential; the free-potential
    # self-test it runs first is work, but not a sample of the curve
    if parent is not None and parent.metric == "scattering.scattering_matrix":
        parent.k_eval += k_count
        if args["v"] is parent.bound.arguments["v"]:
            parent.sweeps += 1


def _slab_count(bound) -> int:
    bound.apply_defaults()
    a, step = bound.arguments["v"].support_radius, bound.arguments["step"]
    # interior slabs as transfer_matrices sizes them, plus the two free ones
    return max(2, int(round(2.0 * a / step))) + 2


def _refinement(tracer, span, result):
    stats = tracer.stats
    stats["scattering.scattering_matrix.refine_rounds"] += span.sweeps - 1
    stats["scattering.scattering_matrix.k_final"] += len(result.k_samples)
    stats["scattering.scattering_matrix.k_evaluated"] += span.k_eval


def pass_metrics(stats: dict, wall_s: float) -> dict:
    """Counters of one traced pass plus the ratios derived from them."""
    out = dict(stats)
    evaluated = out.pop("scattering.scattering_matrix.k_evaluated", 0.0)
    final = out.pop("scattering.scattering_matrix.k_final", 0.0)
    out["scattering.scattering_matrix.k_useful_ratio"] = final / evaluated if evaluated else 0.0
    out["trace.coverage"] = sum(out.get(f"{layer}.self_s", 0.0) for layer in LAYERS) / wall_s
    return out


def build_tracer(opindex) -> Tracer:
    """Wrap the public functions that the CLI commands spend their time in."""
    cli, linalg = opindex.cli, opindex.linalg
    witten, toeplitz, scattering = opindex.witten, opindex.toeplitz, opindex.scattering
    t = Tracer()
    t.add(cli, "parse_config", "cli", "parse_config")
    t.add(cli, "run", "cli", "run")
    t.add(cli.ResultRecord, "render", "cli", "render")
    # witten calls herm_eig by the name it imported; linalg by its own
    t.add(witten, "herm_eig", "linalg", "herm_eig", _herm_eig_size)
    t.add(linalg, "herm_eig", "linalg", "herm_eig", _herm_eig_size)
    for name in ("discretize_dirac", "witten_index_estimate", "path_splitting_check",
                 "check_composition", "build_suspension", "suspension_spectrum",
                 "heat_trace_rhs"):
        t.add(witten, name, "witten", name)
    for name in ("paper_example_operators", "build_paper_example", "fedosov_index"):
        t.add(toeplitz, name, "toeplitz", name)
    t.add(toeplitz.ShiftLatticeOperator, "__matmul__", "toeplitz",
          "ShiftLatticeOperator.__matmul__", _matmul_dim)
    t.add(scattering, "transfer_matrices", "scattering", "transfer_matrices",
          _transfer_work)
    t.add(scattering, "scattering_matrix", "scattering", "scattering_matrix",
          _refinement)
    for name in ("find_resonant_depth", "bound_states", "levinson_check",
                 "exp_resample", "corrected_index"):
        t.add(scattering, name, "scattering", name)
    return t
