"""Spans around the public functions of each gibq module, from outside it.

The tracer rebinds every traced function in every loaded ``gibq`` module
that holds it: ``harness``, ``series``, ``verify``, ``norms`` and the
package itself bind names with ``from .x import y``, so patching only the
defining module would miss their calls.  ``Trajectory.rows_at`` is a
method and is patched on the class.  The private ``oracle._dense_conv_power``
is wrapped with a counter only, so that the right-hand sides of an RK4 call
that is abandoned for a retry are still counted.

Each call becomes one span (name, start, end, parent) kept in memory;
``self_s`` is a span's duration minus the time its direct child spans
cover.  Per-call work counts are taken from the arguments and the result
after the span has closed, so they cost the traced layer nothing.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import time
import warnings

import numpy as np

# (module, attribute) pairs that get a span; "Class.method" patches a class.
TRACED = (
    ("lattice", "convolve"),
    ("lattice", "synthesize"),
    ("flow", "duhamel"),
    ("flow", "duhamel_trajectory"),
    ("flow", "linear_flow"),
    ("flow", "Trajectory.rows_at"),
    ("series", "xi_terms"),
    ("series", "partial_sum"),
    ("series", "tail_residual"),
    ("series", "fixed_point"),
    ("series", "tree_term"),
    ("oracle", "rk4_solve"),
    ("oracle", "xi1_closed_form"),
    ("oracle", "convolution_sandwich"),
    ("norms", "norm"),
    ("norms", "band_partition"),
    ("norms", "check_embeddings"),
    ("norms", "check_algebra"),
    ("construction", "schedule_from_N"),
    ("construction", "make_bump"),
    ("construction", "sample_base_data"),
    ("harness", "run_inflation"),
    ("harness", "resonant_split"),
    ("harness", "check_conditions"),
    ("trees", "count_trees"),
    ("trees", "enumerate_trees"),
)

# Fixed here rather than read from gibq.norms.FAMILIES: the metric set of
# the benchmark changes only in a change to the benchmark.
NORM_FAMILIES = ("sobolev", "fourier_lebesgue", "sobolev_pair", "wiener_pair",
                 "w_s2inf", "modulation", "wiener_amalgam")

# Work counts per traced call.  Additive counts are summed over calls;
# sizes (block, fft_len, mb_per_rhs_computed) keep their largest value.
_MAX_COUNTS = {"block", "fft_len", "mb_per_rhs_computed"}


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def rk4_step_count(nodes, dt: float, blowup_time) -> int:
    """RK4 steps that rk4_solve takes between its output nodes.

    Each node segment is cut into ceil(length / dt) equal steps; on blow-up
    the integration stops after the step that reached blowup_time.
    """
    steps = 0
    t = 0.0
    for target in nodes[1:]:
        seg = float(target) - t
        n = max(1, math.ceil(seg / dt))
        if blowup_time is not None and blowup_time <= float(target) * (1 + 1e-12):
            return steps + max(1, round((blowup_time - t) / (seg / n)))
        steps += n
        t = float(target)
    return steps


def rk4_sizes(block: int, k: int) -> dict:
    """FFT length and bytes allocated per right-hand side, computed from
    array sizes: the padded transform, its power, the inverse and the
    forcing are complex (16 B), the tail-monitor magnitudes are float."""
    full_len = k * (block - 1) + 1
    fft_len = next_pow2(full_len)
    allocated = 16 * (4 * fft_len + 3 * block) + 8 * full_len
    return {"block": block, "fft_len": fft_len,
            "mb_per_rhs_computed": allocated / 2**20}


def _duhamel_counts(bound, result) -> dict:
    span = 1
    for traj in bound["args"]:
        support, _ = traj.support_and_matrix()  # cached by the call itself
        if support.size == 0:
            return {"span": 0, "out_nnz": 0}
        span += int(support[-1]) - int(support[0])
    return {"span": span, "out_nnz": result.nnz}


def _rk4_counts(bound, result, rhs_calls: int) -> dict:
    from gibq.flow import chebyshev_nodes

    _, diag = result
    counts = rk4_sizes(2 * int(bound["support_closure"]) + 1, bound["k"])
    if diag.enlarged:
        # diag belongs to the retry, a child span counted on its own; this
        # call stopped at the node where the tail breached the tolerance
        steps = rhs_calls // 4
    else:
        nodes = chebyshev_nodes(bound["node_degree"], bound["horizon"])
        steps = rk4_step_count(nodes, bound["dt"], diag.blowup_time)
    counts.update(steps=steps, rhs_calls=rhs_calls)
    return counts


def _closed_form_counts(bound, result) -> dict:
    from gibq.construction import CUBE_CENTERS

    params = bound["bump"].params
    keep = bound["centre_filter"] or (lambda c: True)
    tuples = sum(1 for c in itertools.product(CUBE_CENTERS, repeat=params.k)
                 if keep(c))
    return {"tuples": tuples * (params.A + 1) ** params.k}


_COUNTERS = {
    "flow.duhamel": _duhamel_counts,
    "oracle.xi1_closed_form": _closed_form_counts,
    "lattice.convolve": lambda b, r: {"products": b["f"].nnz * b["g"].nnz,
                                      "out_nnz": r.nnz},
    "lattice.synthesize": lambda b, r: {"points": r.size},
}


class Tracer:
    """Installs spans on the traced functions; removes them on exit."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = []     # per span: dict of work counts, or None
        self._stack = []
        self._rhs = []       # per open rk4_solve span: its own RHS evaluations
        self._undo = []

    # -- installation ---------------------------------------------------

    def __enter__(self):
        import gibq  # noqa: F401  (loads the package before patching)

        for modname, attr in TRACED:
            module = sys.modules[f"gibq.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != "gibq" and not mname.startswith("gibq."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)
        # every nonlinear RK4 right-hand side takes one k-fold power
        oracle = sys.modules["gibq.oracle"]
        power, rhs = oracle._dense_conv_power, self._rhs

        def counted_power(*args, **kwargs):
            if rhs:
                rhs[-1] += 1
            return power(*args, **kwargs)

        self._rebind(oracle, "_dense_conv_power", counted_power)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        spans, counts, stack, rhs = self.spans, self.counts, self._stack, self._rhs
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)
        is_norm = name == "norms.norm"
        is_rk4 = name == "oracle.rk4_solve"

        def traced(*args, **kwargs):
            label = name
            if is_norm:
                spec = args[1] if len(args) > 1 else kwargs["spec"]
                label = f"{name}.{spec.family}"
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            counts.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                if is_rk4:
                    rhs.append(0)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                own_rhs = rhs.pop() if is_rk4 else 0
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None or is_rk4:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if is_rk4:
                    work = _rk4_counts(bound.arguments, result, own_rhs)
                    work["warnings"] = len(caught)
                else:
                    work = counter(bound.arguments, result)
                counts[idx] = work
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_stats(self) -> dict:
        """{span name: {"calls", "self_s", work counts...}}."""
        stats = {}
        for (name, *_), self_s, work in zip(self.spans, self.self_times(),
                                            self.counts):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in (work or {}).items():
                if key in _MAX_COUNTS:
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return stats

    def dump(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p,
                           "counts": c}
                          for (n, s, e, p), c in zip(self.spans, self.counts)]}


def per_layer_metrics(stats: dict) -> dict:
    """The benchmark's per-layer metric values, zero for layers not called."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for key in ("calls", "self_s", "block", "steps", "rhs_calls", "fft_len",
                "mb_per_rhs_computed", "warnings"):
        out[f"oracle.rk4_solve.{key}"] = get("oracle.rk4_solve", key)
    for key in ("calls", "self_s", "span", "out_nnz"):
        out[f"flow.duhamel.{key}"] = get("flow.duhamel", key)
    span = get("flow.duhamel", "span")
    out["flow.duhamel.fill"] = get("flow.duhamel", "out_nnz") / span if span else 0.0
    for name in ("flow.duhamel_trajectory", "flow.Trajectory.rows_at",
                 "flow.linear_flow", "series.xi_terms", "series.partial_sum",
                 "series.tail_residual", "series.fixed_point",
                 "series.tree_term", "norms.band_partition",
                 "norms.check_embeddings", "norms.check_algebra",
                 "oracle.xi1_closed_form", "oracle.convolution_sandwich"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["oracle.xi1_closed_form.tuples"] = get("oracle.xi1_closed_form", "tuples")
    for key in ("calls", "self_s", "products", "out_nnz"):
        out[f"lattice.convolve.{key}"] = get("lattice.convolve", key)
    for key in ("calls", "self_s", "points"):
        out[f"lattice.synthesize.{key}"] = get("lattice.synthesize", key)
    for family in NORM_FAMILIES:
        out[f"norms.norm.{family}.self_s"] = get(f"norms.norm.{family}", "self_s")
    for name in ("construction.schedule_from_N", "construction.make_bump",
                 "construction.sample_base_data", "harness.run_inflation",
                 "harness.resonant_split", "harness.check_conditions",
                 "trees.count_trees", "trees.enumerate_trees"):
        out[f"{name}.self_s"] = get(name, "self_s")
    return {k: float(v) if isinstance(v, (float, np.floating)) else int(v)
            for k, v in out.items()}


_UNITS = {"calls": "count", "self_s": "s", "block": "entries",
          "steps": "count", "rhs_calls": "count", "fft_len": "entries",
          "mb_per_rhs_computed": "MiB", "warnings": "count", "span": "entries",
          "out_nnz": "entries", "fill": "1", "products": "count",
          "points": "count", "tuples": "count", "trace_overhead_frac": "1"}


def per_layer_units() -> dict:
    names = list(per_layer_metrics({})) + ["trace_overhead_frac"]
    return {name: _UNITS[name.rsplit(".", 1)[-1]] for name in names}
