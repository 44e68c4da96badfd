"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each listed function with a wrapper in every loaded
``constrained_recovery`` module that holds it (module attribute or a
``from .x import y`` binding), records one span per call and restores the
originals on exit. Spans stay in memory; self time and per-layer counts are
computed when the traced pass ends.
"""

import functools
import sys
import time

# module -> public functions whose calls are spans
LAYERS = {
    "linalg": ("orthonormal_rows",),
    "channels": ("compose", "complementary", "local_complementary", "channel_from_choi"),
    "algebra": (
        "generate_algebra",
        "commutant",
        "center",
        "block_structure",
        "conditional_expectation",
        "contains",
    ),
    "fermion": ("physical_algebra", "geometric_noise", "majorana_ring"),
    "recovery": (
        "kl_check",
        "superselection_kl_check",
        "tensor_local_check",
        "fermion_local_check",
        "optimal_recovery_fidelity",
        "environment_side_fidelity",
        "verify_duality",
    ),
    "sdp": ("solve",),
    "scenario": ("load_scenario", "run_scenario"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# per-span extra quantities: sdp.solve sizes and iterations, commutant size
SDP_EXTRAS = ("iters", "s_per_iter", "rows", "block_dim_max", "bytes_computed")


def _solve_before(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    m = int(problem.n_constraints)
    dims = [int(d) for d in problem.block_dims]
    return {"rows": m, "block_dim_max": max(dims), "bytes_computed": m * sum(d * d for d in dims) * 16}


def _solve_after(extra, solution):
    extra["iters"] = int(solution.iterations)
    extra["gap"] = float(solution.gap)
    extra["status"] = solution.status


def _commutant_before(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return {"bytes_computed": int(a.ambient_dim) ** 4 * 16}


_BEFORE = {"sdp.solve": _solve_before, "algebra.commutant": _commutant_before}
_AFTER = {"sdp.solve": _solve_after}


class Tracer:
    """Records spans ``(name, start, end, parent, task, extra)`` in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = None
        self._swapped = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            extra = before(args, kwargs) if before else None
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task, extra)
            if after:
                after(extra, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "constrained_recovery" or key.startswith("constrained_recovery.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"constrained_recovery.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._swapped.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()
        return False


def layer_metrics(spans):
    """Per-layer calls, self seconds and extras for one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    out.update({f"sdp.solve.{k}": 0 for k in SDP_EXTRAS})
    out["algebra.commutant.bytes_computed"] = 0
    for i, (name, start, end, _, _, extra) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child[i]
        if name == "sdp.solve":
            out["sdp.solve.iters"] += extra.get("iters", 0)
            out["sdp.solve.rows"] += extra["rows"]
            out["sdp.solve.bytes_computed"] += extra["bytes_computed"]
            out["sdp.solve.block_dim_max"] = max(out["sdp.solve.block_dim_max"], extra["block_dim_max"])
        elif name == "algebra.commutant":
            out["algebra.commutant.bytes_computed"] += extra["bytes_computed"]
    for mod, fns in LAYERS.items():
        out[f"{mod}.self_s"] = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)
    iters = out["sdp.solve.iters"]
    out["sdp.solve.s_per_iter"] = out["sdp.solve.self_s"] / iters if iters else 0.0
    out["trace.spans"] = len(spans)
    return out


def unit(key):
    """Unit of a per-layer metric, from its name."""
    if key.endswith("_s") or key.endswith("s_per_iter"):
        return "s"
    if key.endswith("bytes_computed"):
        return "B"
    return "count"


def solve_records(spans):
    """Iterations, final gap and status of every traced solve, in call order."""
    return [
        {"task": task, "iters": extra.get("iters"), "gap": extra.get("gap"), "status": extra.get("status", "raised"),
         "rows": extra["rows"]}
        for name, _, _, _, task, extra in spans
        if name == "sdp.solve"
    ]
