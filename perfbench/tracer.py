"""Span tracer for the benchmark's traced runs.

The tracer replaces public functions of ``duality_lab`` with wrappers that
record one span per call: function, start, end, parent span, the op the
call belongs to and an optional size (states of a generator, dimension of a
matrix exponential, bytes of normals drawn).  Every module namespace that
holds the original function object is patched, so calls made through a
name bound at import (``exact.check_intertwiner``) or through a module
attribute (``processes.sample_jump``) are both seen.  Spans stay in memory
in flat arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from pathlib import Path

import numpy as np

# module -> traced public functions
TRACED = {
    "processes": ("generator_matrix", "enumerate_states", "path_rng", "diffusion_endpoints", "sample_jump"),
    "dualities": ("evaluate", "evaluate_at"),
    "montecarlo": ("estimate_duality_side",),
    "exact": (
        "matrix_exponential_apply",
        "exact_expectation",
        "sip_self_duality_matrix",
        "check_generator_duality",
        "moran_kingman_residual_exact",
        "check_pointwise_duality",
        "reproduce_example",
    ),
    "algebra": ("build_representation", "check_commutation_relations", "check_intertwiner"),
    "reporting": ("write_report",),
    "cli": ("main",),
}

# matrix-exponential dimensions of the exact-oracle sectors (the scaling curve)
EXPM_DIMS = (496, 969, 1771)


def _generator_states(args, kwargs, out) -> float:
    return float(len(out.index))


def _expm_dim(args, kwargs, out) -> float:
    Q = args[0] if args else kwargs["Q"]
    M = getattr(Q, "Q", Q)
    return float(M.shape[0])


def _normals_bytes(args, kwargs, out) -> float:
    # computed from sizes: paths x steps x dimension x 8 bytes
    t = args[2] if len(args) > 2 else kwargs["t"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    n_paths = args[5] if len(args) > 5 else kwargs["n_paths"]
    steps = math.ceil(t / dt - 1e-9) if t > 0 else 0
    return float(n_paths * steps * out.shape[1] * 8)


SIZERS = {
    "processes.generator_matrix": _generator_states,
    "exact.matrix_exponential_apply": _expm_dim,
    "processes.diffusion_endpoints": _normals_bytes,
}


class TraceMismatch(RuntimeError):
    """The spans disagree with call totals the workload knows in advance."""


class Tracer:
    """In-memory span store plus the patching of traced functions."""

    def __init__(self, package) -> None:
        self.modules = [getattr(package, name) for name in TRACED]
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.current_op = -1
        self._op_first_span = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = []  # (original, wrapper) per traced function
        for name_id, qual in enumerate(self.names):
            mod, fn = qual.split(".")
            original = getattr(getattr(package, mod), fn)
            self._wrappers.append((original, self._wrap(name_id, original, SIZERS.get(qual))))

    def _wrap(self, name_id: int, fn, sizer):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.size.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if sizer is not None:
                self.size[idx] = sizer(args, kwargs, out)
            return out

        return wrapper

    def install(self, op_index: int) -> None:
        """Patch the traced functions; spans recorded until uninstall belong to ``op_index``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.current_op = op_index
        self._op_first_span = len(self.start)
        for original, wrapper in self._wrappers:
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self, first: int = 0) -> dict[str, np.ndarray]:
        """Copies of the span columns from span ``first`` on (parents stay global indices)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[first:].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[first:].copy(),
            "op": np.frombuffer(self.op, dtype=np.int32)[first:].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[first:].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[first:].copy(),
            "size": np.frombuffer(self.size, dtype=np.float64)[first:].copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    # -- checks against totals the workload knows --------------------------

    def check_op(self, n_paths: int, gen_sizes, cli_calls: int) -> None:
        """Raise :class:`TraceMismatch` unless the last op's spans match its request."""
        first = self._op_first_span
        a = self.arrays(first)
        names = a["name_id"]
        parent = a["parent"] - first  # local indices, like the spans selected below
        ids = {n: i for i, n in enumerate(self.names)}

        def count(name, where=None):
            sel = np.nonzero(names == ids[name])[0]
            return sel if where is None else sel[where(sel)]

        problems = []
        if n_paths:
            est = count("montecarlo.estimate_duality_side")
            if len(est) != 1:
                problems.append(f"estimate_duality_side calls {len(est)} != 1")
            evals = count("dualities.evaluate", lambda s: np.isin(parent[s], est))
            if len(evals) != n_paths:
                problems.append(f"dualities.evaluate calls under the estimator {len(evals)} != {n_paths} paths")
            rngs = count("processes.path_rng")
            if len(rngs) != n_paths:
                problems.append(f"processes.path_rng calls {len(rngs)} != {n_paths} paths")
        if gen_sizes is not None:
            jumps = count("processes.sample_jump")
            gens = count("processes.generator_matrix")
            cached = np.isin(parent[gens], jumps)
            asked = sorted(int(s) for s in a["size"][gens[~cached]])
            if asked != sorted(gen_sizes):
                problems.append(f"generator_matrix states {asked} != requested {sorted(gen_sizes)}")
            stray = set(int(s) for s in a["size"][gens[cached]]) - set(gen_sizes)
            if stray:
                problems.append(f"sample_jump built generators of unrequested sizes {sorted(stray)}")
        for name in ("cli.main", "reporting.write_report"):
            got = len(count(name))
            if got != cli_calls:
                problems.append(f"{name} calls {got} != {cli_calls}")
        if problems:
            raise TraceMismatch(f"op {self.current_op}: " + "; ".join(problems))

    # -- per-layer summary --------------------------------------------------

    def summary(self, traced_ops: int) -> dict[str, float]:
        """Per-layer metrics, each a per-op mean over ``traced_ops`` ops."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - child
        names = a["name_id"]
        ops = max(traced_ops, 1)
        out: dict[str, float] = {}
        for i, qual in enumerate(self.names):
            sel = names == i
            out[f"{qual}.calls"] = float(sel.sum()) / ops
            out[f"{qual}.s"] = float(dur[sel].sum()) / ops
            out[f"{qual}.self_s"] = float(self_dur[sel].sum()) / ops
        ids = {n: i for i, n in enumerate(self.names)}
        gens = names == ids["processes.generator_matrix"]
        states = a["size"][gens]
        out["processes.generator_matrix.states"] = float(states.sum()) / ops
        out["processes.generator_matrix.dense_bytes"] = float((8.0 * states**2).sum()) / ops
        em = names == ids["processes.diffusion_endpoints"]
        out["processes.diffusion_endpoints.normals_bytes"] = float(a["size"][em].sum()) / ops
        jumps = np.nonzero(names == ids["processes.sample_jump"])[0]
        builds = int(np.isin(parent[gens], jumps).sum())
        out["processes.generator_cache.hit_ratio"] = 1.0 - builds / len(jumps) if len(jumps) else 0.0
        mexp = names == ids["exact.matrix_exponential_apply"]
        for n in EXPM_DIMS:
            sel = mexp & (a["size"] == n)
            out[f"exact.matrix_exponential_apply.s.n{n}"] = float(dur[sel].mean()) if sel.any() else 0.0
        return out
