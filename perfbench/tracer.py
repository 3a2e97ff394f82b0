"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` with
a wrapper that opens a span around the call.  A function is replaced in
every ``grading_lab`` module that bound it by name (``realize`` is imported
into ``cli``, ``dynamics``, ``dressing`` and ``states``), and a method or
property is replaced on its class.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of the spans it
directly contains.  Some wrappers also run a hook after the span closes;
hook time (notably the exact SVD that checks each ``op_norm`` result) is
taken off the tracer's clock, so it is in no span and in no pass time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (metric name, module, attribute); AlgebraElement.mul is its ``*`` operator
TARGETS = [
    ("config.load_config", "config", "load_config"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("cli.cmd_evolve", "cli", "cmd_evolve"),
    ("cli.cmd_decay", "cli", "cmd_decay"),
    ("cli.cmd_block", "cli", "cmd_block"),
    ("cli.write_csv", "cli", "write_csv"),
    ("weyl.mono_mul", "weyl", "mono_mul"),
    ("weyl.AlgebraElement.mul", "weyl", "AlgebraElement.__mul__"),
    ("weyl.AlgebraElement.commutator", "weyl", "AlgebraElement.commutator"),
    ("dressing.dressed_weyl", "dressing", "dressed_weyl"),
    ("dressing.dressed_matrix_unit", "dressing", "dressed_matrix_unit"),
    ("dressing.dressed_commutation_report", "dressing", "dressed_commutation_report"),
    ("dressing.bilinear_connection", "dressing", "bilinear_connection"),
    ("dressing.shift_covariance_defect", "dressing", "shift_covariance_defect"),
    ("dense.realize", "dense", "realize"),
    ("dense.op_norm", "dense", "op_norm"),
    ("dense.DenseOperator.commutator", "dense", "DenseOperator.commutator"),
    ("dense.block_sites", "dense", "block_sites"),
    ("dense.sector_decompose", "dense", "sector_decompose"),
    ("dynamics.QuadraticModel.hamiltonian", "dynamics", "QuadraticModel.hamiltonian"),
    ("dynamics.QuadraticModel.eigensystem", "dynamics", "QuadraticModel.eigensystem"),
    ("dynamics.QuadraticModel.propagator", "dynamics", "QuadraticModel.propagator"),
    ("dynamics.heisenberg_evolve", "dynamics", "heisenberg_evolve"),
    ("dynamics.commutator_decay", "dynamics", "commutator_decay"),
    ("dynamics.reconstruct_spin_evolution", "dynamics", "reconstruct_spin_evolution"),
    ("dynamics.span_residual", "dynamics", "span_residual"),
    ("dynamics.claimed_commutator_audit", "dynamics", "claimed_commutator_audit"),
    ("dynamics.smear", "dynamics", "smear"),
    ("oneparticle.evolve", "oneparticle", "evolve"),
    ("oneparticle.symbol", "oneparticle", "symbol"),
    ("states.two_point", "states", "two_point"),
    ("states.clustering_report", "states", "clustering_report"),
]

# complex matmuls per call, each counted as 8 * dim**3 floating-point operations
MATMULS = {
    "dynamics.QuadraticModel.propagator": 1,
    "dynamics.heisenberg_evolve": 2,
    "dense.DenseOperator.commutator": 2,
}

NORM_RTOL = 1e-12


class Tracer:
    """Span accounting for one traced pass at a time."""

    def __init__(self):
        self._paused = 0.0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def now(self) -> float:
        """Wall clock with hook time removed."""
        return time.perf_counter() - self._paused

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.gflop: defaultdict[str, float] = defaultdict(float)
        self.dim_max = 0
        self.norm_calls = 0
        self.norm_exact = 0
        self._propagations: set[tuple[int, float]] = set()
        self._models: list[object] = []  # keeps ids in _propagations unique

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer values of the pass since the last reset."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in MATMULS:
            out[f"{name}.gflop_computed"] = self.gflop[name]
        out["dense.realize.dim_max"] = self.dim_max
        # a layer never called reports 0 for its ratios
        out["dense.op_norm.exact_frac"] = self.norm_exact / self.norm_calls if self.norm_calls else 0.0
        props = self.calls["dynamics.QuadraticModel.propagator"]
        out["dynamics.QuadraticModel.propagator.distinct_frac"] = len(self._propagations) / props if props else 0.0
        return out

    # -- hooks, run after the span with the clock paused --------------------

    def _count_flops(self, name, args, result) -> None:
        dim = result.shape[0] if isinstance(result, np.ndarray) else result.chain.dim
        self.gflop[name] += MATMULS[name] * 8 * dim**3 / 1e9

    def _after_realize(self, name, args, result) -> None:
        self.dim_max = max(self.dim_max, result.chain.dim)

    def _after_op_norm(self, name, args, result) -> None:
        m = args[0]
        a = m.entries if hasattr(m, "entries") else np.asarray(m, dtype=complex)
        exact = float(np.linalg.norm(a, 2)) if a.size else 0.0
        self.norm_calls += 1
        self.norm_exact += abs(result - exact) <= NORM_RTOL * exact if exact else result == 0.0

    def _after_propagator(self, name, args, result) -> None:
        model, t = args
        self._models.append(model)
        self._propagations.add((id(model), float(t)))
        self._count_flops(name, args, result)

    def _hook(self, name):
        if name == "dense.realize":
            return self._after_realize
        if name == "dense.op_norm":
            return self._after_op_norm
        if name == "dynamics.QuadraticModel.propagator":
            return self._after_propagator
        if name in MATMULS:
            return self._count_flops
        return None

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self._hook(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self.now(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = self.now() - frame[0]
                self.calls[name] += 1
                self.self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if hook is not None:
                start = time.perf_counter()
                hook(name, args, result)
                self._paused += time.perf_counter() - start
            return result

        return traced

    def install(self) -> int:
        """Wrap every target; returns the number of bindings replaced."""
        package = [m for n, m in sys.modules.items() if n == "grading_lab" or n.startswith("grading_lab.")]
        for name, module, attr in TARGETS:
            mod = importlib.import_module(f"grading_lab.{module}")
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[member]
                new = property(self._wrap(name, orig.fget)) if isinstance(orig, property) else self._wrap(name, orig)
                self._replace(cls, member, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig)
            for owner in package:
                for binding, value in list(vars(owner).items()):
                    if value is orig:
                        self._replace(owner, binding, new)
        return len(self._undo)

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
