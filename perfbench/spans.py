"""Spans around calls into the qwblock layers, recorded from outside.

Each listed function is wrapped under every name a qwblock module binds
it to, so the wrapper sits exactly where the caller looks the function
up (``qwblock.boundary.integrate_pv``, ``qwblock.solver.assemble``, ...).
A span records its name, parent span, start and end; self time is the
span's duration minus the time its child spans cover.  Spans stay in
memory as compact arrays and are aggregated once, at the end of the run.

A listed function that no longer exists is skipped and reports 0 calls,
so deleting a layer does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

# (layer name, module, attribute path) of every function that gets a span.
LAYERS = [
    ("quadrature.integrate_pv", "qwblock.quadrature", "integrate_pv"),
    ("quadrature.cosine_grid", "qwblock.quadrature", "cosine_grid"),
    ("boundary.theta1", "qwblock.boundary", "theta1"),
    ("boundary.phi1_exponent_big", "qwblock.boundary", "phi1_exponent_big"),
    ("boundary.BoundaryCache.build", "qwblock.boundary", "BoundaryCache.build"),
    ("boundary.BoundaryCache.phi1", "qwblock.boundary", "BoundaryCache.phi1"),
    ("boundary.phi2", "qwblock.boundary", "phi2"),
    ("kernel.branch_points", "qwblock.kernel", "branch_points"),
    ("kernel.kernel_value", "qwblock.kernel", "kernel_value"),
    ("kernel.x_of_theta", "qwblock.kernel", "x_of_theta"),
    ("solver.blocking", "qwblock.solver", "blocking"),
    ("solver.solve_boundary", "qwblock.solver", "solve_boundary"),
    ("solver.assemble", "qwblock.solver", "assemble"),
    ("solver.eval_P1", "qwblock.solver", "eval_P1"),
    ("solver.baseline_a0", "qwblock.solver", "baseline_a0"),
    ("cli.cmd_solve", "qwblock.cli", "cmd_solve"),
    ("cli.cmd_sweep", "qwblock.cli", "cmd_sweep"),
    ("oracle.default_box", "qwblock.oracle", "default_box"),
    ("oracle.solve_limiting_walk", "qwblock.oracle", "solve_limiting_walk"),
    ("oracle.solve_prelimit", "qwblock.oracle", "solve_prelimit"),
    # SciPy's sparse LU solve, as the oracle looks it up; it splits the
    # oracle's time into generator assembly and factorisation.
    ("oracle.spsolve", "scipy.sparse.linalg", "spsolve"),
    ("model.validate", "qwblock.model", "validate"),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = [name for name, _, _ in LAYERS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """The root span of one timed operation."""
        idx = self.open(self._name(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, func, name_id: int):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every listed function under each name it is bound to."""
        if self._patches:
            return
        self.missing = []
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[leaf]
            name_id = self._name(name)
            if isinstance(owner, type):
                # methods and classmethods are looked up on the class
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name_id))
                else:
                    wrapped = self._wrap(original, name_id)
                self._patch(owner, leaf, original, wrapped)
                continue
            wrapped = self._wrap(original, name_id)
            bound = False
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "qwblock" or mod_name.startswith("qwblock.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
                        bound = True
            if not bound:
                # looked up as an attribute of a foreign module (spsolve)
                self._patch(owner, leaf, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out
