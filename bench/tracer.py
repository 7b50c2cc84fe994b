"""Outside-in tracing of the package's layers.

The tracer wraps public functions and methods of ``bundle_newton`` from the
outside; the package itself is not edited.  Targets are found by name at
install time.  A module-level function is replaced in every
``bundle_newton`` module that holds a reference to it, because modules
import each other's functions by name.  A layer none of whose targets
exists any more (a later refactor may delete it) is reported as absent
instead of failing the run.

Each timed wrapper counts calls and accumulates self time: its wall time
minus the time of the wrapped calls nested inside it.  Spans are aggregated
per layer as they close, not kept one by one, because the hot layers run
over a million calls per CLI run.  ``BandedMatrix.add`` is only counted:
timing each scalar add would cost more than the add itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "bundle_newton"

# (layer, module, attribute path): timed wrappers.  Several targets may
# feed one layer; the layer is present when at least one target exists.
TIMED = (
    ("cli", "cli", "main"),
    ("newton", "newton", "damped_newton"),
    ("problems.obstacle.path", "problems.obstacle", "obstacle_path_follow"),
    ("geometry.tangent_basis", "geometry", "tangent_basis"),
    ("geometry.retract_sphere", "geometry", "retract_sphere"),
    ("fem1d.assemble_intervals", "fem1d", "assemble_intervals"),
    ("fem1d.assemble_intervals_vector", "fem1d", "assemble_intervals_vector"),
    ("fem1d.factorize", "fem1d", "BlockTriDiag.factorize"),
    ("fem1d.factorize", "fem1d", "BandedMatrix.factorize"),
    ("fem1d.solve", "fem1d", "BlockThomasFactorization.solve"),
    ("fem1d.solve", "fem1d", "BandedFactorization.solve"),
)
COUNTED = (("fem1d.banded_add", "fem1d", "BandedMatrix.add"),)
# methods of the Newton solver's problem interface, wrapped on every class of
# the problems package that defines them
PROBLEM_METHODS = (
    "assemble_residual",
    "assemble_jacobian",
    "assemble_transported_residual",
    "retract",
    "norm_inf",
)

CALLS_AND_SELF = (
    "geometry.tangent_basis",
    "geometry.retract_sphere",
    "fem1d.assemble_intervals",
    "fem1d.assemble_intervals_vector",
    "fem1d.factorize",
    "fem1d.solve",
) + tuple(f"problems.{m}" for m in PROBLEM_METHODS)


def metric_units() -> dict:
    """Unit of every per-layer metric the tracer reports, in report order."""
    units = {}
    for layer in CALLS_AND_SELF:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["fem1d.banded_add.calls"] = "count"
    units["problems.obstacle.stages"] = "count"
    units["problems.obstacle.path_self_s"] = "s"
    for name in ("solves", "outer", "trials"):
        units[f"newton.{name}"] = "count"
    units["newton.accept_ratio"] = "ratio"
    units["newton.failed"] = "count"
    units["newton.self_s"] = "s"
    units["newton.s_per_outer"] = "s"
    units["cli.self_s"] = "s"
    return units


def _metric_layer(name: str) -> str:
    if name.startswith("problems.obstacle."):
        return "problems.obstacle.path"
    if name.startswith("newton."):
        return "newton"
    return name.rsplit(".", 1)[0]


def _lookup(module, path: str):
    """``(owner, attribute)`` for a ``"function"`` or ``"Class.method"`` path;
    the owner is None when the module or class does not exist."""
    cls_name, _, attr = path.rpartition(".")
    owner = getattr(module, cls_name, None) if cls_name else module
    return owner, attr


class Tracer:
    """Installs layer wrappers into ``bundle_newton`` and aggregates spans."""

    def __init__(self):
        self._patches = []  # (owner, name, original), undone in reverse
        self.present = set()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        """Zero all counters before a traced call (in place: wrappers hold them)."""
        self._stack = [0.0]
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.outer = self.trials = self.accepted = self.failed = self.stages = 0

    # -- wrappers -------------------------------------------------------------

    def _timed(self, layer: str, fn, on_result=None):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                tracer.calls[layer] += 1
                tracer.total_s[layer] += elapsed
                tracer.self_s[layer] += elapsed - children
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, layer: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[layer] += 1
            return fn(*args)

        return wrapper

    def _on_newton(self, result) -> None:
        trace = result[1]
        inner = [it.inner_trials for it in trace.iterations]
        self.outer += len(inner)
        self.trials += sum(inner)
        self.accepted += sum(1 for k in inner if k > 0)
        self.failed += trace.terminated.value != "converged"

    def _on_path(self, result) -> None:
        self.stages += len(result.stages)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_function(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; record which layers are present."""
        hooks = {"newton": self._on_newton, "problems.obstacle.path": self._on_path}
        targets = [(layer, mod, path, True) for layer, mod, path in TIMED]
        targets += [(layer, mod, path, False) for layer, mod, path in COUNTED]
        for layer, mod_name, path, timed in targets:
            owner, attr = _lookup(sys.modules.get(f"{PACKAGE}.{mod_name}"), path)
            if owner is None or not callable(owner.__dict__.get(attr)):
                continue
            original = owner.__dict__[attr]
            wrapper = (
                self._timed(layer, original, hooks.get(layer)) if timed else self._counted(layer, original)
            )
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_function(original, wrapper)
            self.present.add(layer)

        prefix = f"{PACKAGE}.problems"
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(prefix):
                continue
            for cls in list(vars(mod).values()):
                if not isinstance(cls, type) or cls.__module__ != mod_name:
                    continue
                for method in PROBLEM_METHODS:
                    if callable(cls.__dict__.get(method)):
                        layer = f"problems.{method}"
                        self._patch(cls, method, self._timed(layer, cls.__dict__[method]))
                        self.present.add(layer)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.present = set()

    # -- report ---------------------------------------------------------------

    def absent(self) -> list:
        """Metric names whose layer had no target to wrap."""
        return [name for name in metric_units() if _metric_layer(name) not in self.present]

    def metrics(self, speed: float = 1.0) -> dict:
        """Per-layer metrics of the calls since the last :meth:`reset`.

        Times are scaled by ``speed``, the machine's relative speed during
        the calls, to seconds at nominal speed (see ``speed.py``).  Absent
        metrics read 0; :meth:`absent` names them.
        """
        out = {}
        for layer in CALLS_AND_SELF:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer] * speed
        out["fem1d.banded_add.calls"] = self.calls["fem1d.banded_add"]
        out["problems.obstacle.stages"] = self.stages
        out["problems.obstacle.path_self_s"] = self.self_s["problems.obstacle.path"] * speed
        out["newton.solves"] = self.calls["newton"]
        out["newton.outer"] = self.outer
        out["newton.trials"] = self.trials
        out["newton.accept_ratio"] = self.accepted / self.trials if self.trials else 0.0
        out["newton.failed"] = self.failed
        out["newton.self_s"] = self.self_s["newton"] * speed
        out["newton.s_per_outer"] = self.total_s["newton"] * speed / self.outer if self.outer else 0.0
        out["cli.self_s"] = self.self_s["cli"] * speed
        return out
