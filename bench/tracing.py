"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps every public function of every ``ivoleq`` module,
wherever a module binds it (``ivoleq.equilibrium.bond_price`` and
``ivoleq.cli.bond_price`` are the same function and both get the same
wrapper), plus the public methods of ``PathBundle`` and the exponent
evaluators of ``RiccatiSolution``.  Each call records a span in memory:
name, start, end, parent span and pass id.  ``Tracer.restore`` puts every
wrapped attribute back and checks that nothing was left behind.

Computed counts (Riccati evaluation points, quadrature nodes, simulated
path steps, normal draws and idiosyncratic-increment bytes) are derived
from argument and result sizes at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from pathlib import Path

import numpy as np

# Public dynamics functions that generate paths themselves; the ones that
# take a bundle from ``simulate`` are counted there.
_PATH_SOURCES = {
    "simulate",
    "mc_state_mean",
    "mc_bond_price",
    "mc_annuity",
    "verify_forward_measure",
    "mc_risk_premium",
    "solve_multipliers",
    "martingale_checks",
}
_BUNDLE_METHODS = (
    "int_v",
    "int_sqrt_v_dW",
    "int_rate",
    "log_density_min",
    "xi_min",
    "log_belief_density",
    "income_paths",
    "consumption_cum",
)

COMPUTED = (
    "riccati.eval.points",
    "equilibrium.quad_nodes.points",
    "dynamics.path_steps",
    "dynamics.normals_drawn",
    "dynamics.dz_bytes",
)


def ivoleq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "ivoleq" or name.startswith("ivoleq.")]


def snapshot() -> dict:
    """Identity of every attribute the tracer may touch, for the restore check."""
    from ivoleq.dynamics import PathBundle
    from ivoleq.riccati import RiccatiSolution

    snap = {}
    for mod in ivoleq_modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = id(val)
    for cls in (PathBundle, RiccatiSolution):
        for attr, val in vars(cls).items():
            snap[(cls.__qualname__, attr)] = id(val)
    return snap


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.pass_id: int | None = None
        self.computed: dict[str, int] = dict.fromkeys(COMPUTED, 0)
        self.names: set[str] = set()  # every span name a wrapper can record
        self._restore: list[tuple[object, str, object]] = []
        self._dz_seen: weakref.WeakSet = weakref.WeakSet()
        self._snapshot: dict | None = None

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.pass_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_eval(self, args, kwargs, result) -> None:
        self.computed["riccati.eval.points"] += int(np.size(args[1]))

    def _count_nodes(self, args, kwargs, result) -> None:
        self.computed["equilibrium.quad_nodes.points"] += int(result[0].size)

    def _count_paths(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            econ, sim = bound.arguments["econ"], bound.arguments["sim"]
            horizon = bound.arguments.get("U", bound.arguments.get("horizon"))
            steps = sim.n_steps(econ.horizon if horizon is None else horizon)
            self.computed["dynamics.path_steps"] += sim.n_paths * steps
            if sim.scheme == "euler":
                drawn = sim.n_paths // 2 if sim.antithetic else sim.n_paths
                self.computed["dynamics.normals_drawn"] += drawn * steps

        return after

    def _count_dz(self, args, kwargs, result) -> None:
        bundle = args[0]
        if bundle not in self._dz_seen:
            self._dz_seen.add(bundle)
            self.computed["dynamics.dz_bytes"] += int(result.nbytes)
            self.computed["dynamics.normals_drawn"] += int(result.size)

    # -- install and restore --------------------------------------------

    def install(self) -> None:
        from ivoleq.dynamics import PathBundle
        from ivoleq.riccati import RiccatiSolution

        if self._restore:
            raise RuntimeError("tracer already installed")
        self._snapshot = snapshot()
        modules = ivoleq_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"cli.{attr[4:]}" if layer == "cli" and attr.startswith("cmd_") else f"{layer}.{attr}"
                after = None
                if name == "equilibrium.quad_nodes":
                    after = self._count_nodes
                elif layer == "dynamics" and attr in _PATH_SOURCES:
                    after = self._count_paths(fn)
                wrappers[id(fn)] = self._wrap(name, fn, after)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._set(mod, attr, wrappers[id(val)])
        for attr in ("eval_b", "eval_a"):
            self._set(RiccatiSolution, attr, self._wrap("riccati.eval", getattr(RiccatiSolution, attr), self._count_eval))
        for attr in _BUNDLE_METHODS:
            self._set(PathBundle, attr, self._wrap(f"dynamics.bundle.{attr}", getattr(PathBundle, attr)))
        dz = vars(PathBundle)["dZ"]
        self._set(PathBundle, "dZ", property(self._wrap("dynamics.bundle.dZ", dz.fget, self._count_dz)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._snapshot is not None:
            after = snapshot()
            changed = [key for key, ident in self._snapshot.items() if after.get(key) != ident]
            if changed:
                raise RuntimeError(f"traced run left ivoleq attributes changed: {changed}")

    # -- reduction -------------------------------------------------------

    def self_times(self, passes: set[int]) -> dict[str, dict[str, float]]:
        """Calls and self time per span name, over spans of the given passes.

        Self time is a span's duration minus the durations of its direct
        children; on one thread children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for k, (name, t0, t1, parent, pid) in enumerate(self.spans):
            if pid in passes:
                out[name]["calls"] += 1
                out[name]["self_s"] += (t1 - t0) - child[k]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for k, (name, t0, t1, parent, pid) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": t0, "end": t1, "parent": parent, "pass": pid}) + "\n")
