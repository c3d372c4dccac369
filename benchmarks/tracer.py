"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``nonholo`` layer from the
outside; the package itself is not changed.  Many modules bind these
functions by name (``flow.h_field``, ``discrete._lambda_raw``,
``embed.flow_field``, the step functions in ``embed._NODE_STEPS``,
``cli.integrate`` ...), so every binding of a wrapped function in every
``nonholo`` module is replaced, including values of module-level dicts.
Methods are replaced on their class.

Leaf layers make 10^5 to 10^6 calls per pass, so spans are not kept one by
one: each span is folded into an aggregate per (name, parent name) that
holds the call count and the self time, which is the span's duration minus
the time of the wrapped calls made inside it.

``install`` keeps every replaced binding, so ``uninstall`` can put the
originals back and untraced passes can run between traced ones.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# Schemes whose steps solve their step equations with Newton; vni10 is explicit.
NEWTON_SCHEMES = ("vni20", "original_node", "dla")

# (span name, module, class or None, attribute), by layer from the bottom up.
SPANS = (
    ("exprdiff.parse", "exprdiff", None, "parse"),
    ("exprdiff.evaluate", "exprdiff", None, "evaluate"),
    ("exprdiff.gradient", "exprdiff", None, "gradient"),
    ("exprdiff.hessian", "exprdiff", None, "hessian"),
    ("system.mu_at", "system", "MechanicalSystem", "mu_at"),
    ("system.mu_jac_at", "system", "MechanicalSystem", "mu_jac_at"),
    ("system.grad_v_at", "system", "MechanicalSystem", "grad_v_at"),
    ("system.hess_v_at", "system", "MechanicalSystem", "hess_v_at"),
    ("system.c_matrix", "system", None, "c_matrix"),
    ("system.project_velocity", "system", None, "project_velocity"),
    ("system.constraint_residual", "system", None, "constraint_residual"),
    ("system.energy", "system", None, "energy"),
    ("system.a_at", "system", "ConnectionSplit", "a_at"),
    ("reduction.h_field", "reduction", None, "h_field"),
    ("reduction._lambda_raw", "reduction", None, "_lambda_raw"),
    ("reduction.lambda_continuous", "reduction", None, "lambda_continuous"),
    ("reduction.reduced_field", "reduction", None, "reduced_field"),
    ("reduction.psi_embed", "reduction", None, "psi_embed"),
    ("reduction.reduce_state", "reduction", None, "reduce_state"),
    ("flow.rk4_step", "flow", None, "rk4_step"),
    ("flow.integrate", "flow", None, "integrate"),
    ("flow.reference_flow", "flow", None, "reference_flow"),
    ("flow.flow_field", "flow", None, "flow_field"),
    ("flow.Trajectory.to_csv", "flow", "Trajectory", "to_csv"),
    ("discrete.run_integrator", "discrete", None, "run_integrator"),
    ("discrete.vni10_step", "discrete", None, "vni10_step"),
    ("discrete.vni20_step", "discrete", None, "vni20_step"),
    ("discrete.original_node_step", "discrete", None, "original_node_step"),
    ("discrete.dla_step", "discrete", None, "dla_step"),
    ("discrete.newton_solve", "discrete", None, "newton_solve"),
    ("discrete.DiscreteNonholonomicSystem.check_regularity", "discrete",
     "DiscreteNonholonomicSystem", "check_regularity"),
    ("discrete.deformed_admissible_velocity", "discrete", None, "deformed_admissible_velocity"),
    ("discrete.DiscreteTrajectory.to_csv", "discrete", "DiscreteTrajectory", "to_csv"),
    ("embed.verify_embedding", "embed", None, "verify_embedding"),
    ("embed.EvolutionInterpolant.g_eval", "embed", "EvolutionInterpolant", "g_eval"),
    ("embed.EvolutionInterpolant.g_tilde", "embed", "EvolutionInterpolant", "g_tilde"),
    ("embed.EvolutionInterpolant.g_tilde_dtau", "embed", "EvolutionInterpolant", "g_tilde_dtau"),
    ("embed.EvolutionInterpolant._fd_jacobian", "embed", "EvolutionInterpolant", "_fd_jacobian"),
    ("cli.main", "cli", None, "main"),
    ("cli.build_system", "cli", None, "build_system"),
    ("cli.convergence_study", "cli", None, "convergence_study"),
)
SPAN_NAMES = tuple(span[0] for span in SPANS)


class Tracer:
    """Aggregated spans plus the Newton counts of every discrete run."""

    def __init__(self):
        self.bindings: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, time of wrapped children]
        self._undo: list = []  # calls that restore the bindings install replaced
        self.reset()

    def reset(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}  # (name, parent) -> [calls, self_s]
        self.newton_steps = 0
        self.newton_iters = 0
        self.newton_iters_max = 0

    def _wrap(self, name: str, fn, after=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent is not None else None)
                agg = self.spans.get(key)
                if agg is None:
                    agg = self.spans[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_newton(self, args, kwargs, traj) -> None:
        """Newton counts of one run_integrator call, over the steps that solved with Newton."""
        scheme = kwargs["scheme"] if "scheme" in kwargs else args[1]
        if scheme not in NEWTON_SCHEMES:
            return
        iters = traj.newton_iters[1:]
        self.newton_steps += len(iters)
        self.newton_iters += int(iters.sum())
        if len(iters):
            self.newton_iters_max = max(self.newton_iters_max, int(iters.max()))

    def install(self) -> None:
        """Replace every binding of every function in SPANS by its wrapper."""
        if self._undo:
            raise RuntimeError("the tracer is already installed")
        modules = [m for key, m in sys.modules.items() if key == "nonholo" or key.startswith("nonholo.")]
        for name, module_name, owner, attr in SPANS:
            module = importlib.import_module("nonholo." + module_name)
            after = self._count_newton if name == "discrete.run_integrator" else None
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, after))
                self._undo.append(functools.partial(setattr, cls, attr, original))
                self.bindings[name] = 1
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, after)
            self.bindings[name] = sum(_rebind(m, original, wrapped, self._undo) for m in modules)

    def uninstall(self) -> None:
        """Put back every binding install replaced, last replaced first."""
        while self._undo:
            self._undo.pop()()

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, summed over parents."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, _), (calls, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def edges(self) -> list[dict]:
        """The aggregate per (name, parent), for the run record."""
        return [
            {"name": name, "parent": parent, "calls": calls, "self_s": self_s}
            for (name, parent), (calls, self_s) in sorted(self.spans.items(), key=str)
        ]


def _rebind(module, original, wrapped, undo: list) -> int:
    """Point every module-level name (and dict value) bound to `original` at `wrapped`.

    Appends to `undo` one call per replaced binding that restores it.
    """
    count = 0
    for key, value in list(vars(module).items()):
        if value is original:
            setattr(module, key, wrapped)
            undo.append(functools.partial(setattr, module, key, value))
            count += 1
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapped
                elif isinstance(v, tuple) and any(item is original for item in v):
                    value[k] = tuple(wrapped if item is original else item for item in v)
                else:
                    continue
                undo.append(functools.partial(value.__setitem__, k, v))
                count += 1
    return count
