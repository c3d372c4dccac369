"""Simulation toolkit for nonholonomically constrained mechanical systems.

The library describes a mechanical system on Q = R^n by a mass matrix, a
potential and linear velocity constraints mu(q) v = 0, then offers three
views of its dynamics:

* the continuous constrained flow, with the multipliers eliminated so the
  equations become an ordinary vector field tangent to the constraint
  distribution (`system`, `reduction`, `flow`);
* constraint-respecting discrete schemes of first and second order, plus
  the two-point scheme they both descend from (`discrete`);
* machinery that interpolates discrete steps inside the distribution and
  rewrites a one-step map as the exact time-eps evolution of a periodically
  perturbed field (`embed`).

Expressions (potentials, constraint rows, deformations) are plain strings
parsed by `exprdiff`, which also supplies exact gradients and Hessians.
The `nonholo` console script drives batch runs from JSON configs.
"""
from __future__ import annotations

# `cli` is left to load on demand, so `python -m nonholo.cli` imports it only once.
from . import discrete, embed, exprdiff, flow, reduction, system
from .discrete import run_integrator
from .embed import reduced_problem, reduced_step_map, verify_embedding
from .flow import reference_flow
from .system import MechanicalSystem, derive_connection

__version__ = "0.1.0"

__all__ = [
    "discrete",
    "embed",
    "exprdiff",
    "flow",
    "reduction",
    "system",
    "MechanicalSystem",
    "derive_connection",
    "reference_flow",
    "run_integrator",
    "reduced_problem",
    "reduced_step_map",
    "verify_embedding",
    "__version__",
]
