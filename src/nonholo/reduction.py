"""Reaction forces and reduction of the constrained equations of motion.

The constrained dynamics on D is the ODE

    q' = v,      M v' = -grad V(q) + lambda_alpha(q, v) mu^alpha(q)',

with the multiplier chosen so that d/dt [mu(q) v] = 0.  Splitting the
coordinates with a `ConnectionSplit` eliminates the fiber velocities and
yields an unconstrained ODE in the flat reduced coordinates
xi = (q, v_base); `psi_embed` and `reduce_state` convert between the
two pictures.  States are flat rows x = (q, v) of length 2n throughout.
The plain field, the lift and the reduced field also take a stack (..., d)
of rows: every product is a stacked `np.matvec`, `np.vecmat`, matmul or
solve, which gives row b of a stack bit for bit as the call on row b alone
(and as `@` on one row), so one code path serves both.  An unconstrained
system (m = 0) takes the same path on zero-row arrays: lambda is empty.

The dynamics of a deformed constraint mu(q) v + delta g(q, v) = 0 lives
here as well.  Both fields eliminate the multiplier with the one solve
`_field` and differ only in the constraint gradients they give it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprdiff
from .exprdiff import Expression
from .system import (
    ConnectionSplit,
    MechanicalSystem,
    _gram,
    _gram_solve,
    _require_admissible,
    c_matrix,
    constraint_residual,
)

__all__ = [
    "lambda_continuous",
    "h_field",
    "psi_embed",
    "reduced_field",
    "reduce_state",
    "DeformedConstraint",
    "deformed_field",
    "deformed_residual",
]


def _field(sys: MechanicalSystem, dc: DeformedConstraint | None, x: np.ndarray):
    """The one multiplier solve: (field, lambda) at a row or a stack of rows x = (q, v).

    The constraint phi is mu(q) v when dc is None, mu(q) v + delta g(q, v)
    otherwise.  lambda solves C lambda = -(d phi/dq . v + d phi/dv . f_v),
    the condition d/dt phi = 0, with f_v = -M^-1 grad V, rows = d phi/dv and
    C = rows M^-1 rows', by the one Gram solve `_gram_solve`; the field is
    (v, f_v + M^-1 rows' lambda).  The plain field forms C with `_gram`, the
    deformed one takes the C that `c_matrix` certified.
    """
    q, v = x[..., : sys.n], x[..., sys.n :]
    mu, dmu, grad_v = sys.mu_dmu_grad_v_at(q)
    rows, grad_q = mu, np.vecmat(v[..., None, :], dmu)  # v @ dmu for each constraint row
    f_v = -np.matvec(sys.M_inv, grad_v)
    if dc is None:
        C = _gram(sys, mu)
    else:
        dg = dc.delta * dc.g_grad(sys, x)
        rows, grad_q = mu + dg[..., sys.n :], grad_q + dg[..., : sys.n]
        C = c_matrix(sys, rows, q)
    lam = -_gram_solve(C, np.matvec(grad_q, v) + np.matvec(rows, f_v), q)
    force = np.matvec(sys.M_inv, np.matvec(rows.mT, lam))
    return np.concatenate([v, f_v + force], axis=-1), lam


def _lambda_raw(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    return _field(sys, None, x)[1]


def lambda_continuous(sys: MechanicalSystem, x: np.ndarray, check: bool = True) -> np.ndarray:
    """Reaction multipliers at x, which must lie on D unless check=False."""
    if check:
        _require_admissible(constraint_residual(sys, x), "state is off D")
    return _lambda_raw(sys, x)


def h_field(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    """The constrained field (v, -M^-1 grad V + lambda_a M^-1 mu^a) at a row or a stack of rows."""
    return _field(sys, None, x)[0]


def psi_embed(sys: MechanicalSystem, split: ConnectionSplit, xi) -> np.ndarray:
    """Lift xi = (q, v_base) to the row x = (q, v) of D above it: v_fiber = -A(q) v_base.

    A stack of xi (..., 2n - m) lifts row by row to (..., 2n).
    """
    xi = np.asarray(xi, dtype=float)
    q, v_base = xi[..., : sys.n], xi[..., sys.n :]
    v = np.zeros(xi.shape[:-1] + (sys.n,))
    v[..., list(split.base)] = v_base
    v[..., list(split.fiber)] = np.matvec(-split.a_at(sys, q), v_base)
    return np.concatenate([q, v], axis=-1)


def reduce_state(
    sys: MechanicalSystem, split: ConnectionSplit, x: np.ndarray, check: bool = True
) -> np.ndarray:
    """Project a point x = (q, v) of D to its reduced coordinates xi = (q, v_base).

    A stack of rows (..., 2n) projects row by row to (..., 2n - m).
    """
    if check:
        _require_admissible(constraint_residual(sys, x), "state is off D")
    return np.concatenate([x[..., : sys.n], x[..., sys.n :][..., list(split.base)]], axis=-1)


def reduced_field(sys: MechanicalSystem, split: ConnectionSplit, xi) -> np.ndarray:
    """The unconstrained ODE in xi = (q, v_base): the q and v_base rows of h along the lift.

    A stack of xi (..., 2n - m) gives the field of each row, (..., 2n - m).
    """
    h = h_field(sys, psi_embed(sys, split, xi))
    return np.concatenate([h[..., : sys.n], h[..., sys.n :][..., list(split.base)]], axis=-1)


@dataclass(frozen=True)
class DeformedConstraint:
    """Constraint set mu(q) v + delta g(q, v) = 0.

    Each entry of g is an expression over the configuration names and the
    derived velocity names; delta scales the deformation.  g and its
    gradients take a row x = (q, v) or a stack of rows (..., 2n).
    """

    g: Sequence[Expression]
    delta: float

    def __post_init__(self):
        # one tuple for the object's life, so exprdiff reuses its kernels
        object.__setattr__(self, "g", tuple(self.g))

    def g_at(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        lead, ctx = sys._bind(x)
        return exprdiff.evaluate(self.g, ctx).reshape(lead + (len(self.g),))

    def g_grad(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        """(dg/dq, dg/dv) side by side, shape (m, 2n); a stack (..., 2n) gives (..., m, 2n)."""
        lead, ctx = sys._bind(x)
        names = sys.names + sys.vnames
        return exprdiff.gradient(self.g, names, ctx).reshape(lead + (len(self.g), 2 * sys.n))


def deformed_residual(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """mu(q) v + delta g(q, v) -- the quantity the deformed dynamics conserves; a stack too."""
    return constraint_residual(sys, x) + dc.delta * dc.g_at(sys, x)


def deformed_field(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """Dynamics making the deformed residual a first integral.

    With delta = 0 this is `h_field` byte for byte: both take the one Gram
    solve, and the certificate `c_matrix` run first only checks the rows.
    """
    return _field(sys, dc, x)[0]

