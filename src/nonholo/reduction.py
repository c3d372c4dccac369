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
`_solve_field` and differ only in the constraint gradients they give it.
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
    SystemError,
    _gram,
    _gram_solve,
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
    "deformed_lambda",
    "deformed_field",
    "deformed_residual",
]

ON_D_TOL = 1e-9


def _plain_inputs(sys: MechanicalSystem, x: np.ndarray):
    """`_solve_field`'s (q, rows, grad_q, qdot, f_v) for phi = mu(q) v at x, f_v = -M^-1 grad V.

    C is left to the caller: `_plain_field` forms it, `_deformed` certifies its own.
    """
    q, v = x[..., : sys.n], x[..., sys.n :]
    mu, dmu, grad_v = sys.mu_dmu_grad_v_at(q)
    grad_q = np.vecmat(v[..., None, :], dmu)  # v @ dmu for each constraint row
    return q, mu, grad_q, v, -np.matvec(sys.M_inv, grad_v)


def _solve_field(sys: MechanicalSystem, q, rows, C, grad_q, qdot, f_v):
    """The one multiplier solve: returns the field (qdot, f_v + M^-1 rows' lambda) and lambda.

    lambda solves C lambda = -(grad_q . qdot + rows . f_v), C = rows M^-1 rows',
    the condition d/dt phi = 0 for a constraint phi with d phi/dq = grad_q and
    d phi/dv = rows, by the one Gram solve `_gram_solve`.  The plain and the
    deformed field both come through here; the plain one forms C with
    `_gram`, the deformed one takes the C that `c_matrix` certified.
    """
    rhs = np.matvec(grad_q, qdot) + np.matvec(rows, f_v)
    lam = -_gram_solve(C, rhs, q)
    force = np.matvec(sys.M_inv, np.matvec(rows.mT, lam))
    return np.concatenate([qdot, f_v + force], axis=-1), lam


def _plain_field(sys: MechanicalSystem, q, mu, grad_q, v, f_v):
    """The plain field and multiplier from x's `_plain_inputs`."""
    return _solve_field(sys, q, mu, _gram(sys, mu), grad_q, v, f_v)


def _lambda_raw(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    return _plain_field(sys, *_plain_inputs(sys, x))[1]


def _require_on_d(sys: MechanicalSystem, x: np.ndarray) -> None:
    """Refuse a row x off D; a stack of rows names the first one off D."""
    res = np.max(np.abs(constraint_residual(sys, x)), axis=-1, initial=0.0)
    off = res > ON_D_TOL
    if off.any():
        raise SystemError(f"state is off D (residual {float(res.flat[np.argmax(off)]):.6g})")


def lambda_continuous(sys: MechanicalSystem, x: np.ndarray, check: bool = True) -> np.ndarray:
    """Reaction multipliers at x, which must lie on D unless check=False."""
    if check:
        _require_on_d(sys, x)
    return _lambda_raw(sys, x)


def h_field(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    """The constrained field (v, -M^-1 grad V + lambda_a M^-1 mu^a) at a row or a stack of rows."""
    return _plain_field(sys, *_plain_inputs(sys, x))[0]


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
        _require_on_d(sys, x)
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
    derived velocity names; delta scales the deformation.
    """

    g: Sequence[Expression]
    delta: float

    def __post_init__(self):
        # one tuple for the object's life, so exprdiff reuses its kernels
        object.__setattr__(self, "g", tuple(self.g))

    def g_at(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        return exprdiff.evaluate(self.g, sys.qv_ctx(x))

    def g_grad_q(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        return exprdiff.gradient(self.g, sys.names, sys.qv_ctx(x))

    def g_grad_v(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        return exprdiff.gradient(self.g, sys.vnames, sys.qv_ctx(x))


def deformed_residual(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """mu(q) v + delta g(q, v) -- the quantity the deformed dynamics conserves."""
    return constraint_residual(sys, x) + dc.delta * dc.g_at(sys, x)


def _deformed(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray, q, mu, grad_q, v, f_v):
    """The deformed field and multiplier at x, from x's `_plain_inputs`."""
    rows = mu + dc.delta * dc.g_grad_v(sys, x)
    grad_q = grad_q + dc.delta * dc.g_grad_q(sys, x)
    return _solve_field(sys, q, rows, c_matrix(sys, rows, q), grad_q, v, f_v)


def deformed_lambda(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """Multiplier of the deformed dynamics (reaction along the deformed one-forms)."""
    return _deformed(sys, dc, x, *_plain_inputs(sys, x))[1]


def deformed_field(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """Dynamics making the deformed residual a first integral.

    With delta = 0 this is `h_field` byte for byte: both take the one Gram
    solve, and the certificate `c_matrix` run first only checks the rows.
    """
    return _deformed(sys, dc, x, *_plain_inputs(sys, x))[0]


def _recorded_field(sys: MechanicalSystem, dc: DeformedConstraint | None, x: np.ndarray):
    """The field at the row x with the multiplier and the residual its one solve gives.

    Plain (dc None) or deformed, this is (h_field, _lambda_raw,
    constraint_residual) at x, or (deformed_field, deformed_lambda,
    deformed_residual), bit for bit, for one multiplier solve instead of two
    and one evaluation of mu instead of three.
    """
    q, mu, grad_q, v, f_v = _plain_inputs(sys, x)
    if dc is None:
        return *_plain_field(sys, q, mu, grad_q, v, f_v), mu @ v
    return *_deformed(sys, dc, x, q, mu, grad_q, v, f_v), mu @ v + dc.delta * dc.g_at(sys, x)
