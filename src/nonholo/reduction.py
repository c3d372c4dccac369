"""Reaction forces and reduction of the constrained equations of motion.

The constrained dynamics on D is the ODE

    q' = v,      M v' = -grad V(q) + lambda_alpha(q, v) mu^alpha(q)',

with the multiplier chosen so that d/dt [mu(q) v] = 0.  Splitting the
coordinates with a `ConnectionSplit` eliminates the fiber velocities and
yields an unconstrained ODE in the flat reduced coordinates
xi = (q, v_base); `psi_embed` and `psi_pseudo_inverse` convert between the
two pictures.  States are flat rows x = (q, v) of length 2n throughout.
The plain field, the lift and the reduced field also take a stack (..., d)
of rows: every product is a stacked `np.matvec`, `np.vecmat`, matmul or
solve, which gives row b of a stack bit for bit as the call on row b alone
(and as `@` on one row), so one code path serves both.

Two modified versions of the field live here as well: an order-eps^p
perturbation restored to tangency by adjusting the multiplier, and the
dynamics of a genuinely deformed constraint mu(q) v + delta g(q, v) = 0.
All three eliminate the multiplier with the one solve `_solve_field` and
differ only in the constraint gradients, velocity and force they give it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exprdiff
from .exprdiff import Expression
from .system import (
    CMatrix,
    ConnectionSplit,
    MechanicalSystem,
    SystemError,
    _checked_gram,
    _gram_solve,
    c_matrix,
    constraint_residual,
)

__all__ = [
    "lambda_continuous",
    "h_field",
    "psi_embed",
    "grad_psi",
    "psi_pseudo_inverse",
    "reduced_field",
    "reduce_state",
    "PerturbationInput",
    "perturbed_lambda",
    "perturbed_field",
    "perturbed_field_diagnostic",
    "DeformedConstraint",
    "deformed_c_matrix",
    "deformed_lambda",
    "deformed_field",
    "deformed_residual",
]

ON_D_TOL = 1e-9


def _plain_inputs(sys: MechanicalSystem, x: np.ndarray):
    """`_solve_field`'s (q, rows, grad_q, qdot, f_v) for phi = mu(q) v at x, f_v = -M^-1 grad V."""
    q, v = x[..., : sys.n], x[..., sys.n :]
    mu, dmu = sys.mu_at(q), sys.mu_jac_at(q)
    grad_q = np.vecmat(v[..., None, :], dmu)  # v @ dmu for each constraint row
    return q, mu, grad_q, v, -np.matvec(sys.M_inv, sys.grad_v_at(q))


def _solve_field(sys: MechanicalSystem, q, rows, grad_q, qdot, f_v, checked: bool = False):
    """The one multiplier solve: returns the field (qdot, f_v + M^-1 rows' lambda) and lambda.

    lambda solves (rows M^-1 rows') lambda = -(grad_q . qdot + rows . f_v), the
    condition d/dt phi = 0 for a constraint phi with d phi/dq = grad_q and
    d phi/dv = rows.  The plain field takes the unchecked hot-path Gram solve;
    `checked` takes the Cholesky- and condition-checked inverse instead (one
    row only).
    """
    rhs = np.matvec(grad_q, qdot) + np.matvec(rows, f_v)
    if checked:
        lam = -np.matvec(_checked_gram(sys, rows, q).inv, rhs)
    else:
        lam = -_gram_solve(sys, rows, rhs, q)
    force = np.matvec(sys.M_inv, np.matvec(rows.mT, lam))
    return np.concatenate([qdot, f_v + force], axis=-1), lam


def _lambda_raw(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    if sys.m == 0:
        return np.zeros(0)
    return _solve_field(sys, *_plain_inputs(sys, x))[1]


def _require_on_d(sys: MechanicalSystem, x: np.ndarray) -> None:
    if sys.m:
        res = float(np.max(np.abs(constraint_residual(sys, x))))
        if res > ON_D_TOL:
            raise SystemError(f"state is off D (residual {res:.6g})")


def lambda_continuous(sys: MechanicalSystem, x: np.ndarray, check: bool = True) -> np.ndarray:
    """Reaction multipliers at x, which must lie on D unless check=False."""
    if check:
        _require_on_d(sys, x)
    return _lambda_raw(sys, x)


def h_field(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    """The constrained field (v, -M^-1 grad V + lambda_a M^-1 mu^a) at a row or a stack of rows."""
    if sys.m == 0:
        f_v = -np.matvec(sys.M_inv, sys.grad_v_at(x[..., : sys.n]))
        return np.concatenate([x[..., sys.n :], f_v], axis=-1)
    return _solve_field(sys, *_plain_inputs(sys, x))[0]


def psi_embed(sys: MechanicalSystem, split: ConnectionSplit, xi) -> np.ndarray:
    """Lift xi = (q, v_base) to the row x = (q, v) of D above it: v_fiber = -A(q) v_base.

    A stack of xi (..., 2n - m) lifts row by row to (..., 2n).
    """
    xi = np.asarray(xi, dtype=float)
    q, v_base = xi[..., : sys.n], xi[..., sys.n :]
    v = np.zeros(xi.shape[:-1] + (sys.n,))
    v[..., list(split.base)] = v_base
    if sys.m:
        v[..., list(split.fiber)] = np.matvec(-split.a_at(sys, q), v_base)
    return np.concatenate([q, v], axis=-1)


def grad_psi(sys: MechanicalSystem, split: ConnectionSplit, xi) -> np.ndarray:
    """Jacobian of the lift, shape (2n, n + (n - m)).

    Row blocks are (q, v); column blocks are (q, v_base).  The only
    non-trivial block is d v_fiber = -(dA/dq . v_base) dq - A dv_base.
    """
    n, m = sys.n, sys.m
    q, v_base = xi[:n], xi[n:]
    out = np.zeros((2 * n, 2 * n - m))
    out[:n, :n] = np.eye(n)
    for r, idx in enumerate(split.base):
        out[n + idx, n + r] = 1.0
    if m:
        A = split.a_at(sys, q)
        dA = split.a_jac_at(sys, q)
        dvf_dq = -np.einsum("aij,i->aj", dA, v_base)
        for r, idx in enumerate(split.fiber):
            out[n + idx, :n] = dvf_dq[r]
            out[n + idx, n:] = -A[r]
    return out


def psi_pseudo_inverse(sys: MechanicalSystem, split: ConnectionSplit) -> np.ndarray:
    """Left inverse of the lift: the constant matrix selecting q and v_base rows."""
    n, k = sys.n, sys.n - sys.m
    out = np.zeros((n + k, 2 * n))
    out[:n, :n] = np.eye(n)
    for r, idx in enumerate(split.base):
        out[n + r, n + idx] = 1.0
    return out


def reduce_state(
    sys: MechanicalSystem, split: ConnectionSplit, x: np.ndarray, check: bool = True
) -> np.ndarray:
    """Project a point x = (q, v) of D to its reduced coordinates xi = (q, v_base)."""
    if check:
        _require_on_d(sys, x)
    return np.concatenate([x[: sys.n], x[sys.n :][list(split.base)]])


def reduced_field(sys: MechanicalSystem, split: ConnectionSplit, xi) -> np.ndarray:
    """The unconstrained ODE in xi = (q, v_base): the q and v_base rows of h along the lift.

    A stack of xi (..., 2n - m) gives the field of each row, (..., 2n - m).
    """
    h = h_field(sys, psi_embed(sys, split, xi))
    return np.concatenate([h[..., : sys.n], h[..., sys.n :][..., list(split.base)]], axis=-1)


@dataclass(frozen=True)
class PerturbationInput:
    """A perturbation eps^p ghat(x) of the constrained field.

    ghat maps a row x = (q, v) to a length-2n array (configuration part
    first).  The pair (p, eps) fixes the magnitude; eps = 0 switches it off.
    """

    ghat: Callable[[np.ndarray], np.ndarray]
    p: int
    eps: float


def _ghat_parts(sys: MechanicalSystem, pert: PerturbationInput, x: np.ndarray):
    g = np.asarray(pert.ghat(x), dtype=float)
    if g.shape != (2 * sys.n,):
        raise SystemError(f"perturbation must return a length-{2 * sys.n} array")
    return g[: sys.n], g[sys.n :]


def _perturbed(sys: MechanicalSystem, pert: PerturbationInput, x: np.ndarray):
    scale = pert.eps**pert.p
    g_q, g_v = _ghat_parts(sys, pert, x)
    q, mu, grad_q, v, f_v = _plain_inputs(sys, x)
    return _solve_field(sys, q, mu, grad_q, v + scale * g_q, f_v + scale * g_v, checked=True)


def perturbed_lambda(sys: MechanicalSystem, pert: PerturbationInput, x: np.ndarray) -> np.ndarray:
    """Multiplier keeping h + eps^p ghat tangent to D."""
    if sys.m == 0 or pert.eps == 0.0:
        return _lambda_raw(sys, x)
    return _perturbed(sys, pert, x)[1]


def perturbed_field(sys: MechanicalSystem, pert: PerturbationInput, x: np.ndarray) -> np.ndarray:
    """h + eps^p ghat with the multiplier re-solved so D stays invariant."""
    if pert.eps == 0.0:
        return h_field(sys, x)
    return _perturbed(sys, pert, x)[0]


def perturbed_field_diagnostic(
    sys: MechanicalSystem, pert: PerturbationInput, x: np.ndarray
) -> np.ndarray:
    """Difference against the variant whose multiplier ignores the velocity part.

    Dropping the mu . ghat_v term from the multiplier correction leaves a
    field that is tangent to D only when ghat_v is itself admissible; the
    returned difference vanishes exactly in that case and is otherwise a
    useful measure of how much the velocity perturbation fights the
    constraints.
    """
    if sys.m == 0 or pert.eps == 0.0:
        return np.zeros(2 * sys.n)
    _, g_v = _ghat_parts(sys, pert, x)
    mu = sys.mu_at(x[: sys.n])
    cm = c_matrix(sys, x[: sys.n])
    dlam = -pert.eps**pert.p * (cm.inv @ (mu @ g_v))
    out = np.zeros(2 * sys.n)
    out[sys.n :] = sys.M_inv @ (mu.T @ dlam)
    return out


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


def deformed_c_matrix(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> CMatrix:
    """Gram matrix of the deformed one-forms mu + delta dg/dv."""
    q = x[: sys.n]
    return _checked_gram(sys, sys.mu_at(q) + dc.delta * dc.g_grad_v(sys, x), q)


def deformed_residual(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """mu(q) v + delta g(q, v) -- the quantity the deformed dynamics conserves."""
    res = constraint_residual(sys, x)
    if sys.m:
        res = res + dc.delta * dc.g_at(sys, x)
    return res


def _deformed(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray, q, mu, grad_q, v, f_v):
    """The deformed field and multiplier at x, from x's `_plain_inputs`."""
    rows = mu + dc.delta * dc.g_grad_v(sys, x)
    grad_q = grad_q + dc.delta * dc.g_grad_q(sys, x)
    return _solve_field(sys, q, rows, grad_q, v, f_v, checked=True)


def deformed_lambda(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """Multiplier of the deformed dynamics (reaction along the deformed one-forms)."""
    if sys.m == 0:
        return np.zeros(0)
    return _deformed(sys, dc, x, *_plain_inputs(sys, x))[1]


def deformed_field(sys: MechanicalSystem, dc: DeformedConstraint, x: np.ndarray) -> np.ndarray:
    """Dynamics making the deformed residual a first integral.

    With delta = 0 this is the constrained field up to rounding, not bit for
    bit: the multiplier goes through the checked Gram inverse where `h_field`
    uses the unchecked solve.  Acceptance criterion 9 bounds the gap at 1e-13.
    """
    if sys.m == 0:
        return h_field(sys, x)
    return _deformed(sys, dc, x, *_plain_inputs(sys, x))[0]


def _recorded_field(sys: MechanicalSystem, dc: DeformedConstraint | None, x: np.ndarray):
    """The field at the row x with the multiplier and the residual its one solve gives.

    Plain (dc None) or deformed, this is (h_field, _lambda_raw,
    constraint_residual) at x, or (deformed_field, deformed_lambda,
    deformed_residual), bit for bit, for one multiplier solve instead of two
    and one evaluation of mu instead of three.
    """
    if sys.m == 0:
        return h_field(sys, x), np.zeros(0), np.zeros(0)
    q, mu, grad_q, v, f_v = _plain_inputs(sys, x)
    if dc is None:
        return *_solve_field(sys, q, mu, grad_q, v, f_v), mu @ v
    return *_deformed(sys, dc, x, q, mu, grad_q, v, f_v), mu @ v + dc.delta * dc.g_at(sys, x)
