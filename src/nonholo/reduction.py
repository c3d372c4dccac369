"""Reaction forces and reduction of the constrained equations of motion.

The constrained dynamics on D is the ODE

    q' = v,      M v' = -grad V(q) + lambda_alpha(q, v) mu^alpha(q)',

with the multiplier chosen so that d/dt [mu(q) v] = 0.  Splitting the
coordinates with a `ConnectionSplit` eliminates the fiber velocities and
yields an unconstrained ODE in (q, v_base); `psi_embed` and
`psi_pseudo_inverse` convert between the two pictures.

Two modified versions of the field live here as well: an order-eps^p
perturbation restored to tangency by adjusting the multiplier, and the
dynamics of a genuinely deformed constraint mu(q) v + delta g(q, v) = 0.
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
    StatePoint,
    SystemError,
    _checked_gram,
    _gram_solve,
    c_matrix,
    constraint_residual,
)

__all__ = [
    "lambda_continuous",
    "h_field",
    "ReducedState",
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


def _constraint_gradients(sys: MechanicalSystem, x: StatePoint) -> tuple[np.ndarray, np.ndarray]:
    """(d phi/dq, d phi/dv) for phi(q, v) = mu(q) v, shapes (m, n) each."""
    mu = sys.mu_at(x.q)
    dmu = sys.mu_jac_at(x.q)
    grad_q = np.einsum("i,aij->aj", x.v, dmu)
    return grad_q, mu


def _lambda_pieces(sys: MechanicalSystem, x: StatePoint):
    """(lambda, mu(q), M^-1 grad V(q)), with the unchecked hot-path Gram solve."""
    mu = sys.mu_at(x.q)
    minv_grad = sys.M_inv @ sys.grad_v_at(x.q)
    grad_q = x.v @ sys.mu_jac_at(x.q)
    lam = -_gram_solve(sys, mu, grad_q @ x.v - mu @ minv_grad, x.q)
    return lam, mu, minv_grad


def _lambda_raw(sys: MechanicalSystem, x: StatePoint) -> np.ndarray:
    if sys.m == 0:
        return np.zeros(0)
    return _lambda_pieces(sys, x)[0]


def lambda_continuous(sys: MechanicalSystem, x: StatePoint, check: bool = True) -> np.ndarray:
    """Reaction multipliers at x, which must lie on D unless check=False."""
    if check and sys.m:
        res = constraint_residual(sys, x)
        if np.max(np.abs(res)) > ON_D_TOL:
            raise SystemError(f"state violates the constraints (residual {np.max(np.abs(res)):.6g})")
    return _lambda_raw(sys, x)


def h_field(sys: MechanicalSystem, x: StatePoint) -> np.ndarray:
    """The constrained field (v, -M^-1 grad V + lambda_a M^-1 mu^a), concatenated."""
    if sys.m == 0:
        return np.concatenate([x.v, -(sys.M_inv @ sys.grad_v_at(x.q))])
    lam, mu, minv_grad = _lambda_pieces(sys, x)
    return np.concatenate([x.v, -minv_grad + sys.M_inv @ (mu.T @ lam)])


@dataclass(frozen=True)
class ReducedState:
    """Coordinates (q, v_base) of a point of D under a connection split."""

    q: np.ndarray
    v_base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v_base", np.asarray(self.v_base, dtype=float))

    def concat(self) -> np.ndarray:
        return np.concatenate([self.q, self.v_base])

    @staticmethod
    def from_concat(arr: np.ndarray, n: int) -> "ReducedState":
        arr = np.asarray(arr, dtype=float)
        return ReducedState(arr[:n], arr[n:])


def psi_embed(sys: MechanicalSystem, split: ConnectionSplit, red: ReducedState) -> StatePoint:
    """Lift (q, v_base) to the unique point of D above it: v_fiber = -A(q) v_base."""
    v = np.zeros(sys.n)
    v[list(split.base)] = red.v_base
    if sys.m:
        v_f = -split.a_at(sys, red.q) @ red.v_base
        v[list(split.fiber)] = v_f
    return StatePoint(red.q, v)


def grad_psi(sys: MechanicalSystem, split: ConnectionSplit, red: ReducedState) -> np.ndarray:
    """Jacobian of the lift, shape (2n, n + (n - m)).

    Row blocks are (q, v); column blocks are (q, v_base).  The only
    non-trivial block is d v_fiber = -(dA/dq . v_base) dq - A dv_base.
    """
    n, m = sys.n, sys.m
    k = n - m
    out = np.zeros((2 * n, n + k))
    out[:n, :n] = np.eye(n)
    for r, idx in enumerate(split.base):
        out[n + idx, n + r] = 1.0
    if m:
        A = split.a_at(sys, red.q)
        dA = split.a_jac_at(sys, red.q)
        dvf_dq = -np.einsum("aij,i->aj", dA, red.v_base)
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
    sys: MechanicalSystem, split: ConnectionSplit, x: StatePoint, check: bool = True
) -> ReducedState:
    """Project a point of D to its (q, v_base) coordinates."""
    if check and sys.m:
        res = constraint_residual(sys, x)
        if np.max(np.abs(res)) > ON_D_TOL:
            raise SystemError(f"state off D cannot be reduced (residual {np.max(np.abs(res)):.6g})")
    return ReducedState(x.q, x.v[list(split.base)])


def reduced_field(sys: MechanicalSystem, split: ConnectionSplit, red: ReducedState) -> np.ndarray:
    """The unconstrained ODE in (q, v_base): select rows of h along the lift."""
    x = psi_embed(sys, split, red)
    hx = h_field(sys, x)
    return psi_pseudo_inverse(sys, split) @ hx


@dataclass(frozen=True)
class PerturbationInput:
    """A perturbation eps^p ghat(x) of the constrained field.

    ghat maps a state to a length-2n array (configuration part first).  The
    pair (p, eps) fixes the magnitude; eps = 0 switches the perturbation off.
    """

    ghat: Callable[[StatePoint], np.ndarray]
    p: int
    eps: float


def _ghat_parts(sys: MechanicalSystem, pert: PerturbationInput, x: StatePoint):
    g = np.asarray(pert.ghat(x), dtype=float)
    if g.shape != (2 * sys.n,):
        raise SystemError(f"perturbation must return a length-{2 * sys.n} array")
    return g[: sys.n], g[sys.n :]


def perturbed_lambda(
    sys: MechanicalSystem, pert: PerturbationInput, x: StatePoint
) -> np.ndarray:
    """Multiplier keeping h + eps^p ghat tangent to D."""
    lam = _lambda_raw(sys, x)
    if sys.m == 0 or pert.eps == 0.0:
        return lam
    g_q, g_v = _ghat_parts(sys, pert, x)
    grad_q, mu = _constraint_gradients(sys, x)
    cm = c_matrix(sys, x.q)
    return lam - pert.eps**pert.p * (cm.inv @ (grad_q @ g_q + mu @ g_v))


def perturbed_field(sys: MechanicalSystem, pert: PerturbationInput, x: StatePoint) -> np.ndarray:
    """h + eps^p ghat with the multiplier re-solved so D stays invariant."""
    if pert.eps == 0.0:
        return h_field(sys, x)
    scale = pert.eps**pert.p
    g_q, g_v = _ghat_parts(sys, pert, x)
    lam = perturbed_lambda(sys, pert, x)
    acc = -sys.M_inv @ sys.grad_v_at(x.q) + scale * g_v
    if sys.m:
        acc = acc + sys.M_inv @ (sys.mu_at(x.q).T @ lam)
    return np.concatenate([x.v + scale * g_q, acc])


def perturbed_field_diagnostic(
    sys: MechanicalSystem, pert: PerturbationInput, x: StatePoint
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
    mu = sys.mu_at(x.q)
    cm = c_matrix(sys, x.q)
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

    def g_at(self, sys: MechanicalSystem, x: StatePoint) -> np.ndarray:
        ctx = sys.qv_ctx(x.q, x.v)
        return np.array([exprdiff.evaluate(e, ctx) for e in self.g])

    def g_grad_q(self, sys: MechanicalSystem, x: StatePoint) -> np.ndarray:
        ctx = sys.qv_ctx(x.q, x.v)
        return np.array([exprdiff.gradient(e, sys.names, ctx) for e in self.g])

    def g_grad_v(self, sys: MechanicalSystem, x: StatePoint) -> np.ndarray:
        ctx = sys.qv_ctx(x.q, x.v)
        return np.array([exprdiff.gradient(e, sys.vnames, ctx) for e in self.g])


def _deformed_mu(sys: MechanicalSystem, dc: DeformedConstraint, x: StatePoint) -> np.ndarray:
    return sys.mu_at(x.q) + dc.delta * dc.g_grad_v(sys, x)


def deformed_c_matrix(sys: MechanicalSystem, dc: DeformedConstraint, x: StatePoint) -> CMatrix:
    """Gram matrix of the deformed one-forms mu + delta dg/dv."""
    return _checked_gram(sys, _deformed_mu(sys, dc, x), x.q)


def deformed_residual(sys: MechanicalSystem, dc: DeformedConstraint, x: StatePoint) -> np.ndarray:
    """mu(q) v + delta g(q, v) -- the quantity the deformed dynamics conserves."""
    res = constraint_residual(sys, x)
    if sys.m:
        res = res + dc.delta * dc.g_at(sys, x)
    return res


def deformed_lambda(sys: MechanicalSystem, dc: DeformedConstraint, x: StatePoint) -> np.ndarray:
    """Multiplier of the deformed dynamics (reaction along the deformed one-forms)."""
    if sys.m == 0:
        return np.zeros(0)
    f_v = -sys.M_inv @ sys.grad_v_at(x.q)
    grad_q, _ = _constraint_gradients(sys, x)
    mu_d = _deformed_mu(sys, dc, x)
    grad_q_d = grad_q + dc.delta * dc.g_grad_q(sys, x)
    cm = deformed_c_matrix(sys, dc, x)
    return -cm.inv @ (grad_q_d @ x.v + mu_d @ f_v)


def deformed_field(sys: MechanicalSystem, dc: DeformedConstraint, x: StatePoint) -> np.ndarray:
    """Dynamics making the deformed residual a first integral.

    With delta = 0 this reproduces the constrained field bit for bit: the
    multiplier solve and the reaction term collapse to the undeformed ones.
    """
    if sys.m == 0:
        return h_field(sys, x)
    f_v = -sys.M_inv @ sys.grad_v_at(x.q)
    mu_d = _deformed_mu(sys, dc, x)
    lam = deformed_lambda(sys, dc, x)
    return np.concatenate([x.v, f_v + sys.M_inv @ (mu_d.T @ lam)])
