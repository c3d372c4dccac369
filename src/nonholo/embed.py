"""A one-step map realized as a time-periodic perturbation of its flow.

Given a field f with flow F and a one-step map Phi of consistency order p,
the interpolant

    G~(tau, y) = chi0(tau) F(eps tau, y) + chi1(tau) F(eps (tau - 1), Phi(eps, y))

glues the flow started at y to the flow arriving at Phi(eps, y).  The cutoff
chi0 is 1 near tau = 0 and 0 near tau = 1 with all derivatives vanishing at
both ends, so G(k eps, y) visits exactly the iterates of Phi while solving

    dz/dt = f(z) + eps^p g(t/eps, z)

for a bounded, eps-periodic g.  `g_eval` recovers that perturbation field
pointwise by inverting G(t, .) with a Newton iteration; `verify_embedding`
packages the checks that make the construction trustworthy numerically.

Everything operates on plain R^d vectors through an `EmbeddingProblem`
(field plus flow), so the machinery applies equally to the reduced
constrained dynamics and to scalar toy problems.  The field and the flow
take stacks (..., d) of states, so `g_eval` inverts many points, and every
finite-difference column of their Jacobians, with one stacked flow per
Newton iteration.  The one-step map takes a stack too: the exact map passes
it to the flow, and a discrete scheme's map passes it to the node step,
which steps every row in one call (`vni20` by lockstep Newton).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import SCHEMES, NewtonError
from .flow import flow_field
from .reduction import psi_embed, reduce_state, reduced_field
from .system import ConnectionSplit, MechanicalSystem, SystemError, _require_finite

__all__ = [
    "chi0",
    "chi1",
    "chi0_prime",
    "interpolate_in_D",
    "OneStepMap",
    "EmbeddingProblem",
    "reduced_problem",
    "reduced_step_map",
    "exact_step_map",
    "EvolutionInterpolant",
    "verify_embedding",
]

# tanh is indistinguishable from +-1 in double precision long before this,
# and past it sech^2 underflow would otherwise meet (1 + u^2) overflow
_SATURATED = 350.0
# g_eval's inversion of the interpolant: residual tolerance, iteration cap and
# the half-width of the central differences of its Jacobian
INVERSION_TOL = 1e-11
INVERSION_MAX_ITER = 40
FD_STEP = 1e-6
# below this worst gap the map and the flow are indistinguishable, and no order is measured
ORDER_FLOOR = 1e-10


def chi0(tau: float) -> float:
    """Smooth step from 1 at tau = 0 down to 0 at tau = 1, flat at both ends."""
    if tau <= 0.0:
        return 1.0
    if tau >= 1.0:
        return 0.0
    u = 1.0 / math.tan(math.pi * tau)
    return 0.5 * (1.0 + math.tanh(u))


def chi1(tau: float) -> float:
    """The complementary cutoff; defined as 1 - chi0 so the pair sums to one
    bitwise."""
    return 1.0 - chi0(tau)


def chi0_prime(tau: float) -> float:
    """d chi0 / d tau; identically zero outside (0, 1) and saturated tails."""
    if tau <= 0.0 or tau >= 1.0:
        return 0.0
    u = 1.0 / math.tan(math.pi * tau)
    if not math.isfinite(u) or abs(u) >= _SATURATED:
        return 0.0
    sech = 1.0 / math.cosh(u)
    return -0.5 * math.pi * (1.0 + u * u) * sech * sech


def interpolate_in_D(
    sys: MechanicalSystem, split: ConnectionSplit, x0: np.ndarray, x1: np.ndarray, eps: float
):
    """Curve c : [0, eps] -> D joining two admissible state rows x = (q, v).

    Blending happens in the reduced coordinates and the result is lifted
    through psi, so every sample of the curve satisfies the constraints to
    the accuracy of the lift itself.  The cutoff's flat ends make the curve
    bitwise constant near t = 0 and t = eps.
    """
    xi0 = reduce_state(sys, split, x0)
    xi1 = reduce_state(sys, split, x1)

    def c(t: float):
        w0 = chi0(t / eps)
        w1 = chi1(t / eps)
        return psi_embed(sys, split, w0 * xi0 + w1 * xi1)

    return c


@dataclass(frozen=True)
class OneStepMap:
    """A numerical one-step map y -> fn(eps, y) of consistency order p.

    fn takes a state (d,) or a stack (..., d) and maps each row alone.
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise SystemError("consistency order p must be a positive integer")

    def iterate(self, eps: float, y: np.ndarray, k: int) -> np.ndarray:
        out = np.asarray(y, dtype=float)
        for _ in range(k):
            out = self.fn(eps, out)
        return out


@dataclass(frozen=True)
class EmbeddingProblem:
    """The continuous side of the construction: a field and its flow on R^d.

    Both take a state (d,) or a stack (..., d) and act on each row alone.
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[float, np.ndarray], np.ndarray]


def reduced_problem(
    sys: MechanicalSystem, split: ConnectionSplit, base_step: float = 2e-3
) -> EmbeddingProblem:
    """The reduced constrained dynamics as an embedding problem on R^{2n-m}."""

    def field(xi: np.ndarray) -> np.ndarray:
        return reduced_field(sys, split, xi)

    def flow(t: float, y: np.ndarray) -> np.ndarray:
        return flow_field(field, y, t, base_step)

    return EmbeddingProblem(dim=2 * sys.n - sys.m, field=field, flow=flow)


def reduced_step_map(sys: MechanicalSystem, split: ConnectionSplit, scheme: str) -> OneStepMap:
    """A discrete scheme that keeps D, viewed as a map on the reduced coordinates.

    The two-point scheme steps configuration pairs, not nodes, and
    original_node keeps a deformed set, not D, so a node lifted onto D fails
    its precondition; neither is a map on the reduced coordinates.
    """
    schemes_on_d = sorted(set(SCHEMES) - {"dla", "original_node"})
    if scheme not in schemes_on_d:
        raise SystemError(f"no scheme named {scheme!r} that keeps D; pick from {schemes_on_d}")
    step_fn, p = SCHEMES[scheme]

    def step(eps: float, xi: np.ndarray) -> np.ndarray:
        out = step_fn(sys, psi_embed(sys, split, xi), eps)
        return reduce_state(sys, split, out.state, check=False)

    return OneStepMap(step, p)


def exact_step_map(problem: EmbeddingProblem, p: int = 1) -> OneStepMap:
    """The problem's own flow packaged as a one-step map (zero perturbation)."""
    return OneStepMap(problem.flow, p)


class EvolutionInterpolant:
    """G(t, y): the flow-glued curve through the iterates of a one-step map."""

    def __init__(self, problem: EmbeddingProblem, phi: OneStepMap, eps: float):
        _require_finite("eps", eps, positive=True)
        self.problem = problem
        self.phi = phi
        self.eps = eps

    # -- the single-interval interpolant and its tau-derivative ---------------
    # y is a state (d,) or a stack (..., d)

    def g_tilde(self, tau: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w0 = chi0(tau)
        w1 = chi1(tau)
        # skipping zero-weight legs keeps the endpoints bitwise exact
        if w1 == 0.0:
            return w0 * self.problem.flow(self.eps * tau, y)
        if w0 == 0.0:
            return w1 * self.problem.flow(self.eps * (tau - 1.0), self.phi.fn(self.eps, y))
        a = self.problem.flow(self.eps * tau, y)
        b = self.problem.flow(self.eps * (tau - 1.0), self.phi.fn(self.eps, y))
        return w0 * a + w1 * b

    def g_tilde_dtau(self, tau: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w0 = chi0(tau)
        w1 = chi1(tau)
        d0 = chi0_prime(tau)
        out = np.zeros(y.shape)
        if w0 != 0.0 or d0 != 0.0:
            a = self.problem.flow(self.eps * tau, y)
            out += d0 * a + self.eps * w0 * self.problem.field(a)
        if w1 != 0.0 or d0 != 0.0:
            b = self.problem.flow(self.eps * (tau - 1.0), self.phi.fn(self.eps, y))
            out += -d0 * b + self.eps * w1 * self.problem.field(b)
        return out

    # -- extension to all t >= 0 ----------------------------------------------

    def _split_time(self, t: float) -> tuple[int, float]:
        s = t / self.eps
        k = int(math.floor(s))
        return k, s - k

    def G(self, t: float, y: np.ndarray) -> np.ndarray:
        """Interpolant position at time t for the trajectory started at y."""
        if t < 0.0:
            raise SystemError("the interpolant is defined for t >= 0")
        k, tau = self._split_time(t)
        return self.g_tilde(tau, self.phi.iterate(self.eps, y, k))

    # -- the recovered perturbation field --------------------------------------

    def g_eval(self, t: float, z: np.ndarray) -> np.ndarray:
        """The perturbation g(t, z) with d/dt G = f + eps^p g along interpolants.

        Only t mod eps matters: the anchor state w with G~(tau, w) = z is
        found by a Newton iteration on a finite-difference Jacobian, seeded
        at z itself (the interpolant stays eps-close to the identity).  A
        stack z (..., d) is inverted in lockstep: a row leaves the iteration
        once its residual meets the tolerance, and every row still in it
        refreshes its Jacobian at the same iterations, so row b of the result
        is g_eval(t, z[b]) bit for bit.
        """
        z = np.asarray(z, dtype=float)
        _, tau = self._split_time(t)
        d = self.problem.dim
        zs = z.reshape(-1, d)
        w = zs.copy()
        J = np.empty((len(zs), d, d))
        live = np.arange(len(zs))  # the rows not yet converged
        for it in range(INVERSION_MAX_ITER):
            r = self.g_tilde(tau, w[live]) - zs[live]
            going = ~(np.max(np.abs(r), axis=-1) <= INVERSION_TOL)
            live, r = live[going], r[going]
            if not live.size:
                break
            if it == 0 or it % 8 == 7:
                J[live] = self._fd_jacobian(tau, w[live])
            try:
                w[live] = w[live] - np.linalg.solve(J[live], r[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise NewtonError("singular Jacobian while inverting the interpolant") from None
        else:
            raise NewtonError(f"interpolant inversion did not reach {INVERSION_TOL:g}")
        dG_dt = self.g_tilde_dtau(tau, w) / self.eps
        return ((dG_dt - self.problem.field(zs)) / self.eps**self.phi.p).reshape(z.shape)

    def _fd_jacobian(self, tau: float, w: np.ndarray) -> np.ndarray:
        """Central-difference Jacobians of G~(tau, .) at the rows of w (B, d), shape (B, d, d).

        The 2 d B bumped rows go through one g_tilde call.
        """
        bumps = FD_STEP * np.eye(self.problem.dim)  # row j bumps coordinate j
        g = self.g_tilde(tau, np.stack([w[:, None, :] + bumps, w[:, None, :] - bumps]))
        return ((g[0] - g[1]) / (2.0 * FD_STEP)).mT


def verify_embedding(
    problem: EmbeddingProblem,
    phi: OneStepMap,
    eps: float,
    points: np.ndarray,
    t_frac: float = 0.37,
    order_levels: int = 5,
) -> dict:
    """Numerical checks of the embedding at the given base points.

    Returns a dict with:

    - ``endpoint_mismatch``, the worst ||G(eps, y) - Phi(y)||.  G(eps, y) is
      g_tilde(0, Phi(y)) = Phi(y), so this is zero by construction for every
      map: it checks the interpolant's bookkeeping, not the map.
    - ``periodicity_defect``, the worst ||g(t + eps, z) - g(t, z)||.  g_eval
      reads t only through t/eps mod 1, so this too holds by construction,
      up to the rounding of that phase.
    - ``measured_p``, the slope of the worst gap ||Phi(eps_j, y) - F(eps_j, y)||
      over the order levels, minus one (None when the map and the flow are
      indistinguishable).  This is the check that catches a wrong map: y -> 5y
      on z' = z reads about -1 where p = 1 is claimed.
    - ``samples``, the number of sample points.

    None of them integrates the perturbed field z' = f + eps^p g over one
    period and compares the result with Phi(y); that certificate is not built.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    interp = EvolutionInterpolant(problem, phi, eps)

    gap = interp.G(eps, points) - phi.fn(eps, points)
    endpoint = float(np.max(np.abs(gap), initial=0.0))

    t0 = t_frac * eps
    g_a = interp.g_eval(t0, points)
    g_b = interp.g_eval(t0 + eps, points)
    periodicity = float(np.max(np.abs(g_a - g_b), initial=0.0))

    diffs = []
    for j in range(order_levels):
        eps_j = eps * 0.5**j
        gap = phi.fn(eps_j, points) - problem.flow(eps_j, points)
        diffs.append(float(np.max(np.abs(gap), initial=0.0)))
    if max(diffs) <= ORDER_FLOOR:
        measured_p = None
    else:
        eps_list = eps * 0.5 ** np.arange(order_levels)
        slope = np.polyfit(np.log(eps_list), np.log(diffs), 1)[0]
        measured_p = float(slope) - 1.0

    return {
        "endpoint_mismatch": endpoint,
        "periodicity_defect": periodicity,
        "measured_p": measured_p,
        "samples": points.shape[0],
    }
