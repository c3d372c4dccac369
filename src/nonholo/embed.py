"""A one-step map realized as a time-periodic perturbation of its flow.

Given a field f with flow F and a one-step map Phi of consistency order p,
the interpolant

    G~(tau, y) = chi0(tau) F(eps tau, y) + chi1(tau) F(eps (tau - 1), Phi(eps, y))

glues the flow started at y to the flow arriving at Phi(eps, y).  The cutoff
chi0 is 1 near tau = 0 and 0 near tau = 1 with all derivatives vanishing at
both ends, so G(k eps, y) visits exactly the iterates of Phi while solving

    dz/dt = f(z) + eps^p g(t/eps, z)

for a bounded, eps-periodic g.  `g_eval` recovers that perturbation field
pointwise by inverting G(t, .) with `discrete.newton_solve`, starting from
the backward flow F(-eps tau, z), which is within O(eps^(p+1)) of the
anchor; `verify_embedding` packages the checks that make the construction
trustworthy numerically.

Everything operates on plain R^d vectors through an `EmbeddingProblem`
(field plus flow), so the machinery applies equally to the reduced
constrained dynamics and to scalar toy problems.  The field and the flow
take stacks (..., d) of states, and the flow one time per row, so the
interpolant's two legs flow in lockstep as one stack (y; Phi(y)) with times
(eps tau, eps (tau - 1)).  `g_eval` flows many points back to their
predictors in one stacked flow and inverts them with one stacked flow of
both legs per Newton iteration; the first iteration that needs the chord
Jacobian takes every finite-difference column of it, for all points, in one
stacked flow more.  dG/dt is formed from each row's legs at its last
residual evaluation, its root.  `verify_embedding` flows every order level
in one stack.  The one-step map takes a stack too: the exact map passes it
to the flow, and a discrete scheme's map passes it to the node step, which
steps every row in one call (`vni20` by lockstep Newton).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import SCHEMES, _scheme_run, newton_solve
from .flow import _QUIET, flow_field
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
# the half-width of the central differences of g_eval's Jacobian
FD_STEP = 1e-6
# below this worst gap the map and the flow are indistinguishable, and no order is measured
ORDER_FLOOR = 1e-10
# the reduced problem's largest flow step, unless its caller gives one
BASE_STEP = 2e-3
# verify_embedding's defaults: g is sampled at t = T_FRAC eps, and the order is fitted
# over ORDER_LEVELS step sizes eps / 2^j
T_FRAC = 0.37
ORDER_LEVELS = 5
# the consistency order the exact map claims, unless its caller gives one
EXACT_P = 1


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


@dataclass(frozen=True)
class EmbeddingProblem:
    """The continuous side of the construction: a field and its flow on R^d.

    Both take a state (d,) or a stack (..., d) and act on each row alone;
    flow(t, y) takes one time t, or an array of times that broadcasts over
    y's leading shape, one per row (as `flow.flow_field` does).
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[float | np.ndarray, np.ndarray], np.ndarray]


def reduced_problem(
    sys: MechanicalSystem, split: ConnectionSplit, base_step: float = BASE_STEP
) -> EmbeddingProblem:
    """The reduced constrained dynamics as an embedding problem on R^{2n-m}."""

    def field(xi: np.ndarray) -> np.ndarray:
        return reduced_field(sys, split, xi)

    def flow(t, y: np.ndarray) -> np.ndarray:
        return flow_field(field, y, t, base_step)

    return EmbeddingProblem(dim=2 * sys.n - sys.m, field=field, flow=flow)


def _keeps_d(scheme: str) -> bool:
    """Whether the scheme steps nodes, with no FiniteDifferenceMap, that keep D (e = 0)."""
    try:
        _, rho, e = _scheme_run(scheme, 1.0, 0)
    except SystemError:  # the two-point scheme needs its beta: it steps pairs
        return False
    return rho is None and e == 0.0


def reduced_step_map(sys: MechanicalSystem, split: ConnectionSplit, scheme: str) -> OneStepMap:
    """A discrete scheme that keeps D, viewed as a map on the reduced coordinates.

    A scheme keeps D when `discrete._scheme_run` gives it no
    FiniteDifferenceMap and e = 0.  The two-point scheme steps configuration
    pairs, not nodes, and original_node keeps a deformed set, not D, so a node
    lifted onto D fails its precondition; neither is a map on the reduced
    coordinates.
    """
    schemes_on_d = sorted(s for s in SCHEMES if _keeps_d(s))
    if scheme not in schemes_on_d:
        raise SystemError(f"no scheme named {scheme!r} that keeps D; pick from {schemes_on_d}")
    step_fn, p = SCHEMES[scheme]

    def step(eps: float, xi: np.ndarray) -> np.ndarray:
        with np.errstate(**_QUIET):  # the node step checks what it makes
            x = step_fn(sys, psi_embed(sys, split, xi), eps)[0]
        return reduce_state(sys, split, x, check=False)

    return OneStepMap(step, p)


def exact_step_map(problem: EmbeddingProblem, p: int = EXACT_P) -> OneStepMap:
    """The problem's own flow packaged as a one-step map (zero perturbation)."""
    return OneStepMap(problem.flow, p)


class EvolutionInterpolant:
    """G~(tau, y), the flow-glued curve from y to Phi(y), and the perturbation g it recovers."""

    def __init__(self, problem: EmbeddingProblem, phi: OneStepMap, eps: float):
        _require_finite("eps", eps, positive=True)
        self.problem = problem
        self.phi = phi
        self.eps = eps

    # -- the single-interval interpolant and its tau-derivative ---------------
    # y is a state (d,) or a stack (..., d)

    def _legs(self, tau: float, y: np.ndarray, want=None) -> tuple:
        """The legs (F(eps tau, y), F(eps (tau - 1), Phi(eps, y))) that `want` asks
        for, None for the others; by default the legs of nonzero weight.

        Phi runs first, and two legs flow as one stack (2, ..., d) with one
        time per half, each leg's rows dropping out after their own steps.
        """
        if want is None:
            want = (chi0(tau) != 0.0, chi1(tau) != 0.0)
        times = (self.eps * tau, self.eps * (tau - 1.0))
        if not want[1]:
            return (self.problem.flow(times[0], y) if want[0] else None), None
        mapped = self.phi.fn(self.eps, y)
        if not want[0]:
            return None, self.problem.flow(times[1], mapped)
        per_half = np.reshape(times, (2,) + (1,) * (y.ndim - 1))
        a, b = self.problem.flow(per_half, np.stack([y, mapped]))
        return a, b

    def g_tilde(self, tau: float, y: np.ndarray, legs: tuple | None = None) -> np.ndarray:
        """G~(tau, y); `legs` are `_legs(tau, y)` when the caller has flowed them."""
        y = np.asarray(y, dtype=float)
        w0 = chi0(tau)
        w1 = chi1(tau)
        # skipping zero-weight legs keeps the endpoints bitwise exact
        a, b = self._legs(tau, y) if legs is None else legs
        if b is None:
            return w0 * a
        if a is None:
            return w1 * b
        return w0 * a + w1 * b

    def g_tilde_dtau(self, tau: float, y: np.ndarray, legs: tuple = (None, None)) -> np.ndarray:
        """d G~ / d tau at y.  `legs` holds the legs the caller has flowed at y
        (None where it has not); only the missing ones are flowed, and the
        field takes both legs in one stacked call."""
        y = np.asarray(y, dtype=float)
        w0 = chi0(tau)
        w1 = chi1(tau)
        d0 = chi0_prime(tau)
        want = (w0 != 0.0 or d0 != 0.0, w1 != 0.0 or d0 != 0.0)
        flowed = self._legs(tau, y, [w and leg is None for w, leg in zip(want, legs)])
        a, b = (leg if new is None else new for leg, new in zip(legs, flowed))
        if want[0] and want[1]:
            fa, fb = self.problem.field(np.stack([a, b]))
        else:
            fa = fb = self.problem.field(a if want[0] else b)
        out = np.zeros(y.shape)
        if want[0]:
            out += d0 * a + self.eps * w0 * fa
        if want[1]:
            out += -d0 * b + self.eps * w1 * fb
        return out

    # -- the recovered perturbation field --------------------------------------

    def _phase(self, t: float) -> float:
        """tau = t / eps mod 1, the only part of t that g reads."""
        s = t / self.eps
        return s - math.floor(s)

    def g_eval(self, t: float, z: np.ndarray) -> np.ndarray:
        """The perturbation g(t, z) with d/dt G = f + eps^p g along interpolants.

        Only t mod eps matters: the anchor state w with G~(tau, w) = z is
        found by `newton_solve` from the predictor w0 = F(-eps tau, z), the
        backward flow.  Phi is F(eps, .) up to O(eps^(p+1)), so G~(tau, .) is
        F(eps tau, .) up to that much and w0 is as close to the anchor.  The
        chord method holds the finite-difference Jacobian at w0 fixed; it is
        built, for every row at once, only when some row's residual first
        misses the tolerance, so at t = k eps, where w0 = z is the anchor, none
        is.  Each row keeps the legs of its last residual evaluation, which
        `newton_solve` returns as the root, and dG/dt is formed from them.  A
        stack z (..., d) is inverted in lockstep, so row b of the result is
        g_eval(t, z[b]) bit for bit.
        """
        z = np.asarray(z, dtype=float)
        tau = self._phase(t)
        zs = z.reshape(-1, self.problem.dim)
        w0 = self.problem.flow(-self.eps * tau, zs)
        jacobian = functools.cache(lambda: self._fd_jacobian(tau, w0))
        kept = [None, None]  # each row's legs at its last residual evaluation

        def linearize(w, z, b):  # b: the rows' indices into w0
            legs = self._legs(tau, w)
            for i, leg in enumerate(legs):
                if leg is not None:
                    if kept[i] is None:
                        kept[i] = np.empty_like(zs)
                    kept[i][b] = leg
            return self.g_tilde(tau, w, legs) - z, lambda: jacobian()[b]

        # newton_solve returns the iterate it last evaluated: the kept legs are the root's
        w, _ = newton_solve(linearize, w0, zs, np.arange(len(zs)))
        dG_dt = self.g_tilde_dtau(tau, w, kept) / self.eps
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
    t_frac: float = T_FRAC,
    order_levels: int = ORDER_LEVELS,
) -> dict:
    """Numerical checks of the embedding at the given base points.

    Returns a dict with:

    - ``endpoint_mismatch``, the worst ||G~(1, y) - Phi(y)||.  G~(1, y) is the
      flow of Phi(y) for time 0, so this is zero by construction for every
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

    gap = interp.g_tilde(1.0, points) - phi.fn(eps, points)
    endpoint = float(np.max(np.abs(gap), initial=0.0))

    t0 = t_frac * eps
    g_a = interp.g_eval(t0, points)
    g_b = interp.g_eval(t0 + eps, points)
    periodicity = float(np.max(np.abs(g_a - g_b), initial=0.0))

    levels = [eps * 0.5**j for j in range(order_levels)]
    mapped = [phi.fn(eps_j, points) for eps_j in levels]
    # every level flows in one stack (levels, samples, d), one time per level
    stack = np.broadcast_to(points, (order_levels, *points.shape))
    flowed = problem.flow(np.reshape(levels, (-1, 1)), stack)
    diffs = [float(np.max(np.abs(m - f), initial=0.0)) for m, f in zip(mapped, flowed)]
    if max(diffs) <= ORDER_FLOOR:
        measured_p = None
    else:
        slope = np.polyfit(np.log(levels), np.log(diffs), 1)[0]
        measured_p = float(slope) - 1.0

    return {
        "endpoint_mismatch": endpoint,
        "periodicity_defect": periodicity,
        "measured_p": measured_p,
        "samples": points.shape[0],
    }
