"""Variational-style one-step schemes that keep velocities admissible.

``vni10_step`` drifts the node and solves the linear multiplier system in
closed form.  The other schemes discretize the same Lagrange-d'Alembert
principle and differ only in where the force is evaluated and where the
reaction one-form and the constraint are taken, so each is one call of the
kernel ``_implicit_step``.  It solves for the new velocity u and multiplier

    M (u - v0) + eps (w grad V(q) + fixed_force) - eps mu_react' lambda = 0,
    mu(q) u = 0,      q = q_base + c eps u,

with (q_half = q_k + eps/2 v_k, rho the finite-difference map below)

    scheme          q_base   c      w        fixed_force                      mu_react
    vni20           q_half   1/2    1/2      1/2 grad V(q_k)                  mu(q_half)
    original_node   q_k      1/2    1/2      1/2 grad V(q_k - eps/2 v_k)      mu(q_k)
    dla             q_k      beta   1-beta   beta grad V(rho(q_{k-1}, q_k))   mu(q_k)

``vni20_step`` is second order.  ``original_node_step`` enforces the
constraint at a midpoint configuration; it conserves the *deformed* residual
mu(q - eps/2 v) v, so its admissible set is an O(eps) deformation of D.
``dla_step`` is the two-point form: from consecutive configurations
(q_{k-1}, q_k) it produces q_{k+1} = q_k + eps u from the discrete
Euler-Lagrange equations of L_d = eps L(rho(x, y)).

A ``FiniteDifferenceMap`` with parameter beta in [0, 1] fixes how a pair of
configurations is read as a point of TQ.  Redefining the nodes through the
map makes beta = 0 reproduce the first-order scheme and beta = 1/2 the
second-order one, step for step; keeping the original endpoint nodes
instead reproduces the midpoint-constraint scheme's behaviour.

Multipliers are always reported in the O(1) normalization of the
continuous reaction force, so they can be compared directly against
`lambda_continuous` along a reference solution.  Nodes are flat rows
x = (q, v) of length 2n, and every step returns (row, lambda, Newton iterations).
``vni10_step`` and ``vni20_step`` also step a stack of rows (..., 2n) in one
call, the one-step map of `embed` on many points: ``vni10_step``'s products
are stacked, and ``vni20_step``'s rows run the Newton iteration in lockstep,
each retiring once it converges.  Row b of a stacked step is the step of
row b alone, bit for bit; a stack with a failing row raises the first
failing row's error.  ``original_node_step`` and ``dla_step`` take one state.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .flow import (_QUIET, RUNTIME_ERRORS, BlowUpError, NewtonError, Trajectory, _blew_up, _march,
                   integrate)
from .reduction import _lambda_raw, lambda_continuous
from .system import (
    COND_LIMIT,
    MechanicalSystem,
    SystemError,
    _gram,
    _gram_solve,
    _require_admissible,
    _require_finite,
    _require_run,
    _require_state,
    _require_steps,
    deformed_node_residual,
)

__all__ = [
    "FiniteDifferenceMap",
    "NodePolicy",
    "NewtonError",
    "newton_solve",
    "DiscreteNonholonomicSystem",
    "vni10_step",
    "vni20_step",
    "original_node_step",
    "deformed_admissible_velocity",
    "dla_step",
    "SCHEMES",
    "run_integrator",
    "StudyResult",
    "plan_study",
    "endpoint_study",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30


def newton_solve(
    linearize: Callable[..., tuple[np.ndarray, Callable[[], np.ndarray]]],
    u0: np.ndarray,
    *rows: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Newton iteration on linearize's Jacobian; returns (root, iterations).

    linearize(u, *rows) returns the residual at u and a thunk for the
    Jacobian there, so the two share what they evaluate at the iterate (a
    thunk may return a Jacobian held fixed, the chord method, picking each
    row's by data passed in `rows`).  A stack u0 (..., k), each of `rows`
    stacked alike, is solved in lockstep (`_lockstep`), with one iteration
    count per row.
    """
    u = np.array(u0, dtype=float)
    if u.ndim > 1:
        return _lockstep(linearize, u, rows)
    for it in range(NEWTON_MAX_ITER):
        r, jacobian = linearize(u, *rows)
        if np.max(np.abs(r), initial=0.0) <= NEWTON_TOL:  # a repair at m = 0 has no equations
            return u, it
        u = _newton_update(u, r, jacobian())
    raise NewtonError(f"no convergence after {NEWTON_MAX_ITER} Newton iterations")


def _newton_update(u: np.ndarray, r: np.ndarray, J: np.ndarray) -> np.ndarray:
    """u + du with J du = -r, for one row or a stack (stacked solves give each row's bits)."""
    try:
        du = np.linalg.solve(J, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise NewtonError("singular Jacobian in a Newton iteration") from None
    u = u + du
    if not np.all(np.isfinite(u)):
        raise NewtonError("Newton iterate is not finite")
    return u


def _lockstep(linearize, u: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """newton_solve on each row of the stack u (..., k) at once: (roots, iterations per row).

    Every row still iterating takes its Newton step in the same stacked
    calls.  A row retires with its own iteration count once its residual
    meets NEWTON_TOL; only then are the rows still going picked out.  Row b
    is newton_solve on row b alone, bit for bit.  If any row fails, every
    row is solved alone in turn, so the error raised is the first failing
    row's.
    """
    lead, k = u.shape[:-1], u.shape[-1]
    start = u.reshape(-1, k)
    rows = [np.reshape(a, (len(start), *np.shape(a)[len(lead):])) for a in rows]
    out, iters = np.empty_like(start), np.zeros(len(start), dtype=int)
    z, data, live = start, rows, np.arange(len(start))  # live: the rows still going
    try:
        for it in range(NEWTON_MAX_ITER):
            r, jacobian = linearize(z, *data)
            going = ~(np.max(np.abs(r), axis=-1, initial=0.0) <= NEWTON_TOL)
            if going.all():
                J = jacobian()
            else:
                out[live[~going]], iters[live[~going]] = z[~going], it
                if not going.any():
                    return out.reshape(u.shape), iters.reshape(lead)
                J = jacobian()[going]
                z, r, live = z[going], r[going], live[going]
                data = [a[going] for a in data]
            z = _newton_update(z, r, J)
    except RUNTIME_ERRORS:
        pass
    # a row failed or did not converge: solving each alone raises the first failing row's error
    solved = [newton_solve(linearize, start[b], *(a[b] for a in rows)) for b in range(len(start))]
    return (np.reshape([root for root, _ in solved], u.shape),
            np.reshape([it for _, it in solved], lead))


@dataclass(frozen=True)
class FiniteDifferenceMap:
    """rho(x, y) = ((1 - beta) x + beta y, (y - x) / eps), a map Q x Q -> TQ."""

    beta: float
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise SystemError("beta must lie in [0, 1]")
        _require_finite("eps", self.eps, positive=True)

    def forward(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.point(x, y), (y - x) / self.eps

    def point(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (1.0 - self.beta) * x + self.beta * y

    def inverse(self, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        step = self.eps * v
        return q - self.beta * step, q + (1.0 - self.beta) * step


class NodePolicy(Enum):
    """How a configuration pair is reported as a node of TQ."""

    REDEFINED = "redefined"  # node = rho(q_{k-1}, q_k)
    ORIGINAL = "original"  # node = (q_k, (q_k - q_{k-1}) / eps)


@dataclass(frozen=True)
class DiscreteNonholonomicSystem:
    """A mechanical system discretized through a finite-difference map."""

    sys: MechanicalSystem
    rho: FiniteDifferenceMap

    def check_regularity(self, q_cur: np.ndarray, v_k: np.ndarray, mu_cur: np.ndarray):
        """(cond, J): dla's step Jacobian J at the Newton seed u = v_k, certified by
        the cond of J with its multiplier columns over eps, at most COND_LIMIT.

        The paper's P = [[D1D2 L_d, mu(q_k)'], [D2 phi_d, 0]] at (q_k, q_k + eps v_k)
        is diag(-I/eps, -I) J, up to the rounding of q_k + beta eps v_k, so this is
        cond(diag(eps I, I) P diag(I, I/eps)): O(1) as eps shrinks, where P's is 1/eps^2.
        """
        sys, eps, beta = self.sys, self.rho.eps, self.rho.beta
        q = q_cur + beta * eps * v_k
        J = _step_jacobian(sys, eps, beta, 1.0 - beta, q, v_k, sys.mu_at(q), mu_cur)
        try:
            cond = float(np.linalg.cond(np.hstack([J[:, : sys.n], J[:, sys.n :] / eps])))
        except np.linalg.LinAlgError:  # the SVD fails on a matrix with NaN entries
            cond = np.inf
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SystemError(
                f"discrete step not well posed (regularity condition number {cond:.3e})"
            )
        return cond, J


def _node(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The row (q, v) of a new node, or a stack of them; a node that blew up stops the run."""
    x = np.concatenate([q, v], axis=-1)
    if _blew_up(x).any():
        raise BlowUpError("state blew up")
    return x


def vni10_step(
    sys: MechanicalSystem, x: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """First-order scheme: drift the node, then solve the multiplier exactly.

    The new velocity is admissible at the new configuration by construction,
    and no iteration is needed: the multiplier system is linear, so the step
    returns (row, lambda, 0).  A stack of rows (..., 2n) steps in one pass;
    row b is the step of row b, bit for bit, and the count is 0 per row.
    """
    q, v = x[..., : sys.n], x[..., sys.n :]
    q1 = q + eps * v
    mu1 = sys.mu_at(q1)
    w = v - eps * np.matvec(sys.M_inv, sys.grad_v_at(q1))
    lam = -_gram_solve(_gram(sys, mu1), np.matvec(mu1, w), q1) / eps
    v1 = w + eps * np.matvec(sys.M_inv, np.matvec(mu1.mT, lam))
    iters = np.zeros(x.shape[:-1], dtype=int) if x.ndim > 1 else 0
    return _node(q1, v1), lam, iters


def _step_jacobian(sys: MechanicalSystem, eps: float, c: float, w: float, q, u, mu, mu_react):
    """d/d(u, lambda) of the step equations (module docstring) at u, q = q_base + c eps u.

    mu is mu(q); a stack of node data (..., n) gives a stack of Jacobians.
    """
    n = sys.n
    J = np.zeros(q.shape[:-1] + (n + sys.m, n + sys.m))
    J[..., :n, :n] = sys.M + eps * eps * c * w * sys.hess_v_at(q)
    J[..., :n, n:] = -eps * mu_react.mT
    J[..., n:, :n] = mu + c * eps * np.einsum("...aij,...i->...aj", sys.mu_jac_at(q), u)
    return J


def _implicit_step(
    sys: MechanicalSystem,
    eps: float,
    v0: np.ndarray,
    q_base: np.ndarray,
    c: float,
    w: float,
    fixed_force: np.ndarray,
    mu_react: np.ndarray,
    seed_jacobian: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve the shared step equations (module docstring) for (u, lambda).

    The first block is the discrete Euler-Lagrange equation divided by eps,
    so its residual is O(1) and the Newton tolerance means the same at every
    step size.  Returns (u, lambda, Newton iterations).  Stacks of node data
    v0, q_base, fixed_force (..., n) and mu_react (..., m, n) solve in
    lockstep, one iteration count per row.  Newton's first iteration takes
    `seed_jacobian`, the Jacobian at the seed (v0, 0), where one is given.
    """
    n = sys.n
    seeds = [] if seed_jacobian is None else [seed_jacobian]

    def linearize(z, v0, q_base, fixed_force, mu_react):
        u, lam = z[..., :n], z[..., n:]
        q = q_base + c * eps * u
        mu = sys.mu_at(q)
        r1 = np.matvec(sys.M, u - v0) + eps * (w * sys.grad_v_at(q) + fixed_force)
        r1 = r1 - eps * np.matvec(mu_react.mT, lam)
        jacobian = seeds.pop if seeds else functools.partial(
            _step_jacobian, sys, eps, c, w, q, u, mu, mu_react)
        return np.concatenate([r1, np.matvec(mu, u)], axis=-1), jacobian

    z0 = np.concatenate([v0, np.zeros(v0.shape[:-1] + (sys.m,))], axis=-1)
    z, iters = newton_solve(linearize, z0, v0, q_base, fixed_force, mu_react)
    return z[..., :n], z[..., n:], iters


def vni20_step(
    sys: MechanicalSystem, x: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Second-order scheme: trapezoidal forces, reaction at the half point,
    constraint enforced at the new node q~_{k+1} = q_half + eps/2 v_{k+1}.

    A stack of rows (..., 2n) steps in lockstep Newton; row b is the step of
    row b, bit for bit, Newton count included.
    """
    q, v = x[..., : sys.n], x[..., sys.n :]
    q_half = q + 0.5 * eps * v
    v1, lam, iters = _implicit_step(
        sys, eps, v, q_half, 0.5, 0.5, 0.5 * sys.grad_v_at(q), sys.mu_at(q_half)
    )
    return _node(q_half + 0.5 * eps * v1, v1), lam, iters


def original_node_step(
    sys: MechanicalSystem, x: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Midpoint-constraint scheme on the original nodes (q_k, v_k).

    Admissibility here means the *deformed* residual mu(q - eps/2 v) v
    vanishes; the step requires it of its input and then conserves it.  The
    new configuration is q + eps v_{k+1}.
    """
    _require_admissible(deformed_node_residual(sys, x, eps),
                        "input node violates the deformed constraint",
                        "repair it with deformed_admissible_velocity")
    q, v = x[: sys.n], x[sys.n :]
    grad_back = sys.grad_v_at(q - 0.5 * eps * v)
    v1, lam, iters = _implicit_step(sys, eps, v, q, 0.5, 0.5, 0.5 * grad_back, sys.mu_at(q))
    return _node(q + eps * v1, v1), lam, iters


def deformed_admissible_velocity(
    sys: MechanicalSystem, q: np.ndarray, v: np.ndarray, eps: float
) -> np.ndarray:
    """Smallest M-reaction correction of v onto the deformed admissible set.

    Solves mu(q - eps/2 w) w = 0 for w = v + M^-1 mu(q)' c by Newton in the
    m coefficients c; the correction is O(eps) when v is admissible in the
    plain sense.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    lift = sys.M_inv @ sys.mu_at(q).T  # (n, m)

    def linearize(c):
        w = v + lift @ c
        q_back = q - 0.5 * eps * w
        mu = sys.mu_at(q_back)

        def jacobian():
            dmu = sys.mu_jac_at(q_back)
            return -0.5 * eps * np.einsum("aij,jb,i->ab", dmu, lift, w) + mu @ lift

        return mu @ w, jacobian

    c, _ = newton_solve(linearize, np.zeros(sys.m))
    return v + lift @ c


def dla_step(
    dsys: DiscreteNonholonomicSystem, q_prev: np.ndarray, q_cur: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Advance the two-point scheme: (q_{k-1}, q_k) -> q_{k+1}.

    The unknowns are the scaled difference u_v = (q_{k+1} - q_k) / eps and
    the multiplier; the step returns the row (q_{k+1}, u_v), lambda and the
    Newton iterations.  It is refused where its equations are not regular at
    the Newton seed, whose Jacobian the certificate hands to Newton.
    """
    sys, rho = dsys.sys, dsys.rho
    eps, beta = rho.eps, rho.beta
    v_k = (q_cur - q_prev) / eps
    mu_cur = sys.mu_at(q_cur)
    _, seed_jacobian = dsys.check_regularity(q_cur, v_k, mu_cur)
    grad_back = sys.grad_v_at(rho.point(q_prev, q_cur))
    u_v, lam, iters = _implicit_step(
        sys, eps, v_k, q_cur, beta, 1.0 - beta, beta * grad_back, mu_cur, seed_jacobian
    )
    return _node(q_cur + eps * u_v, u_v), lam, iters


# benchmarks/tracer.py wraps `discrete.DiscreteTrajectory.to_csv` by name, and
# its traced run fails its self-check when that name does not resolve.
DiscreteTrajectory = Trajectory


# The one table of schemes: name -> (step function, consistency order).  Each step
# returns (row, lambda, iterations).  The node schemes step a state row, (sys, x, eps);
# the two-point scheme steps a configuration pair, (dsys, q_prev, q_cur), and is of
# second order only at beta = 1/2.  Callers look a step up when they are called, not at import, so a
# rebinding of an entry (benchmarks/tracer.py wraps each step) reaches them.
SCHEMES = {
    "vni10": (vni10_step, 1),
    "vni20": (vni20_step, 2),
    "original_node": (original_node_step, 1),
    "dla": (dla_step, 1),
}


def _scheme_run(scheme: str, eps: float, steps, beta=None, policy=NodePolicy.REDEFINED):
    """A scheme's run rules: (step function, dla's FiniteDifferenceMap or None, e).

    It refuses the arguments the scheme does not take.  e is the step size of the
    set that the scheme's nodes keep, mu(q - e/2 v) v = 0: 0, which is D, for the
    node schemes and dla's redefined nodes; eps for original_node; 2 (1 - beta) eps
    for dla's original nodes, whose step enforces the constraint at q_{k+1} - (1 - beta) eps u.
    """
    if scheme not in SCHEMES:
        raise SystemError(f"unknown scheme {scheme!r}; pick one of {tuple(SCHEMES)}")
    _require_run(eps, steps)
    step_fn = SCHEMES[scheme][0]
    if scheme == "dla":
        if beta is None:
            raise SystemError("the two-point scheme needs beta")
        rho = FiniteDifferenceMap(beta=beta, eps=eps)
        return step_fn, rho, 2.0 * ((1.0 - beta) * eps) if policy is NodePolicy.ORIGINAL else 0.0
    if beta is not None:
        raise SystemError(f"beta only applies to the two-point scheme, not {scheme!r}")
    if policy is not NodePolicy.REDEFINED:
        raise SystemError(f"the node policy only applies to the two-point scheme, not {scheme!r}")
    return step_fn, None, eps if scheme == "original_node" else 0.0


def run_integrator(
    sys: MechanicalSystem,
    scheme: str,
    x0,
    eps: float,
    steps: int,
    beta: float | None = None,
    policy: NodePolicy = NodePolicy.REDEFINED,
) -> Trajectory:
    """Drive one of the discrete schemes from the row x0 = (q, v) for a fixed number of steps.

    The initial node must lie on the set the scheme's nodes keep (`_scheme_run`).
    The multiplier reported at the initial node is the continuous reaction
    multiplier, which the discrete ones approximate.
    """
    step_fn, rho, e = _scheme_run(scheme, eps, steps, beta, policy)
    x0 = _require_state(sys, x0)
    with np.errstate(**_QUIET):  # the start may overflow, like a step; the check refuses it
        res = deformed_node_residual(sys, x0, e)
    _require_admissible(res, f"initial node is off the set that {scheme}'s nodes keep")
    dsys = None if rho is None else DiscreteNonholonomicSystem(sys, rho)
    pair = []  # dla's configurations (q_{k-1}, q_k)

    q0, v0 = x0[: sys.n], x0[sys.n :]

    def row(k, states):
        if k == 0:  # the pair before the start may overflow: build it under the loop's checks
            if rho is not None and policy is NodePolicy.REDEFINED:
                pair[:] = rho.inverse(q0, v0)
            elif rho is not None:
                pair[:] = q0 - eps * v0, q0
            return x0, _lambda_raw(sys, x0), 0
        if rho is None:
            return step_fn(sys, states[k - 1], eps)
        x, lam, iters = step_fn(dsys, *pair)
        pair[:] = pair[1], x[: sys.n]
        if policy is NodePolicy.REDEFINED:
            x = _node(*rho.forward(*pair))
        return x, lam, iters

    return _march(sys, int(steps), eps, row, discrete=True)


def _steps_to(T: float, eps: float) -> tuple[int, float]:
    """The one stop rule of a run to the end time T: N = max(1, round(T / eps)) steps of
    h = T / N, returned as (N, h); a T / eps above MAX_STEPS is refused."""
    _require_finite("eps", eps, positive=True)
    _require_steps("T / eps", T / eps)
    N = max(1, round(T / eps))
    return N, T / N


@dataclass
class StudyResult:
    """Per-step-size endpoint errors and the fitted consistency orders."""

    eps: list[float]
    state_error: list[float]
    lambda_error: list[float]
    state_slope: float | None
    lambda_slope: float | None
    failures: list[dict] = field(default_factory=list)


def plan_study(sys: MechanicalSystem, integrator: str, x0, T: float, eps_list, beta=None,
               policy=NodePolicy.REDEFINED, repair: bool = False) -> list[tuple[float, Callable]]:
    """An endpoint study's runs to T, largest step size first: pairs (eps, march), march()
    running `integrator` ("reference" or a scheme, with beta and policy where it reads them)
    for N steps of T / N (`_steps_to`) from the row x0 on D, or, where the run keeps a set with
    e > 0 (`_scheme_run`) and `repair` is set, from x0 repaired onto it.  Before anything is
    integrated, it refuses a start off its run's set and two step sizes of one N, which the fit
    would count twice."""
    if integrator == "reference" and (beta is not None or policy is not NodePolicy.REDEFINED):
        raise SystemError("beta and the node policy only apply to the two-point scheme")
    x0 = _require_state(sys, x0)
    q, v = x0[: sys.n], x0[sys.n :]
    runs, taken = [], {}  # taken: N -> the step size that takes it
    for eps in sorted(eps_list, reverse=True):
        N, h = _steps_to(T, eps)
        if N in taken:
            raise SystemError(f"step sizes {taken[N]!r} and {eps!r} both take N = {N} steps of "
                              f"{h!r}; a study takes one N per step size")
        taken[N] = eps
        e = 0.0 if integrator == "reference" else _scheme_run(integrator, h, N, beta, policy)[2]
        start = x0
        if e and repair:
            start = np.concatenate([q, deformed_admissible_velocity(sys, q, v, e)])
        with np.errstate(**_QUIET):  # a start that overflows is refused, as in run_integrator
            res = deformed_node_residual(sys, start, e)
        _require_admissible(res, f"the start of step size {eps!r} is off the set its run keeps")
        march = (functools.partial(integrate, sys, start, h, N) if integrator == "reference" else
                 functools.partial(run_integrator, sys, integrator, start, h, N, beta, policy))
        runs.append((eps, march))
    return runs


def endpoint_study(
    sys: MechanicalSystem, runs: list[tuple[float, Callable]], oracle
) -> StudyResult:
    """`plan_study`'s runs, one after another, and their endpoint errors against the oracle,
    the flow's row at T.  A run that fails is recorded in `failures` and the study goes on."""
    oracle_lam = lambda_continuous(sys, oracle, check=False)
    eps_ok, state, lam, failures = [], [], [], []
    for eps, march in runs:
        try:
            traj = march()
        except RUNTIME_ERRORS as exc:
            failures.append({"eps": eps, "error": f"{type(exc).__name__}: {exc}"})
            continue
        eps_ok.append(eps)
        state.append(float(np.max(np.abs(traj.states[-1] - oracle))))
        lam.append(float(np.max(np.abs(traj.lambdas[-1] - oracle_lam), initial=0.0)))

    state_slope = lambda_slope = None
    if len(eps_ok) >= 4:
        logs = np.log(eps_ok)
        if min(state) > 0.0:
            state_slope = float(np.polyfit(logs, np.log(state), 1)[0])
        if min(lam) > 0.0:
            lambda_slope = float(np.polyfit(logs, np.log(lam), 1)[0])
    return StudyResult(eps_ok, state, lam, state_slope, lambda_slope, failures)
