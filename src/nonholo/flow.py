"""Fixed-step time integration of the continuous dynamics.

Everything here is classic RK4 on a first-order field over the state row
x = (q, v).  `integrate` drives a mechanical system and records multiplier,
residual and energy alongside the states; `flow_field` is the bare-bones
variant for an arbitrary autonomous field on R^d.  Reference solutions use a
step short enough that their own error sits far below anything the package
measures against them.

`Trajectory` is the record of every run, the discrete schemes' included,
`_march` the one loop that fills it and salvages a failed run, and
`write_csv` the one writer of the package's CSV tables.

`integrate` evaluates the field once per recorded row: the multiplier and the
residual it records come from the same solve as the next step's first stage,
so K steps take 4K + 1 multiplier solves.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprdiff import EvalError
from .reduction import DeformedConstraint, _recorded_field, deformed_field, h_field
from .system import (
    MechanicalSystem,
    StatePoint,
    SystemError,
    _require_finite,
    _require_steps,
    energy,
    project_velocity,
)

__all__ = [
    "BlowUpError",
    "NewtonError",
    "RUNTIME_ERRORS",
    "Trajectory",
    "write_csv",
    "rk4_step",
    "integrate",
    "reference_flow",
    "flow_field",
    "REFERENCE_STEP",
]

BLOWUP_NORM = 1e8
REFERENCE_STEP = 1e-4
# numpy's overflow and invalid-value warnings, off where every result is checked after
_QUIET = {"over": "ignore", "invalid": "ignore"}


def rk4_step(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float, k1: np.ndarray
) -> np.ndarray:
    """One classic RK4 step of x' = f(x); the caller gives the first stage k1 = f(x)."""
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def write_csv(path, header: list[str], rows) -> None:
    """Write an RFC-4180 table: the header, then one line per row of numbers."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def _csv_lines(header: list[str], rows):
    """The table's lines, each ending in CRLF, formatted one row at a time.

    Counts print as integers, reals with the 17 digits that round-trip a
    double; the first row's cells fix each column's format for the table.
    """
    yield ",".join(header) + "\r\n"
    line = None
    for row in rows:
        if line is None:
            cells = ("%d" if isinstance(val, (int, np.integer)) else "%.17g" for val in row)
            line = ",".join(cells) + "\r\n"
        yield line % tuple(row)


@dataclass
class Trajectory:
    """One run, sampled or discrete: row k holds the state after k steps.

    The reference flow leaves the last three fields None.  A discrete scheme
    fills `newton_iters` (0 at the initial node) and `deformed_residuals`,
    mu(q - eps/2 v) v; the two-point scheme also keeps its raw configurations.
    """

    times: np.ndarray
    states: np.ndarray  # (K+1, 2n)
    lambdas: np.ndarray  # (K+1, m)
    residuals: np.ndarray  # (K+1, m), mu(q) v, or the deformed residual of a deformed run
    energies: np.ndarray  # (K+1,)
    n: int
    newton_iters: np.ndarray | None = None  # (K+1,)
    deformed_residuals: np.ndarray | None = None  # (K+1, m)
    raw_configurations: np.ndarray | None = None  # (K+2, n)

    def state(self, k: int) -> StatePoint:
        return StatePoint(self.states[k, : self.n], self.states[k, self.n :])

    def __len__(self) -> int:
        return self.states.shape[0]

    def head(self, k: int) -> Trajectory:
        """The first k rows (and k + 1 raw configurations), as views."""

        def cut(arr, upto):
            return None if arr is None else arr[:upto]

        return Trajectory(
            times=self.times[:k],
            states=self.states[:k],
            lambdas=self.lambdas[:k],
            residuals=self.residuals[:k],
            energies=self.energies[:k],
            n=self.n,
            newton_iters=cut(self.newton_iters, k),
            deformed_residuals=cut(self.deformed_residuals, k),
            raw_configurations=cut(self.raw_configurations, k + 1),
        )

    def _table(self):
        m = self.lambdas.shape[1]
        header = (
            ["t"]
            + [f"q_{i + 1}" for i in range(self.n)]
            + [f"v_{i + 1}" for i in range(self.n)]
            + [f"lambda_{a + 1}" for a in range(m)]
            + [f"residual_{a + 1}" for a in range(m)]
            + ["energy"]
        )
        columns = [self.times[:, None], self.states, self.lambdas, self.residuals,
                   self.energies[:, None]]
        if self.newton_iters is not None:
            header.append("newton_iters")
            columns.append(self.newton_iters[:, None])
        if self.deformed_residuals is not None:
            header += [f"deformed_residual_{a + 1}" for a in range(m)]
            columns.append(self.deformed_residuals)
        # one row at a time, so a long run's table is never held as Python floats
        rows = (tuple(val for col in columns for val in col[k].tolist()) for k in range(len(self)))
        return header, rows

    def csv_rows(self):
        """The header, then each row's cells as `to_csv` writes them."""
        for line in _csv_lines(*self._table()):
            yield line[:-2].split(",")

    def to_csv(self, path) -> None:
        write_csv(path, *self._table())


class BlowUpError(RuntimeError):
    """Solution norm passed the blow-up threshold."""


class NewtonError(RuntimeError):
    """The nonlinear step equations did not converge."""


# What a run can raise once its input is valid: exit code 3 at the command line.
RUNTIME_ERRORS = (BlowUpError, NewtonError, SystemError, EvalError)


def _march(
    sys: MechanicalSystem,
    steps: int,
    h: float,
    row: Callable[[int, Trajectory], tuple[np.ndarray, np.ndarray, np.ndarray, int]],
    deformed_at: Callable[[np.ndarray], np.ndarray] | None = None,
    raw: bool = False,
) -> Trajectory:
    """The one run loop of `integrate` and `run_integrator`: rows 0..steps at t_k = k h.

    row(k, traj) returns row k's state x, multiplier, residual and Newton
    iterations, given the rows before k (and, with `raw`, the raw
    configurations to fill).  The loop records each row as it comes, with
    deformed_at(x) and the Newton count (schemes only), then the energy.  A
    runtime error leaves with the rows before k as `partial`, and with
    `step` = k and `t` = t_k.

    numpy's overflow and invalid-value warnings are off inside the loop: each
    row is checked after it is computed (the node and blow-up tests, the
    finite multiplier here, the energy), so a run that overflows ends in its
    one typed error instead of warnings on stderr.
    """
    n, m = sys.n, sys.m
    times = h * np.arange(steps + 1) + 0.0  # + 0.0: a backward run starts at t = 0, not -0
    traj = Trajectory(
        times, np.empty((steps + 1, 2 * n)), np.empty((steps + 1, m)), np.empty((steps + 1, m)),
        np.empty(steps + 1), n,
        newton_iters=np.zeros(steps + 1, dtype=int) if deformed_at is not None else None,
        deformed_residuals=np.empty((steps + 1, m)) if deformed_at is not None else None,
        raw_configurations=np.empty((steps + 2, n)) if raw else None,
    )
    try:
        with np.errstate(**_QUIET):
            for k in range(steps + 1):
                x, lam, res, iters = row(k, traj)
                if not all(map(math.isfinite, lam.tolist())):
                    raise SystemError(f"multiplier is not finite ({lam!r})")
                traj.states[k] = x
                traj.lambdas[k] = lam
                traj.residuals[k] = res
                if deformed_at is not None:
                    traj.deformed_residuals[k] = deformed_at(x)
                    traj.newton_iters[k] = iters
                traj.energies[k] = energy(sys, x)
    except RUNTIME_ERRORS as exc:
        exc.partial = traj.head(k)  # the rows recorded before the failed one
        exc.step, exc.t = k, float(traj.times[k])
        raise
    return traj


def integrate(
    sys: MechanicalSystem,
    x0: StatePoint,
    T: float,
    eps_ref: float,
    deformation: DeformedConstraint | None = None,
    project_each_step: bool = False,
) -> Trajectory:
    """March the constrained dynamics from x0 to time T with RK4 steps ~eps_ref.

    The step count is K = max(1, round(T / eps_ref)) so the requested final
    time is hit exactly.  With a `deformation`, the field, the recorded
    multiplier and the recorded residual are all those of the deformed
    constraint set mu(q) v + delta g(q, v) = 0.
    """
    _require_finite("T", T)
    _require_finite("eps_ref", eps_ref, nonzero=True)  # reference_flow(t < 0) steps backwards
    if deformation is None:
        field = functools.partial(h_field, sys)
    else:
        field = functools.partial(deformed_field, sys, deformation)

    _require_steps("T / eps_ref", T / eps_ref)
    K = max(1, abs(round(T / eps_ref))) if T else 0
    h = T / K if K else 0.0
    k1 = None  # the field at the last recorded row: the next step's first stage

    def row(k, traj):
        nonlocal k1
        if k == 0:
            x = x0.concat()
        else:
            x = rk4_step(field, traj.states[k - 1], h, k1)
            if not math.sqrt(x @ x) <= BLOWUP_NORM:  # NaN and infinity fail it too
                raise BlowUpError(f"solution blew up at t = {k * h:.6g}")
            if project_each_step:
                x[sys.n :] = project_velocity(sys, x[: sys.n], x[sys.n :])
        k1, lam, res = _recorded_field(sys, deformation, x)
        return x, lam, res, 0

    return _march(sys, K, h, row)


def reference_flow(sys: MechanicalSystem, x0: StatePoint, t: float) -> StatePoint:
    """Endpoint of the flow after time t (either sign), at reference accuracy."""
    _require_finite("t", t)
    if t == 0.0:
        return x0
    _require_steps("t / REFERENCE_STEP", t / REFERENCE_STEP)
    K = max(1, math.ceil(abs(t) / REFERENCE_STEP))
    traj = integrate(sys, x0, t, t / K)
    return traj.state(len(traj) - 1)


def flow_field(
    f: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    t: float,
    base_step: float = REFERENCE_STEP,
) -> np.ndarray:
    """RK4 endpoint for an arbitrary autonomous field on R^d, any sign of t.

    z0 may be one state (d,) or a stack (..., d) that f maps row by row; every
    row takes the same steps, and one row that fails the blow-up test stops
    the whole stack.
    """
    _require_finite("t", t)
    _require_finite("base_step", base_step, positive=True)
    z = np.asarray(z0, dtype=float).copy()
    if t == 0.0:
        return z
    _require_steps("t / base_step", t / base_step)
    K = max(1, math.ceil(abs(t) / base_step))
    h = t / K
    for k in range(1, K + 1):
        z = rk4_step(f, z, h, f(z))
        if not np.all(np.isfinite(z)) or (np.linalg.norm(z, axis=-1) > BLOWUP_NORM).any():
            raise BlowUpError(f"flow blew up at step {k}, t = {k * h:.6g}")
    return z
