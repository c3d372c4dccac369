"""Fixed-step time integration of the continuous dynamics.

Everything here is classic RK4 on a first-order field over the state row
x = (q, v).  `integrate` drives a mechanical system for the steps its caller
chose, as `discrete.run_integrator` drives a scheme, and records multiplier,
residual and energy alongside the states; `flow_field` is the bare-bones
variant for an arbitrary autonomous field on R^d.  A flow to a time t, as
`reference_flow` and `flow_field` take it, steps by the one rule
`_flow_steps`.  Reference solutions use a step short enough that their own
error sits far below anything the package measures against them.

`Trajectory` is the record of every run, the discrete schemes' included,
`_march` the one loop that fills it and salvages a failed run, and
`write_csv` the one writer of the package's CSV tables.

`integrate` evaluates the field once per recorded row: the multiplier it
records comes from the same solve as the next step's first stage, so K
steps take 4K + 1 multiplier solves.  The recorded residuals and energies
are filled as the march goes, one stacked call per column over blocks of
rows that double in size.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprdiff import EvalError
from .reduction import DeformedConstraint, _field, deformed_field, deformed_residual, h_field
from .system import (
    MechanicalSystem,
    SystemError,
    _require_finite,
    _require_run,
    _require_state,
    _require_steps,
    constraint_residual,
    deformed_node_residual,
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

    The reference flow leaves the last two fields None.  A discrete scheme
    fills `newton_iters` (0 at the initial node) and `deformed_residuals`,
    mu(q - eps/2 v) v.
    """

    times: np.ndarray
    states: np.ndarray  # (K+1, 2n)
    lambdas: np.ndarray  # (K+1, m)
    residuals: np.ndarray  # (K+1, m), mu(q) v, or the deformed residual of a deformed run
    energies: np.ndarray  # (K+1,)
    n: int
    newton_iters: np.ndarray | None = None  # (K+1,)
    deformed_residuals: np.ndarray | None = None  # (K+1, m)

    def __len__(self) -> int:
        return self.states.shape[0]

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

    def to_csv(self, path) -> None:
        write_csv(path, *self._table())


class BlowUpError(RuntimeError):
    """A step's output is not finite (`_blew_up`)."""


class NewtonError(RuntimeError):
    """The nonlinear step equations did not converge."""


# What a run can raise once its input is valid: exit code 3 at the command line.
RUNTIME_ERRORS = (BlowUpError, NewtonError, SystemError, EvalError)


def _blew_up(x: np.ndarray) -> np.ndarray:
    """The one blow-up test: the rows of a step's output x (..., d) whose squared norm is
    not finite (NaN fails `<` too), as a non-finite entry makes it.  It sets no bound below
    overflow (|x| past 1e154, where a state's energy overflows too), so a run's scale does
    not matter.  Its callers step with numpy's overflow warnings off (`_QUIET`)."""
    return ~(np.vecdot(x, x) < np.inf)


def _march(
    sys: MechanicalSystem,
    steps: int,
    h: float,
    row: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray, int]],
    dc: DeformedConstraint | None = None,
    discrete: bool = False,
) -> Trajectory:
    """The one run loop of `integrate` and `run_integrator`: rows 0..steps at t_k = k h.

    row(k, states) returns row k's state x, multiplier and Newton iterations
    (kept for a `discrete` scheme) given the states before k.  The march gives the
    recorded rows their residuals (dc's where given), a scheme's deformed
    residuals at eps = h and energies in blocks that double in size, rows
    0, 1, 2-3, 4-7, ..., and the rows left after the march: a stacked call
    per column and block, redone row by row if it fails.  The first failing
    row k (a step or a diagnostic) ends the run with `partial` = the rows
    before k, `step` = k, `t` = t_k; a diagnostic that fails at row k stops
    the march by row 2k + 1.

    numpy's overflow and invalid-value warnings are off in the loop and the
    blocks: each row is checked after it is computed (the node and blow-up
    tests, the finite multiplier here, the energy), so a run that overflows
    ends in its one typed error instead of warnings on stderr.
    """
    states, lambdas = np.empty((steps + 1, 2 * sys.n)), np.empty((steps + 1, sys.m))
    iters = np.zeros(steps + 1, dtype=int)

    def columns(at):  # the diagnostics of the rows `at`, a slice or one index
        x = states[at]
        res = constraint_residual(sys, x) if dc is None else deformed_residual(sys, dc, x)
        return res, deformed_node_residual(sys, x, h) if discrete else None, energy(sys, x)

    done, failure = steps + 1, None  # the rows recorded, and the error that stopped the run
    checked, blocks = 0, []  # the rows diagnosed so far, and their columns, a tuple per block

    def diagnose(stop):  # fill rows checked..stop-1; the first that fails alone ends the run
        nonlocal checked, done, failure
        try:
            blocks.append(columns(slice(checked, stop)))
        except RUNTIME_ERRORS:
            for j in range(checked, stop):
                try:
                    columns(j)
                except RUNTIME_ERRORS as exc:
                    done, failure, stop = j, exc, j
                    break
            blocks.append(columns(slice(checked, stop)))
        checked = stop

    with np.errstate(**_QUIET):
        try:
            for k in range(steps + 1):
                x, lam, iters[k] = row(k, states)
                if not all(map(math.isfinite, lam.tolist())):
                    raise SystemError(f"multiplier is not finite ({lam!r})")
                states[k], lambdas[k] = x, lam
                if k + 1 == max(1, 2 * checked):  # rows 0..k end a block
                    diagnose(k + 1)
                    if failure is not None:
                        break
        except RUNTIME_ERRORS as exc:
            done, failure = k, exc
        if checked < done or not blocks:
            diagnose(done)
    res, node, energies = (None if col[0] is None else np.concatenate(col) for col in zip(*blocks))
    traj = Trajectory(
        h * np.arange(done) + 0.0,  # + 0.0: a backward run starts at t = 0, not -0
        states[:done], lambdas[:done], res, energies, sys.n,
        newton_iters=iters[:done] if discrete else None, deformed_residuals=node,
    )
    if failure is not None:
        failure.partial, failure.step, failure.t = traj, done, h * done + 0.0
        raise failure
    return traj


def integrate(
    sys: MechanicalSystem,
    x0,
    eps: float,
    steps: int,
    deformation: DeformedConstraint | None = None,
    project_each_step: bool = False,
) -> Trajectory:
    """March the constrained dynamics from the row x0 = (q, v): `steps` RK4 steps of eps,
    rows at t_k = k eps.

    eps may be negative, as in `reference_flow`'s backward flow.  With a
    `deformation`, the field, the recorded multiplier and the recorded
    residual are all those of the deformed constraint set
    mu(q) v + delta g(q, v) = 0.
    """
    _require_run(abs(eps), steps)  # a backward run is checked as the forward run of |eps|
    x0 = _require_state(sys, x0)
    if deformation is None:
        field = functools.partial(h_field, sys)
    else:
        field = functools.partial(deformed_field, sys, deformation)
    k1 = None  # the field at the last recorded row: the next step's first stage

    def row(k, states):
        nonlocal k1
        if k == 0:
            x = x0
        else:
            x = rk4_step(field, states[k - 1], eps, k1)
            if _blew_up(x):  # the march names the step and t
                raise BlowUpError("solution blew up")
            if project_each_step:
                x[sys.n :] = project_velocity(sys, x[: sys.n], x[sys.n :])
        k1, lam = _field(sys, deformation, x)
        return x, lam, 0

    return _march(sys, int(steps), eps, row, deformation)


def _flow_steps(t, step: float) -> np.ndarray:
    """The one flow rule: a flow to time t takes K = max(1, ceil(|t| / step)) steps of t / K,
    none at t = 0.  t is one time or an array of times (K then a float each); it refuses a
    time that is not finite, a step that is not positive and finite, and K above MAX_STEPS."""
    times = np.asarray(t, dtype=float)
    far = float(times.flat[np.argmax(np.abs(times))]) if times.size else 0.0  # NaN wins
    _require_finite("t", far)
    _require_finite("the flow step", step, positive=True)
    _require_steps(f"a flow to t = {far!r} in steps of {step!r}", far / step)
    return np.where(times == 0.0, 0.0, np.maximum(1.0, np.ceil(np.abs(times) / step)))


def reference_flow(sys: MechanicalSystem, x0, t: float) -> np.ndarray:
    """The row (q, v) the flow from the row x0 reaches after time t (either sign), at
    reference accuracy."""
    x0 = _require_state(sys, x0)
    K = int(_flow_steps(t, REFERENCE_STEP))
    return integrate(sys, x0, t / K, K).states[K] if K else x0


def flow_field(
    f: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    t,
    base_step: float = REFERENCE_STEP,
) -> np.ndarray:
    """RK4 endpoints for an arbitrary autonomous field on R^d, any sign of t.

    z0 may be one state (d,) or a stack (..., d) that f maps row by row, and
    t one time or an array of times that broadcasts over z0's leading shape.
    Row b takes the K_b steps of t_b / K_b that `_flow_steps` gives at
    base_step.  The rows step in lockstep, each dropping out after its own
    K_b steps, so row b is the call on row b alone at t_b, bit for bit.  The
    first step at which a row blows up stops the whole stack, naming that
    row's step and time; numpy's overflow warnings are off in the loop, as
    in `_march`, because a row may overflow before it turns non-finite.
    """
    times = np.asarray(t, dtype=float)
    K = _flow_steps(times, base_step)
    z = np.array(z0, dtype=float, order="C")
    ts, K = (np.broadcast_to(a, z.shape[:-1]).reshape(-1) for a in (times, K))
    # rows by step count, most first: the rows still stepping are a prefix
    order = np.argsort(-K, kind="stable")
    zs, K = z.reshape(-1, z.shape[-1])[order], K[order]
    h = (ts[order] / np.maximum(K, 1.0))[:, None]  # t_b / K_b, and 0 where t_b = 0
    with np.errstate(**_QUIET):
        for k in range(1, int(K[0]) + 1 if K.size else 1):
            n = np.count_nonzero(K >= k)
            zk = rk4_step(f, zs[:n], h[:n], f(zs[:n]))
            bad = _blew_up(zk)
            if bad.any():
                first = np.flatnonzero(bad)[np.argmin(order[:n][bad])]
                raise BlowUpError(f"flow blew up at step {k}, t = {k * h[first, 0]:.6g}")
            zs[:n] = zk
    z.reshape(-1, z.shape[-1])[order] = zs
    return z
