"""Mechanical systems with linear velocity constraints on flat configuration space.

A system is the triple (R^n, L, D): a simple mechanical Lagrangian
L(q, v) = 1/2 v'Mv - V(q) together with the admissible-velocity set
D = {(q, v) : mu(q) v = 0} cut out by m constraint one-forms.  The mass
matrix is constant; V and the entries of mu are expressions in the
configuration names.  Velocity names are derived as ``v_<name>`` and are
reserved for deformation functions g(q, v).  A state is the row x = (q, v)
of length 2n, and `_require_state` is its one check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exprdiff
from .exprdiff import Expression

__all__ = [
    "MechanicalSystem",
    "ConnectionSplit",
    "SystemError",
    "constraint_residual",
    "c_matrix",
    "project_velocity",
    "derive_connection",
    "energy",
    "nonholonomic_particle",
    "rolling_disk",
]

MAX_DIM = 12
COND_LIMIT = 1e12
# The most steps one run, flow or sample table may take (the workloads in use
# take up to 10^4); `_require_steps` refuses more, in the library and at the command line.
MAX_STEPS = 10**7
# The largest |entry| of the residual of a state on its set, absolute, at every entry point.
ADMISSIBLE_TOL = 1e-10


class SystemError(ValueError):
    """Invalid system data or a rank/conditioning failure at an evaluation point."""


def _require_finite(what: str, value: float, positive: bool = False):
    """The one check of a time or step size: finite, and > 0 where asked."""
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        rule = "positive and finite" if positive else "finite"
        raise SystemError(f"{what} must be {rule}, got {value!r}")


def _require_steps(what: str, steps: float, whole: bool = False) -> None:
    """The one cap on a step count: |steps| at most MAX_STEPS (a `whole` one: 0 to MAX_STEPS).

    NaN is no count, so it is refused as not a whole number, not as one above the cap.
    """
    if steps != steps:
        raise SystemError(f"{what} must be a whole number >= 0, got {steps!r}")
    if not abs(steps) <= MAX_STEPS:
        raise SystemError(f"{what} asks for {steps!r} steps, more than MAX_STEPS = {MAX_STEPS}")
    if whole and not (steps >= 0 and steps == int(steps)):
        raise SystemError(f"{what} must be a whole number >= 0, got {steps!r}")


def _require_run(eps: float, steps) -> None:
    """The one run check: `steps` steps of eps, eps positive and finite, the count whole
    from 0 to MAX_STEPS, and the end time eps * steps finite."""
    _require_finite("eps", eps, positive=True)
    _require_steps("steps", steps, whole=True)
    _require_finite("the end time eps * steps", eps * steps)


def _require_state(sys: MechanicalSystem, x) -> np.ndarray:
    """The one check of a state: x as a new float row (q, v) of shape (2n,), every entry finite."""
    try:
        row = np.asarray(x)
    except ValueError:  # a ragged nesting
        row = np.asarray(None)
    if row.dtype.kind not in "iuf" or row.shape != (2 * sys.n,):
        raise SystemError(f"a state must be a row (q, v) of {2 * sys.n} numbers, got {x!r}")
    row = row.astype(float)
    if not np.isfinite(row).all():
        raise SystemError("state entries must be finite")
    return row


def _require_admissible(res, what: str, remedy: str | None = None) -> None:
    """Refuse the first row of a residual stack res (..., m) whose largest |entry| is
    not <= ADMISSIBLE_TOL, NaN included, with the message "`what` (residual r); `remedy`"."""
    ok = np.abs(res) <= ADMISSIBLE_TOL
    if not ok.all():
        worst = np.max(np.abs(res), axis=-1).flat[np.argmin(ok.all(axis=-1))]
        hint = f"; {remedy}" if remedy else ""
        raise SystemError(f"{what} (residual {float(worst):.6g}){hint}")


def _first_row(q, bad) -> np.ndarray:
    """The configuration of the first row of a stack q (..., n) where `bad` holds.

    A single configuration is the stack of one row, so an error raised from a
    stack names the same q as the unbatched call on the failing row.
    """
    q = np.asarray(q, dtype=float)
    return q.reshape(-1, q.shape[-1])[int(np.argmax(bad))]


def _as_expr(obj) -> Expression:
    if isinstance(obj, str):
        return exprdiff.parse(obj)
    if not isinstance(obj, Expression):
        raise SystemError(f"expected an expression string, got {obj!r}")
    return obj


class MechanicalSystem:
    """Constant mass matrix M (SPD), potential V(q), constraint rows mu(q).

    Parameters
    ----------
    names : configuration coordinate names, fixing the index <-> name order.
    M     : n x n symmetric positive definite matrix.
    V     : potential, an expression (or string) over the configuration names.
    mu    : m rows of n expressions each; row alpha is the coefficient vector
            of the alpha-th velocity constraint mu^alpha(q) . v = 0.
    """

    def __init__(self, names, M, V, mu):
        self.names = [str(s) for s in names]
        self.n = len(self.names)
        if self.n == 0 or self.n > MAX_DIM:
            raise SystemError(f"dimension must be between 1 and {MAX_DIM}")
        if len(set(self.names)) != self.n:
            raise SystemError("coordinate names must be distinct")
        for nm in self.names:
            if not nm.isidentifier():
                raise SystemError(f"coordinate name {nm!r} is not an identifier")
            if nm.startswith("v_"):
                raise SystemError(f"coordinate name {nm!r} collides with the velocity prefix")
        self.vnames = [f"v_{nm}" for nm in self.names]

        self.M = np.asarray(M, dtype=float)
        if self.M.shape != (self.n, self.n):
            raise SystemError(f"M must be {self.n}x{self.n}")
        if not np.array_equal(self.M, self.M.T):
            raise SystemError("M must be symmetric exactly as stored")
        if float(np.linalg.eigvalsh(self.M)[0]) <= 0.0:
            raise SystemError("M must be positive definite")
        self.M_inv = np.linalg.inv(self.M)

        self.V = _as_expr(V)
        self.mu = [[_as_expr(e) for e in row] for row in mu]
        self.m = len(self.mu)
        if self.m > self.n:
            raise SystemError("more constraints than coordinates")
        for row in self.mu:
            if len(row) != self.n:
                raise SystemError(f"each constraint row must have {self.n} entries")
        allowed = set(self.names)
        for e in [self.V, *itertools.chain.from_iterable(self.mu)]:
            free = exprdiff.free_variables(e)
            if free - allowed:
                raise SystemError(f"unknown variables in system data: {sorted(free - allowed)}")
            if not free:
                # a constant that does not evaluate is bad data; the tree walk
                # finds it here without compiling a kernel
                exprdiff._check_finite(exprdiff._eval_node(e, {}))
        # Each accessor is one exprdiff call over all its entries and names,
        # which runs one compiled kernel.
        self._mu_entries = tuple(itertools.chain.from_iterable(self.mu))
        self._field_exprs = (*self._mu_entries, self.V)  # mu, dmu and grad V in one call
        # hess V takes mixed partials in sorted-name order, so that its last
        # bits do not depend on the order of the names; _unsort puts the
        # rows and columns back in the names' order
        self._sorted_names = sorted(self.names)
        unsort = [self._sorted_names.index(nm) for nm in self.names]
        self._unsort = np.ix_(unsort, unsort)

    def _bind(self, q) -> tuple[tuple, dict]:
        """exprdiff's bindings of q and the leading shape of its stack.

        q is a configuration (n,) or a row (q, v) of length 2n, which also
        binds the velocity names.  One binds as a dict of numbers, the
        integrators' hot path, with leading shape ().  A stack binds each
        name to its column: exprdiff then runs one column kernel over the
        whole stack where numpy gives math's bits, and the per-row kernel
        otherwise; either way row b of a stack is the unbatched call on row
        b, bit for bit, and an error is the first failing row's.
        """
        q = np.asarray(q, dtype=float)
        names = self.names if q.shape[-1] == self.n else self.names + self.vnames
        if q.ndim > 1:
            return q.shape[:-1], exprdiff.Columns(names, q.reshape(-1, q.shape[-1]))
        return (), dict(zip(names, q.tolist()))

    def mu_at(self, q: np.ndarray) -> np.ndarray:
        """mu(q), shape (m, n); a stack q (..., n) gives (..., m, n)."""
        lead, ctx = self._bind(q)
        return exprdiff.evaluate(self._mu_entries, ctx).reshape(lead + (self.m, self.n))

    def mu_jac_at(self, q: np.ndarray) -> np.ndarray:
        """d mu[a, i] / d q[j], shape (m, n, n); a stack q (..., n) gives (..., m, n, n)."""
        lead, ctx = self._bind(q)
        dmu = exprdiff.gradient(self._mu_entries, self.names, ctx)
        return dmu.reshape(lead + (self.m, self.n, self.n))

    def mu_dmu_grad_v_at(self, q: np.ndarray):
        """(mu_at(q), mu_jac_at(q), grad_v_at(q)), bit for bit, or the first of their errors.

        One configuration takes one `exprdiff.field` kernel call for all
        three; a stack (..., n) calls the three accessors.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim > 1:
            return self.mu_at(q), self.mu_jac_at(q), self.grad_v_at(q)
        m, n = self.m, self.n
        flat = exprdiff.field(self._field_exprs, self.names, self._bind(q)[1])
        return flat[: m * n].reshape(m, n), flat[m * n : -n].reshape(m, n, n), flat[-n:]

    def v_at(self, q: np.ndarray):
        """V(q), a float; a stack q (..., n) gives (...,)."""
        lead, ctx = self._bind(q)
        value = exprdiff.evaluate(self.V, ctx)
        return value.reshape(lead) if lead else value

    def grad_v_at(self, q: np.ndarray) -> np.ndarray:
        """grad V(q), shape (n,); a stack q (..., n) gives (..., n)."""
        lead, ctx = self._bind(q)
        return exprdiff.gradient(self.V, self.names, ctx).reshape(lead + (self.n,))

    def hess_v_at(self, q: np.ndarray) -> np.ndarray:
        """hess V(q), shape (n, n); a stack q (..., n) gives (..., n, n)."""
        lead, ctx = self._bind(q)
        hess = exprdiff.hessian(self.V, self._sorted_names, ctx)
        return hess[(Ellipsis, *self._unsort)].reshape(lead + (self.n, self.n))


def constraint_residual(sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
    """phi(q, v) = mu(q) . v at the row x = (q, v), one entry per constraint.

    A stack of rows (..., 2n) gives (..., m).
    """
    return np.matvec(sys.mu_at(x[..., : sys.n]), x[..., sys.n :])


def deformed_node_residual(sys: MechanicalSystem, x: np.ndarray, eps: float) -> np.ndarray:
    """mu(q - eps/2 v) v at a row x = (q, v) or a stack: the residual of the set that a
    scheme's nodes keep at `eps` (`discrete._scheme_run`); at eps = 0, D's `constraint_residual`."""
    if not eps:
        return constraint_residual(sys, x)
    q, v = x[..., : sys.n], x[..., sys.n :]
    return np.matvec(sys.mu_at(q - 0.5 * eps * v), v)


def _gram(sys: MechanicalSystem, mu: np.ndarray) -> np.ndarray:
    """The Gram matrix C = mu M^-1 mu' of the constraint rows mu (..., m, n)."""
    return mu @ sys.M_inv @ mu.mT


def _gram_solve(C: np.ndarray, rhs: np.ndarray, q: np.ndarray):
    """Solve C x = rhs for the Gram matrix C of the constraint rows taken at q.

    This is the integrator hot path, so it skips the conditioning
    certificate that `c_matrix` provides and rejects only an outright
    singular Gram matrix: an exactly zero 1x1 one, or one LAPACK objects to.
    Stacks C (..., m, m), rhs (..., m) and q (..., n) solve row by row; the
    error names the first singular row's q.  For m = 1 the solve is the
    division rhs / C, LAPACK's bits for one right-hand side without a LAPACK
    call, and the zero test is one `count_nonzero` over the stack (-0.0 is
    zero, NaN is not).
    """
    if C.shape[-1] == 1:
        if np.count_nonzero(C) != C.size:
            singular = C[..., 0, 0] == 0.0
            raise SystemError(f"constraint Gram matrix singular at q={_first_row(q, singular)!r}")
        return rhs / C[..., 0]
    try:
        return np.linalg.solve(C, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        q = _first_row(q, ~(np.linalg.det(C) != 0.0))  # LAPACK fails on an exactly zero pivot
        raise SystemError(f"constraint Gram matrix singular at q={q!r}") from None


def c_matrix(sys: MechanicalSystem, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C = mu M^-1 mu' of the rows mu at q, certified positive definite and conditioned.

    One eigvalsh gives both checks; the 0x0 matrix of m = 0 has no eigenvalues and passes.
    """
    C = _gram(sys, mu)
    w = np.linalg.eigvalsh(C)
    lo, hi = np.min(w, initial=np.inf), np.max(w, initial=0.0)
    if not lo > 0.0:
        raise SystemError(f"constraint Gram matrix not positive definite at q={q!r}")
    if not hi <= COND_LIMIT * lo:
        raise SystemError(f"constraint Gram matrix ill-conditioned (cond={hi / lo:.3e}) at q={q!r}")
    return C


def project_velocity(sys: MechanicalSystem, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M-orthogonal projection of v onto the admissible set at q (a copy of v when m = 0)."""
    mu = sys.mu_at(q)
    return v - sys.M_inv @ mu.T @ _gram_solve(c_matrix(sys, mu, q), mu @ v, q)


@dataclass(frozen=True)
class ConnectionSplit:
    """Split of the coordinates into base (a) and fiber (alpha) indices.

    The fiber block B(q) = mu[:, fiber] must stay invertible wherever the
    split is used; then A(q) = B(q)^-1 mu[:, base] normalizes the constraint
    rows to (A, I) and admissible velocities satisfy v_fiber = -A(q) v_base.
    """

    base: tuple[int, ...]
    fiber: tuple[int, ...]

    def __post_init__(self):
        if set(self.base) & set(self.fiber):
            raise SystemError("base and fiber indices overlap")

    def a_at(self, sys: MechanicalSystem, q: np.ndarray) -> np.ndarray:
        """A(q) = B(q)^-1 mu[:, base], shape (m, n-m); a stack q (..., n) gives (..., m, n-m).

        B is singular where |det B| < 1e-12 both on mu and, for a block that
        fails there, on mu with each row divided by its largest |entry|: a row
        of any small scale passes, and one scaled up keeps the first test.
        For m = 1, B is one entry b: the test is |b| < 1e-12 (numpy's det of
        a 1x1 matrix goes through a logarithm and can differ from b in the
        last ulps), and A is LAPACK's solve without a LAPACK call, bit for
        bit: mu_base / b for one base column, mu_base * (1 / b) for more, as
        LAPACK scales by the reciprocal.
        """
        mu = sys.mu_at(q)
        B, base = mu[..., list(self.fiber)], mu[..., list(self.base)]
        one = len(self.fiber) == 1

        def small(B):
            return np.abs(B[..., 0, 0] if one else np.linalg.det(B)) < 1e-12

        singular = small(B)
        if singular.any():
            still = small(_row_normalized(mu[singular])[..., list(self.fiber)])
            if still.any():
                q = _first_row(np.asarray(q)[singular], still)
                raise SystemError(f"fiber block of mu singular at q={q!r}")
        if not one:
            return np.linalg.solve(B, base)
        return base / B if len(self.base) == 1 else base * (1.0 / B)


def derive_connection(sys: MechanicalSystem, q0) -> ConnectionSplit:
    """Pick the fiber coordinates whose mu-block at q0 is invertible and build the split.

    Every m-subset of columns is scanned at q0 and the one with the largest
    |det| wins; exact ties go to the lexicographically last index set.  Each
    row of mu(q0) is first divided by its largest |entry|, so the choice does
    not depend on the scale of the rows (a row whose largest |entry| is 1 is
    unchanged); a zero row leaves no invertible block.
    """
    mu = _row_normalized(sys.mu_at(q0))
    best = None
    best_det = 0.0
    for subset in itertools.combinations(range(sys.n), sys.m):
        d = abs(np.linalg.det(mu[:, list(subset)]))
        if d >= best_det and d > 1e-8:
            best, best_det = subset, d
    if best is None:
        raise SystemError(f"no invertible {sys.m}-column block of mu at q0={q0!r}")
    base = tuple(i for i in range(sys.n) if i not in best)
    return ConnectionSplit(base=base, fiber=best)


def _row_normalized(mu: np.ndarray) -> np.ndarray:
    """mu (..., m, n) with each row divided by its largest |entry|; a zero row stays zero."""
    scale = np.max(np.abs(mu), axis=-1, keepdims=True)
    return mu / np.where(scale > 0.0, scale, 1.0)


def energy(sys: MechanicalSystem, x: np.ndarray):
    """E = 1/2 v'Mv + V(q) at the row x = (q, v); an energy that overflows is a SystemError.

    A stack (..., 2n) gives (...,), row b bit for bit the call on row b; a failing row raises.
    """
    v = x[..., sys.n :]
    value = np.vecdot(np.vecmat(0.5 * v, sys.M), v) + sys.v_at(x[..., : sys.n])
    value = float(value) if x.ndim == 1 else value
    if not np.isfinite(value).all():
        raise SystemError(f"energy is not finite ({value!r})")
    return value


# The builtin systems as config-style field tables, read both by their
# constructors here and by the config loader's {"builtin": name}.
BUILTIN_FIELDS = {
    "nonholonomic_particle": {
        "names": ["x", "y", "z"],
        "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "V": "0",
        "mu": [["-y", "0", "1"]],
    },
    "rolling_disk": {
        "names": ["x", "y", "th", "ph"],
        "M": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0],
              [0.0, 0.0, 0.0, 0.5]],
        "V": "(x^2+y^2)/2 + 0.1*(1-cos(th))",
        "mu": [["1", "0", "0", "-0.5*cos(th)"], ["0", "1", "0", "-0.5*sin(th)"]],
    },
}


def nonholonomic_particle() -> MechanicalSystem:
    """Free particle in R^3 whose vertical velocity is slaved to y: v_z = y v_x."""
    return MechanicalSystem(**BUILTIN_FIELDS["nonholonomic_particle"])


def rolling_disk() -> MechanicalSystem:
    """Vertical disk of radius 1/2 rolling without slipping in a harmonic well."""
    return MechanicalSystem(**BUILTIN_FIELDS["rolling_disk"])
