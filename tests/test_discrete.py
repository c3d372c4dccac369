"""Discrete schemes: single-step values, invariants, orders, equivalences."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from nonholo import exprdiff, reduction
from nonholo.discrete import (
    DiscreteNonholonomicSystem,
    FiniteDifferenceMap,
    NewtonError,
    NodePolicy,
    deformed_admissible_velocity,
    deformed_node_residual,
    dla_step,
    newton_solve,
    original_node_step,
    run_integrator,
    vni10_step,
    vni20_step,
)
from nonholo.flow import integrate
from nonholo.reduction import (
    DeformedConstraint,
    _lambda_raw,
    deformed_lambda,
    deformed_residual,
    lambda_continuous,
    reduced_field,
)
from nonholo.system import (
    MechanicalSystem,
    StatePoint,
    SystemError,
    constraint_residual,
    derive_connection,
    energy,
    nonholonomic_particle,
    project_velocity,
    rolling_disk,
)

X0 = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0])

# The rolling disk has a potential with a non-zero Hessian, a non-identity
# mass matrix and two constraints.
_TH, _W_TH, _W_PH = 0.7, 0.3, 1.1  # an admissible start: (v_x, v_y) = w_ph (cos th, sin th) / 2
DISK_X0 = StatePoint(
    [1.0, 0.0, _TH, 0.0], [0.5 * np.cos(_TH) * _W_PH, 0.5 * np.sin(_TH) * _W_PH, _W_TH, _W_PH]
)


def fit_slope(eps_list, errs):
    return np.polyfit(np.log(eps_list), np.log(errs), 1)[0]


# --- single-step values, all worked out by hand on the particle --------------


def test_vni10_single_step():
    sys = nonholonomic_particle()
    out = vni10_step(sys, X0.concat(), 0.1)
    assert np.array_equal(out.state[:3], [0.1, 1.1, 0.1])
    assert abs(out.lam[0] - 1.0 / 2.21) < 1e-15
    want_v = [0.9502262443438914, 1.0, 1.0452488687782805]
    assert np.max(np.abs(out.state[3:] - want_v)) < 1e-15
    assert out.iters == 0
    # the new node is admissible
    assert abs(sys.mu_at(out.state[:3]) @ out.state[3:]) < 1e-15


def test_vni20_single_step():
    sys = nonholonomic_particle()
    out = vni20_step(sys, X0.concat(), 0.1)
    assert abs(out.lam[0] - 1.0 / 2.155) < 1e-12
    want_v = [0.951276102088167, 1.0, 1.0464037122969837]
    want_q = [0.09756380510440835, 1.1, 0.10232018561484918]
    assert np.max(np.abs(out.state[3:] - want_v)) < 1e-12
    assert np.max(np.abs(out.state[:3] - want_q)) < 1e-12
    assert out.iters >= 1
    assert abs(sys.mu_at(out.state[:3]) @ out.state[3:]) < 1e-12


def test_original_node_single_step():
    sys = nonholonomic_particle()
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 0.95]).concat()
    assert abs(deformed_node_residual(sys, x, 0.1)[0]) < 1e-15
    out = original_node_step(sys, x, 0.1)
    assert abs(out.lam[0] - 1.0 / 2.05) < 1e-13
    # the step conserves the deformed residual, not the plain one
    assert abs(deformed_node_residual(sys, out.state, 0.1)[0]) < 1e-12


def test_original_node_rejects_plain_nodes():
    sys = nonholonomic_particle()
    with pytest.raises(SystemError):
        original_node_step(sys, X0.concat(), 0.1)  # on D but not on the deformed set


def test_dla_single_step_original_nodes_closed_form():
    # with beta = 1 and endpoint nodes, the particle multiplier has the
    # closed form v_x v_y / (1 + y (y + eps v_y))
    sys = nonholonomic_particle()
    eps = 0.1
    dsys = DiscreteNonholonomicSystem(sys, FiniteDifferenceMap(beta=1.0, eps=eps))
    out = dla_step(dsys, X0.q - eps * X0.v, X0.q)
    assert abs(out.lam[0] - 1.0 / 2.1) < 1e-12

    rng = np.random.default_rng(21)
    for _ in range(20):
        q = rng.normal(size=3)
        v = project_velocity(sys, q, rng.normal(size=3))
        out = dla_step(dsys, q - eps * v, q)
        want = v[0] * v[1] / (1.0 + q[1] * (q[1] + eps * v[1]))
        assert abs(out.lam[0] - want) < 1e-11


# --- finite-difference map and discrete system --------------------------------


def test_finite_difference_map_round_trip():
    rng = np.random.default_rng(2)
    for beta in (0.0, 0.3, 0.5, 1.0):
        rho = FiniteDifferenceMap(beta=beta, eps=0.05)
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=3)
            q, v = rho.forward(x, y)
            x2, y2 = rho.inverse(q, v)
            assert np.max(np.abs(x2 - x)) < 1e-13
            assert np.max(np.abs(y2 - y)) < 1e-13
            q2, v2 = rho.forward(*rho.inverse(q, v))
            assert np.max(np.abs(q2 - q)) < 1e-13
            assert np.max(np.abs(v2 - v)) < 1e-13


def test_finite_difference_map_diagonal():
    rho = FiniteDifferenceMap(beta=0.7, eps=0.05)
    x = np.array([1.0, -2.0, 3.0])
    q, v = rho.forward(x, x)
    assert np.array_equal(v, np.zeros(3))
    assert np.max(np.abs(q - x)) < 1e-15


def test_finite_difference_map_validation():
    with pytest.raises(SystemError):
        FiniteDifferenceMap(beta=-0.1, eps=0.1)
    with pytest.raises(SystemError):
        FiniteDifferenceMap(beta=1.5, eps=0.1)
    with pytest.raises(SystemError):
        FiniteDifferenceMap(beta=0.5, eps=0.0)


def test_discrete_lagrangian_and_constraint():
    sys = nonholonomic_particle()
    # pairs generated from an admissible node satisfy the discrete constraint
    for beta in (0.0, 0.25, 0.5, 1.0):
        rho = FiniteDifferenceMap(beta=beta, eps=0.1)
        x, y = rho.inverse(X0.q, X0.v)
        assert abs((sys.mu_at(rho.point(x, y)) @ (y - x))[0]) < 1e-14


def test_regularity_guard_fires_when_constraint_degenerates():
    bad = MechanicalSystem(["x", "y"], np.eye(2), "0", [["x", "0"]])
    rho = FiniteDifferenceMap(beta=0.5, eps=0.01)
    dsys = DiscreteNonholonomicSystem(bad, rho)
    q_cur = np.array([1e-9, 0.0])
    with pytest.raises(SystemError):
        dla_step(dsys, q_cur - 0.01 * np.array([0.0, 1.0]), q_cur)


def test_node_schemes_refuse_a_node_policy():
    sys = nonholonomic_particle()
    for scheme in ("vni10", "vni20", "original_node"):
        with pytest.raises(SystemError, match="two-point scheme"):
            run_integrator(sys, scheme, X0, 0.01, 3, policy=NodePolicy.ORIGINAL)


def _paper_regularity_matrix(sys, rho, x, y):
    """[[D1D2 L_d, mu(x)'], [D2 phi_d, 0]] at the pair (x, y), phi_d(x, y) = -mu(rho(x, y)) (y - x)."""
    n, eps, beta = sys.n, rho.eps, rho.beta
    q = (1.0 - beta) * x + beta * y
    out = np.zeros((n + sys.m, n + sys.m))
    out[:n, :n] = -(1.0 / eps) * sys.M - eps * beta * (1.0 - beta) * sys.hess_v_at(q)
    out[:n, n:] = sys.mu_at(x).T
    out[n:, :n] = -beta * np.einsum("aij,i->aj", sys.mu_jac_at(q), y - x) - sys.mu_at(q)
    return out


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
def test_regularity_certificate_is_the_cond_of_the_paper_matrix(beta):
    # the certificate is the step Jacobian at the Newton seed with its
    # multiplier columns over eps; its cond is that of the paper's block
    # matrix P, written out independently, scaled as diag(eps I, I) P diag(I, I/eps)
    sys, rng = rolling_disk(), np.random.default_rng(20)
    for eps in (0.01, 0.1):
        dsys = DiscreteNonholonomicSystem(sys, FiniteDifferenceMap(beta=beta, eps=eps))
        rows = np.diag(np.r_[np.full(sys.n, eps), np.ones(sys.m)])
        cols = np.diag(np.r_[np.ones(sys.n), np.full(sys.m, 1.0 / eps)])
        for _ in range(25):
            q_cur, v_k = rng.uniform(-2.0, 2.0, 4), rng.uniform(-2.0, 2.0, 4)
            paper = _paper_regularity_matrix(sys, dsys.rho, q_cur, q_cur + eps * v_k)
            want = np.linalg.cond(rows @ paper @ cols)
            got, _ = dsys.check_regularity(q_cur, v_k, sys.mu_at(q_cur))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_regularity_certificate_admits_small_step_sizes():
    # dividing the Jacobian's first n rows by eps made the certificate's
    # cond grow like 0.5 / eps^2: dla refused eps = 1e-7 where vni20 runs
    sys = nonholonomic_particle()
    dsys = DiscreteNonholonomicSystem(sys, FiniteDifferenceMap(beta=0.5, eps=1e-7))
    cond, _ = dsys.check_regularity(X0.q, X0.v, sys.mu_at(X0.q))
    assert cond < 3.0
    dla = run_integrator(sys, "dla", X0, 1e-7, 10, beta=0.5)
    vni20 = run_integrator(sys, "vni20", X0, 1e-7, 10)
    # the same configurations (a velocity read as (q_{k+1} - q_k) / eps
    # carries their rounding over eps), and each node on D
    assert len(dla) == len(vni20) == 11
    assert np.allclose(dla.states[:, :3], vni20.states[:, :3], rtol=0.0, atol=1e-12)
    assert np.max(np.abs(dla.residuals)) < 1e-12


def test_dla_step_builds_the_seed_jacobian_once():
    # the certificate's Jacobian at the Newton seed q_k + beta eps v_k is
    # Newton's first one: dmu and hess V are evaluated there once each
    sys = rolling_disk()
    dsys = DiscreteNonholonomicSystem(sys, FiniteDifferenceMap(beta=0.5, eps=0.01))
    q_prev, q_cur = dsys.rho.inverse(DISK_X0.q, DISK_X0.v)
    seed = q_cur + 0.5 * 0.01 * ((q_cur - q_prev) / 0.01)
    calls = {"mu_jac_at": [], "hess_v_at": []}
    for name, seen in calls.items():
        accessor = getattr(sys, name)
        setattr(sys, name, lambda q, seen=seen, accessor=accessor: seen.append(np.array(q))
                or accessor(q))
    out = dla_step(dsys, q_prev, q_cur)
    assert out.iters >= 1
    for name, seen in calls.items():
        assert sum(np.array_equal(q, seed) for q in seen) == 1, name


def test_dla_step_evaluates_mu_at_the_current_configuration_once():
    # the regularity certificate and the step equations share one mu(q_k)
    sys = rolling_disk()
    dsys = DiscreteNonholonomicSystem(sys, FiniteDifferenceMap(beta=0.5, eps=0.01))
    q_prev, q_cur = dsys.rho.inverse(DISK_X0.q, DISK_X0.v)
    calls = []
    mu_at = sys.mu_at
    sys.mu_at = lambda q: calls.append(np.array(q)) or mu_at(q)
    out = dla_step(dsys, q_prev, q_cur)
    assert out.iters >= 1
    assert sum(np.array_equal(q, q_cur) for q in calls) == 1


def test_newton_solver_failures():
    with pytest.raises(NewtonError):
        newton_solve(lambda u: (np.array([1.0]), lambda: np.eye(1)), np.zeros(1))
    with pytest.raises(NewtonError):
        newton_solve(lambda u: (u**2 + 1.0, lambda: np.zeros((1, 1))), np.zeros(1))


def test_newton_step_evaluates_mu_once_per_iterate():
    # the residual and the Jacobian at one Newton iterate share one mu(q)
    sys = rolling_disk()
    calls = []
    mu_at = sys.mu_at
    sys.mu_at = lambda q: calls.append(q) or mu_at(q)
    out = vni20_step(sys, DISK_X0.concat(), 0.01)
    assert out.iters >= 1
    # the reaction row at q_half, then one per iterate: each iteration's and the final one
    assert len(calls) == 1 + out.iters + 1


def test_no_state_point_is_built_per_step(monkeypatch):
    # StatePoint is the validated type of the public API; below it the loops
    # pass flat (q, v) rows, so their StatePoint count does not grow with steps
    built = []
    post_init = StatePoint.__post_init__
    monkeypatch.setattr(StatePoint, "__post_init__", lambda x: built.append(x) or post_init(x))
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=X0.q)
    xi = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    runs = {
        "vni20": lambda: run_integrator(sys, "vni20", X0, 0.01, 1000),
        "dla": lambda: run_integrator(sys, "dla", X0, 0.01, 1000, beta=0.5),
        "integrate": lambda: integrate(sys, X0, 0.01, 100),
        "reduced_field": lambda: [reduced_field(sys, split, xi) for _ in range(100)],
    }
    for name, call in runs.items():
        built.clear()
        call()
        assert len(built) <= 1, f"{name} built {len(built)} StatePoints"


# --- invariants over many steps -----------------------------------------------


def test_node_schemes_preserve_d_over_long_runs():
    sys = nonholonomic_particle()
    for scheme in ("vni10", "vni20"):
        traj = run_integrator(sys, scheme, X0, 0.01, 1000)
        worst = np.max(np.abs(traj.residuals))
        assert worst <= 1e-9, f"{scheme} drifted off D by {worst}"


def test_original_node_conserves_deformed_residual():
    sys = nonholonomic_particle()
    eps = 0.01
    v0 = deformed_admissible_velocity(sys, X0.q, X0.v, eps)
    traj = run_integrator(sys, "original_node", StatePoint(X0.q, v0), eps, 200)
    assert np.max(np.abs(traj.deformed_residuals)) < 1e-10
    # the plain residual is genuinely nonzero (the node set is deformed)
    assert np.max(np.abs(traj.residuals)) > 1e-6


def test_deformed_velocity_repair():
    sys = nonholonomic_particle()
    rng = np.random.default_rng(3)
    eps = 0.05
    for _ in range(20):
        q = rng.normal(size=3)
        v = project_velocity(sys, q, rng.normal(size=3))
        w = deformed_admissible_velocity(sys, q, v, eps)
        assert np.max(np.abs(sys.mu_at(q - 0.5 * eps * w) @ w)) < 1e-12
        # the repair is a reaction-direction correction of size O(eps)
        gap = np.linalg.norm(w - v)
        assert gap < 0.5 * eps * (1 + np.linalg.norm(v) ** 2)
        coeff = np.linalg.lstsq(sys.M_inv @ sys.mu_at(q).T, w - v, rcond=None)[0]
        assert np.max(np.abs(sys.M_inv @ sys.mu_at(q).T @ coeff - (w - v))) < 1e-12


def test_unconstrained_vni10_is_symplectic_euler():
    # m = 0: drift q1 = q + eps v, then kick v1 = v - eps M^-1 grad V(q1); D is all of TQ
    sys = MechanicalSystem(["x", "y"], np.diag([1.0, 2.0]), "(x^2+y^2)/2", [])
    q, v = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    out = vni10_step(sys, np.concatenate([q, v]), 0.25)
    assert np.array_equal(out.state, [1.125, -1.25, 0.21875, 3.15625])
    assert out.lam.shape == (0,) and out.iters == 0
    assert np.array_equal(deformed_admissible_velocity(sys, q, v, 0.25), v)


def test_unconstrained_vni20_is_trapezoidal_rule():
    # harmonic oscillator: the m = 0 step equations reduce to the implicit
    # trapezoidal rule, solvable in closed form
    sys = MechanicalSystem(["x"], np.eye(1), "0.5*x^2", [])
    x = StatePoint([1.0], [0.5])
    eps = 0.2
    out = vni20_step(sys, x.concat(), eps)
    # solve v1 = v0 - eps/2 (q0 + q1), q1 = q0 + eps/2 (v0 + v1) directly
    a = np.array([[1.0 + eps * eps / 4.0, 0.0], [-eps / 2.0, 1.0]])
    rhs = np.array(
        [x.v[0] - 0.5 * eps * (2.0 * x.q[0] + 0.5 * eps * x.v[0]), x.q[0] + 0.5 * eps * x.v[0]]
    )
    v1, q1 = np.linalg.solve(a, rhs)
    assert abs(out.state[1] - v1) < 1e-13
    assert abs(out.state[0] - q1) < 1e-13


# --- scheme equivalences through the node redefinition -------------------------


def test_dla_beta0_matches_first_order_scheme():
    sys = nonholonomic_particle()
    eps = 0.01
    a = run_integrator(sys, "vni10", X0, eps, 100)
    b = run_integrator(sys, "dla", X0, eps, 100, beta=0.0, policy=NodePolicy.REDEFINED)
    assert np.max(np.abs(a.states - b.states)) < 1e-11
    assert np.max(np.abs(a.lambdas - b.lambdas)) < 1e-11


def test_dla_beta_half_matches_second_order_scheme():
    sys = nonholonomic_particle()
    eps = 0.01
    a = run_integrator(sys, "vni20", X0, eps, 100)
    b = run_integrator(sys, "dla", X0, eps, 100, beta=0.5, policy=NodePolicy.REDEFINED)
    assert np.max(np.abs(a.states - b.states)) < 1e-10
    assert np.max(np.abs(a.lambdas - b.lambdas)) < 1e-10


def test_two_point_scheme_matches_node_schemes_on_disk():
    # criterion 8 where the particle cannot reach
    sys, x0 = rolling_disk(), DISK_X0
    eps, steps = 0.01, 200
    for scheme, beta, tol in (("vni10", 0.0, 1e-11), ("vni20", 0.5, 1e-10)):
        a = run_integrator(sys, scheme, x0, eps, steps)
        b = run_integrator(sys, "dla", x0, eps, steps, beta=beta, policy=NodePolicy.REDEFINED)
        assert np.max(np.abs(a.states - b.states)) < tol, scheme
        assert np.max(np.abs(a.lambdas - b.lambdas)) < tol, scheme


# --- convergence orders ---------------------------------------------------------


EPS_COARSE = [0.0125, 0.00625, 0.003125, 0.0015625]


def endpoint_errors(sys, scheme, ref, eps_list, **kw):
    errs = []
    for eps in eps_list:
        steps = round(0.5 / eps)
        traj = run_integrator(sys, scheme, X0, eps, steps, **kw)
        end = traj.state(len(traj) - 1)
        errs.append(max(np.max(np.abs(end.q - ref.q)), np.max(np.abs(end.v - ref.v))))
    return errs


def test_first_order_state_and_multiplier_convergence(particle, oracle_t05):
    errs = endpoint_errors(particle, "vni10", oracle_t05, EPS_COARSE)
    slope = fit_slope(EPS_COARSE, errs)
    assert 0.9 < slope < 1.1, f"state slope {slope} (errors {errs})"

    lam_ref = lambda_continuous(particle, oracle_t05.concat())
    lam_errs = []
    for eps in EPS_COARSE:
        traj = run_integrator(particle, "vni10", X0, eps, round(0.5 / eps))
        lam_errs.append(abs(traj.lambdas[-1, 0] - lam_ref[0]))
    lam_slope = fit_slope(EPS_COARSE, lam_errs)
    assert -0.1 < lam_slope < 1.1, f"multiplier slope {lam_slope} (errors {lam_errs})"


def test_second_order_state_convergence(particle, oracle_t05):
    errs = endpoint_errors(particle, "vni20", oracle_t05, EPS_COARSE)
    slope = fit_slope(EPS_COARSE, errs)
    assert 1.9 < slope < 2.1, f"state slope {slope} (errors {errs})"


def test_second_order_richardson_ratio(particle, oracle_t05):
    errs = endpoint_errors(particle, "vni20", oracle_t05, [0.0125, 0.00625])
    ratio = errs[0] / errs[1]
    assert 3.6 < ratio < 4.4, f"halving the step scaled the error by {ratio}"


def test_midpoint_constraint_scheme_degrades_to_first_order(particle, oracle_t05):
    # starting data is repaired onto the deformed set per step size, but the
    # comparison flow starts from the unrepaired state: the O(eps) set
    # deformation caps the observable order at one
    errs = []
    res_end = []
    for eps in EPS_COARSE:
        v0 = deformed_admissible_velocity(particle, X0.q, X0.v, eps)
        traj = run_integrator(particle, "original_node", StatePoint(X0.q, v0), eps, round(0.5 / eps))
        end = traj.state(len(traj) - 1)
        errs.append(
            max(np.max(np.abs(end.q - oracle_t05.q)), np.max(np.abs(end.v - oracle_t05.v)))
        )
        res_end.append(abs(traj.residuals[-1, 0]))
    slope = fit_slope(EPS_COARSE, errs)
    assert 0.9 < slope < 1.1, f"state slope {slope} (errors {errs})"
    res_slope = fit_slope(EPS_COARSE, res_end)
    assert 0.9 < res_slope < 1.1, f"plain-residual slope {res_slope} (values {res_end})"


# --- the driver -----------------------------------------------------------------


def test_run_integrator_validation():
    sys = nonholonomic_particle()
    with pytest.raises(SystemError):
        run_integrator(sys, "leapfrog", X0, 0.1, 10)
    with pytest.raises(SystemError):
        run_integrator(sys, "vni10", X0, -0.1, 10)
    with pytest.raises(SystemError):
        run_integrator(sys, "vni10", X0, 0.1, 10, beta=0.5)
    with pytest.raises(SystemError):
        run_integrator(sys, "dla", X0, 0.1, 10)
    off = StatePoint([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(SystemError):
        run_integrator(sys, "vni10", off, 0.1, 10)
    with pytest.raises(SystemError):
        run_integrator(sys, "dla", off, 0.1, 10, beta=0.5)


@pytest.mark.parametrize("steps", [-1, -3, float("nan"), 10**12])
def test_run_integrator_refuses_a_bad_step_count(steps):
    # refused before anything is allocated: 10^12 steps of the particle take 43.7 TiB
    with pytest.raises(SystemError, match="steps"):
        run_integrator(nonholonomic_particle(), "vni10", X0, 0.01, steps)


def test_run_integrator_refuses_an_end_time_that_overflows():
    with pytest.raises(SystemError, match="end time"):
        run_integrator(nonholonomic_particle(), "vni10", X0, 1e308, 2)


def test_run_integrator_records():
    sys = nonholonomic_particle()
    traj = run_integrator(sys, "vni20", X0, 0.1, 5)
    assert len(traj) == 6
    assert traj.lambdas[0, 0] == 0.5  # continuous multiplier at the start
    assert np.all(traj.newton_iters[1:] >= 1)
    assert traj.newton_iters[0] == 0
    assert traj.times[-1] == pytest.approx(0.5)

    # dla's redefined nodes chain through its configuration pairs: q_k read
    # from node k is q_k read from node k + 1
    dla = run_integrator(sys, "dla", X0, 0.1, 5, beta=0.5)
    rho = FiniteDifferenceMap(beta=0.5, eps=0.1)
    pairs = [rho.inverse(x[:3], x[3:]) for x in dla.states]
    assert all(np.max(np.abs(a[1] - b[0])) < 1e-14 for a, b in zip(pairs, pairs[1:]))


def test_discrete_csv(tmp_path):
    sys = nonholonomic_particle()
    traj = run_integrator(sys, "vni10", X0, 0.1, 3)
    path = tmp_path / "nodes.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == [
        "t", "q_1", "q_2", "q_3", "v_1", "v_2", "v_3",
        "lambda_1", "residual_1", "energy", "newton_iters", "deformed_residual_1",
    ]
    assert len(lines) == 5
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert np.array_equal(data[:, 1:7], traj.states)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("system", ["particle", "disk"])
def test_recorded_columns_are_the_diagnostics_of_each_row(system):
    # the run loop records every row's residuals and energy with the very
    # functions a caller applies to the recorded state, bit for bit, and the
    # reference flow's multipliers too, though they come from its first stage
    if system == "particle":
        sys, x0, g = nonholonomic_particle(), X0, ["v_x*v_y"]
    else:
        sys, x0, g = rolling_disk(), DISK_X0, ["v_x*v_th", "v_y*v_ph"]
    eps, steps = 0.01, 40
    dc = DeformedConstraint(g=[exprdiff.parse(e) for e in g], delta=0.05)
    on_deformed = StatePoint(x0.q, deformed_admissible_velocity(sys, x0.q, x0.v, eps))
    plain = functools.partial(constraint_residual, sys)
    runs = {
        "reference": (integrate(sys, x0, eps, steps), plain),
        "deformed_reference": (
            integrate(sys, x0, eps, steps, dc), functools.partial(deformed_residual, sys, dc)
        ),
        "vni10": (run_integrator(sys, "vni10", x0, eps, steps), plain),
        "vni20": (run_integrator(sys, "vni20", x0, eps, steps), plain),
        "original_node": (run_integrator(sys, "original_node", on_deformed, eps, steps), plain),
        "dla_redefined": (run_integrator(sys, "dla", x0, eps, steps, beta=0.5), plain),
        "dla_original": (
            run_integrator(
                sys, "dla", on_deformed, eps, steps, beta=0.5, policy=NodePolicy.ORIGINAL
            ),
            plain,
        ),
    }
    lambda_of = {"reference": functools.partial(_lambda_raw, sys),
                 "deformed_reference": functools.partial(deformed_lambda, sys, dc)}
    for name, (traj, residual_at) in runs.items():
        assert len(traj) == steps + 1, name
        for k, x in enumerate(traj.states):
            if name in lambda_of:
                assert _bits(traj.lambdas[k]) == _bits(lambda_of[name](x)), (name, k)
            assert _bits(traj.residuals[k]) == _bits(residual_at(x)), (name, k)
            assert _bits(traj.energies[k]) == _bits(energy(sys, x)), (name, k)
            if traj.deformed_residuals is not None:
                want = deformed_node_residual(sys, x, eps)
                assert _bits(traj.deformed_residuals[k]) == _bits(want), (name, k)
        assert (traj.deformed_residuals is None) == name.endswith("reference"), name


@pytest.mark.parametrize("run", ["plain", "deformed", "project_each_step"])
def test_integrate_makes_four_multiplier_solves_per_step(monkeypatch, run):
    # each recorded row's one field evaluation gives its multiplier, its
    # residual and the next step's first stage: 4 K + 1 solves for K steps
    sys, steps = rolling_disk(), 25
    solves = []
    solve = reduction._gram_solve
    monkeypatch.setattr(reduction, "_gram_solve",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    dc = DeformedConstraint(g=[exprdiff.parse("v_x*v_th"), exprdiff.parse("v_y*v_ph")], delta=0.05)
    integrate(sys, DISK_X0, 0.01, steps, deformation=dc if run == "deformed" else None,
              project_each_step=run == "project_each_step")
    assert len(solves) == 4 * steps + 1
