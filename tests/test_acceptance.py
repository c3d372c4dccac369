"""The package-level acceptance gate.

Each test checks one headline property at its stated tolerance and prints a
single PASS/FAIL line (visible with `pytest -s` or in captured output), so a
full run doubles as a certification report.
"""
from __future__ import annotations

import numpy as np

from nonholo import exprdiff
from nonholo.discrete import NodePolicy, endpoint_study, plan_study, run_integrator
from nonholo.embed import (
    EvolutionInterpolant,
    exact_step_map,
    interpolate_in_D,
    reduced_problem,
    reduced_step_map,
    verify_embedding,
)
from nonholo.flow import integrate
from nonholo.reduction import (
    DeformedConstraint,
    deformed_field,
    deformed_residual,
    h_field,
    psi_embed,
    reduce_state,
)
from nonholo.system import derive_connection, project_velocity

EPS_GRID = [0.1 * 2.0**-j for j in range(5, 11)]
T_STUDY = 0.5


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_on_d_states(sys, split, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        xi = np.concatenate([rng.normal(size=sys.n), rng.normal(size=sys.n - sys.m)])
        out.append(psi_embed(sys, split, xi))
    return out


def fitted_slope(eps_values, errors):
    return float(np.polyfit(np.log(eps_values), np.log(errors), 1)[0])


def test_criterion_1_distribution_preservation(particle, particle_x0):
    worst = {}
    for scheme in ("vni10", "vni20"):
        traj = run_integrator(particle, scheme, particle_x0, 0.01, 1000)
        worst[scheme] = float(np.max(np.abs(traj.residuals)))
    ok = all(w <= 1e-9 for w in worst.values())
    check(
        "criterion 1 (constraint preservation over 1000 steps)",
        ok,
        f"max |mu v|: vni10 {worst['vni10']:.3e}, vni20 {worst['vni20']:.3e} (tol 1e-9)",
    )


def test_criterion_2_first_order_scheme(particle, particle_x0, oracle_t05):
    study = endpoint_study(particle, plan_study(particle, "vni10", particle_x0, T_STUDY, EPS_GRID),
                           oracle_t05)
    state_errs, lam_errs = study.state_error, study.lambda_error
    slope = fitted_slope(EPS_GRID, state_errs)
    lam_slope = fitted_slope(EPS_GRID, lam_errs)
    ok = 0.9 <= slope <= 1.1 and lam_slope >= 0.0
    check(
        "criterion 2 (first-order consistency)",
        ok,
        f"state slope {slope:.3f} (want [0.9, 1.1]), multiplier slope {lam_slope:.3f} (want >= 0)",
    )


def test_criterion_3_second_order_scheme(particle, particle_x0, oracle_t05):
    state_errs = endpoint_study(
        particle, plan_study(particle, "vni20", particle_x0, T_STUDY, EPS_GRID), oracle_t05
    ).state_error
    slope = fitted_slope(EPS_GRID, state_errs)
    ok = 1.9 <= slope <= 2.1
    check(
        "criterion 3 (second-order consistency)",
        ok,
        f"state slope {slope:.3f} (want [1.9, 2.1])",
    )


def test_criterion_4_original_node_degradation(particle, particle_x0, oracle_t05):
    # each step size's start is repaired onto the deformed set that its run keeps
    runs = plan_study(particle, "original_node", particle_x0, T_STUDY, EPS_GRID, repair=True)
    slope = fitted_slope(EPS_GRID, endpoint_study(particle, runs, oracle_t05).state_error)

    worst_deformed = 0.0
    plain_maxima = []
    for _, march in runs:
        traj = march()
        worst_deformed = max(worst_deformed, float(np.max(np.abs(traj.deformed_residuals))))
        plain_maxima.append(float(np.max(np.abs(traj.residuals))))
    res_slope = fitted_slope(EPS_GRID, plain_maxima)

    ok = 0.9 <= slope <= 1.1 and worst_deformed <= 1e-9 and 0.9 <= res_slope <= 1.1
    check(
        "criterion 4 (original nodes: order drop, deformed set kept)",
        ok,
        f"state slope {slope:.3f} (want [0.9, 1.1]), deformed residual {worst_deformed:.3e} "
        f"(tol 1e-9), plain-residual slope {res_slope:.3f} (want [0.9, 1.1])",
    )


def test_criterion_5_tangency_and_conservation(particle, particle_x0):
    rng = np.random.default_rng(5)
    worst_tangency = 0.0
    for _ in range(100):
        q = rng.normal(size=3)
        v = project_velocity(particle, q, rng.normal(size=3))
        dmu = particle.mu_jac_at(q)
        grad_q = v @ dmu  # (m, n): d/dq_j of mu^a_i v^i
        hx = h_field(particle, np.concatenate([q, v]))
        rate = grad_q @ hx[:3] + particle.mu_at(q) @ hx[3:]
        worst_tangency = max(worst_tangency, float(np.max(np.abs(rate))))

    traj = integrate(particle, particle_x0, 1e-4, 10_000)
    e_drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
    vy = traj.states[:, 4]
    vy_drift = float(np.max(np.abs(vy - vy[0])))
    res_drift = float(np.max(np.abs(traj.residuals)))

    ok = (
        worst_tangency <= 1e-10
        and e_drift <= 1e-10
        and vy_drift <= 1e-12
        and res_drift <= 1e-10
    )
    check(
        "criterion 5 (field tangency and conserved quantities)",
        ok,
        f"tangency {worst_tangency:.3e} (tol 1e-10), energy drift {e_drift:.3e} (tol 1e-10), "
        f"v_y drift {vy_drift:.3e} (tol 1e-12), residual drift {res_drift:.3e} (tol 1e-10)",
    )


def test_criterion_6_interpolation(particle):
    split = derive_connection(particle, q0=np.array([0.0, 1.0, 0.0]))
    states = random_on_d_states(particle, split, 40, seed=6)
    eps = 0.1
    exact = True
    worst = 0.0
    for x0, x1 in zip(states[::2], states[1::2]):
        c = interpolate_in_D(particle, split, x0, x1, eps)
        a, b = c(0.0), c(eps)
        exact = exact and np.array_equal(a, x0)
        exact = exact and np.array_equal(b, x1)
        for t in np.linspace(0.0, eps, 101):
            s = c(t)
            worst = max(worst, float(np.max(np.abs(particle.mu_at(s[:3]) @ s[3:]))))
    ok = exact and worst <= 1e-13
    check(
        "criterion 6 (constrained interpolation, 20 pairs)",
        ok,
        f"endpoints exact: {exact}, max residual {worst:.3e} (tol 1e-13)",
    )


def test_criterion_7_embedding(particle):
    split = derive_connection(particle, q0=np.array([0.0, 1.0, 0.0]))
    rng = np.random.default_rng(7)
    points = np.array(
        [
            reduce_state(
                particle,
                split,
                psi_embed(
                    particle,
                    split,
                    np.concatenate(
                        [rng.normal(scale=0.5, size=3) + [0.0, 1.0, 0.0], rng.normal(size=2)]
                    ),
                ),
            )
            for _ in range(20)
        ]
    )
    eps = 0.1

    problem_fast = reduced_problem(particle, split, base_step=0.01)
    phi = reduced_step_map(particle, split, "vni10")
    report = verify_embedding(problem_fast, phi, eps, points, order_levels=5)

    # finer flow for the g == 0 claim, which has no discretization error to hide in
    problem_exact = reduced_problem(particle, split, base_step=4e-3)
    interp = EvolutionInterpolant(problem_exact, exact_step_map(problem_exact), eps)
    g_worst = float(np.max(np.abs(interp.g_eval(0.37 * eps, points[:4]))))

    ok = (
        report["endpoint_mismatch"] <= 1e-10
        and report["periodicity_defect"] <= 1e-8
        and report["measured_p"] is not None
        and abs(report["measured_p"] - 1.0) <= 0.15
        and g_worst <= 1e-8
    )
    check(
        "criterion 7 (discrete map embeds as a periodic perturbation)",
        ok,
        f"endpoint {report['endpoint_mismatch']:.3e} (tol 1e-10), "
        f"periodicity {report['periodicity_defect']:.3e} (tol 1e-8), "
        f"p-hat {report['measured_p']:.3f} (want 1 +- 0.15), "
        f"exact-flow g {g_worst:.3e} (tol 1e-8)",
    )


def test_criterion_8_two_point_equivalences(particle, particle_x0):
    eps, N = 0.01, 100
    ref1 = run_integrator(particle, "vni10", particle_x0, eps, N)
    two0 = run_integrator(particle, "dla", particle_x0, eps, N, beta=0.0)
    gap1 = float(np.max(np.abs(ref1.states - two0.states)))

    ref2 = run_integrator(particle, "vni20", particle_x0, eps, N)
    two5 = run_integrator(
        particle, "dla", particle_x0, eps, N, beta=0.5, policy=NodePolicy.REDEFINED
    )
    gap2 = float(np.max(np.abs(ref2.states - two5.states)))

    ok = gap1 <= 1e-11 and gap2 <= 1e-10
    check(
        "criterion 8 (two-point scheme reproduces both node schemes)",
        ok,
        f"beta=0 vs first-order {gap1:.3e} (tol 1e-11), beta=1/2 vs second-order {gap2:.3e} (tol 1e-10)",
    )


def test_criterion_9_deformed_constraints(particle, particle_x0):
    dc = DeformedConstraint(g=[exprdiff.parse("v_x * v_y")], delta=0.05)
    x0 = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.95])  # mu v + delta g = 0 here
    traj = integrate(particle, x0, 5e-4, 2000, deformation=dc)
    drift = float(np.max(np.abs(traj.residuals - traj.residuals[0])))

    dc0 = DeformedConstraint(g=[exprdiff.parse("v_x * v_y")], delta=0.0)
    rng = np.random.default_rng(9)
    gap = 0.0
    for _ in range(50):
        q = rng.normal(size=3)
        x = np.concatenate([q, project_velocity(particle, q, rng.normal(size=3))])
        gap = max(
            gap,
            float(np.max(np.abs(deformed_field(particle, dc0, x) - h_field(particle, x)))),
        )

    ok = drift <= 1e-8 and gap <= 1e-13
    check(
        "criterion 9 (deformed constraint set is invariant)",
        ok,
        f"deformed residual drift over T=1: {drift:.3e} (tol 1e-8), "
        f"delta=0 field gap {gap:.3e} (tol 1e-13)",
    )


def _random_polynomial(rng, cubic=False):
    names = ["x", "y", "z"]
    terms = []
    for _ in range(rng.integers(2, 5)):
        coef = rng.uniform(-3.0, 3.0)
        powers = rng.integers(0, 4 if cubic else 5, size=3)
        if cubic and powers.sum() > 3:
            powers = powers % 2
        factors = [f"{coef:.6f}"]
        for name, p in zip(names, powers):
            if p == 1:
                factors.append(name)
            elif p > 1:
                factors.append(f"{name}^{p}")
        terms.append(" * ".join(factors))
    return " + ".join(terms)


def test_criterion_10_derivatives_match_finite_differences():
    rng = np.random.default_rng(10)
    names = ["x", "y", "z"]
    worst_g, worst_h = 0.0, 0.0
    for k in range(100):
        expr = exprdiff.parse(_random_polynomial(rng, cubic=(k % 2 == 1)))
        point = dict(zip(names, rng.uniform(-1.5, 1.5, size=3)))

        grad = exprdiff.gradient(expr, names, point)
        step = 1e-6
        for i, name in enumerate(names):
            up = dict(point, **{name: point[name] + step})
            dn = dict(point, **{name: point[name] - step})
            fd = (exprdiff.evaluate(expr, up) - exprdiff.evaluate(expr, dn)) / (2 * step)
            gap = abs(grad[i] - fd)
            tol = 1e-6 * (1.0 + abs(grad[i]))
            worst_g = max(worst_g, gap / tol)

        if k % 2 == 1:  # hessians on the cubic half
            hess = exprdiff.hessian(expr, names, point)
            hstep = 1e-4
            for i, ni in enumerate(names):
                for j, nj in enumerate(names):
                    pp = dict(point)
                    pp[ni] += hstep
                    pp[nj] += hstep
                    pm = dict(point)
                    pm[ni] += hstep
                    pm[nj] -= hstep
                    mp = dict(point)
                    mp[ni] -= hstep
                    mp[nj] += hstep
                    mm = dict(point)
                    mm[ni] -= hstep
                    mm[nj] -= hstep
                    fd = (
                        exprdiff.evaluate(expr, pp)
                        - exprdiff.evaluate(expr, pm)
                        - exprdiff.evaluate(expr, mp)
                        + exprdiff.evaluate(expr, mm)
                    ) / (4 * hstep * hstep)
                    worst_h = max(worst_h, abs(hess[i, j] - fd) / 1e-4)

    ok = worst_g <= 1.0 and worst_h <= 1.0
    check(
        "criterion 10 (derivatives vs finite differences, 100 expressions)",
        ok,
        f"worst gradient gap {worst_g:.3f}x tol, worst hessian gap {worst_h:.3f}x tol",
    )
