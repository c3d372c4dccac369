"""Multiplier, constrained field, reduction identities, perturbed/deformed variants."""
from __future__ import annotations

import numpy as np
import pytest

from nonholo import exprdiff
from nonholo.reduction import (
    DeformedConstraint,
    PerturbationInput,
    deformed_c_matrix,
    deformed_field,
    deformed_residual,
    grad_psi,
    h_field,
    lambda_continuous,
    perturbed_field,
    perturbed_field_diagnostic,
    perturbed_lambda,
    psi_embed,
    psi_pseudo_inverse,
    reduce_state,
    reduced_field,
)
from nonholo.system import (
    MechanicalSystem,
    StatePoint,
    SystemError,
    derive_connection,
    nonholonomic_particle,
    project_velocity,
)


def heavy_particle() -> MechanicalSystem:
    return MechanicalSystem(
        names=["x", "y", "z"],
        M=np.diag([1.0, 2.0, 1.0]),
        V="y^2 + z",
        mu=[["-y", "0", "1"]],
    )


def random_on_d(sys, rng, count):
    for _ in range(count):
        q = rng.normal(size=sys.n)
        v = project_velocity(sys, q, rng.normal(size=sys.n))
        yield StatePoint(q, v)


def test_multiplier_closed_form_particle():
    sys = nonholonomic_particle()
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    lam = lambda_continuous(sys, x.concat())
    assert lam.shape == (1,)
    assert lam[0] == 0.5

    rng = np.random.default_rng(0)
    for x in random_on_d(sys, rng, 50):
        lam = lambda_continuous(sys, x.concat())
        want = x.v[0] * x.v[1] / (1.0 + x.q[1] ** 2)
        assert abs(lam[0] - want) < 1e-13 * (1 + abs(want))


def test_multiplier_requires_on_d_state():
    sys = nonholonomic_particle()
    off = StatePoint([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(SystemError):
        lambda_continuous(sys, off.concat())
    lam = lambda_continuous(sys, off.concat(), check=False)
    assert np.isfinite(lam).all()


def test_field_value_particle():
    sys = nonholonomic_particle()
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]).concat()
    assert np.array_equal(h_field(sys, x), [1.0, 1.0, 1.0, -0.5, 0.0, 0.5])


def test_field_tangency_hand_derived():
    # d/dt [v_z - y v_x] along the field, with the gradient written out by
    # hand rather than taken from the library
    sys = nonholonomic_particle()
    rng = np.random.default_rng(1)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x.concat())
        fq, fv = f[:3], f[3:]
        ddt = -x.v[0] * fq[1] + (-x.q[1] * fv[0] + fv[2])
        assert abs(ddt) < 1e-10, f"constraint drifts at rate {ddt}"


def test_field_tangency_with_potential_and_mass():
    sys = heavy_particle()
    rng = np.random.default_rng(2)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x.concat())
        fq, fv = f[:3], f[3:]
        ddt = -x.v[0] * fq[1] + (-x.q[1] * fv[0] + fv[2])
        assert abs(ddt) < 1e-10


def test_energy_is_instantaneously_conserved():
    sys = heavy_particle()
    rng = np.random.default_rng(3)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x.concat())
        grad_e_q = sys.grad_v_at(x.q)
        grad_e_v = sys.M @ x.v
        ddt = grad_e_q @ f[:3] + grad_e_v @ f[3:]
        assert abs(ddt) < 1e-10


def test_unconstrained_field():
    sys = MechanicalSystem(["x"], np.eye(1), "x^2", [])
    x = StatePoint([3.0], [2.0]).concat()
    assert np.array_equal(h_field(sys, x), [2.0, -6.0])
    assert lambda_continuous(sys, x).shape == (0,)


def test_lift_and_projection_round_trip():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    rng = np.random.default_rng(4)
    for _ in range(20):
        xi = rng.normal(size=5)
        x = psi_embed(sys, split, xi)
        assert np.max(np.abs(sys.mu_at(x[:3]) @ x[3:])) < 1e-13
        back = reduce_state(sys, split, x)
        assert np.array_equal(back, xi)


def test_reduce_state_rejects_off_d():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(SystemError):
        reduce_state(sys, split, StatePoint([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]).concat())


def test_lift_jacobian_value_and_fd():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    xi = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    J = grad_psi(sys, split, xi)
    # v_z = y v_x, so d v_z/dy = v_x = 1 and d v_z/dv_x = y = 1
    want = np.zeros((6, 5))
    want[:3, :3] = np.eye(3)
    want[3, 3] = 1.0
    want[4, 4] = 1.0
    want[5, 1] = 1.0
    want[5, 3] = 1.0
    assert np.array_equal(J, want)

    h = 1e-6
    rng = np.random.default_rng(5)
    xi = rng.normal(size=5)
    J = grad_psi(sys, split, xi)
    for col in range(5):
        bump = np.zeros(5)
        bump[col] = h
        up, dn = xi + bump, xi - bump
        fd = (psi_embed(sys, split, up) - psi_embed(sys, split, dn)) / (2 * h)
        assert np.max(np.abs(J[:, col] - fd)) < 1e-9


def test_pseudo_inverse_is_left_inverse_of_lift_jacobian():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    S = psi_pseudo_inverse(sys, split)
    xi = np.array([0.3, -0.7, 2.0, 0.4, -1.1])
    assert np.array_equal(S @ grad_psi(sys, split, xi), np.eye(5))


def test_reduced_field_value_and_consistency():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    xi = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(reduced_field(sys, split, xi), [1.0, 1.0, 1.0, -0.5, 0.0])

    # the full field along the lift factors through the lift's Jacobian:
    # h(psi(xi)) = grad_psi(xi) . xi'
    rng = np.random.default_rng(6)
    for sys_k in (nonholonomic_particle(), heavy_particle()):
        split_k = derive_connection(sys_k, q0=np.array([0.0, 1.0, 0.0]))
        for _ in range(25):
            xi = rng.normal(size=5)
            lhs = h_field(sys_k, psi_embed(sys_k, split_k, xi))
            rhs = grad_psi(sys_k, split_k, xi) @ reduced_field(sys_k, split_k, xi)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            # selecting rows of h is the pseudo-inverse applied to it
            selected = psi_pseudo_inverse(sys_k, split_k) @ lhs
            assert np.array_equal(reduced_field(sys_k, split_k, xi), selected)


# --- perturbations -----------------------------------------------------------


def _random_ghat(rng, n):
    g = rng.normal(size=2 * n)
    return lambda x: g


def test_perturbed_field_stays_tangent():
    sys = heavy_particle()
    rng = np.random.default_rng(7)
    for x in random_on_d(sys, rng, 40):
        pert = PerturbationInput(_random_ghat(rng, 3), p=2, eps=0.1)
        f = perturbed_field(sys, pert, x.concat())
        fq, fv = f[:3], f[3:]
        ddt = -x.v[0] * fq[1] + (-x.q[1] * fv[0] + fv[2])
        assert abs(ddt) < 1e-10


def test_perturbed_lambda_against_direct_solve():
    # independent route: require d/dt(mu v) = 0 along the perturbed motion and
    # solve the m x m system from scratch
    sys = heavy_particle()
    rng = np.random.default_rng(8)
    h = 1e-7
    for x in random_on_d(sys, rng, 25):
        pert = PerturbationInput(_random_ghat(rng, 3), p=3, eps=0.2)
        g = pert.ghat(x.concat())
        scale = pert.eps**pert.p
        qdot = x.v + scale * g[:3]
        mu = sys.mu_at(x.q)
        dmu_v = np.empty((1, 3))
        for j in range(3):
            qp, qm = x.q.copy(), x.q.copy()
            qp[j] += h
            qm[j] -= h
            dmu_v[:, j] = (sys.mu_at(qp) - sys.mu_at(qm)) @ x.v / (2 * h)
        rhs = dmu_v @ qdot + mu @ (-sys.M_inv @ sys.grad_v_at(x.q) + scale * g[3:])
        lam_direct = np.linalg.solve(mu @ sys.M_inv @ mu.T, -rhs)
        lam = perturbed_lambda(sys, pert, x.concat())
        assert np.max(np.abs(lam - lam_direct)) < 1e-6


def test_perturbation_switches_off():
    sys = heavy_particle()
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]).concat()
    pert = PerturbationInput(_random_ghat(np.random.default_rng(9), 3), p=2, eps=0.0)
    assert np.array_equal(perturbed_field(sys, pert, x), h_field(sys, x))
    assert np.array_equal(perturbed_lambda(sys, pert, x), lambda_continuous(sys, x, check=False))
    assert np.array_equal(perturbed_field_diagnostic(sys, pert, x), np.zeros(6))


def test_diagnostic_vanishes_iff_velocity_part_admissible():
    sys = nonholonomic_particle()
    rng = np.random.default_rng(10)
    x = next(iter(random_on_d(sys, rng, 1)))

    raw = rng.normal(size=3)
    g_ok = np.concatenate([rng.normal(size=3), project_velocity(sys, x.q, raw)])
    pert = PerturbationInput(lambda _: g_ok, p=2, eps=0.1)
    assert np.max(np.abs(perturbed_field_diagnostic(sys, pert, x.concat()))) < 1e-15

    g_bad = np.concatenate([np.zeros(3), raw])
    if abs(sys.mu_at(x.q) @ raw) > 1e-6:
        pert = PerturbationInput(lambda _: g_bad, p=2, eps=0.1)
        assert np.max(np.abs(perturbed_field_diagnostic(sys, pert, x.concat()))) > 1e-8


# --- deformed constraints ----------------------------------------------------


def product_deformation(delta: float) -> DeformedConstraint:
    return DeformedConstraint(g=[exprdiff.parse("v_x*v_y")], delta=delta)


def test_deformed_gram_matrix_value():
    sys = nonholonomic_particle()
    dc = product_deformation(0.05)
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]).concat()
    cm = deformed_c_matrix(sys, dc, x)
    assert abs(cm.C[0, 0] - 1.905) < 1e-15


def test_deformed_residual_value():
    sys = nonholonomic_particle()
    dc = product_deformation(0.05)
    x = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]).concat()
    # mu v = 0 here, so the residual is just delta v_x v_y
    assert abs(deformed_residual(sys, dc, x)[0] - 0.05) < 1e-16


def test_deformed_residual_is_instantaneously_conserved():
    sys = nonholonomic_particle()
    dc = product_deformation(0.05)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(30):
        x = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        f = deformed_field(sys, dc, x)
        # directional derivative of the residual along the field, by central
        # differences in the full state
        up = x + h * f
        dn = x - h * f
        ddt = (deformed_residual(sys, dc, up) - deformed_residual(sys, dc, dn)) / (2 * h)
        assert abs(ddt[0]) < 1e-8


def test_deformation_off_recovers_plain_field():
    sys = heavy_particle()
    dc = DeformedConstraint(g=[exprdiff.parse("v_x*v_y")], delta=0.0)
    rng = np.random.default_rng(12)
    for x in random_on_d(sys, rng, 10):
        gap = np.max(np.abs(deformed_field(sys, dc, x.concat()) - h_field(sys, x.concat())))
        assert gap < 1e-13
