"""Multiplier, constrained field, reduction identities, deformed variant."""
from __future__ import annotations

import numpy as np
import pytest

from nonholo import exprdiff
from nonholo.reduction import (
    DeformedConstraint,
    _field,
    deformed_field,
    deformed_residual,
    h_field,
    lambda_continuous,
    psi_embed,
    reduce_state,
    reduced_field,
)
from nonholo.system import (
    MechanicalSystem,
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
        yield np.concatenate([q, v])


def test_multiplier_closed_form_particle():
    sys = nonholonomic_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    lam = lambda_continuous(sys, x)
    assert lam.shape == (1,)
    assert lam[0] == 0.5

    rng = np.random.default_rng(0)
    for x in random_on_d(sys, rng, 50):
        lam = lambda_continuous(sys, x)
        want = x[3] * x[4] / (1.0 + x[1] ** 2)
        assert abs(lam[0] - want) < 1e-13 * (1 + abs(want))


def test_multiplier_requires_on_d_state():
    sys = nonholonomic_particle()
    off = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(SystemError):
        lambda_continuous(sys, off)
    lam = lambda_continuous(sys, off, check=False)
    assert np.isfinite(lam).all()


def test_field_value_particle():
    sys = nonholonomic_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(h_field(sys, x), [1.0, 1.0, 1.0, -0.5, 0.0, 0.5])


def test_field_tangency_hand_derived():
    # d/dt [v_z - y v_x] along the field, with the gradient written out by
    # hand rather than taken from the library
    sys = nonholonomic_particle()
    rng = np.random.default_rng(1)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x)
        fq, fv = f[:3], f[3:]
        ddt = -x[3] * fq[1] + (-x[1] * fv[0] + fv[2])
        assert abs(ddt) < 1e-10, f"constraint drifts at rate {ddt}"


def test_field_tangency_with_potential_and_mass():
    sys = heavy_particle()
    rng = np.random.default_rng(2)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x)
        fq, fv = f[:3], f[3:]
        ddt = -x[3] * fq[1] + (-x[1] * fv[0] + fv[2])
        assert abs(ddt) < 1e-10


def test_energy_is_instantaneously_conserved():
    sys = heavy_particle()
    rng = np.random.default_rng(3)
    for x in random_on_d(sys, rng, 100):
        f = h_field(sys, x)
        grad_e_q = sys.grad_v_at(x[:3])
        grad_e_v = sys.M @ x[3:]
        ddt = grad_e_q @ f[:3] + grad_e_v @ f[3:]
        assert abs(ddt) < 1e-10


def test_unconstrained_field():
    # m = 0 runs the constrained code on zero-row arrays: every field is
    # (v, -M^-1 grad V), the multiplier and the residual are empty
    sys = MechanicalSystem(["x"], np.eye(1), "x^2", [])
    x = np.array([3.0, 2.0])
    assert np.array_equal(h_field(sys, x), [2.0, -6.0])
    assert np.array_equal(h_field(sys, np.stack([x, 2.0 * x])), [[2.0, -6.0], [4.0, -12.0]])
    assert lambda_continuous(sys, x).shape == (0,)
    dc = DeformedConstraint(g=[], delta=0.5)
    assert np.array_equal(deformed_field(sys, dc, x), [2.0, -6.0])
    assert deformed_residual(sys, dc, x).shape == (0,)
    for deformation in (None, dc):
        field, lam = _field(sys, deformation, x)
        assert np.array_equal(field, [2.0, -6.0]) and lam.shape == (0,)


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
        reduce_state(sys, split, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]))


def test_reduced_field_value_and_consistency():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    xi = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(reduced_field(sys, split, xi), [1.0, 1.0, 1.0, -0.5, 0.0])

    # the full field along the lift is the lift's derivative along the reduced
    # field, h(psi(xi)) = d/ds psi(xi + s xi') at s = 0, by central differences
    rng = np.random.default_rng(6)
    s = 1e-6
    for sys_k in (nonholonomic_particle(), heavy_particle()):
        split_k = derive_connection(sys_k, q0=np.array([0.0, 1.0, 0.0]))
        for _ in range(25):
            xi = rng.normal(size=5)
            lhs = h_field(sys_k, psi_embed(sys_k, split_k, xi))
            dxi = reduced_field(sys_k, split_k, xi)
            up, dn = psi_embed(sys_k, split_k, xi + s * dxi), psi_embed(sys_k, split_k, xi - s * dxi)
            assert np.max(np.abs(lhs - (up - dn) / (2 * s))) < 1e-8
            # the reduced field is the (q, v_base) rows of h
            selected = reduce_state(sys_k, split_k, lhs, check=False)
            assert np.array_equal(reduced_field(sys_k, split_k, xi), selected)


def test_perturbed_lambda_against_direct_solve():
    # independent route, with zero perturbation: require d/dt(mu v) = 0 along
    # the motion and solve the m x m system from scratch
    sys = heavy_particle()
    rng = np.random.default_rng(8)
    h = 1e-7
    for x in random_on_d(sys, rng, 25):
        mu = sys.mu_at(x[:3])
        dmu_v = np.empty((1, 3))
        for j in range(3):
            qp, qm = x[:3].copy(), x[:3].copy()
            qp[j] += h
            qm[j] -= h
            dmu_v[:, j] = (sys.mu_at(qp) - sys.mu_at(qm)) @ x[3:] / (2 * h)
        rhs = dmu_v @ x[3:] + mu @ (-sys.M_inv @ sys.grad_v_at(x[:3]))
        lam_direct = np.linalg.solve(mu @ sys.M_inv @ mu.T, -rhs)
        lam = lambda_continuous(sys, x)
        assert np.max(np.abs(lam - lam_direct)) < 1e-6


# --- deformed constraints ----------------------------------------------------


def product_deformation(delta: float) -> DeformedConstraint:
    return DeformedConstraint(g=[exprdiff.parse("v_x*v_y")], delta=delta)


def test_deformed_gram_matrix_value():
    sys = nonholonomic_particle()
    dc = product_deformation(0.05)
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    # the deformed one-form mu + delta dg/dv is (-0.95, 0.05, 1) here
    rows = sys.mu_at(x[:3]) + dc.delta * dc.g_grad(sys, x)[:, 3:]
    assert abs((rows @ sys.M_inv @ rows.T)[0, 0] - 1.905) < 1e-15


def test_deformed_residual_value():
    sys = nonholonomic_particle()
    dc = product_deformation(0.05)
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
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
        want = h_field(sys, x)
        assert deformed_field(sys, dc, x).tobytes() == want.tobytes()


def test_deformed_rows_that_vanish_fail_the_certificate():
    # delta g_v = (y, 0, -1) cancels mu = (-y, 0, 1): the deformed Gram matrix is zero
    dc = DeformedConstraint(g=[exprdiff.parse("y*v_x - v_z")], delta=1.0)
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(SystemError, match="not positive definite"):
        deformed_field(nonholonomic_particle(), dc, x)
