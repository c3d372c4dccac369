"""System construction, constraint algebra, and the connection split."""
from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from nonholo import exprdiff
from nonholo.discrete import run_integrator
from nonholo.flow import integrate, reference_flow
from nonholo.system import (
    BUILTIN_FIELDS,
    ConnectionSplit,
    MechanicalSystem,
    SystemError,
    _gram,
    _gram_solve,
    c_matrix,
    constraint_residual,
    derive_connection,
    energy,
    nonholonomic_particle,
    project_velocity,
)


def rolling_disk() -> MechanicalSystem:
    """The builtin rolling disk without its potential."""
    return MechanicalSystem(**{**BUILTIN_FIELDS["rolling_disk"], "V": "0"})


def test_particle_constraint_matrix():
    sys = nonholonomic_particle()
    q = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(sys.mu_at(q), np.array([[-1.0, 0.0, 1.0]]))
    J = sys.mu_jac_at(q)
    want = np.zeros((1, 3, 3))
    want[0, 0, 1] = -1.0
    assert np.array_equal(J, want)


def test_particle_gram_matrix():
    sys = nonholonomic_particle()
    # C = mu M^-1 mu' = [[2]] at q = (0, 1, 0)
    q = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(c_matrix(sys, sys.mu_at(q), q), np.array([[2.0]]))


def test_residual_and_projection():
    sys = nonholonomic_particle()
    q = np.array([0.0, 1.0, 0.0])
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(constraint_residual(sys, x), np.array([-1.0]))

    w = project_velocity(sys, q, x[3:])
    assert np.allclose(w, [0.5, 0.0, 0.5], atol=0, rtol=0)
    assert abs(sys.mu_at(q) @ w)[0] < 1e-15

    # already-admissible velocities are fixed points of the projection
    again = project_velocity(sys, q, w)
    assert np.max(np.abs(again - w)) < 1e-15


def test_projection_is_m_orthogonal():
    sys = rolling_disk()
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rng.normal(size=4)
        v = rng.normal(size=4)
        w = project_velocity(sys, q, v)
        assert np.max(np.abs(sys.mu_at(q) @ w)) < 1e-12
        # the correction v - w is M-orthogonal to every admissible velocity,
        # i.e. it lies in the row space of M^-1 mu'
        mu = sys.mu_at(q)
        coeffs = np.linalg.lstsq(sys.M_inv @ mu.T, v - w, rcond=None)[0]
        assert np.max(np.abs(sys.M_inv @ mu.T @ coeffs - (v - w))) < 1e-12


def test_energy_value():
    sys = nonholonomic_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    assert energy(sys, x) == 1.5


def test_auto_fiber_prefers_last_tied_block():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    # columns x and z tie at |det| = 1; the later one wins
    assert split.fiber == (2,)
    assert split.base == (0, 1)


def test_connection_split_matrices():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    q = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(split.a_at(sys, q), np.array([[-1.0, 0.0]]))


def test_connection_split_disk():
    sys = rolling_disk()
    q0 = np.array([0.0, 0.0, 0.3, 0.0])
    split = derive_connection(sys, q0=q0)
    assert split.fiber == (0, 1)
    A = split.a_at(sys, q0)
    want = np.array([[0.0, -0.5 * np.cos(0.3)], [0.0, -0.5 * np.sin(0.3)]])
    assert np.max(np.abs(A - want)) < 1e-15


def test_mu_tilde_annihilates_admissible_velocities():
    sys = rolling_disk()
    split = derive_connection(sys, q0=np.array([0.0, 0.0, 0.3, 0.0]))
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.normal(size=4)
        v = project_velocity(sys, q, rng.normal(size=4))
        # the normalized rows (A, I) annihilate v: v_fiber = -A(q) v_base
        v_fiber = -split.a_at(sys, q) @ v[list(split.base)]
        assert np.max(np.abs(v[list(split.fiber)] - v_fiber)) < 1e-12


def test_explicit_fiber_request():
    sys = nonholonomic_particle()
    split = ConnectionSplit(base=(1, 2), fiber=(0,))
    # x-column is -y, so A = mu[:, base] / (-y) = [0, -1/y]
    assert np.allclose(split.a_at(sys, np.array([0.0, 2.0, 0.0])), [[0.0, -0.5]])


@pytest.mark.parametrize("k", range(-11, 10))
def test_fiber_choice_does_not_depend_on_the_row_scale(k):
    # D is the same for every scale of the particle's row; so is the split
    s = repr(10.0**k)
    sys = MechanicalSystem(names=["x", "y", "z"], M=np.eye(3), V="0",
                           mu=[[f"-y*{s}", "0", s]])
    q0 = np.array([0.0, 1.0, 0.0])
    unscaled = derive_connection(nonholonomic_particle(), q0=q0)
    assert derive_connection(sys, q0=q0) == unscaled


def test_zero_constraint_row_has_no_fiber():
    sys = MechanicalSystem(names=["x", "y"], M=np.eye(2), V="0", mu=[["x", "0"]])
    with pytest.raises(SystemError, match="no invertible"):
        derive_connection(sys, q0=np.array([0.0, 1.0]))


_RUNS = {
    "integrate": lambda sys, x0: integrate(sys, x0, 0.01, 3),
    "run_integrator": lambda sys, x0: run_integrator(sys, "vni10", x0, 0.01, 3),
    "reference_flow": lambda sys, x0: reference_flow(sys, x0, 0.01),
}


_NO_ROW = "a state must be a row \\(q, v\\) of 6 numbers"


@pytest.mark.parametrize("bad, message", [
    ([0.0, 1.0, 1.0, 1.0], _NO_ROW),  # (q, v) of the wrong length
    ([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]], _NO_ROW),  # q and v as two rows
    ([0.0, 1.0, 0.0, 1.0, 1.0, np.nan], "state entries must be finite"),
    ([0.0, 1.0, 0.0, 1.0, -np.inf, 1.0], "state entries must be finite"),
    ([0.0, 1.0, 0.0, "a", 1.0, 1.0], _NO_ROW),
    ([0.0, 1.0, 0.0, None, 1.0, 1.0], _NO_ROW),
    ([0.0, 1.0, 0.0, [1.0], 1.0, 1.0], _NO_ROW),  # a ragged nesting
], ids=["length", "two_rows", "nan", "inf", "string", "none", "ragged"])
@pytest.mark.parametrize("run", _RUNS)
def test_the_runs_refuse_a_state_that_is_no_row_of_2n_finite_numbers(run, bad, message):
    with pytest.raises(SystemError, match=message):
        _RUNS[run](nonholonomic_particle(), bad)


@pytest.mark.parametrize("run", _RUNS)
def test_the_runs_take_a_list_and_leave_the_callers_row_as_it_is(run):
    sys = nonholonomic_particle()
    x0 = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    given = x0.copy()
    from_list, from_row = _RUNS[run](sys, [0, 1, 0, 1, 1, 1]), _RUNS[run](sys, x0)
    if run != "reference_flow":
        from_list, from_row = from_list.states, from_row.states
    assert from_list.tobytes() == from_row.tobytes()
    assert x0.tobytes() == given.tobytes()


def test_system_validation():
    with pytest.raises(SystemError):
        MechanicalSystem(["x", "x"], np.eye(2), "0", [])
    with pytest.raises(SystemError):
        MechanicalSystem(["x", "v_x"], np.eye(2), "0", [])
    with pytest.raises(SystemError):
        MechanicalSystem(["x"], np.array([[-1.0]]), "0", [])
    with pytest.raises(SystemError):
        MechanicalSystem(["x", "y"], np.array([[1.0, 0.1], [0.0, 1.0]]), "0", [])
    with pytest.raises(SystemError):
        MechanicalSystem(["x"], np.eye(1), "x + w", [])
    with pytest.raises(SystemError):
        MechanicalSystem(["x"], np.eye(1), "0", [["x"], ["1"]])
    with pytest.raises(SystemError):
        MechanicalSystem([f"q{i}" for i in range(13)], np.eye(13), "0", [])


def test_unconstrained_system_supported():
    sys = MechanicalSystem(["x", "y"], np.eye(2), "x^2 + y^2", [])
    assert sys.m == 0
    x = np.array([1.0, 0.0, 0.0, 2.0])
    q, v = x[:2], x[2:]
    assert constraint_residual(sys, x).shape == (0,)
    assert np.array_equal(project_velocity(sys, q, v), v)
    assert c_matrix(sys, sys.mu_at(q), q).shape == (0, 0)
    # the empty reaction leaves every entry as it is, signed zeros included
    w = project_velocity(sys, q, np.array([-0.0, 2.0]))
    assert w.tolist() == [0.0, 2.0] and np.signbit(w[0])
    assert energy(sys, x) == 3.0


def test_gram_matrix_conditioning_guard():
    # two nearly parallel constraint rows blow up the Gram condition number:
    # C = [[1, 1], [1, 1 + 1e-12]] has eigenvalues 5.0e-13 and 2, cond 4.0e12
    sys = MechanicalSystem(
        names=["x", "y"],
        M=np.eye(2),
        V="0",
        mu=[["1", "0"], ["1", "1e-6"]],
    )
    q = np.zeros(2)
    with pytest.raises(SystemError, match="ill-conditioned"):
        c_matrix(sys, sys.mu_at(q), q)


@pytest.mark.parametrize("small, ok", [(1e-10, True), (1e-14, False)])
def test_gram_certificate_threshold(small, ok):
    # rows = I against M^-1 = diag(1, small) give C = diag(1, small), of condition 1/small
    sys = MechanicalSystem(["x", "y"], np.diag([1.0, 1.0 / small]), "0", [])
    q = np.zeros(2)
    if ok:
        assert np.array_equal(c_matrix(sys, np.eye(2), q), sys.M_inv)
    else:
        with pytest.raises(SystemError, match="ill-conditioned"):
            c_matrix(sys, np.eye(2), q)


def test_project_velocity_evaluates_mu_once(monkeypatch):
    sys = rolling_disk()
    calls = []
    mu_at = sys.mu_at
    monkeypatch.setattr(sys, "mu_at", lambda q: calls.append(q) or mu_at(q))
    q = np.array([1.0, 0.0, 0.3, 0.0])
    v = project_velocity(sys, q, np.array([0.7, -0.2, 0.4, 1.2]))
    assert len(calls) == 1
    assert np.max(np.abs(mu_at(q) @ v)) < 1e-15


def test_split_rejects_overlap():
    with pytest.raises(SystemError):
        ConnectionSplit(base=(0, 1), fiber=(1,))


def test_potential_derivatives():
    sys = MechanicalSystem(["x", "y"], np.eye(2), "x^2*y + cos(y)", [])
    q = np.array([2.0, 0.5])
    assert abs(sys.v_at(q) - (np.cos(0.5) + 2.0)) < 1e-15
    g = sys.grad_v_at(q)
    assert np.allclose(g, [2.0, 4.0 - np.sin(0.5)], atol=1e-15)
    H = sys.hess_v_at(q)
    assert np.allclose(H, [[1.0, 4.0], [4.0, -np.cos(0.5)]], atol=1e-15)


def test_hessian_keeps_sorted_name_order_for_mixed_partials():
    # names out of sorted order: mixed partials are still taken x first, then y
    # (the other order differs in the last bits at about 45 % of these points)
    sys = MechanicalSystem(["y", "x"], np.eye(2), "sin(x*y) * exp(x - y)", [])
    rng = np.random.default_rng(5)
    for _ in range(50):
        y, x = q = rng.uniform(-2.0, 2.0, size=2)
        want = exprdiff.hessian(sys.V, ["x", "y"], {"x": x, "y": y})[::-1, ::-1]
        assert sys.hess_v_at(q).tobytes() == want.tobytes()


def test_bad_constant_entries_are_rejected_at_build():
    with pytest.raises(exprdiff.EvalError):
        MechanicalSystem(["x"], np.eye(1), "log(0)", [])
    with pytest.raises(exprdiff.EvalError):
        MechanicalSystem(["x", "y"], np.eye(2), "0", [["1/0", "x"]])


def test_one_row_gram_solve_is_the_division():
    sys = nonholonomic_particle()
    rng = np.random.default_rng(2014)
    differ = 0
    for _ in range(10_000):
        q = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        rhs = rng.normal(size=1) * 10.0 ** rng.integers(-3, 4)
        mu = sys.mu_at(q)
        want = np.linalg.solve(mu @ sys.M_inv @ mu.T, rhs)
        differ += _gram_solve(_gram(sys, mu), rhs, q).tobytes() != want.tobytes()
    assert differ == 0


def test_one_row_gram_solve_rejects_a_zero_row():
    sys = MechanicalSystem(["x", "y"], np.eye(2), "0", [["x", "0"]])
    q = np.zeros(2)
    with pytest.raises(SystemError, match="singular"):
        _gram_solve(_gram(sys, sys.mu_at(q)), np.array([1.0]), q)


@pytest.mark.parametrize("names, mu, split", [
    # the particle, v_x as the fiber
    (["x", "y", "z"], [["-y", "0", "1"]], ConnectionSplit((1, 2), (0,))),
    (["x", "y", "z"], [["x", "y", "z"]], ConnectionSplit((1, 2), (0,))),
    (["x", "y"], [["x", "y"]], ConnectionSplit((0,), (1,))),
], ids=["particle", "two_base_columns", "one_base_column"])
def test_one_row_lift_is_the_lapack_solve(names, mu, split):
    # a_at forms A for m = 1 without LAPACK; it must give np.linalg.solve's
    # bits, a single configuration and a stack alike
    sys = MechanicalSystem(names, np.eye(len(names)), "0", mu)
    fiber = list(split.fiber)
    rng = np.random.default_rng(2014)
    Q = rng.normal(size=(10_000, sys.n)) * np.exp(rng.uniform(-20.0, 20.0, size=(10_000, sys.n)))
    mu_q = sys.mu_at(Q)
    Q = Q[np.abs(mu_q[:, 0, fiber[0]]) >= 1e-11]
    mu_q = sys.mu_at(Q)
    want = np.linalg.solve(mu_q[..., fiber], mu_q[..., list(split.base)])
    assert split.a_at(sys, Q).tobytes() == want.tobytes()
    differ = sum(split.a_at(sys, q).tobytes() != w.tobytes() for q, w in zip(Q, want))
    assert differ == 0


def test_singular_fiber_entry_names_its_row():
    sys = MechanicalSystem(["x", "y"], np.eye(2), "0", [["x", "y"]])
    split = ConnectionSplit((0,), (1,))
    Q = np.array([[1.0, 0.5], [2.0, 0.0], [3.0, -0.0], [4.0, 0.25]])
    with pytest.raises(SystemError, match="fiber block of mu singular") as ei:
        split.a_at(sys, Q)
    assert repr(Q[1]) in str(ei.value) and repr(Q[2]) not in str(ei.value)
    # the threshold is |b| < 1e-12 on the entry itself
    split.a_at(sys, np.array([1.0, 1e-12]))
    with pytest.raises(SystemError, match="fiber block of mu singular"):
        split.a_at(sys, np.array([1.0, np.nextafter(1e-12, 0.0)]))


@pytest.mark.parametrize("k", range(-20, 1))
def test_a_small_constraint_row_is_not_a_singular_fiber_block(k):
    # the absolute test |b| < 1e-12 flags the fiber entry b of a row scaled
    # by 10^k <= 1e-12; the row's own scale clears it
    s = 10.0**k
    sys = MechanicalSystem(["x", "y"], np.eye(2), "0", [[f"{s!r}*x", f"{s!r}*y"]])
    split = ConnectionSplit((0,), (1,))
    Q = np.array([[1.0, 0.5], [2.0, -4.0]])
    assert np.allclose(split.a_at(sys, Q), [[[2.0]], [[-0.5]]], rtol=1e-14, atol=0.0)
    # a fiber entry small against its own row is still singular, and named
    Q = np.array([[1.0, 0.5], [2.0, 1e-13], [3.0, 0.0]])
    with pytest.raises(SystemError, match="fiber block of mu singular") as ei:
        split.a_at(sys, Q)
    assert repr(Q[1]) in str(ei.value) and repr(Q[2]) not in str(ei.value)


def test_a_small_fiber_block_of_two_rows_is_not_singular():
    # det B = 1e-14 < 1e-12, but each row's largest entry is its fiber entry
    sys = MechanicalSystem(["x", "y", "z"], np.eye(3), "0",
                           [["1e-7", "0", "x"], ["0", "1e-7", "y"]])
    split = ConnectionSplit((2,), (0, 1))
    assert np.array_equal(split.a_at(sys, np.array([0.0, 0.0, 5.0])), [[0.0], [0.0]])
    with pytest.raises(SystemError, match="fiber block of mu singular"):
        split.a_at(sys, np.array([1.0, 1.0, 0.0]))  # rows (1e-7, 0, 1) and (0, 1e-7, 1)


def test_a_large_constraint_row_keeps_the_absolute_test():
    # the normalized test only clears rows the absolute test flags: scaled
    # up by 1e6, a fiber entry 1e-13 of the row's scale is 1e-7 and passes
    sys = MechanicalSystem(["x", "y"], np.eye(2), "0", [["1e6*x", "1e6*y"]])
    split = ConnectionSplit((0,), (1,))
    assert np.isfinite(split.a_at(sys, np.array([1.0, 1e-13]))).all()


def test_kernel_cache_stays_bounded_over_many_systems():
    q = np.array([1.0, 0.0, 0.3, 0.0])
    try:
        for i in range(500):
            sys = rolling_disk()
            sys.mu_at(q), sys.mu_jac_at(q), sys.v_at(q), sys.grad_v_at(q), sys.hess_v_at(q)
            assert len(exprdiff._KERNELS) <= exprdiff.KERNEL_CACHE_SIZE
            # traced early enough that the kernels cached at the 100th build
            # were allocated under tracing and are counted when evicted
            if i == 79:
                tracemalloc.start()
            if i == 99:
                gc.collect()
                at_100 = tracemalloc.get_traced_memory()[0]
        del sys
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - at_100
    finally:
        tracemalloc.stop()
    # an unbounded cache keeps every system's five kernels, megabytes over these 400
    assert growth < 64 * 1024, f"{growth} bytes kept by 400 more systems"
