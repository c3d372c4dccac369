"""Cutoff properties, constrained interpolation, and the map-to-flow embedding."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from nonholo import embed
from nonholo.discrete import newton_solve
from nonholo.embed import (
    EmbeddingProblem,
    EvolutionInterpolant,
    OneStepMap,
    chi0,
    chi0_prime,
    chi1,
    exact_step_map,
    interpolate_in_D,
    reduced_problem,
    reduced_step_map,
    verify_embedding,
)
from nonholo.reduction import psi_embed, reduce_state
from nonholo.system import SystemError, derive_connection, nonholonomic_particle

# --- the cutoff ---------------------------------------------------------------


def test_cutoff_endpoint_values_are_exact():
    assert chi0(0.0) == 1.0 and chi0(1.0) == 0.0
    assert chi1(0.0) == 0.0 and chi1(1.0) == 1.0
    assert chi0(-0.3) == 1.0 and chi0(2.0) == 0.0
    assert chi0(0.5) == 0.5 and chi1(0.5) == 0.5
    # tanh saturation makes the flat ends genuinely flat in floating point
    assert chi0(0.01) == 1.0 and chi1(0.01) == 0.0
    assert chi0(0.99) == 0.0 and chi1(0.99) == 1.0


def test_cutoff_is_monotone_and_partitions_unity():
    taus = np.linspace(0.0, 1.0, 201)
    vals = [chi0(t) for t in taus]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for t in taus:
        assert abs(chi0(t) + chi1(t) - 1.0) < 1e-15


def test_cutoff_derivative():
    assert chi0_prime(0.0) == 0.0 and chi0_prime(1.0) == 0.0
    assert chi0_prime(1e-9) == 0.0 and chi0_prime(1.0 - 1e-9) == 0.0
    assert chi0_prime(0.5) == -0.5 * math.pi
    h = 1e-6
    for tau in (0.2, 0.37, 0.5, 0.63, 0.8):
        fd = (chi0(tau + h) - chi0(tau - h)) / (2 * h)
        assert abs(chi0_prime(tau) - fd) < 1e-8


# --- interpolation inside the admissible set ------------------------------------


def test_interpolation_endpoints_bitwise_and_residual_small():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    eps = 0.1
    rng = np.random.default_rng(17)
    for _ in range(20):
        x0 = psi_embed(sys, split, rng.normal(size=5))
        x1 = psi_embed(sys, split, rng.normal(size=5))
        c = interpolate_in_D(sys, split, x0, x1, eps)
        a, b = c(0.0), c(eps)
        assert np.array_equal(a, x0)
        assert np.array_equal(b, x1)
        for t in np.linspace(0.0, eps, 101):
            s = c(t)
            assert np.max(np.abs(sys.mu_at(s[:3]) @ s[3:])) < 1e-13


def test_interpolation_is_flat_near_the_ends():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    x0 = psi_embed(sys, split, np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    x1 = psi_embed(sys, split, np.array([0.5, 1.5, 0.5, 0.5, -1.0]))
    eps = 0.2
    c = interpolate_in_D(sys, split, x0, x1, eps)
    early = c(0.01 * eps)
    late = c(0.99 * eps)
    assert np.array_equal(early, x0)
    assert np.array_equal(late, x1)


def test_interpolation_rejects_off_d_input():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    good = psi_embed(sys, split, np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    bad = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(SystemError):
        interpolate_in_D(sys, split, good, bad, 0.1)


# --- scalar problem: everything about the embedding has a closed form -----------


def scalar_problem() -> EmbeddingProblem:
    return EmbeddingProblem(
        dim=1,
        field=lambda z: np.asarray(z, dtype=float).copy(),
        # t is one time or one per row of y (..., 1)
        flow=lambda t, y: np.exp(t)[..., None] * np.asarray(y, dtype=float),
    )


def euler_map() -> OneStepMap:
    return OneStepMap(fn=lambda eps, y: (1.0 + eps) * np.asarray(y, dtype=float), p=1)


def heun_map() -> OneStepMap:
    return OneStepMap(
        fn=lambda eps, y: (1.0 + eps + 0.5 * eps * eps) * np.asarray(y, dtype=float), p=2
    )


def scalar_g_closed_form(tau: float, z: float, eps: float, p: int, amp: float) -> float:
    """g for z' = z under the map y -> amp * y, worked out by hand.

    The interpolant is linear in y, G~(tau, y) = A(tau) y, so the anchor is
    w = z / A and g = z (A' / A - eps) / eps^{p+1}.
    """
    e_fwd = math.exp(eps * tau)
    e_back = math.exp(eps * (tau - 1.0))
    A = chi0(tau) * e_fwd + chi1(tau) * amp * e_back
    dA = (
        chi0_prime(tau) * e_fwd
        + eps * chi0(tau) * e_fwd
        - chi0_prime(tau) * amp * e_back
        + eps * chi1(tau) * amp * e_back
    )
    return z * (dA / A - eps) / eps ** (p + 1)


def test_scalar_interpolant_hits_endpoints_exactly():
    eps = 0.1
    interp = EvolutionInterpolant(scalar_problem(), euler_map(), eps)
    for y in (np.array([0.7]), np.array([-1.3])):
        assert np.array_equal(interp.g_tilde(0.0, y), y)
        assert np.array_equal(interp.g_tilde(1.0, y), euler_map().fn(eps, y))


def test_scalar_g_matches_closed_form():
    eps = 0.1
    interp = EvolutionInterpolant(scalar_problem(), euler_map(), eps)
    for tau in (0.2, 0.37, 0.5, 0.8):
        for z in (0.6, 1.0, 1.7):
            got = interp.g_eval(tau * eps, np.array([z]))[0]
            want = scalar_g_closed_form(tau, z, eps, 1, 1.0 + eps)
            assert abs(got - want) < 1e-8, f"tau={tau}, z={z}: {got} vs {want}"


def test_scalar_g_is_bounded_and_periodic():
    eps = 0.1
    interp = EvolutionInterpolant(scalar_problem(), euler_map(), eps)
    vals = []
    for tau in np.linspace(0.05, 0.95, 7):
        for z in (0.5, 1.0, 2.0):
            vals.append(abs(interp.g_eval(tau * eps, np.array([z]))[0]))
    assert max(vals) < 5.0
    assert max(vals) > 1e-3  # the Euler map is a genuine perturbation

    for tau in (0.25, 0.6):
        a = interp.g_eval(tau * eps, np.array([1.2]))
        b = interp.g_eval(tau * eps + eps, np.array([1.2]))
        assert abs(a[0] - b[0]) < 1e-8


def test_scalar_verify_report():
    eps = 0.1
    points = np.array([[0.6], [1.0], [1.5]])
    report = verify_embedding(scalar_problem(), euler_map(), eps, points)
    assert report["endpoint_mismatch"] == 0.0
    assert report["periodicity_defect"] < 1e-8
    assert abs(report["measured_p"] - 1.0) < 0.15
    assert report["samples"] == 3

    report2 = verify_embedding(scalar_problem(), heun_map(), eps, points)
    assert abs(report2["measured_p"] - 2.0) < 0.15


def test_verify_report_flags_a_wrong_map_through_its_order():
    # y -> 5 y is no consistent map of z' = z: its gap to the flow does not
    # shrink with eps, so the measured order is far from the claimed p = 1
    wrong = OneStepMap(lambda eps, y: 5.0 * np.asarray(y, dtype=float), 1)
    report = verify_embedding(scalar_problem(), wrong, 0.1, np.array([[0.6], [1.0], [1.5]]))
    assert abs(report["measured_p"] - 1.0) > 1.0


def test_exact_flow_map_has_no_perturbation():
    eps = 0.1
    problem = scalar_problem()
    phi = exact_step_map(problem)
    interp = EvolutionInterpolant(problem, phi, eps)
    for tau in (0.2, 0.5, 0.8):
        g = interp.g_eval(tau * eps, np.array([1.1]))
        assert abs(g[0]) < 1e-8
    report = verify_embedding(problem, phi, eps, np.array([[0.8], [1.2]]))
    assert report["measured_p"] is None
    assert report["endpoint_mismatch"] < 1e-10


def test_one_step_map_rejects_a_bad_order():
    with pytest.raises(SystemError):
        OneStepMap(fn=lambda e, y: y, p=0)


# --- the reduced constrained dynamics through the same machinery ----------------


def test_reduced_problem_field_matches_reduction():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    problem = reduced_problem(sys, split)
    from nonholo.reduction import reduced_field

    xi = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(problem.field(xi), reduced_field(sys, split, xi))
    assert problem.dim == 5


def test_reduced_step_map_endpoints_and_order():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    problem = reduced_problem(sys, split, base_step=5e-3)
    eps = 0.1
    xi0 = np.array([0.0, 1.0, 0.0, 1.0, 1.0])

    phi1 = reduced_step_map(sys, split, "vni10")
    interp = EvolutionInterpolant(problem, phi1, eps)
    assert np.array_equal(interp.g_tilde(0.0, xi0), xi0)
    assert np.array_equal(interp.g_tilde(1.0, xi0), phi1.fn(eps, xi0))

    # one genuine inversion of the interpolant on the constrained side
    g = interp.g_eval(0.37 * eps, xi0)
    assert np.all(np.isfinite(g))
    assert np.max(np.abs(g)) < 10.0

    report = verify_embedding(problem, phi1, eps, xi0, order_levels=4)
    assert abs(report["measured_p"] - 1.0) < 0.15
    assert report["endpoint_mismatch"] == 0.0
    assert report["periodicity_defect"] < 1e-8

    phi2 = reduced_step_map(sys, split, "vni20")
    diffs = []
    for j in range(4):
        eps_j = eps * 0.5**j
        diffs.append(
            np.max(np.abs(phi2.fn(eps_j, xi0) - problem.flow(eps_j, xi0)))
        )
    slope = np.polyfit(np.log(eps * 0.5 ** np.arange(4)), np.log(diffs), 1)[0]
    assert abs(slope - 3.0) < 0.15  # one-step defect of a second-order map


def _criterion_7_points(sys, split) -> np.ndarray:
    rng = np.random.default_rng(7)
    xi = [np.concatenate([rng.normal(scale=0.5, size=3) + [0.0, 1.0, 0.0], rng.normal(size=2)])
          for _ in range(20)]
    return np.array([reduce_state(sys, split, psi_embed(sys, split, x)) for x in xi])


@pytest.fixture
def inversions(monkeypatch):
    """Each g_eval's Newton iterations per row, and its _fd_jacobian calls."""
    record = {"iters": [], "jacobians": 0}
    newton_solve, fd_jacobian = embed.newton_solve, EvolutionInterpolant._fd_jacobian

    def solve(*args):
        root, iters = newton_solve(*args)
        record["iters"].append(iters)
        return root, iters

    def counted(self, *args):
        record["jacobians"] += 1
        return fd_jacobian(self, *args)

    monkeypatch.setattr(embed, "newton_solve", solve)
    monkeypatch.setattr(EvolutionInterpolant, "_fd_jacobian", counted)
    return record


@pytest.mark.parametrize("scheme", ["vni10", "vni20"])
def test_g_eval_starts_at_the_backward_flow_and_converges_in_two_iterations(scheme, inversions):
    # the predictor F(-eps tau, z) is O(eps^(p+1)) from the anchor; seeded at z
    # itself, the same rows took 3 to 8 chord iterations
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    points = _criterion_7_points(sys, split)
    problem = reduced_problem(sys, split, base_step=0.01)
    interp = EvolutionInterpolant(problem, reduced_step_map(sys, split, scheme), 0.1)
    for tau in (0.05, 0.37, 0.95):
        interp.g_eval(tau * 0.1, points)
    assert len(inversions["iters"]) == 3
    assert all(np.max(iters) <= 2 for iters in inversions["iters"])
    assert inversions["jacobians"] == 3  # one chord Jacobian per inversion


def test_g_eval_builds_no_jacobian_where_the_predictor_is_the_anchor(inversions):
    # at t = k eps the backward flow is z itself, and under the flow's own
    # map (here exact, z' = z) it is the anchor at every phase
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    problem = reduced_problem(sys, split, base_step=0.01)
    interp = EvolutionInterpolant(problem, reduced_step_map(sys, split, "vni10"), 0.1)
    points = _criterion_7_points(sys, split)
    for k in (0, 1, 3):
        interp.g_eval(k * 0.1, points)
    scalar = EvolutionInterpolant(scalar_problem(), exact_step_map(scalar_problem()), 0.1)
    for tau in np.linspace(0.0, 0.95, 20):
        assert abs(scalar.g_eval(tau * 0.1, np.array([[0.6], [1.7]])).max()) < 1e-8
    assert inversions["jacobians"] == 0
    assert all(np.max(iters) == 0 for iters in inversions["iters"])


@pytest.mark.parametrize("t_frac", [0.37, 0.001, 0.999])
def test_g_eval_takes_dG_dt_from_the_legs_of_its_last_residual(t_frac, monkeypatch):
    # at 0.001 (0.999) chi1 (chi0) is 0 and chi0' is not: the residual flowed
    # one leg, and dG/dt flows the other
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    problem = reduced_problem(sys, split, base_step=0.01)
    interp = EvolutionInterpolant(problem, reduced_step_map(sys, split, "vni10"), 0.1)
    points = _criterion_7_points(sys, split)
    roots = []
    monkeypatch.setattr(embed, "newton_solve",
                        lambda *args: roots.append(newton_solve(*args)) or roots[-1])
    g = interp.g_eval(t_frac * 0.1, points)
    tau = interp._phase(t_frac * 0.1)
    if t_frac != 0.37:
        assert min(chi0(tau), chi1(tau)) == 0.0 and chi0_prime(tau) != 0.0
    dG_dt = interp.g_tilde_dtau(tau, roots[0][0]) / 0.1
    assert g.tobytes() == ((dG_dt - problem.field(points)) / 0.1).tobytes()


def _benchmark_embed_points(sys, split) -> np.ndarray:
    """The 20 admissible particle points of the benchmark's embedding report at seed 0."""
    rng = random.Random(0)
    rows = []
    for _ in range(20):
        q = [rng.gauss(0.0, 0.5), 1.0 + rng.gauss(0.0, 0.5), rng.gauss(0.0, 0.5)]
        vx, vy = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        rows.append(reduce_state(sys, split, np.array(q + [vx, vy, q[1] * vx])))
    return np.array(rows)


def test_the_benchmark_embedding_report_makes_at_most_260_field_calls(monkeypatch):
    # the two legs flow in one stack, dG/dt reuses the last residual's legs and
    # the order levels flow together: 244 reduced_field calls, where flowing
    # each leg and each level alone, and the root's legs twice, made 474
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    points = _benchmark_embed_points(sys, split)
    calls = []
    reduced_field = embed.reduced_field
    monkeypatch.setattr(embed, "reduced_field",
                        lambda *args: calls.append(1) or reduced_field(*args))
    problem = reduced_problem(sys, split, base_step=0.01)
    verify_embedding(problem, reduced_step_map(sys, split, "vni10"), 0.1, points, order_levels=5)
    assert len(calls) <= 260


def test_reduced_step_map_rejects_unknown_scheme():
    sys = nonholonomic_particle()
    split = derive_connection(sys, q0=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(SystemError):
        reduced_step_map(sys, split, "rk4")
    with pytest.raises(SystemError):  # the two-point scheme steps pairs, not nodes
        reduced_step_map(sys, split, "dla")
    with pytest.raises(SystemError):  # its nodes lie on a deformed set, not on D
        reduced_step_map(sys, split, "original_node")
