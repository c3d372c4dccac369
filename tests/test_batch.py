"""The batch axis: a stack of states gives each row's unbatched result, bit for bit.

The reduced-field stack (system accessors, Gram and fiber solves, the field,
the lift, the RK4 flow), the node steps (vni20's in lockstep Newton) and the
embedding's Newton inversion take a leading batch axis.  Row b of every
stacked call must equal the call on row b alone, and an error raised from a
stack must be the single call's error on the first failing row.  One state's
field runs one compiled kernel, and a one-row stack runs the per-row kernels.
"""
from __future__ import annotations

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_discrete import DISK_X0

from nonholo import discrete, embed, exprdiff
from nonholo.discrete import SCHEMES, NewtonError, newton_solve, vni20_step
from nonholo.embed import (
    EmbeddingProblem,
    EvolutionInterpolant,
    OneStepMap,
    exact_step_map,
    reduced_problem,
    reduced_step_map,
)
from nonholo.flow import BlowUpError, flow_field
from nonholo.reduction import (
    DeformedConstraint,
    deformed_residual,
    h_field,
    psi_embed,
    reduce_state,
    reduced_field,
)
from nonholo.exprdiff import EvalError
from nonholo.system import (
    ConnectionSplit,
    MechanicalSystem,
    SystemError,
    constraint_residual,
    deformed_node_residual,
    derive_connection,
    energy,
    nonholonomic_particle,
    rolling_disk,
)

_PARTICLE = nonholonomic_particle()
_DISK = rolling_disk()
# (system, split, reduced dimension 2n - m); the disk's m = 2 takes the
# stacked 2x2 Gram solve and the stacked determinant of its fiber block
_SYSTEMS = {
    "particle": (_PARTICLE, derive_connection(_PARTICLE, q0=np.array([0.0, 1.0, 0.0])), 5),
    "disk": (_DISK, derive_connection(_DISK, q0=DISK_X0[:4]), 6),
}


def _stacks(dim: int):
    row = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return st.lists(row, min_size=1, max_size=8).map(np.array)


def _assert_rows_equal(fn, rows):
    """fn over the stack, checked row by row against fn on each row alone."""
    stacked = fn(rows)
    assert stacked.shape[0] == len(rows)
    for b, row in enumerate(rows):
        assert np.array_equal(stacked[b], fn(row)), f"row {b} differs"
    return stacked


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_field_rows_equal_single_calls(name, data):
    sys, split, dim = _SYSTEMS[name]
    xi = data.draw(_stacks(dim))
    lifted = _assert_rows_equal(functools.partial(psi_embed, sys, split), xi)
    _assert_rows_equal(functools.partial(h_field, sys), lifted)
    field = functools.partial(reduced_field, sys, split)
    _assert_rows_equal(field, xi)
    _assert_rows_equal(functools.partial(flow_field, field, t=0.05, base_step=0.01), xi)
    # a second batch axis is the same rows again
    assert np.array_equal(h_field(sys, lifted[None]), h_field(sys, lifted)[None])


# A non-diagonal SPD mass matrix, and V, mu and g inside the column kernel's
# exact subset (+ - * /, sin, cos) or outside it (exp, log).
_M3 = [[2.0, 0.3, -0.1], [0.3, 1.5, 0.7], [-0.1, 0.7, 3.1]]
_DIAGNOSED = {
    "exact": (
        MechanicalSystem(["x", "y", "z"], _M3, "x*y + sin(z)/2 - cos(x)*y",
                         [["1", "sin(y)", "-x"], ["cos(z)", "0", "x*y/3"]]),
        ["v_x*v_y", "sin(x)*v_z - cos(v_y)"],
    ),
    "inexact": (
        MechanicalSystem(["x", "y", "z"], _M3, "exp(0.3*x) + log(2 + y*y)*z",
                         [["exp(-x*x)", "1", "0"], ["0", "log(3 + z*z)", "x"]]),
        ["exp(0.1*v_x)*y", "log(1 + v_y*v_y) - v_z"],
    ),
}


@pytest.mark.parametrize("name", sorted(_DIAGNOSED))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_diagnostics_equal_single_calls(name, data):
    # energy, the residuals and the deformed residuals of a stack of rows
    # of any magnitude, against the same calls on each row, bit for bit
    sys, g = _DIAGNOSED[name]
    dc = DeformedConstraint(g=[exprdiff.parse(e) for e in g], delta=0.05)
    rows = data.draw(_stacks(6))
    x = rows * 10.0 ** np.array(data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                                   max_size=len(rows))))[:, None]
    for fn in (functools.partial(energy, sys), functools.partial(constraint_residual, sys),
               functools.partial(deformed_residual, sys, dc),
               functools.partial(deformed_node_residual, sys, eps=0.01)):
        stacked = fn(x)
        assert stacked.shape[0] == len(x)
        for b, row in enumerate(x):
            assert np.asarray(fn(row)).tobytes() == stacked[b].tobytes(), (fn, b)


@pytest.mark.parametrize("scheme", ["vni10", "vni20", "exact"])
def test_stacked_g_eval_equals_pointwise(scheme):
    sys, split, _ = _SYSTEMS["particle"]
    problem = reduced_problem(sys, split, base_step=0.01)
    phi = exact_step_map(problem) if scheme == "exact" else reduced_step_map(sys, split, scheme)
    interp = EvolutionInterpolant(problem, phi, 0.1)
    rng = np.random.default_rng(3)
    xi = rng.normal(scale=0.5, size=(4, 5)) + [0.0, 1.0, 0.0, 0.0, 0.0]
    points = np.array([reduce_state(sys, split, x) for x in psi_embed(sys, split, xi)])
    for t in (0.037, 0.137):
        stacked = interp.g_eval(t, points)
        assert np.array_equal(stacked, np.array([interp.g_eval(t, z) for z in points]))


# --- errors raised from a stack -------------------------------------------------


def _raised(call):
    with pytest.raises(Exception) as ei:
        call()
    return ei.type, str(ei.value)


def _plane_system(mu) -> MechanicalSystem:
    return MechanicalSystem(names=["x", "y", "z"], M=np.eye(3), V="0", mu=mu)


def test_singular_fiber_block_names_the_first_failing_row():
    # the fiber block of v_z is x: singular at rows 1 and 2, not at row 0
    sys = _plane_system([["-y", "0", "x"]])
    split = ConnectionSplit((0, 1), (2,))
    xi = np.array([[1.0, 1.0, 0.0, 1.0, 1.0], [0.0, 0.5, 0.0, 1.0, 1.0], [0.0, 2.0, 0.0, 1.0, 1.0]])
    kind, message = _raised(lambda: psi_embed(sys, split, xi))
    assert (kind, message) == _raised(lambda: psi_embed(sys, split, xi[1]))
    assert kind is SystemError and "fiber block" in message
    assert repr(xi[1, :3]) in message and repr(xi[2, :3]) not in message


@pytest.mark.parametrize("mu", [[["x", "0", "0"]], [["x", "0", "0"], ["0", "1", "0"]]],
                         ids=["m1", "m2"])
def test_singular_gram_matrix_names_the_first_failing_row(mu):
    # mu M^-1 mu' is singular where x = 0: rows 1 and 2 of the stack
    sys = _plane_system(mu)
    x = np.array([[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.5, 0.0, 1.0, 1.0, 1.0],
                  [0.0, 2.0, 0.0, 1.0, 1.0, 1.0]])
    kind, message = _raised(lambda: h_field(sys, x))
    assert (kind, message) == _raised(lambda: h_field(sys, x[1]))
    assert kind is SystemError and "Gram matrix singular" in message
    assert repr(x[1, :3]) in message and repr(x[2, :3]) not in message


def test_blow_up_in_a_stack_is_a_blow_up():
    # z' = z^2 blows up at t = 1 / z0: the row z0 = 1 does, the row 0.25 does not
    stack = np.array([[0.25], [1.0]])
    with pytest.raises(BlowUpError):
        flow_field(lambda z: z * z, stack, 2.0, base_step=1e-3)
    with pytest.raises(BlowUpError):
        flow_field(lambda z: z * z, stack[1], 2.0, base_step=1e-3)


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_one_time_per_row_gives_each_row_its_single_flow(name):
    # times of both signs and t = 0: 4, 7, 0, 8, 1 and 1 steps of base_step 0.01
    sys, split, dim = _SYSTEMS[name]
    field = functools.partial(reduced_field, sys, split)
    xi = np.random.default_rng(11).normal(scale=0.5, size=(6, dim))
    times = np.array([0.037, -0.063, 0.0, 0.08, -0.005, 0.01])
    stacked = flow_field(field, xi, times, base_step=0.01)
    for b in range(len(xi)):
        assert stacked[b].tobytes() == flow_field(field, xi[b], times[b], 0.01).tobytes(), b
    assert stacked[2].tobytes() == xi[2].tobytes()
    # one time per half of a stack (2, B, d), as the interpolant's two legs take them
    legs = flow_field(field, np.stack([xi, -xi]), np.array([[0.037], [-0.063]]), base_step=0.01)
    assert legs[0].tobytes() == flow_field(field, xi, 0.037, 0.01).tobytes()
    assert legs[1].tobytes() == flow_field(field, -xi, -0.063, 0.01).tobytes()


def test_a_row_that_blows_up_in_a_stack_names_its_own_step_and_time():
    # z' = z^2 blows up at t = 1 / z0: only the row z0 = 1, flowed to t = 2, gets
    # there; z0 = 2 stops at t = 0.1 and z0 = -0.5 flows backwards
    square = lambda z: z * z  # noqa: E731
    stack = np.array([[0.25], [2.0], [1.0], [-0.5]])
    times = np.array([2.0, 0.1, 2.0, -1.0])
    kind, message = _raised(lambda: flow_field(square, stack, times, base_step=1e-3))
    assert (kind, message) == _raised(lambda: flow_field(square, stack[2], 2.0, base_step=1e-3))
    step, t = re.fullmatch(r"flow blew up at step (\d+), t = (\S+)", message).groups()
    assert float(t) == pytest.approx(int(step) * 1e-3) and 1.0 < float(t) < 1.01
    assert np.isfinite(flow_field(square, stack[[0, 1, 3]], times[[0, 1, 3]], 1e-3)).all()


def test_newton_failure_in_a_stack_is_a_newton_failure():
    # a map that sends negative states to 0: near tau = 1 the interpolant is
    # flat there, so only the negative row has a singular Jacobian
    problem = EmbeddingProblem(1, lambda z: z.copy(), lambda t, y: np.exp(t) * y)
    phi = OneStepMap(lambda eps, y: np.where(y > 0.0, y, 0.0), 1)
    interp = EvolutionInterpolant(problem, phi, 0.1)
    assert np.isfinite(interp.g_eval(0.099, np.array([1.0]))).all()
    kind, message = _raised(lambda: interp.g_eval(0.099, np.array([-1.0])))
    assert kind is NewtonError
    for z in (np.array([[1.0], [-1.0]]), np.array([[-1.0], [1.0], [-1.0]])):
        assert _raised(lambda: interp.g_eval(0.099, z)) == (kind, message)


def test_g_eval_inverts_the_interpolant_with_newton_solve(monkeypatch):
    sys, split, _ = _SYSTEMS["particle"]
    problem = reduced_problem(sys, split, base_step=0.01)
    interp = EvolutionInterpolant(problem, reduced_step_map(sys, split, "vni10"), 0.1)
    solves = []
    monkeypatch.setattr(embed, "newton_solve",
                        lambda *args: solves.append(1) or newton_solve(*args))
    points = np.array([[0.0, 1.0, 0.0, 1.0, 1.0], [0.2, 0.5, -0.1, 0.5, -1.0]])
    interp.g_eval(0.037, points)
    interp.g_eval(0.037, points[0])
    assert len(solves) == 2  # one lockstep solve per call, a stack or a single point


# --- node steps and the accessors they use, on stacks ---------------------------


def _admissible_nodes(name: str, shape: tuple, seed: int) -> np.ndarray:
    """Rows of D (shape + (2n,)): random reduced states, some at rest, some fast, lifted by psi."""
    sys, split, dim = _SYSTEMS[name]
    rng = np.random.default_rng(seed)
    xi = rng.normal(scale=0.5, size=shape + (dim,))
    xi[..., sys.n:] *= rng.choice([0.0, 0.2, 1.0, 5.0], size=shape + (1,))
    return psi_embed(sys, split, xi)


def _rows(a: np.ndarray, lead: tuple) -> list:
    return list(np.reshape(a, (-1, *np.shape(a)[len(lead):])))


@pytest.mark.parametrize("scheme", ["vni10", "vni20"])
@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_stacked_node_step_rows_equal_single_steps(monkeypatch, name, scheme):
    sys = _SYSTEMS[name][0]
    step = SCHEMES[scheme][0]
    solves = []
    monkeypatch.setattr(discrete, "newton_solve",
                        lambda *args: solves.append(1) or newton_solve(*args))
    mixed = False  # some stack's rows took different Newton counts
    for seed, shape in ((0, (9,)), (1, (2, 4)), (2, (1,))):
        x = _admissible_nodes(name, shape, seed)
        solves.clear()
        states, lams, iters = step(sys, x, 0.3)
        # one lockstep solve for the whole stack, no rerun row by row
        assert len(solves) == (scheme == "vni20")
        assert states.shape == x.shape and np.shape(iters) == shape
        singles = [step(sys, row, 0.3) for row in _rows(x, shape)]
        for b, (state, lam, its) in enumerate(singles):
            assert _rows(states, shape)[b].tobytes() == state.tobytes(), f"state {b}"
            assert _rows(lams, shape)[b].tobytes() == lam.tobytes(), f"lambda {b}"
            assert np.ravel(iters)[b] == its and isinstance(its, int)
        assert all(one[2] == 0 for one in singles) or scheme == "vni20"
        mixed |= len({one[2] for one in singles}) > 1
    # vni20's rows retire from the lockstep Newton at different iterations
    assert mixed == (scheme == "vni20")


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_stacked_accessors_of_the_step_equal_single_calls(name):
    sys, split, _ = _SYSTEMS[name]
    x = _admissible_nodes(name, (5,), 4)
    x[2, sys.n] += 1.0  # one row off D
    _assert_rows_equal(sys.hess_v_at, x[:, : sys.n])
    _assert_rows_equal(functools.partial(constraint_residual, sys), x)
    _assert_rows_equal(functools.partial(reduce_state, sys, split, check=False), x)
    # reduce_state's check names the first row off D, as the single call does
    _assert_rows_equal(functools.partial(reduce_state, sys, split), x[:2])
    kind, message = _raised(lambda: reduce_state(sys, split, x))
    assert (kind, message) == _raised(lambda: reduce_state(sys, split, x[2]))
    assert kind is SystemError and "off D" in message


# V = y^8 + exp(z) and mu = (x, 0, 0): at eps = 0.1 each row below meets its
# own failure in vni20's Newton iteration (q_half_x = 0 takes the reaction
# column out of the Jacobian; exp overflows past z = 709.78).
_FAILING = MechanicalSystem(["x", "y", "z"], np.eye(3), "y^8 + exp(z)", [["x", "0", "0"]])
_NODES = {
    "good": [1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
    "no_convergence": [1.0, 1000.0, 0.0, 0.0, 1.0, 1.0],
    "singular": [-0.05, 0.0, 0.0, 1.0, 0.0, 0.0],
    "overflow": [1.0, 0.0, 709.7, 0.0, 0.0, 1.0],
}
_ERRORS = {
    "no_convergence": (NewtonError, "no convergence after 30 Newton iterations"),
    "singular": (NewtonError, "singular Jacobian in a Newton iteration"),
    "overflow": (EvalError, "overflow in exp"),
}


@pytest.mark.parametrize("order", [("no_convergence", "singular"), ("singular", "no_convergence"),
                                   ("singular", "overflow"), ("overflow", "singular")],
                         ids="-".join)
def test_a_failing_row_in_a_stepped_stack_raises_its_single_error(order):
    assert vni20_step(_FAILING, np.array(_NODES["good"]), 0.1)[2] > 0
    for name, want in _ERRORS.items():
        assert _raised(lambda: vni20_step(_FAILING, np.array(_NODES[name]), 0.1)) == want
    # the first failing row's error, whichever failure the lockstep meets first
    x = np.array([_NODES["good"], _NODES[order[0]], _NODES["good"], _NODES[order[1]]])
    assert _raised(lambda: vni20_step(_FAILING, x, 0.1)) == _ERRORS[order[0]]


# --- the fixed cost per call -----------------------------------------------------


def _count_kernel_calls(monkeypatch) -> list:
    """Record the (kind, columns) of every compiled kernel call from now on."""
    calls = []
    cached = exprdiff._kernel

    def counting(kind, expr, wrt, columns=False):
        kernel = cached(kind, expr, wrt, columns)
        if kernel is None:
            return None
        return lambda ctx: calls.append((kind, columns)) or kernel(ctx)

    monkeypatch.setattr(exprdiff, "_kernel", counting)
    return calls


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_one_state_field_runs_one_kernel(monkeypatch, name):
    # mu, dmu and grad V of one state come from one fused kernel call
    sys = _SYSTEMS[name][0]
    x = _admissible_nodes(name, (), 5)
    want = h_field(sys, x)
    calls = _count_kernel_calls(monkeypatch)
    assert h_field(sys, x).tobytes() == want.tobytes()
    assert calls == [("field", False)]


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_one_row_stack_builds_no_column_kernel(monkeypatch, name):
    sys, split, _ = _SYSTEMS[name]
    x = _admissible_nodes(name, (2,), 6)
    q, xi = x[:, : sys.n], reduce_state(sys, split, x)
    monkeypatch.setattr(exprdiff, "_KERNELS", {})
    accessors = (sys.mu_at, sys.mu_jac_at, sys.grad_v_at, sys.hess_v_at,
                 functools.partial(h_field, sys), functools.partial(psi_embed, sys, split))
    for fn, a in zip(accessors, (q, q, q, q, x, xi)):
        assert fn(a[:1]).tobytes() == fn(a[0]).tobytes()
    assert not any(columns for _, _, _, columns in exprdiff._KERNELS)
    # a stack of two rows does take the column kernels (the disk's sin and
    # cos and the particle's polynomials are all in the exact subset)
    calls = _count_kernel_calls(monkeypatch)
    h_field(sys, x)
    assert calls == [("value", True), ("gradient", True), ("gradient", True)]
