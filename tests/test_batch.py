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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_discrete import DISK_X0, rolling_disk

from nonholo import discrete, exprdiff
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
from nonholo.reduction import h_field, psi_embed, reduce_state, reduced_field
from nonholo.exprdiff import EvalError
from nonholo.system import (
    MechanicalSystem,
    SystemError,
    constraint_residual,
    derive_connection,
    nonholonomic_particle,
)

_PARTICLE = nonholonomic_particle()
_DISK = rolling_disk()
# (system, split, reduced dimension 2n - m); the disk's m = 2 takes the
# stacked 2x2 Gram solve and the stacked determinant of its fiber block
_SYSTEMS = {
    "particle": (_PARTICLE, derive_connection(_PARTICLE, q0=np.array([0.0, 1.0, 0.0])), 5),
    "disk": (_DISK, derive_connection(_DISK, q0=DISK_X0.q), 6),
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
    split = derive_connection(sys, fiber_indices=[2])
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


def test_newton_failure_in_a_stack_is_a_newton_failure():
    # a map that sends negative states to 0: near tau = 1 the interpolant is
    # flat there, so only the negative row has a singular Jacobian
    problem = EmbeddingProblem(1, lambda z: z.copy(), lambda t, y: np.exp(t) * y)
    phi = OneStepMap(lambda eps, y: np.where(y > 0.0, y, 0.0), 1)
    interp = EvolutionInterpolant(problem, phi, 0.1)
    assert np.isfinite(interp.g_eval(0.099, np.array([1.0]))).all()
    for z in (np.array([-1.0]), np.array([[1.0], [-1.0]])):
        with pytest.raises(NewtonError):
            interp.g_eval(0.099, z)


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
        out = step(sys, x, 0.3)
        # one lockstep solve for the whole stack, no rerun row by row
        assert len(solves) == (scheme == "vni20")
        assert out.state.shape == x.shape and np.shape(out.iters) == shape
        singles = [step(sys, row, 0.3) for row in _rows(x, shape)]
        for b, one in enumerate(singles):
            assert _rows(out.state, shape)[b].tobytes() == one.state.tobytes(), f"state {b}"
            assert _rows(out.lam, shape)[b].tobytes() == one.lam.tobytes(), f"lambda {b}"
            assert np.ravel(out.iters)[b] == one.iters and isinstance(one.iters, int)
        assert all(one.iters == 0 for one in singles) or scheme == "vni20"
        mixed |= len({one.iters for one in singles}) > 1
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
    "singular": (NewtonError, "singular Jacobian in step equations"),
    "overflow": (EvalError, "overflow in exp"),
}


@pytest.mark.parametrize("order", [("no_convergence", "singular"), ("singular", "no_convergence"),
                                   ("singular", "overflow"), ("overflow", "singular")],
                         ids="-".join)
def test_a_failing_row_in_a_stepped_stack_raises_its_single_error(order):
    assert vni20_step(_FAILING, np.array(_NODES["good"]), 0.1).iters > 0
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
