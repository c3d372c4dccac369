"""The batch axis: a stack of states gives each row's unbatched result, bit for bit.

The reduced-field stack (system accessors, Gram and fiber solves, the field,
the lift, the RK4 flow) and the embedding's Newton inversion take a leading
batch axis.  Row b of every stacked call must equal the call on row b alone,
and an error raised from a stack must be the single call's error on the
first failing row.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_discrete import DISK_X0, rolling_disk

from nonholo.discrete import NewtonError
from nonholo.embed import (
    EmbeddingProblem,
    OneStepMap,
    build_G,
    exact_step_map,
    reduced_problem,
    reduced_step_map,
)
from nonholo.flow import BlowUpError, flow_field
from nonholo.reduction import h_field, psi_embed, reduce_state, reduced_field
from nonholo.system import MechanicalSystem, SystemError, derive_connection, nonholonomic_particle

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
    interp = build_G(problem, phi, 0.1)
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
    interp = build_G(problem, phi, 0.1)
    assert np.isfinite(interp.g_eval(0.099, np.array([1.0]))).all()
    for z in (np.array([-1.0]), np.array([[1.0], [-1.0]])):
        with pytest.raises(NewtonError):
            interp.g_eval(0.099, z)
