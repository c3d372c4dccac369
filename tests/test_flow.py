"""RK4 driver: accuracy order, invariants along the particle flow, blow-up."""
from __future__ import annotations

import csv
import functools
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import discrete
from nonholo.discrete import FiniteDifferenceMap, run_integrator
from nonholo.embed import EmbeddingProblem, EvolutionInterpolant, OneStepMap
from nonholo.flow import (
    REFERENCE_STEP,
    BlowUpError,
    _flow_steps,
    _march,
    flow_field,
    integrate,
    reference_flow,
    rk4_step,
    write_csv,
)
from nonholo.reduction import h_field
from nonholo.system import (
    MechanicalSystem,
    StatePoint,
    SystemError,
    nonholonomic_particle,
    rolling_disk,
)
from test_discrete import DISK_X0

PARTICLE_X0 = StatePoint([0.0, 1.0, 0.0], [1.0, 1.0, 1.0])


def test_rk4_single_step_value():
    # z' = z over one step of 0.1: the classical quartic Taylor polynomial
    x = np.array([1.0])
    out = rk4_step(lambda z: z, x, 0.1, x)  # the first stage is f(x) = x
    assert out[0] == 1.1051708333333332


def test_rk4_is_fourth_order():
    # global error at fixed T against the reference endpoint, halving the step
    sys = nonholonomic_particle()
    ref = reference_flow(sys, PARTICLE_X0, 0.5)
    errs = []
    for eps, steps in ((0.02, 25), (0.01, 50)):
        traj = integrate(sys, PARTICLE_X0, eps, steps)
        end = traj.state(len(traj) - 1)
        errs.append(max(np.max(np.abs(end.q - ref.q)), np.max(np.abs(end.v - ref.v))))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0, f"error ratio {ratio} (errors {errs})"


def test_flow_semigroup_property():
    sys = nonholonomic_particle()
    mid = reference_flow(sys, PARTICLE_X0, 0.1)
    end_composed = reference_flow(sys, mid, 0.1)
    end_direct = reference_flow(sys, PARTICLE_X0, 0.2)
    gap = max(
        np.max(np.abs(end_composed.q - end_direct.q)),
        np.max(np.abs(end_composed.v - end_direct.v)),
    )
    assert gap < 1e-9


def test_backward_flow_inverts_forward():
    sys = nonholonomic_particle()
    fwd = reference_flow(sys, PARTICLE_X0, 0.1)
    back = reference_flow(sys, fwd, -0.1)
    gap = max(np.max(np.abs(back.q - PARTICLE_X0.q)), np.max(np.abs(back.v - PARTICLE_X0.v)))
    assert gap < 1e-11


def test_particle_flow_invariants():
    # v_y never receives a force, so RK4 keeps it constant to the bit; energy
    # and the constraint residual are conserved to reference accuracy
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 1e-3, 1000)
    assert np.all(traj.states[:, 4] == 1.0)
    assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-10
    assert np.max(np.abs(traj.residuals)) < 1e-10


def test_trajectory_recording(tmp_path):
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 0.1, 5)
    assert len(traj) == 6
    assert traj.times[0] == 0.0 and traj.times[-1] == 0.5
    assert traj.lambdas[0, 0] == 0.5  # v_x v_y / (1 + y^2) at the start
    assert traj.states.shape == (6, 6)

    traj.to_csv(tmp_path / "run.csv")
    with open(tmp_path / "run.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_1", "q_2", "q_3", "v_1", "v_2", "v_3", "lambda_1", "residual_1", "energy"]
    assert rows[1][0] == "0" and rows[1][8] == "0"
    assert float(rows[1][9]) == 1.5


def test_csv_round_trip(tmp_path):
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 0.05, 4)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (5, 10)
    # 17 significant digits reproduce the doubles exactly
    assert np.array_equal(data[:, 1:7], traj.states)


def test_integrate_steps_the_eps_it_is_given():
    # 3 steps of 0.1 record t_k = k * 0.1, as a scheme does; (0.1 * 3) / 3 is an ulp above 0.1
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 0.1, 3)
    scheme = run_integrator(sys, "vni10", PARTICLE_X0, 0.1, 3)
    assert traj.times.tobytes() == scheme.times.tobytes()


@pytest.mark.parametrize("system", ["particle", "disk"])
@pytest.mark.parametrize("t", [0.05, -0.05])
def test_reference_flow_is_both_drivers_on_the_one_flow_rule(system, t):
    # the reference flow's K steps, as integrate's steps and as flow_field's rule at REFERENCE_STEP
    sys, x0 = {"particle": (_PARTICLE, PARTICLE_X0), "disk": (rolling_disk(), DISK_X0)}[system]
    K = int(_flow_steps(t, REFERENCE_STEP))
    end = reference_flow(sys, x0, t).concat()
    assert end.tobytes() == integrate(sys, x0, t / K, K).states[-1].tobytes()
    stack = flow_field(functools.partial(h_field, sys), x0.concat(), t, REFERENCE_STEP)
    assert end.tobytes() == stack.tobytes()


def test_zero_time_integration():
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 0.1, 0)
    end = traj.state(len(traj) - 1)
    assert np.array_equal(end.q, PARTICLE_X0.q)
    assert np.array_equal(end.v, PARTICLE_X0.v)
    assert np.array_equal(reference_flow(sys, PARTICLE_X0, 0.0).q, PARTICLE_X0.q)


def test_blow_up_carries_partial_trajectory():
    # x'' = 4 x^3 from x = 1 blows up in finite time
    sys = MechanicalSystem(["x"], np.eye(1), "-(x^4)", [])
    with pytest.raises(BlowUpError) as ei:
        integrate(sys, StatePoint([1.0], [0.0]), 1e-2, 1000)
    partial = ei.value.partial
    assert partial is not None and len(partial) >= 1
    assert np.all(np.isfinite(partial.states))


def test_a_fast_start_runs_at_its_own_scale():
    # v x 1e8 over 100 steps of 1e-12 is the standard path at 1e8 times the
    # speed: no state entry comes near overflow, so no step blows up
    x0 = StatePoint(PARTICLE_X0.q, PARTICLE_X0.v * 1e8)
    traj = integrate(nonholonomic_particle(), x0, 1e-12, 100)
    assert len(traj) == 101 and np.isfinite(traj.states).all()


def test_flow_field_passes_1e8_without_blowing_up():
    # z' = z from 1e8 to t = 1: e * 1e8 is large and finite
    out = flow_field(lambda z: z, np.array([[1e8], [1.0]]), 1.0, base_step=1e-2)
    assert out[0, 0] > 1e8 and np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(np.e * 1e8)


@pytest.mark.parametrize("energy_fails", [True, False])
def test_first_failing_row_wins_between_a_step_and_a_diagnostic(energy_fails):
    # the step fails at row 6; the energy, filled in blocks as the march goes,
    # fails at row 3 when that row's kinetic energy overflows
    sys = MechanicalSystem(["x"], np.eye(1), "0", [["1"]])

    def row(k, states):
        if k == 6:
            raise BlowUpError("step 6 fails")
        v = 1e200 if energy_fails and k == 3 else 1.0
        return np.array([0.0, v]), np.array([0.5]), 0

    with pytest.raises((SystemError, BlowUpError)) as ei:
        _march(sys, 10, 0.1, row)
    want = 3 if energy_fails else 6
    assert type(ei.value) is (SystemError if energy_fails else BlowUpError)
    if energy_fails:
        assert str(ei.value) == "energy is not finite (inf)"
    partial = ei.value.partial
    assert (ei.value.step, ei.value.t, len(partial)) == (want, 0.1 * want, want)
    # the rows before the failing one carry their diagnostics
    assert np.array_equal(partial.residuals, np.full((want, 1), 1.0))
    assert np.array_equal(partial.energies, np.full(want, 0.5))


def test_a_diagnostic_that_fails_early_stops_the_march(monkeypatch):
    # v = 1e200 keeps D and steps finely, but its kinetic energy overflows at
    # row 0: the run must stop there, not after its 100 000 steps
    sys = MechanicalSystem(["x", "y"], np.eye(2), "0", [["1", "-1"]])
    step_fn, p = discrete.SCHEMES["vni10"]
    calls = []
    monkeypatch.setitem(discrete.SCHEMES, "vni10",
                        (lambda *args: calls.append(1) or step_fn(*args), p))
    with pytest.raises(SystemError) as ei:
        run_integrator(sys, "vni10", StatePoint([0.0, 0.0], [1e200, 1e200]), 1e-300, 100_000)
    assert str(ei.value) == "energy is not finite (inf)"
    assert (ei.value.step, ei.value.t, len(ei.value.partial)) == (0, 0.0, 0)
    assert len(calls) <= 2


@pytest.mark.parametrize("bad", [0, 1, 2, 5, 37, 64])
def test_a_failing_diagnostic_at_row_k_stops_the_march_by_row_2k_plus_1(bad):
    sys = MechanicalSystem(["x"], np.eye(1), "0", [["1"]])
    made = []

    def row(k, states):
        made.append(k)
        return np.array([0.0, 1e200 if k == bad else 1.0]), np.array([0.5]), 0

    with pytest.raises(SystemError) as ei:
        _march(sys, 10_000, 0.1, row)
    assert (ei.value.step, len(ei.value.partial)) == (bad, bad)
    assert np.array_equal(ei.value.partial.energies, np.full(bad, 0.5))
    assert max(made) <= 2 * bad + 1


def test_flow_field_generic():
    # scalar z' = z, endpoint e^t
    out = flow_field(lambda z: z, np.array([1.0]), 1.0, base_step=1e-3)
    assert abs(out[0] - np.e) < 1e-12
    back = flow_field(lambda z: z, out, -1.0, base_step=1e-3)
    assert abs(back[0] - 1.0) < 1e-12
    assert np.array_equal(flow_field(lambda z: z, np.array([2.0]), 0.0), [2.0])


def test_projection_option_keeps_d_exactly():
    sys = nonholonomic_particle()
    traj = integrate(sys, PARTICLE_X0, 0.01, 50, project_each_step=True)
    assert np.max(np.abs(traj.residuals)) < 1e-14


def test_flow_field_blow_up_names_its_step():
    # z' = z^2 from z = 1 blows up at t = 1
    with pytest.raises(BlowUpError) as ei:
        flow_field(lambda z: z * z, np.array([1.0]), 2.0, base_step=1e-3)
    step, t = re.fullmatch(r"flow blew up at step (\d+), t = (\S+)", str(ei.value)).groups()
    assert float(t) == pytest.approx(int(step) * 1e-3) and 1.0 < float(t) < 1.01


_PARTICLE = nonholonomic_particle()
_SCALAR = EmbeddingProblem(1, lambda z: z, lambda t, y: np.exp(t) * y)
_EULER = OneStepMap(lambda eps, y: (1.0 + eps) * y, 1)
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "entry, call",
    [
        ("integrate", lambda: integrate(_PARTICLE, PARTICLE_X0, 0.0, 10)),
        ("integrate", lambda: integrate(_PARTICLE, PARTICLE_X0, _NAN, 10)),
        ("integrate", lambda: integrate(_PARTICLE, PARTICLE_X0, 1e305, 10_000)),  # end time
        ("integrate", lambda: integrate(_PARTICLE, PARTICLE_X0, _INF, 10)),
        ("reference_flow", lambda: reference_flow(_PARTICLE, PARTICLE_X0, _INF)),
        ("flow_field", lambda: flow_field(lambda z: z, np.ones(1), 1.0, base_step=0.0)),
        ("flow_field", lambda: flow_field(lambda z: z, np.ones(1), 1.0, base_step=_NAN)),
        ("flow_field", lambda: flow_field(lambda z: z, np.ones(1), 1.0, base_step=-0.1)),
        ("flow_field", lambda: flow_field(lambda z: z, np.ones(1), _INF)),
        ("run_integrator", lambda: run_integrator(_PARTICLE, "vni10", PARTICLE_X0, _NAN, 3)),
        ("run_integrator", lambda: run_integrator(_PARTICLE, "vni10", PARTICLE_X0, _INF, 3)),
        ("run_integrator", lambda: run_integrator(_PARTICLE, "vni10", PARTICLE_X0, 0.0, 3)),
        ("FiniteDifferenceMap", lambda: FiniteDifferenceMap(0.5, _NAN)),
        ("FiniteDifferenceMap", lambda: FiniteDifferenceMap(0.5, _INF)),
        ("EvolutionInterpolant", lambda: EvolutionInterpolant(_SCALAR, _EULER, _NAN)),
        ("EvolutionInterpolant", lambda: EvolutionInterpolant(_SCALAR, _EULER, 0.0)),
    ],
)
def test_times_and_step_sizes_are_checked(entry, call):
    # every entry point takes a finite time and a finite step, positive where
    # it must be, and refuses anything else with a SystemError
    with pytest.raises(SystemError, match="must be"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate(_PARTICLE, PARTICLE_X0, 1e-300, 1e300),  # past any integer width
        lambda: integrate(_PARTICLE, PARTICLE_X0, 1e-3, 10**13),
        lambda: reference_flow(_PARTICLE, PARTICLE_X0, 1e305),
        lambda: flow_field(lambda z: z, np.ones(1), 1e300, base_step=1e-300),
        lambda: flow_field(lambda z: z, np.ones(2), 1e8, base_step=1.0),
    ],
    ids=["integrate_overflow", "integrate_1e13", "reference_flow_overflow",
         "flow_field_overflow", "flow_field_1e8"],
)
def test_step_counts_are_capped(call):
    # a time and a step that are finite alone can still ask for more steps
    # than MAX_STEPS, or for a count that overflows; both are SystemErrors,
    # raised before anything is allocated or stepped
    with pytest.raises(SystemError, match="MAX_STEPS"):
        call()


def _csv_cells(row) -> list[str]:
    """The cell format `write_csv` keeps: counts as integers, reals in 17 digits."""
    return [
        str(int(val)) if isinstance(val, (int, np.integer)) else format(val, ".17g")
        for val in row
    ]


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(_csv_cells(row) for row in rows)
    with open(path, "rb") as fh:
        return fh.read()


_EDGE_REALS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1e16, 123456789.0]
_REALS = st.floats() | st.sampled_from(_EDGE_REALS)
_CELLS = {
    "float": _REALS,
    "float64": _REALS.map(np.float64),
    "int": st.integers() | st.sampled_from([0, -1, 2**63, -(2**70)]),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
}


@st.composite
def _tables(draw):
    """A header and rows whose columns each hold one kind of cell, as tuples or lists."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=6))
    rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=6))
    if draw(st.booleans()):
        rows = [list(row) for row in rows]
    return [f"c_{i + 1}" for i in range(len(kinds))], rows


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_write_csv_writes_what_csv_writer_wrote(table):
    # the one-pass writer is byte for byte csv.writer over the cell format,
    # CRLF endings included, for every kind of cell a table holds
    header, rows = table
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "table.csv")
        write_csv(path, header, iter(rows))
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == _csv_writer_bytes(os.path.join(work, "oracle.csv"), header, rows)


def test_csv_rows_are_the_cells_to_csv_writes(tmp_path):
    # a reference run, and a scheme's run with its Newton counts and deformed residuals
    runs = [integrate(_PARTICLE, PARTICLE_X0, 0.01, 20),
            run_integrator(_PARTICLE, "vni20", PARTICLE_X0, 0.01, 20)]
    for i, traj in enumerate(runs):
        path = tmp_path / f"run{i}.csv"
        traj.to_csv(path)
        assert path.read_bytes() == _csv_writer_bytes(tmp_path / "oracle.csv", *traj._table())
