"""End-to-end runs of the command line harness against temp directories."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonholo
from nonholo import cli
from nonholo.cli import INTEGRATORS, ConfigError, convergence_study, main
from nonholo.discrete import NodePolicy, original_node_step, run_integrator
from nonholo.reduction import lambda_continuous, reduce_state
from nonholo.system import SystemError, derive_connection, nonholonomic_particle

PARTICLE_SIM = {
    "system": "nonholonomic_particle",
    "integrator": "vni10",
    "eps": 0.01,
    "N": 100,
    "q": [0.0, 1.0, 0.0],
    "v": [1.0, 1.0, 1.0],
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, *extra, subdir="out"):
    cfg = write_config(tmp_path, payload, name=f"{command}_{subdir}.json")
    out = tmp_path / subdir
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def test_simulate_particle_writes_trajectory_and_summary(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", PARTICLE_SIM)
    assert code == 0, capsys.readouterr().err
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 102  # header + 101 nodes
    header = lines[0].split(",")
    assert header[:8] == ["t", "q_1", "q_2", "q_3", "v_1", "v_2", "v_3", "lambda_1"]
    residual_col = header.index("residual_1")
    worst = max(abs(float(line.split(",")[residual_col])) for line in lines[1:])
    assert worst <= 1e-10, f"constraint residual {worst} too large"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"] == 101
    assert summary["max_abs_residual"] <= 1e-10
    assert "runtime_seconds" in summary


def test_simulate_zero_steps_single_row(tmp_path):
    for integ in ("vni10", "reference"):
        cfg = dict(PARTICLE_SIM, integrator=integ, N=0)
        code, out = run(tmp_path, "simulate", cfg, subdir=f"zero_{integ}")
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2, f"{integ}: want header + one row, got {len(lines)}"


def test_simulate_rejects_off_d_velocity(tmp_path, capsys):
    cfg = dict(PARTICLE_SIM, v=[1.0, 1.0, 0.5])
    code, _ = run(tmp_path, "simulate", cfg, subdir="offd")
    assert code == 2
    err = capsys.readouterr().err
    assert "residual" in err

    cfg["project_initial"] = True
    code, out = run(tmp_path, "simulate", cfg, subdir="offd_fixed")
    assert code == 0
    assert (out / "trajectory.csv").exists()


def test_simulate_original_nodes_precondition(tmp_path, capsys):
    cfg = dict(PARTICLE_SIM, integrator="original_node", N=50)
    code, out = run(tmp_path, "simulate", cfg, subdir="orig")
    assert code == 2  # on-D start is not on the deformed set this scheme keeps
    assert not (out / "trajectory.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "set project_initial" in err, err

    cfg["project_initial"] = True
    code, out = run(tmp_path, "simulate", cfg, subdir="orig_fixed")
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    col = header.index("deformed_residual_1")
    worst = max(abs(float(r.split(",")[col])) for r in rows)
    assert worst <= 1e-9, f"deformed residual drifted to {worst}"


def test_simulate_blow_up_keeps_partial_csv(tmp_path, capsys):
    cfg = {
        "system": {"names": ["x"], "M": [[1.0]], "V": "-(x^4)", "mu": []},
        "integrator": "reference",
        "eps": 0.01,
        "T": 10.0,
        "q": [1.0],
        "v": [0.0],
    }
    code, out = run(tmp_path, "simulate", cfg, subdir="blow")
    assert code == 3
    assert "blew up" in capsys.readouterr().err
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q_1,v_1,energy"
    assert len(lines) > 10  # ran for a while before diverging


def test_simulate_given_t_ends_at_t(tmp_path):
    # T = 0.25 is no whole number of eps = 0.02: 12 steps of T / 12 end at T
    cfg = {k: v for k, v in PARTICLE_SIM.items() if k != "N"}
    code, out = run(tmp_path, "simulate", dict(cfg, eps=0.02, T=0.25), subdir="t_end")
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 13 and float(lines[-1].split(",")[0]) == 0.25


def test_simulate_summary_reports_the_step_it_took(tmp_path):
    # given T = 0.25 and eps = 0.02, the run steps 0.25 / 12; given N, the eps it was given
    cfg = {k: v for k, v in PARTICLE_SIM.items() if k != "N"}
    for subdir, given, eps, steps in (("t", dict(cfg, eps=0.02, T=0.25), 0.25 / 12, 12),
                                      ("n", PARTICLE_SIM, 0.01, 100)):
        code, out = run(tmp_path, "simulate", given, subdir=subdir)
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0 and (summary["eps"], summary["steps"]) == (eps, steps)


def test_reference_given_n_steps_the_eps_it_was_given(tmp_path):
    # 3 steps of 0.1 write t_k = k * 0.1, as vni10 does, not multiples of (0.1 * 3) / 3
    columns = []
    for integ in ("reference", "vni10"):
        cfg = dict(PARTICLE_SIM, integrator=integ, eps=0.1, N=3)
        code, out = run(tmp_path, "simulate", cfg, subdir=integ)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        columns.append([line.split(",")[0] for line in lines])
    assert columns[0] == columns[1]


def test_a_multiplier_that_overflows_stops_the_run_at_its_row(tmp_path, capsys):
    # v = 1e200 keeps D, but the reaction multiplier y v_x^2 overflows at the start
    cfg = dict(PARTICLE_SIM, integrator="reference", v=[1e200, 1e200, 1e200])
    code, out = run(tmp_path, "simulate", cfg, subdir="lambda_inf")
    assert code == 3
    assert capsys.readouterr().err == (
        "error: step 0, t = 0: multiplier is not finite (array([inf]))\n")
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1  # the header alone


QUARTIC = {  # x'' = 4 x^3 from x = 1 blows up in finite time
    "system": {"names": ["x"], "M": [[1.0]], "V": "-(x^4)", "mu": []},
    "eps": 0.01,
    "T": 10.0,
    "q": [1.0],
    "v": [0.0],
}
# A study reads its step sizes from eps_list, so it is given no eps.
QUARTIC_STUDY = {k: v for k, v in QUARTIC.items() if k != "eps"}


@pytest.mark.parametrize(
    "cfg, header",
    [
        (dict(QUARTIC, integrator="reference"), "t,q_1,v_1,energy"),
        (dict(QUARTIC, integrator="vni10"), "t,q_1,v_1,energy,newton_iters"),
        (dict(QUARTIC, integrator="vni20"), "t,q_1,v_1,energy,newton_iters"),
        (dict(QUARTIC, integrator="original_node"), "t,q_1,v_1,energy,newton_iters"),
        (dict(QUARTIC, integrator="dla", beta=0.5), "t,q_1,v_1,energy,newton_iters"),
        # x'' = -1/x runs into x = 0, where log(x) is undefined
        (dict(QUARTIC, system={"names": ["x"], "M": [[1.0]], "V": "log(x)", "mu": []},
              integrator="reference", v=[-1.0], T=5.0), "t,q_1,v_1,energy"),
    ],
    ids=["reference", "vni10", "vni20", "original_node", "dla", "log_domain"],
)
def test_runtime_failure_writes_partial_csv(tmp_path, capsys, cfg, header):
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 2


# log(x) in mu cannot be evaluated at this start
LOG_MU = {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["log(x)", "1"]]}
LOG_MU_START = {"q": [-1.0, 0.0], "v": [0.0, 0.0]}


OVERFLOW = {  # one step of eps * v = 1e310 overflows the configuration
    "system": {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["1", "-1"]]},
    "eps": 1e160,
    "N": 3,
    "q": [0.0, 0.0],
    "v": [1e150, 1e150],
}


@pytest.mark.parametrize("integrator", ["vni10", "vni20", "original_node", "dla"])
def test_overflowed_node_stops_the_run(tmp_path, capsys, integrator):
    # the start (1e150, 1e150) has a finite energy, so its row is written and
    # the first node stops the run; at (1e306, 1e306) the energy itself
    # overflows, and the run stops before any row
    for v, rows in (([1e150, 1e150], 1), ([1e306, 1e306], 0)):
        cfg = dict(OVERFLOW, integrator=integrator, v=v)
        if integrator == "dla":
            cfg["beta"] = 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run(tmp_path, "simulate", cfg, subdir=f"v{v[0]:g}")
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: step {rows}, t = ")
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + rows  # the header and the rows before the failed one
        assert all(np.isfinite(float(cell)) for line in lines[1:] for cell in line.split(","))


@pytest.mark.parametrize("integrator", ["vni10", "vni20", "original_node", "dla"])
def test_overflow_prints_only_its_error_line(tmp_path, capfd, integrator):
    # the first node overflows; every row is checked after it is computed, so
    # stderr holds the one typed error and no numpy warning (a fresh
    # interpreter, where warnings reach stderr as a user sees them)
    cfg = dict(OVERFLOW, integrator=integrator)
    if integrator == "dla":
        cfg["beta"] = 0.5
    assert _fresh_simulate(tmp_path, cfg) == 3
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: step 1, t = "), err


def test_overflowing_discrete_start_check_prints_only_its_error_line(tmp_path, capfd):
    # with the original nodes, dla checks its start at q - (1 - beta) eps v,
    # which overflows here; the check passes, and the first step fails
    cfg = dict(OVERFLOW, integrator="dla", beta=0.5, nodes="original")
    assert _fresh_simulate(tmp_path, cfg) == 3
    err = capfd.readouterr().err
    assert err == ("error: step 1, t = 1e+160: discrete step not well posed "
                   "(regularity condition number inf)\n")


@pytest.mark.parametrize("scheme, message", [("vni10", "state blew up"),
                                             ("vni20", "Newton iterate is not finite")])
def test_embed_from_an_overflowing_point_prints_only_its_error_line(tmp_path, capfd, scheme,
                                                                    message):
    # v = 1e160 keeps D, but the map's step overflows: the step checks what it
    # makes, so stderr holds the one typed error and no numpy warning
    cfg = dict(EMBED, scheme=scheme, points=[{"q": [0.0, 1.0, 0.0], "v": [1e160] * 3}])
    assert _fresh_simulate(tmp_path, cfg, command="embed") == 3
    assert capfd.readouterr().err == f"error: {message}\n"


def _fresh_simulate(tmp_path, cfg, command="simulate") -> int:
    """The command's exit code in a fresh interpreter, whose warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nonholo.__file__)),
           "PYTHONWARNINGS": "default"}
    proc = subprocess.run(
        [sys.executable, "-m", "nonholo.cli", command, "--config", write_config(tmp_path, cfg),
         "--out", str(tmp_path / "out")],
        env=env,
    )
    return proc.returncode


_RECORD_LOG_MU = {"system": LOG_MU, "q": [0.004, 0.0], "v": [1.0, 5.521460917862246],
                  "eps": 0.01, "N": 5}


@pytest.mark.parametrize("integrator", ["vni10", "vni20", "dla"])
def test_failure_while_recording_salvages_the_rows_before(tmp_path, capsys, integrator):
    # the start is on D, but its deformed residual takes mu at
    # q - eps/2 v, whose x = -0.001 lies outside the domain of log
    cfg = dict(_RECORD_LOG_MU, integrator=integrator)
    if integrator == "dla":
        cfg["beta"] = 0.5
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines == [lines[0]]  # the header: the initial row failed while it was recorded


def test_a_start_whose_own_set_cannot_be_evaluated_is_a_config_error(tmp_path, capsys):
    # original_node's start is checked on its set at set-up, which evaluates log(-0.001)
    code, out = run(tmp_path, "simulate", dict(_RECORD_LOG_MU, integrator="original_node"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("config error: initial state:"), err


def test_failure_message_names_the_step(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", dict(QUARTIC, integrator="vni10"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step 98, t = 0.98: ")
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 98


def test_converge_failed_oracle_exits_3(tmp_path, capsys):
    cfg = dict(QUARTIC_STUDY, integrator="vni10", eps_list=[0.02, 0.01, 0.005, 0.0025])
    code, _ = run(tmp_path, "converge", cfg)
    assert code == 3
    assert "oracle" in capsys.readouterr().err


def test_simulate_config_errors(tmp_path, capsys):
    bad = [
        dict(PARTICLE_SIM, integrator="euler"),
        dict(PARTICLE_SIM, T=1.0),  # both N and T
        {k: v for k, v in PARTICLE_SIM.items() if k != "N"},  # neither
        dict(PARTICLE_SIM, eps=-0.1),
        dict(PARTICLE_SIM, eps=True),  # JSON booleans are not numbers
        dict(PARTICLE_SIM, eps="fast"),
        dict(PARTICLE_SIM, N=2.5),
        dict(PARTICLE_SIM, N=True),
        {**{k: v for k, v in PARTICLE_SIM.items() if k != "N"}, "T": True},
        dict(PARTICLE_SIM, q=[0.0, 1.0]),
        dict(PARTICLE_SIM, system="unicycle"),  # no such builtin
        dict(PARTICLE_SIM, beta=0.5),  # beta without the two-point scheme
        dict(PARTICLE_SIM, integrator="dla", beta=0.5, nodes="midpoint"),
        dict(PARTICLE_SIM, nodes="redefined"),  # nodes without the two-point scheme
        dict(PARTICLE_SIM, integrator="vni20", nodes="original"),
        dict(PARTICLE_SIM, integrator="reference", nodes="original"),
        dict(PARTICLE_SIM, deformation={"g": ["v_x*v_y"], "delta": 0.05}),
        dict(PARTICLE_SIM, system={"names": ["x"], "M": [[1.0]], "V": "x +", "mu": []}),
        dict(PARTICLE_SIM, system={"builtin": "nonholonomic_particle", "n": 2}),
        dict(PARTICLE_SIM, integrator="dla", beta=True),
        dict(PARTICLE_SIM, integrator="dla", beta="half"),
        dict(PARTICLE_SIM, integrator="dla", beta=2),
        dict(
            PARTICLE_SIM,
            integrator="reference",
            deformation={"g": ["v_x*v_y"], "delta": "x"},
            v=[1.0, 1.0, 0.95],
        ),
        dict(PARTICLE_SIM, project_initial="no"),
        dict(PARTICLE_SIM, integrator="reference", project_each_step="no"),
        dict(PARTICLE_SIM, integrator="vni20", project_each_step=True),  # read by reference only
        dict(PARTICLE_SIM, output=5),
        dict(PARTICLE_SIM, system=LOG_MU, **LOG_MU_START),
        dict(  # mu loses rank where project_initial has to project
            PARTICLE_SIM,
            system={"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["x", "0"]]},
            q=[0.0, 0.0],
            v=[1.0, 1.0],
            project_initial=True,
        ),
        dict(PARTICLE_SIM, q="abc"),
        dict(PARTICLE_SIM, q=[0.0, "x", 0.0]),
        dict(
            PARTICLE_SIM,
            integrator="reference",
            deformation={"g": [5], "delta": 0.05},
            v=[1.0, 1.0, 0.95],
        ),
        dict(  # q is not a name of the particle
            PARTICLE_SIM,
            integrator="reference",
            deformation={"g": ["v_x*q"], "delta": 0.05},
            v=[1.0, 1.0, 0.95],
        ),
        dict(QUARTIC, integrator="reference", system={**QUARTIC["system"], "V": 5}),
        dict(PARTICLE_SIM, integrator="reference", eps=1e308, N=2),  # eps * N overflows
        dict(PARTICLE_SIM, output="."),
        dict(PARTICLE_SIM, output="sub/run.csv"),
        dict(PARTICLE_SIM, N=1e20),  # step counts above MAX_STEPS
        dict(PARTICLE_SIM, N=24001854256926364.0),
        dict(  # project_initial repairs onto D, not onto the deformed set the run keeps
            PARTICLE_SIM,
            integrator="reference",
            deformation={"g": ["v_x*v_y"], "delta": 0.05},
            v=[1.0, 1.0, 0.5],
            project_initial=True,
        ),
    ]
    for i, cfg in enumerate(bad):
        code, _ = run(tmp_path, "simulate", cfg, subdir=f"bad{i}")
        assert code == 2, f"config {i} should be rejected: {cfg}"
        assert capsys.readouterr().err.startswith("config error:")


def test_missing_or_malformed_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["simulate", "--config", str(lst)]) == 2
    capsys.readouterr()


def test_rolling_disk_is_a_builtin(tmp_path, capsys):
    th, w_th, w_ph = 0.3, 0.4, 1.2  # (v_x, v_y) = w_ph (cos th, sin th) / 2 is on D
    cfg = dict(PARTICLE_SIM, system="rolling_disk", integrator="vni20", N=20, q=[1.0, 0.0, th, 0.0],
               v=[0.5 * np.cos(th) * w_ph, 0.5 * np.sin(th) * w_ph, w_th, w_ph])
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0, capsys.readouterr().err
    assert (out / "trajectory.csv").read_text().splitlines()[0].startswith("t,q_1,q_2,q_3,q_4,")


def test_builtin_override_field_by_field(tmp_path):
    cfg = dict(
        PARTICLE_SIM,
        system={"builtin": "nonholonomic_particle", "V": "(x^2 + y^2) / 2"},
        integrator="reference",
        N=20,
    )
    code, out = run(tmp_path, "simulate", cfg, subdir="override")
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    energies = [float(r.split(",")[header.index("energy")]) for r in rows[1:]]
    assert abs(energies[0] - 2.0) < 1e-15  # kinetic 1.5 plus potential 0.5
    drift = max(abs(e - energies[0]) for e in energies)
    assert drift < 1e-10  # reaction forces do no work here either


def test_deformed_simulation_conserves_deformed_residual(tmp_path):
    cfg = dict(
        PARTICLE_SIM,
        integrator="reference",
        deformation={"g": ["v_x * v_y"], "delta": 0.05},
        N=200,
        v=[1.0, 1.0, 0.95],  # on the deformed set, not on D
        project_initial=False,
    )
    code, out = run(tmp_path, "simulate", cfg, subdir="deformed")
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("residual_1")
    vals = [float(r.split(",")[col]) for r in rows[1:]]
    assert max(abs(v - vals[0]) for v in vals) < 1e-10


def test_reruns_are_byte_identical(tmp_path):
    code_a, out_a = run(tmp_path, "simulate", PARTICLE_SIM, subdir="rerun_a")
    code_b, out_b = run(tmp_path, "simulate", PARTICLE_SIM, subdir="rerun_b")
    assert code_a == code_b == 0
    a = (out_a / "trajectory.csv").read_bytes()
    b = (out_b / "trajectory.csv").read_bytes()
    assert a == b


CONVERGE = {
    "system": "nonholonomic_particle",
    "integrator": "vni10",
    "T": 0.25,
    "q": [0.0, 1.0, 0.0],
    "v": [1.0, 1.0, 1.0],
    "eps_list": [0.003125, 0.0015625, 0.00078125, 0.000390625],
}


def test_converge_first_order_scheme(tmp_path):
    code, out = run(tmp_path, "converge", CONVERGE)
    assert code == 0
    study = json.loads((out / "study.json").read_text())
    assert 0.9 <= study["state_slope"] <= 1.1, study["state_slope"]
    assert study["failures"] == []
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "eps,state_error,lambda_error"
    assert len(rows) == 5


def _study_files(out) -> tuple[bytes, dict]:
    """convergence.csv's bytes and study.json without its run time."""
    study = json.loads((out / "study.json").read_text())
    study.pop("runtime_seconds")
    return (out / "convergence.csv").read_bytes(), study


def test_converge_jobs_is_accepted_and_ignored(tmp_path):
    code, out = run(tmp_path, "converge", CONVERGE, subdir="plain")
    assert code == 0
    plain = _study_files(out)
    for jobs in ("2", "6"):
        code, out = run(tmp_path, "converge", CONVERGE, "--jobs", jobs, subdir=f"jobs{jobs}")
        assert code == 0
        assert _study_files(out) == plain, f"--jobs {jobs} changed the study"


def test_converge_jobs_must_be_an_integer(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "converge", CONVERGE, "--jobs", "x")
    assert exc.value.code == 2
    capsys.readouterr()


def test_converge_builds_the_system_once(tmp_path, monkeypatch):
    calls = []
    build = cli.build_system

    def counting(desc):
        calls.append(desc)
        return build(desc)

    monkeypatch.setattr(cli, "build_system", counting)
    code, _ = run(tmp_path, "converge", CONVERGE, subdir="once")
    assert code == 0
    assert len(calls) == 1


def test_a_study_computes_its_start_once(tmp_path, monkeypatch):
    # vni10 keeps D at every step size, so the oracle's start serves every run
    calls = []
    project = cli.project_velocity

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(cli, "project_velocity", counting)
    cfg = dict(CONVERGE, project_initial=True, eps_list=[0.02, 0.01, 0.005, 0.0025])
    assert run(tmp_path, "converge", cfg)[0] == 0
    assert len(calls) == 1


_DISK_START = {"system": "rolling_disk", "q": [1.0, 0.0, 0.3, 0.0], "v": [0.7, -0.2, 0.4, 1.2]}


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("start", [PARTICLE_SIM, _DISK_START], ids=["particle", "disk"])
def test_dla_on_original_nodes_runs_from_the_command_line(tmp_path, capsys, start, beta):
    # these nodes keep mu(q - (1 - beta) eps v) v = 0, not D: the start is
    # refused as given, and project_initial repairs it onto that set
    eps = 0.01
    cfg = dict(start, integrator="dla", beta=beta, nodes="original", eps=eps, N=200)
    code, _ = run(tmp_path, "simulate", cfg, subdir="as_given")
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("config error:"), err
    code, out = run(tmp_path, "simulate", dict(cfg, project_initial=True))
    assert code == 0, capsys.readouterr().err
    sys_ = cli.build_system(start["system"])
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert table.shape[0] == 201
    q, v = table[:, 1 : 1 + sys_.n], table[:, 1 + sys_.n : 1 + 2 * sys_.n]
    res = np.matvec(sys_.mu_at(q - (1.0 - beta) * eps * v), v)
    assert np.max(np.abs(res)) <= 1e-9


def test_importing_the_cli_loads_no_process_pool():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nonholo.__file__))}
    probe = ("import sys, nonholo.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_converge_records_a_failed_step_size_and_goes_on(tmp_path, capsys):
    # the oracle reaches T = 0.6; vni20's Newton iteration fails at the largest step only
    cfg = dict(QUARTIC_STUDY, integrator="vni20", T=0.6,
               eps_list=[0.2, 0.1, 0.05, 0.025, 0.0125])
    code, out = run(tmp_path, "converge", cfg, subdir="partial")
    assert code == 0, capsys.readouterr().err
    study = json.loads((out / "study.json").read_text())
    assert study["failures"] == [
        {"eps": 0.2, "error": "NewtonError: no convergence after 30 Newton iterations"}]
    assert study["eps"] == [0.1, 0.05, 0.025, 0.0125]
    assert len((out / "convergence.csv").read_text().splitlines()) == 1 + 4


def test_converge_original_node_repairs_each_start(tmp_path, capsys):
    # project_initial puts each step size's start on original_node's deformed set
    cfg = dict(CONVERGE, integrator="original_node", T=0.2, project_initial=True,
               eps_list=[0.02, 0.01, 0.005, 0.0025])
    code, out = run(tmp_path, "converge", cfg, subdir="original_node")
    assert code == 0, capsys.readouterr().err
    study = json.loads((out / "study.json").read_text())
    assert study["failures"] == []
    assert 0.9 <= study["state_slope"] <= 1.1, study["state_slope"]


def test_converge_needs_enough_step_sizes(tmp_path, capsys):
    code, _ = run(tmp_path, "converge", CONVERGE, "--eps-list", "0.01,0.005", subdir="few")
    assert code == 2
    assert "at least 4" in capsys.readouterr().err

    code, _ = run(tmp_path, "converge", CONVERGE, "--eps-list", "a,b,c,d", subdir="junk")
    assert code == 2
    capsys.readouterr()


def test_converge_eps_list_flag_overrides_config(tmp_path):
    code, out = run(
        tmp_path,
        "converge",
        dict(CONVERGE, eps_list=[1.0, 1.0, 1.0, 1.0]),
        "--eps-list",
        "0.0125,0.00625,0.003125,0.0015625",
        subdir="flag",
    )
    assert code == 0
    study = json.loads((out / "study.json").read_text())
    assert study["eps"][0] == 0.0125


def test_converge_reference_self_convergence(tmp_path):
    cfg = dict(CONVERGE, integrator="reference", eps_list=[0.05, 0.025, 0.0125, 0.00625])
    code, out = run(tmp_path, "converge", cfg, subdir="rk4")
    assert code == 0
    study = json.loads((out / "study.json").read_text())
    assert abs(study["state_slope"] - 4.0) < 0.3, study["state_slope"]


def test_convergence_study_api_validates(tmp_path):
    try:
        convergence_study(dict(CONVERGE), [0.1, 0.05, 0.025])
    except ConfigError as exc:
        assert "4" in str(exc)
    else:
        raise AssertionError("three step sizes should be rejected")
    try:
        convergence_study({k: v for k, v in CONVERGE.items() if k != "T"}, [0.1] * 4)
    except ConfigError:
        pass
    else:
        raise AssertionError("missing T should be rejected")


EMBED = {
    "system": "nonholonomic_particle",
    "scheme": "vni10",
    "eps": 0.1,
    "base_step": 0.01,
    "q0": [0.0, 1.0, 0.0],
    "points": [{"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]}],
    "order_levels": 3,
}
INTERP = {
    "system": "nonholonomic_particle",
    "eps": 0.1,
    "x0": {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]},
    "x1": {"q": [0.1, 1.1, 0.1], "v": [1.0, 1.0, 1.1]},
}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("embed", dict(EMBED, base_step=-1)),
        ("embed", dict(EMBED, base_step="x")),
        ("embed", dict(EMBED, t_frac="x")),
        ("embed", dict(EMBED, order_levels="x")),
        ("embed", dict(EMBED, order_levels=0)),
        ("embed", dict(EMBED, scheme="exact", p="x")),
        ("embed", dict(EMBED, scheme="exact", p=0)),
        ("interp", dict(INTERP, samples="x")),
        ("converge", dict(CONVERGE, eps_list=[0.02, "x", 0.005, 0.0025])),
        ("converge", dict(CONVERGE, eps_list=[0.02, 0.01, 0.005, True])),
        ("interp", dict(INTERP, system=LOG_MU, x0=LOG_MU_START,
                        x1={"q": [1.0, 0.0], "v": [0.0, 0.0]})),
        ("converge", dict(CONVERGE, system=LOG_MU, **LOG_MU_START)),
        ("converge", dict(CONVERGE, eps_list=[0.02, 0.01, 0.005, 1e-320])),  # T / eps overflows
        ("converge", dict(CONVERGE, T=1e300)),  # the reference oracle's step count
        ("embed", dict(EMBED, base_step=1e-300)),  # eps / base_step flow steps
        ("interp", dict(INTERP, samples=1e20)),  # more samples than MAX_STEPS
        ("embed", dict(EMBED, scheme="original_node")),  # keeps a deformed set, not D
        ("converge", dict(CONVERGE, nodes="original")),  # nodes without the two-point scheme
        # no study reads the reference flow's keys
        ("converge", dict(CONVERGE, integrator="reference",
                          deformation={"g": ["v_x*v_y"], "delta": 0.05})),
        ("converge", dict(CONVERGE, integrator="reference", project_each_step=True)),
        ("converge", dict(CONVERGE, project_each_step=False)),
    ],
)
def test_other_command_config_errors(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2, f"config should be rejected: {cfg}"
    assert capsys.readouterr().err.startswith("config error:")


# A particle start whose projection onto D keeps a residual of 7.5e-9: the
# product y v_x of v = (0.7, 1.1, 0.3) * 1e8 rounds off what the projection takes out.
_PROJECTED_1E8 = {"q": [0.3, 1.7, 0.0], "v": [0.7e8, 1.1e8, 0.3e8]}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("embed", dict(EMBED, q0=_PROJECTED_1E8["q"], project_initial=True,
                       points=[_PROJECTED_1E8])),
        ("embed", dict(EMBED, system=LOG_MU, q0=LOG_MU_START["q"],
                       points=[{"q": [1.0, 0.0], "v": [0.0, 0.0]}])),
        ("interp", dict(INTERP, system=LOG_MU, q0=LOG_MU_START["q"],
                        x0={"q": [1.0, 0.0], "v": [0.0, 0.0]},
                        x1={"q": [1.1, 0.0], "v": [0.0, 0.0]})),
    ],
    ids=["embed_projected_point", "embed_q0_outside_domain", "interp_q0_outside_domain"],
)
def test_set_up_refusals_are_config_errors(tmp_path, capsys, command, cfg):
    # a repaired point refused by reduce_state, and a q0 where mu cannot be
    # evaluated, each ended in a traceback
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("config error:"), err
    assert "set project_initial" not in err


@pytest.mark.parametrize("scale, code", [(1e6, 0), (1e7, 2)])
def test_a_repaired_start_is_checked_against_its_set(tmp_path, capsys, scale, code):
    # the projection of a large v keeps a residual that grows with |v|; a
    # repaired start is held to the one tolerance like any other
    cfg = dict(PARTICLE_SIM, eps=1e-9, N=5, q=[0.3, 1.7, 0.0], project_initial=True,
               v=[0.7 * scale, 1.1 * scale, 0.3 * scale])
    assert run(tmp_path, "simulate", cfg)[0] == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: repaired initial velocity is not admissible"), err
        assert "set project_initial" not in err


_HUGE_START = {"q": [0.0, 10.0, 0.0], "v": [1e308, 0.0, 0.0]}  # mu v overflows


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", dict(PARTICLE_SIM, **_HUGE_START)),
        ("simulate", dict(PARTICLE_SIM, **_HUGE_START, project_initial=True)),
        ("converge", dict(CONVERGE, **_HUGE_START)),
        ("embed", dict(EMBED, points=[_HUGE_START])),
        ("interp", dict(INTERP, x0=_HUGE_START)),
    ],
    ids=["simulate", "simulate_project_initial", "converge", "embed", "interp"],
)
def test_set_up_prints_no_warning_before_a_config_error(tmp_path, capfd, command, cfg):
    assert _fresh_simulate(tmp_path, cfg, command) == 2
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:"), err


# --- the one admissibility rule -----------------------------------------------------

_PARTICLE = nonholonomic_particle()
_SPLIT = derive_connection(_PARTICLE, q0=np.array([0.0, 1.0, 0.0]))


def _cli_accepts(tmp_path, x: np.ndarray, **extra) -> bool:
    cfg = dict(PARTICLE_SIM, N=1, q=x[:3].tolist(), v=x[3:].tolist(), **extra)
    code, _ = run(tmp_path, "simulate", cfg)
    assert code in (0, 2)
    return code == 0


# Every entry point that requires a state on its set, as a call that raises
# SystemError or returns False when it refuses the start x.
_RULE_SITES = {
    "simulate": _cli_accepts,
    "simulate_deformed": lambda tmp_path, x: _cli_accepts(
        tmp_path, x, integrator="reference", deformation={"g": ["v_x*v_y"], "delta": 0.0}),
    "run_integrator_vni10": lambda tmp_path, x: run_integrator(_PARTICLE, "vni10", x, 0.01, 1),
    "run_integrator_dla_original": lambda tmp_path, x: run_integrator(
        _PARTICLE, "dla", x, 0.01, 1, beta=0.5, policy=NodePolicy.ORIGINAL),
    "original_node_step": lambda tmp_path, x: original_node_step(_PARTICLE, x, 0.01),
    "reduce_state": lambda tmp_path, x: reduce_state(_PARTICLE, _SPLIT, x),
    "lambda_continuous": lambda tmp_path, x: lambda_continuous(_PARTICLE, x),
}


@pytest.mark.parametrize("site", _RULE_SITES)
@pytest.mark.parametrize("delta, accepted", [(2.0**-34, True), (2.0**-33, False)],
                         ids=["accepts_2^-34", "refuses_2^-33"])
def test_every_site_applies_the_one_admissibility_rule(tmp_path, capsys, site, delta, accepted):
    # at q = (0, 1, 0) the residual of v = (1, 0, 1 + delta) is delta exactly,
    # on D and on each deformed set alike (v_y = 0 keeps y at every node)
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0 + delta])
    try:
        ok = _RULE_SITES[site](tmp_path, x) is not False
    except SystemError as exc:
        assert "residual" in str(exc)
        ok = False
    assert ok == accepted, capsys.readouterr().err


def test_embed_report(tmp_path):
    cfg = {
        "system": "nonholonomic_particle",
        "scheme": "vni10",
        "eps": 0.1,
        "base_step": 0.005,
        "q0": [0.0, 1.0, 0.0],
        "points": [{"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]}],
    }
    code, out = run(tmp_path, "embed", cfg)
    assert code == 0
    report = json.loads((out / "embedding.json").read_text())
    assert report["endpoint_mismatch"] <= 1e-10
    assert report["periodicity_defect"] <= 1e-8
    assert abs(report["measured_p"] - 1.0) < 0.15

    cfg["scheme"] = "rk4"
    code, _ = run(tmp_path, "embed", cfg, subdir="badscheme")
    assert code == 2

    cfg["scheme"] = "vni10"
    cfg["points"] = [{"q": [0.0, 1.0, 0.0], "v": [1.0, 0.0, 0.0]}]
    code, _ = run(tmp_path, "embed", cfg, subdir="offd")
    assert code == 2


def test_interp_curve(tmp_path, capsys):
    cfg = {
        "system": "nonholonomic_particle",
        "eps": 0.1,
        "x0": {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]},
        "x1": {"q": [0.1, 1.1, 0.1], "v": [1.0, 1.0, 1.1]},
    }
    code, out = run(tmp_path, "interp", cfg)
    assert code == 0, capsys.readouterr().err
    rows = (out / "interpolation.csv").read_text().splitlines()
    assert len(rows) == 102  # header + 101 samples
    header = rows[0].split(",")
    first, last = rows[1].split(","), rows[-1].split(",")
    assert [float(x) for x in first[1:4]] == [0.0, 1.0, 0.0]
    assert [float(x) for x in last[4:7]] == [1.0, 1.0, 1.1]
    col = header.index("residual_1")
    worst = max(abs(float(r.split(",")[col])) for r in rows[1:])
    assert worst <= 1e-13

    cfg["x1"]["v"] = [1.0, 1.0, 0.5]
    code, _ = run(tmp_path, "interp", cfg, subdir="offd")
    assert code == 2
    capsys.readouterr()


def test_interp_failure_while_sampling_exits_3_with_the_rows_before(tmp_path, capsys):
    # the fiber entry of v_z is x, which the curve from x = 1 to x = -1
    # crosses at its midpoint t = eps / 2, the third of five samples
    cfg = {"system": {"names": ["x", "y", "z"], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      "V": "0", "mu": [["-y", "0", "x"]]},
           "eps": 0.1, "samples": 5,
           "x0": {"q": [1.0, 1.0, 0.0], "v": [1.0, 0.0, 1.0]},
           "x1": {"q": [-1.0, 1.0, 0.0], "v": [1.0, 0.0, -1.0]}}
    code, out = run(tmp_path, "interp", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sample 2, t = 0.05: fiber block of mu singular")
    rows = (out / "interpolation.csv").read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 0.025]


@pytest.fixture(scope="module")
def unscaled_embed_report(tmp_path_factory):
    code, out = run(tmp_path_factory.mktemp("unscaled"), "embed", EMBED)
    assert code == 0
    return json.loads((out / "embedding.json").read_text())


@pytest.mark.parametrize("k", range(-20, 1))
def test_embed_takes_a_constraint_row_of_any_small_scale(
    tmp_path, capsys, unscaled_embed_report, k
):
    # the particle's row scaled by 10^k: the fiber entry 10^k falls below
    # 1e-12 from k = -12 on, but it is the row's largest entry
    scaled = {"builtin": "nonholonomic_particle", "mu": [[f"-y*1e{k}", "0", f"1e{k}"]]}
    code, out = run(tmp_path, "embed", dict(EMBED, system=scaled))
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "embedding.json").read_text())
    assert report["measured_p"] == pytest.approx(unscaled_embed_report["measured_p"], rel=1e-12)


def test_embed_and_interp_take_an_unconstrained_system(tmp_path, capsys):
    # m = 0: D is all of TQ, the split has no fiber and xi is the whole state
    oscillator = {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "(x^2+y^2)/2",
                  "mu": []}
    start = {"q": [1.0, 0.5], "v": [0.0, 1.0]}
    cfg = dict(EMBED, system=oscillator, q0=start["q"], points=[start])
    code, out = run(tmp_path, "embed", cfg)
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "embedding.json").read_text())
    assert abs(report["measured_p"] - 1.0) < 0.15
    # g(t) and g(t + eps) are inverted to the one Newton tolerance alike
    assert report["periodicity_defect"] <= 1e-12

    cfg = {"system": oscillator, "eps": 0.1, "samples": 11, "x0": start,
           "x1": {"q": [1.5, 0.0], "v": [-1.0, 2.0]}}
    code, out = run(tmp_path, "interp", cfg)
    assert code == 0, capsys.readouterr().err
    rows = (out / "interpolation.csv").read_text().splitlines()
    assert rows[0] == "t,q_1,q_2,v_1,v_2"  # no residual columns
    assert [float(x) for x in rows[1].split(",")[1:]] == [1.0, 0.5, 0.0, 1.0]
    assert [float(x) for x in rows[-1].split(",")[1:]] == [1.5, 0.0, -1.0, 2.0]


def test_module_entry_point_prints_no_warning(tmp_path):
    cfg = write_config(tmp_path, dict(PARTICLE_SIM, N=2))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nonholo.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "nonholo.cli", "simulate", "--config", cfg, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr


# --- fuzzed configs ----------------------------------------------------------------

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4)
)
_junk = st.one_of(_scalars, st.lists(_scalars, max_size=3))
_floats = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)

# Runs that start valid, with at most N = 3 steps; the fuzz then breaks a few keys.
_BASES = [
    dict(PARTICLE_SIM, integrator=integ, N=3, **extra)
    for integ, extra in (
        ("reference", {}),
        ("reference", {"project_each_step": True}),
        ("reference", {"deformation": {"g": ["v_x*v_y"], "delta": 0.05}, "v": [1.0, 1.0, 0.95]}),
        ("vni10", {}),
        ("vni20", {}),
        ("original_node", {"project_initial": True}),
        ("dla", {"beta": 0.5}),
        ("dla", {"beta": 0.0, "nodes": "original", "project_initial": True}),
    )
] + [dict(QUARTIC, integrator=integ, T=0.03) for integ in ("reference", "vni20")]

# Each key's replacements: plausible values of the wrong size, range or kind, and junk.
_MUTATIONS = {
    "system": st.sampled_from([
        "nonholonomic_particle", "rolling_disk", QUARTIC["system"], LOG_MU,
        {"builtin": "nonholonomic_particle", "V": "log(x)"},
        {"names": ["x"], "M": [[1.0]], "V": 5, "mu": []},
        {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["x", "0"]]},
    ]),
    "integrator": st.sampled_from(INTEGRATORS),
    "beta": st.floats(-0.5, 1.5),
    "nodes": st.sampled_from(["redefined", "original"]),
    "eps": st.one_of(st.floats(1e-3, 2.0), st.just(1e308)),
    "N": st.integers(0, 3),
    "q": _floats,
    "v": _floats,
    "project_initial": st.booleans(),
    "project_each_step": st.booleans(),
    "deformation": st.fixed_dictionaries(
        {"g": st.sampled_from([["v_x*v_y"], ["log(v_x)"], ["x"], []]), "delta": st.floats(-1.0, 1.0)}
    ),
    "output": st.sampled_from(["run.csv", "", ".", "sub/run.csv", "a\0b"]),
    "summary": st.sampled_from(["run.json", "", "..", "sub/run.json"]),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rename(draw, cfg: dict, command: str) -> str | None:
    """Now and then rename a key of cfg by a one-character edit to a name that is not in
    the command's key table; return the new name, or None where no key was renamed."""
    if not cfg or draw(st.integers(0, 3)):
        return None
    key = draw(st.sampled_from(sorted(cfg)))
    i, c = draw(st.integers(0, len(key))), draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_"))
    new = draw(st.sampled_from([key[:i] + c + key[i:], key[:i] + c + key[i + 1:],
                                key[:i] + key[i + 1:]]))
    if new in cli.KEYS[command]:
        return None
    cfg[new] = cfg.pop(key)
    return new


def _mutate(draw, cfg: dict, mutations: dict) -> dict:
    """Break at most three keys of cfg: drop each, or give it a plausible or a junk value."""
    for key in draw(st.lists(st.sampled_from(sorted(mutations)), max_size=3, unique=True)):
        how = draw(st.sampled_from(["drop", "plausible", "junk"]))
        if how == "drop":
            cfg.pop(key, None)
        else:
            cfg[key] = draw(mutations[key] if how == "plausible" else _junk)
    return cfg


def _cap(cfg: dict, key: str, most: float) -> None:
    """Hold a number at cfg[key] to at most `most`, so that one example stays cheap."""
    if _is_number(cfg.get(key)) and cfg[key] > most:
        cfg[key] = most


@st.composite
def _simulate_configs(draw):
    cfg = _mutate(draw, dict(draw(st.sampled_from(_BASES))), _MUTATIONS)
    _cap(cfg, "N", 3)
    if "T" in cfg or draw(st.booleans()):
        # a T of at most three steps, in place of N
        cfg.pop("N", None)
        eps = cfg.get("eps")
        cfg["T"] = eps * draw(st.floats(0.0, 3.4)) if _is_number(eps) else draw(_junk)
    return cfg, _rename(draw, cfg, "simulate")


def _exit_code(command: str, cfg: dict) -> tuple[int, str]:
    """The command's exit code on cfg, and what it wrote to stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stderr(err):
        path = os.path.join(work, "run.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = main([command, "--config", path, "--out", os.path.join(work, "out")])
    return code, err.getvalue()


def _check_fuzzed(command: str, cfg: dict, renamed: str | None) -> None:
    """Every config exits 0, 2 or 3; one with a renamed key exits 2 and names that key."""
    code, err = _exit_code(command, cfg)
    assert code in (0, 2, 3)
    if renamed is not None:
        assert code == 2 and err.startswith(f"config error: unknown key {renamed!r}"), err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_simulate_configs())
def test_fuzzed_simulate_config_exits_0_2_or_3(example):
    _check_fuzzed("simulate", *example)


# Tiny studies: an oracle of at most 100 RK4 steps, at most 50 steps per step size.
_TINY_EPS_LIST = [0.004, 0.002, 0.001, 0.0005]
_CONVERGE_BASES = [
    dict(CONVERGE, integrator=integ, T=0.01, eps_list=_TINY_EPS_LIST, **extra)
    for integ, extra in (
        ("reference", {}),
        ("vni10", {}),
        ("vni20", {}),
        ("original_node", {"project_initial": True}),
        ("dla", {"beta": 0.5}),
        ("dla", {"beta": 0.0, "nodes": "original", "project_initial": True}),
    )
] + [dict(QUARTIC_STUDY, integrator="vni20", T=0.01, eps_list=_TINY_EPS_LIST)]
_CONVERGE_MUTATIONS = {
    **{key: _MUTATIONS[key] for key in ("system", "integrator", "beta", "nodes", "q", "v",
                                        "project_initial", "output", "summary")},
    "T": st.floats(1e-3, 0.01),
    "eps_list": st.lists(st.floats(2e-4, 0.02), min_size=3, max_size=5),
}


@st.composite
def _converge_configs(draw):
    cfg = _mutate(draw, dict(draw(st.sampled_from(_CONVERGE_BASES))), _CONVERGE_MUTATIONS)
    _cap(cfg, "T", 0.01)
    if isinstance(cfg.get("eps_list"), list):
        # at most 50 steps per step size; one at or below 1e-300 stays, for the step cap to refuse
        cfg["eps_list"] = [max(e, 2e-4) if _is_number(e) and e > 1e-300 else e
                           for e in cfg["eps_list"]]
    return cfg, _rename(draw, cfg, "converge")


@pytest.mark.parametrize(
    "command, cfg",
    [("simulate", cfg) for cfg in _BASES] + [("converge", cfg) for cfg in _CONVERGE_BASES],
)
def test_every_fuzz_base_runs(command, cfg):
    # the fuzz breaks a few keys of a base; a base that never runs leaves its scheme unstepped
    code, err = _exit_code(command, cfg)
    assert code == 0, err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_converge_configs())
def test_fuzzed_converge_config_exits_0_2_or_3(example):
    _check_fuzzed("converge", *example)


_POINTS = st.lists(st.fixed_dictionaries({"q": _floats, "v": _floats}), min_size=1, max_size=2)
_EMBED_BASES = [dict(EMBED, order_levels=2, **extra)
                for extra in ({}, {"scheme": "vni20"}, {"scheme": "exact", "p": 1})]
_EMBED_MUTATIONS = {
    **{key: _MUTATIONS[key] for key in ("system", "project_initial", "summary")},
    "scheme": st.sampled_from(["vni10", "vni20", "original_node", "dla", "exact", "rk4"]),
    "p": st.integers(-1, 3),
    "eps": st.floats(0.01, 0.2),
    "base_step": st.floats(0.005, 0.05),
    "t_frac": st.one_of(st.floats(-1.0, 2.0), st.just(1e300)),
    "order_levels": st.integers(0, 3),
    "q0": _floats,
    "points": _POINTS,
}


@st.composite
def _embed_configs(draw):
    cfg = _mutate(draw, dict(draw(st.sampled_from(_EMBED_BASES))), _EMBED_MUTATIONS)
    for key, most in (("eps", 0.2), ("order_levels", 3), ("p", 3)):
        _cap(cfg, key, most)
    eps, base_step = cfg.get("eps"), cfg.get("base_step")
    if _is_number(eps) and _is_number(base_step) and 0.0 < base_step < eps / 20:
        cfg["base_step"] = eps / 20  # at most 20 flow steps per step of the map
    return cfg, _rename(draw, cfg, "embed")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_embed_configs())
def test_fuzzed_embed_config_exits_0_2_or_3(example):
    _check_fuzzed("embed", *example)


_INTERP_MUTATIONS = {
    **{key: _MUTATIONS[key] for key in ("system", "output")},
    "eps": st.one_of(st.floats(0.01, 1.0), st.just(1e308)),
    "samples": st.integers(0, 8),
    "x0": _POINTS.map(lambda points: points[0]),
    "x1": _POINTS.map(lambda points: points[0]),
    "q0": _floats,
}


@st.composite
def _interp_configs(draw):
    cfg = _mutate(draw, dict(INTERP, samples=5), _INTERP_MUTATIONS)
    _cap(cfg, "samples", 8)
    return cfg, _rename(draw, cfg, "interp")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_interp_configs())
def test_fuzzed_interp_config_exits_0_2_or_3(example):
    _check_fuzzed("interp", *example)


# --- the key tables -----------------------------------------------------------------

# A config of each command that runs
_RUNS = {"simulate": PARTICLE_SIM, "converge": CONVERGE, "embed": EMBED, "interp": INTERP}


@pytest.mark.parametrize("command, key", [(c, k) for c in cli.KEYS for k in cli.KEYS[c]])
def test_every_table_key_is_parsed(tmp_path, capsys, command, key):
    # a JSON object is no key's value, so each key's parser refuses it and names the
    # key; the run is set to one that reads the key
    cfg = dict(_RUNS[command], **{key: {"x": 1}})
    readers = cli.KEYS[command][key][2]
    if readers is not None:
        cfg[cli.RUN_KEY[command]] = readers[0]
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1, err
    assert err.startswith((f"config error: {key} ", f"config error: unknown key '{key}.")), err


_WITHOUT_INTEGRATOR = {k: v for k, v in PARTICLE_SIM.items() if k != "integrator"}
_WITHOUT_EPS_LIST = {k: v for k, v in CONVERGE.items() if k != "eps_list"}


@pytest.mark.parametrize(
    "command, cfg, key, near",
    [
        ("simulate", dict(_WITHOUT_INTEGRATOR, integrater="dla", beta=0.5,
                          deformaton={"g": ["v_x*v_y"], "delta": 0.05}), "integrater", "integrator"),
        ("simulate", dict(PARTICLE_SIM, deformaton={"g": ["v_x*v_y"], "delta": 0.05}),
         "deformaton", "deformation"),
        ("converge", dict(_WITHOUT_EPS_LIST, eps_lst=CONVERGE["eps_list"]), "eps_lst", "eps_list"),
        ("embed", dict(EMBED, t_fraction=0.5, order_level=2), "t_fraction", "t_frac"),
        ("embed", dict(EMBED, order_level=2), "order_level", "order_levels"),
        ("interp", dict(INTERP, sampels=5), "sampels", "samples"),
        ("interp", dict(INTERP, x0=dict(INTERP["x0"], vv=[1.0, 1.0, 1.0])), "x0.vv", "x0.v"),
        ("interp", dict(INTERP, x1=dict(INTERP["x1"], project_initial=True)),
         "x1.project_initial", None),
        ("embed", dict(EMBED, points=[dict(EMBED["points"][0], w=[0.0])]), "points[0].w", None),
        ("simulate", dict(PARTICLE_SIM, system={"builtin": "rolling_disk", "mus": []}),
         "system.mus", "system.mu"),
        ("simulate", dict(PARTICLE_SIM, integrator="reference",
                          deformation={"g": ["v_x*v_y"], "delt": 0.05}),
         "deformation.delt", "deformation.delta"),
    ],
)
def test_a_misspelled_key_exits_2_and_names_the_nearest_key(tmp_path, capsys, command, cfg, key,
                                                           near):
    # each of these ran as if the key were absent, and exited 0
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1, err
    hint = f"; did you mean {near!r}?" if near else ""
    assert err == f"config error: unknown key {key!r}{hint}\n"


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("embed", dict(EMBED, p=1), "p"),  # read with scheme exact only
        ("simulate", dict(PARTICLE_SIM, nodes="original"), "nodes"),
        ("converge", dict(CONVERGE, beta=0.5), "beta"),
    ],
)
def test_a_key_the_run_does_not_read_exits_2(tmp_path, capsys, command, cfg, key):
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"config error: {key!r} is read only with "), err


def test_interp_project_initial_repairs_an_off_d_start(tmp_path, capsys):
    cfg = dict(INTERP, x0={"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 0.5]})
    code, _ = run(tmp_path, "interp", cfg, subdir="as_given")
    assert code == 2 and "set project_initial" in capsys.readouterr().err
    code, out = run(tmp_path, "interp", dict(cfg, project_initial=True), subdir="repaired")
    assert code == 0, capsys.readouterr().err
    table = np.loadtxt(out / "interpolation.csv", delimiter=",", skiprows=1)
    # v projected onto D at q = (0, 1, 0), where v_z = y v_x; the residual column stays 0
    assert table[0, 4:7].tolist() == pytest.approx([0.75, 1.0, 0.75])
    assert np.max(np.abs(table[:, -1])) <= 1e-10


def _readme_config_blocks() -> dict[str, set[str]]:
    """command -> the keys of README.md's config block that starts with `// nonholo <command>`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    blocks = re.findall(r"```jsonc\n// nonholo (\w+)\n(.*?)```", text, re.S)
    return {command: set(re.findall(r'^  (?://\s*)?"(\w+)":', body, re.M))
            for command, body in blocks}


def test_readme_config_blocks_list_exactly_the_table_keys():
    blocks = _readme_config_blocks()
    assert sorted(blocks) == sorted(cli.KEYS)
    for command, keys in blocks.items():
        assert keys == set(cli.KEYS[command]), command
