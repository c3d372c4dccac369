"""End-to-end runs of the command line harness against temp directories."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonholo
from nonholo import cli
from nonholo.cli import INTEGRATORS, ConfigError, build_parser, convergence_study, main

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
    assert code == 3  # on-D start is not on the deformed set this scheme keeps
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the salvaged initial row
    assert "deformed" in capsys.readouterr().err

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


QUARTIC = {  # x'' = 4 x^3 from x = 1 blows up in finite time
    "system": {"names": ["x"], "M": [[1.0]], "V": "-(x^4)", "mu": []},
    "eps": 0.01,
    "T": 10.0,
    "q": [1.0],
    "v": [0.0],
}


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


def _fresh_simulate(tmp_path, cfg) -> int:
    """`simulate`'s exit code in a fresh interpreter, whose warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nonholo.__file__)),
           "PYTHONWARNINGS": "default"}
    proc = subprocess.run(
        [sys.executable, "-m", "nonholo.cli", "simulate", "--config", write_config(tmp_path, cfg),
         "--out", str(tmp_path / "out")],
        env=env,
    )
    return proc.returncode


@pytest.mark.parametrize("integrator", ["vni10", "vni20", "original_node", "dla"])
def test_failure_while_recording_salvages_the_rows_before(tmp_path, capsys, integrator):
    # the start is admissible, but its deformed residual takes mu at
    # q - eps/2 v, whose x = -0.001 lies outside the domain of log
    cfg = {"system": LOG_MU, "integrator": integrator, "q": [0.004, 0.0],
           "v": [1.0, 5.521460917862246], "eps": 0.01, "N": 5}
    if integrator == "dla":
        cfg["beta"] = 0.5
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines == [lines[0]]  # the header: the initial row failed while it was recorded


def test_failure_message_names_the_step(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", dict(QUARTIC, integrator="vni10"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step 98, t = 0.98: ")
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 98


def test_converge_failed_oracle_exits_3(tmp_path, capsys):
    cfg = dict(QUARTIC, integrator="vni10", eps_list=[0.02, 0.01, 0.005, 0.0025])
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
        dict(PARTICLE_SIM, system="rolling_disk"),
        dict(PARTICLE_SIM, beta=0.5),  # beta without the two-point scheme
        dict(PARTICLE_SIM, nodes="midpoint"),
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


def test_converge_pool_matches_serial(tmp_path):
    code_a, out_a = run(tmp_path, "converge", CONVERGE, subdir="serial")
    code_b, out_b = run(tmp_path, "converge", CONVERGE, "--jobs", "2", subdir="pool")
    assert code_a == code_b == 0
    a = (out_a / "convergence.csv").read_bytes()
    b = (out_b / "convergence.csv").read_bytes()
    assert a == b, "worker pool changed the numbers or their order"


def test_converge_pool_starts_no_more_workers_than_step_sizes(tmp_path, monkeypatch):
    # the pool starts all its workers at once, so --jobs above the number of
    # step sizes would fork workers that get no task
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    code, _ = run(tmp_path, "converge", CONVERGE, "--jobs", "6", subdir="capped")
    assert code == 0
    assert sizes == [len(CONVERGE["eps_list"])]


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
    ],
)
def test_other_command_config_errors(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2, f"config should be rejected: {cfg}"
    assert capsys.readouterr().err.startswith("config error:")


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


def test_jobs_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("NONHOLO_JOBS", "3")
    args = build_parser().parse_args(["converge", "--config", "x.json"])
    assert args.jobs == 3
    monkeypatch.setenv("NONHOLO_JOBS", "not-a-number")
    args = build_parser().parse_args(["converge", "--config", "x.json"])
    assert args.jobs == 1


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
        ("dla", {"beta": 0.0, "nodes": "original"}),
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


@st.composite
def _simulate_configs(draw):
    cfg = dict(draw(st.sampled_from(_BASES)))
    for key in draw(st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=3, unique=True)):
        how = draw(st.sampled_from(["drop", "plausible", "junk"]))
        if how == "drop":
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_MUTATIONS[key] if how == "plausible" else _junk)
    if _is_number(cfg.get("N")) and cfg["N"] > 3:
        cfg["N"] = 3
    if "T" in cfg or draw(st.booleans()):
        # a T of at most three steps, in place of N
        cfg.pop("N", None)
        eps = cfg.get("eps")
        cfg["T"] = eps * draw(st.floats(0.0, 3.4)) if _is_number(eps) else draw(_junk)
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_simulate_configs())
def test_fuzzed_simulate_config_exits_0_2_or_3(cfg):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "run.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["simulate", "--config", path, "--out", os.path.join(work, "out")]) in (0, 2, 3)
