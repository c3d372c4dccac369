"""Fingerprint the command line's output on a fixed set of configs.

    python3 tools/csv_gate.py [CHECKOUT]

Runs ``python -m nonholo.cli`` from ``CHECKOUT/src`` (default: the checkout
holding this script) on every config below, one fresh process each, and
prints one line per config with its exit code and one line per output file
with its sha256.  JSON files are hashed without ``runtime_seconds``, the
only field that changes between identical runs.  Two checkouts give the
same CSVs when the two printouts are equal::

    git worktree add ../parent HEAD~1
    python3 tools/csv_gate.py ../parent > parent.txt
    python3 tools/csv_gate.py > change.txt
    diff parent.txt change.txt

The set: the particle, the rolling disk with a potential started on D, and
the same disk started off D with ``project_initial``, each run by every
integrator (``dla`` with beta in {0, 0.3, 0.5, 1} on both node policies)
at eps = 0.01, plus ``vni20``, ``original_node`` and ``dla`` at eps = 0.1;
the reference flow on a deformed constraint set (the particle's, and the
disk's with two deformed constraints, started on that set, and the particle's
with a deformation whose rows cancel mu's, which fails the Gram certificate
at the start) and with ``project_each_step``;
two runs of ``converge`` (``vni10``, and ``original_node``, whose
``project_initial`` repairs the start at each step size); one of ``interp``;
five of ``embed``: ``vni10`` at
one point, then the Newton scheme ``vni20`` and the flow itself as the map
(``exact``) at five points, and ``vni10`` and ``vni20`` at one point of the
disk, whose stacked ``sin``/``cos`` evaluation takes the column kernels (with
``vni20``, for the Hessian of V too, in lockstep Newton with m = 2); an
unconstrained system (m = 0), the 2-d oscillator, run by every integrator (``dla`` at beta 0.5), ``embed``
(``vni10``) and ``interp``, and by ``reference`` and ``vni10`` from
v = (-0.0, -0.0), where the sign of each zero reaches the CSV; a potential with an
integer power above 8 at a negative base; a system whose ``V`` and ``mu`` use
every function and a non-integer power, run by ``reference``, ``vni20`` and
``dla`` and by ``embed`` (``vni10`` and ``vni20``, from its projected start),
which keeps the per-row kernels, the Hessian's included; ``embed`` (``vni10``) on a
2-d system with one constraint, whose lift A = B^-1 mu_base has one base
column (n - m = 1, where the particle's has two); then runs that fail
at runtime, and configs that misuse a key, ask for a huge step or sample
count or start outside the system's domain.  Each
discrete scheme meets three runtime failures that stop at a fixed row: a start
whose energy overflows (no row), a start of finite energy whose first node
overflows (one row), and a start whose initial row fails while it is recorded,
because its deformed residual evaluates ``log`` outside its domain (no row).
A config that runs longer than ``TIMEOUT_S`` is stopped and printed as
``exit timeout``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

# Seconds one config may run; the slowest takes a few seconds.
TIMEOUT_S = 60

PARTICLE = {"system": "nonholonomic_particle", "q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]}

DISK_SYSTEM = {
    "names": ["x", "y", "th", "ph"],
    "M": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.5]],
    "V": "(x^2+y^2)/2 + 0.1*(1-cos(th))",
    "mu": [["1", "0", "0", "-0.5*cos(th)"], ["0", "1", "0", "-0.5*sin(th)"]],
}
_TH, _W_TH, _W_PH = 0.3, 0.4, 1.2
DISK_ON_D = {
    "system": DISK_SYSTEM,
    "q": [1.0, 0.0, _TH, 0.0],
    "v": [0.5 * math.cos(_TH) * _W_PH, 0.5 * math.sin(_TH) * _W_PH, _W_TH, _W_PH],
}
DISK_OFF_D = {**DISK_ON_D, "v": [0.7, -0.2, _W_TH, _W_PH], "project_initial": True}

# x'' = 4 x^3 from x = 1 blows up in finite time.
QUARTIC = {
    "system": {"names": ["x"], "M": [[1.0]], "V": "-(x^4)", "mu": []},
    "q": [1.0], "v": [0.0], "eps": 0.01, "T": 10.0,
}
# x'' = -1/x from x = 1, v = -1 reaches x = 0, where log(x) is undefined.
LOG_WELL = {
    "system": {"names": ["x"], "M": [[1.0]], "V": "log(x)", "mu": []},
    "integrator": "reference", "q": [1.0], "v": [-1.0], "eps": 0.01, "T": 5.0,
}
# x'' = -x^9 from x = -0.5: an integer power above 8 at a negative base
POWER10 = {
    "system": {"names": ["x"], "M": [[1.0]], "V": "x^10/10", "mu": []},
    "q": [-0.5], "v": [0.0], "eps": 0.01, "N": 200,
}
SIM = {**PARTICLE, "integrator": "vni10", "eps": 0.01, "N": 20}
DLA = {**SIM, "integrator": "dla", "beta": 0.5}
EMBED = {
    "system": "nonholonomic_particle", "scheme": "vni10", "eps": 0.1, "base_step": 0.01,
    "q0": [0.0, 1.0, 0.0], "points": [{"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]}],
    "order_levels": 3,
}
# five admissible particle states, v_z = y v_x exactly
EMBED_POINTS = {**EMBED, "scheme": "vni20", "points": [
    {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]},
    {"q": [0.2, 0.5, -0.1], "v": [0.5, -1.0, 0.25]},
    {"q": [-0.3, 1.5, 0.2], "v": [-1.0, 0.5, -1.5]},
    {"q": [0.1, 2.0, 0.0], "v": [0.25, 0.0, 0.5]},
    {"q": [0.4, 0.75, 0.3], "v": [2.0, -0.5, 1.5]},
]}
INTERP = {
    "system": "nonholonomic_particle", "eps": 0.1,
    "x0": {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]},
    "x1": {"q": [0.1, 1.1, 0.1], "v": [1.0, 1.0, 1.1]},
}
CONVERGE = {**PARTICLE, "integrator": "vni10", "T": 0.25, "eps_list": [0.02, 0.01, 0.005, 0.0025]}
CONVERGE_ORIGINAL_NODE = {**CONVERGE, "integrator": "original_node", "project_initial": True,
                          "T": 0.2}
# mu v + delta v_x v_y = 0 holds at this start
DEFORMED = {**PARTICLE, "integrator": "reference", "v": [1.0, 1.0, 0.95], "eps": 0.01, "N": 200,
            "deformation": {"g": ["v_x*v_y"], "delta": 0.05}}
# The disk (m = 2) on its deformed set mu v + delta (v_x v_th, v_y v_ph) = 0, solved for (v_x, v_y).
_DELTA = 0.05
DISK_DEFORMED = {
    **DISK_ON_D, "integrator": "reference", "eps": 0.01, "N": 200,
    "v": [0.5 * math.cos(_TH) * _W_PH / (1.0 + _DELTA * _W_TH),
          0.5 * math.sin(_TH) * _W_PH / (1.0 + _DELTA * _W_PH), _W_TH, _W_PH],
    "deformation": {"g": ["v_x*v_th", "v_y*v_ph"], "delta": _DELTA},
}
# delta dg/dv = (y, 0, -1) cancels mu = (-y, 0, 1): the deformed Gram matrix is zero.
DEFORMED_RANK_LOSS = {**DEFORMED, "v": PARTICLE["v"], "N": 20,
                      "deformation": {"g": ["y*v_x - v_z"], "delta": 1.0}}
# Every function of the language and a non-integer power, in V and in mu,
# so that the byte comparison reaches every branch of the kernel generator.
FUNCS_SYSTEM = {
    "names": ["x", "y", "z"],
    "M": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
    "V": "log(1 + x^2)/2 + 0.1*tanh(y) + 0.05*exp(0.2*z) + 0.01*(2 + x^2)^1.5",
    "mu": [["0.1*tan(0.3*x)", "cot(1 + 0.1*y^2)", "sqrt(1 + z^2)"]],
}
FUNCS_START = {"system": FUNCS_SYSTEM, "q": [0.2, 0.3, 0.1], "v": [0.5, -0.4, 0.3],
               "project_initial": True, "eps": 0.01, "N": 200}
# `embed` evaluates stacks of configurations: the disk's sin and cos take
# the column kernels, the functions system's tan, cot, log, tanh, exp and
# non-integer power the per-row kernels.
DISK_EMBED = {**EMBED, "system": DISK_SYSTEM, "q0": DISK_ON_D["q"],
              "points": [{"q": DISK_ON_D["q"], "v": DISK_ON_D["v"]}]}
FUNCS_EMBED = {**EMBED, "system": FUNCS_SYSTEM, "q0": FUNCS_START["q"], "project_initial": True,
               "points": [{"q": FUNCS_START["q"], "v": FUNCS_START["v"]}]}
# n - m = 1: the fiber is y (its entry of mu is 1), the one base column is x.
ONE_CONSTRAINT_2D_EMBED = {
    **EMBED, "system": {"names": ["x", "y"], "M": [[1, 0], [0, 2]], "V": "x^2/2", "mu": [["y", "1"]]},
    "q0": [0.3, 0.5], "points": [{"q": [0.3, 0.5], "v": [1.0, -0.5]}],
}
# One step of eps * v = 1e309 overflows the configuration to infinity; so
# does the kinetic energy 1/2 |v|^2 of the start.
OVERFLOW = {
    "system": {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["1", "-1"]]},
    "q": [0.0, 0.0], "v": [1e306, 1e306], "eps": 1000.0, "N": 3,
}
# The start's energy 1e300 is finite; one step of eps * v = 1e310 overflows.
OVERFLOW_FINITE_ENERGY = {**OVERFLOW, "v": [1e150, 1e150], "eps": 1e160}
# m = 0: the constrained code runs on zero-row arrays, D is all of TQ.
OSCILLATOR_SYSTEM = {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "(x^2+y^2)/2",
                     "mu": []}
OSCILLATOR_START = {"q": [1.0, 0.5], "v": [0.0, 1.0]}
OSCILLATOR = {"system": OSCILLATOR_SYSTEM, **OSCILLATOR_START}
# y and v_y stay zero from this start, so the CSV shows the sign of every zero they take.
OSCILLATOR_NEG_ZERO = {**OSCILLATOR, "q": [1.0, 0.0], "v": [-0.0, -0.0]}
# log(x) in mu is undefined at the start q = (-1, 0)
LOG_MU = {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0", "mu": [["log(x)", "1"]]}
LOG_MU_START = {"q": [-1.0, 0.0], "v": [0.0, 0.0]}
# An admissible start where log(x) in mu is defined, but not at q - eps/2 v,
# where the initial row's deformed residual evaluates it.
RECORD_LOG_MU = {"system": LOG_MU, "q": [0.004, 0.0], "v": [1.0, 5.521460917862246],
                 "eps": 0.01, "N": 5}


def _runs(start: dict) -> list[tuple[str, dict]]:
    """The integrators of the fixed set, from one start."""
    on_deformed = {"project_initial": True}  # original_node keeps the deformed set
    runs = [
        (name, {**start, "integrator": name, "eps": 0.01, "N": 200})
        for name in ("reference", "vni10", "vni20")
    ]
    runs.append(("original_node", {**start, **on_deformed, "integrator": "original_node",
                                   "eps": 0.01, "N": 200}))
    for beta in (0.0, 0.3, 0.5, 1.0):
        for nodes in ("redefined", "original"):
            runs.append((f"dla_b{beta}_{nodes}", {**start, "integrator": "dla", "beta": beta,
                                                  "nodes": nodes, "eps": 0.01, "N": 200}))
    runs.append(("vni20_eps0.1", {**start, "integrator": "vni20", "eps": 0.1, "N": 50}))
    runs.append(("original_node_eps0.1", {**start, **on_deformed, "integrator": "original_node",
                                          "eps": 0.1, "N": 50}))
    runs.append(("dla_eps0.1", {**start, "integrator": "dla", "beta": 0.5, "eps": 0.1, "N": 50}))
    return runs


def configs() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every run, in the order they are printed."""
    out = []
    for system, start in (("particle", PARTICLE), ("disk", DISK_ON_D), ("disk_off_d", DISK_OFF_D)):
        out += [(f"{system}/{name}", "simulate", cfg) for name, cfg in _runs(start)]
    out += [("other/converge", "converge", CONVERGE),
            ("other/converge_original_node", "converge", CONVERGE_ORIGINAL_NODE),
            ("other/interp", "interp", INTERP),
            ("other/embed", "embed", EMBED),
            ("other/embed_vni20_points", "embed", EMBED_POINTS),
            ("other/embed_exact", "embed", {**EMBED_POINTS, "scheme": "exact", "p": 1}),
            ("disk/embed", "embed", DISK_EMBED),
            ("disk/embed_vni20", "embed", {**DISK_EMBED, "scheme": "vni20"}),
            ("other/deformed_reference", "simulate", DEFORMED),
            ("other/disk_deformed_reference", "simulate", DISK_DEFORMED),
            ("other/deformed_rank_loss", "simulate", DEFORMED_RANK_LOSS)]
    out += [(f"other/{system}_project_each_step", "simulate",
             {**start, "integrator": "reference", "project_each_step": True, "eps": 0.01, "N": 200})
            for system, start in (("particle", PARTICLE), ("disk_off_d", DISK_OFF_D))]
    every_integrator = [("reference", {}), ("vni10", {}), ("vni20", {}), ("original_node", {}),
                        ("dla", {"beta": 0.5})]
    out += [(f"oscillator/{name}", "simulate",
             {**OSCILLATOR, "integrator": name, "eps": 0.01, "N": 200, **extra})
            for name, extra in every_integrator]
    out += [(f"oscillator/{name}_negative_zero", "simulate",
             {**OSCILLATOR_NEG_ZERO, "integrator": name, "eps": 0.01, "N": 200})
            for name in ("reference", "vni10")]
    out += [("oscillator/embed", "embed", {**EMBED, "system": OSCILLATOR_SYSTEM,
                                           "q0": OSCILLATOR_START["q"],
                                           "points": [OSCILLATOR_START]}),
            ("oscillator/interp", "interp", {**INTERP, "system": OSCILLATOR_SYSTEM,
                                             "x0": OSCILLATOR_START,
                                             "x1": {"q": [1.5, 0.0], "v": [-1.0, 2.0]}})]
    out += [(f"other/power10_{name}", "simulate", {**POWER10, "integrator": name})
            for name in ("reference", "vni20")]
    out += [(f"other/funcs_{name}", "simulate", {**FUNCS_START, "integrator": name, **extra})
            for name, extra in (("reference", {}), ("vni20", {}), ("dla", {"beta": 0.5}))]
    out += [("other/funcs_embed", "embed", FUNCS_EMBED),
            ("other/funcs_embed_vni20", "embed", {**FUNCS_EMBED, "scheme": "vni20"}),
            ("other/one_constraint_2d_embed", "embed", ONE_CONSTRAINT_2D_EMBED)]

    out += [(f"fail/quartic_{name}", "simulate", {**QUARTIC, "integrator": name, **extra})
            for name, extra in every_integrator]
    out.append(("fail/log_well_reference", "simulate", LOG_WELL))
    for label, start in (("overflow", OVERFLOW), ("overflow_finite_energy", OVERFLOW_FINITE_ENERGY),
                         ("record_log_mu", RECORD_LOG_MU)):
        out += [(f"fail/{label}_{name}", "simulate", {**start, "integrator": name, **extra})
                for name, extra in every_integrator[1:]]
    out.append(("fail/quartic_converge", "converge",
                {**QUARTIC, "integrator": "vni10", "eps_list": [0.02, 0.01, 0.005, 0.0025]}))

    misuse = [
        ("simulate", "beta_true", {**DLA, "beta": True}),
        ("simulate", "beta_string", {**DLA, "beta": "half"}),
        ("simulate", "beta_2", {**DLA, "beta": 2}),
        ("simulate", "delta_string", {**SIM, "integrator": "reference",
                                      "deformation": {"g": ["v_x*v_y"], "delta": "x"}}),
        ("simulate", "project_initial_string", {**SIM, "project_initial": "no"}),
        ("simulate", "project_each_step_string", {**SIM, "integrator": "reference",
                                                  "project_each_step": "no"}),
        ("simulate", "output_number", {**SIM, "output": 5}),
        ("embed", "base_step_negative", {**EMBED, "base_step": -1}),
        ("embed", "t_frac_string", {**EMBED, "t_frac": "x"}),
        ("embed", "p_string", {**EMBED, "scheme": "exact", "p": "x"}),
        ("embed", "base_step_string", {**EMBED, "base_step": "x"}),
        ("embed", "order_levels_string", {**EMBED, "order_levels": "x"}),
        ("embed", "order_levels_0", {**EMBED, "order_levels": 0}),
        ("embed", "p_0", {**EMBED, "scheme": "exact", "p": 0}),
        ("interp", "samples_string", {**INTERP, "samples": "x"}),
        ("interp", "samples_1e20", {**INTERP, "samples": 1e20}),
        ("converge", "eps_list_string", {**CONVERGE, "eps_list": [0.02, "x", 0.005, 0.0025]}),
        ("converge", "eps_list_true", {**CONVERGE, "eps_list": [0.02, 0.01, 0.005, True]}),
        ("simulate", "start_outside_mu_domain", {**SIM, "system": LOG_MU, **LOG_MU_START}),
        ("interp", "start_outside_mu_domain", {**INTERP, "system": LOG_MU, "x0": LOG_MU_START,
                                               "x1": {"q": [1.0, 0.0], "v": [0.0, 0.0]}}),
        ("converge", "start_outside_mu_domain", {**CONVERGE, "system": LOG_MU, **LOG_MU_START}),
        ("simulate", "project_initial_rank_loss", {
            **SIM, "system": {"names": ["x", "y"], "M": [[1.0, 0.0], [0.0, 1.0]], "V": "0",
                              "mu": [["x", "0"]]},
            "q": [0.0, 0.0], "v": [1.0, 1.0], "project_initial": True}),
        ("simulate", "q_string", {**SIM, "q": "abc"}),
        ("simulate", "q_entry_string", {**SIM, "q": [0.0, "x", 0.0]}),
        ("simulate", "g_entry_number", {**DEFORMED, "deformation": {"g": [5], "delta": 0.05}}),
        ("simulate", "g_unknown_name", {**DEFORMED,
                                        "deformation": {"g": ["v_x*q"], "delta": 0.05}}),
        ("simulate", "v_not_an_expression", {**QUARTIC, "integrator": "reference",
                                             "system": {**QUARTIC["system"], "V": 5}}),
        ("simulate", "end_time_overflow", {**SIM, "integrator": "reference", "eps": 1e308, "N": 2}),
        ("simulate", "output_dot", {**SIM, "output": "."}),
        ("simulate", "steps_1e20", {**SIM, "N": 1e20}),
        ("simulate", "steps_2e16", {**SIM, "N": 24001854256926364.0}),
        ("converge", "eps_list_denormal", {**CONVERGE, "eps_list": [0.02, 0.01, 0.005, 1e-320]}),
        ("converge", "oracle_steps_1e304", {**CONVERGE, "T": 1e300}),
        ("embed", "base_step_1e-300", {**EMBED, "base_step": 1e-300}),
    ]
    out += [(f"misuse/{command}_{name}", command, cfg) for command, name, cfg in misuse]
    return out


def digest(path: str) -> str:
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("runtime_seconds", None)
        data = json.dumps(payload, sort_keys=True).encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    checkout = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isdir(os.path.join(src, "nonholo")):
        print(f"no src/nonholo under {checkout}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as work:
        for i, (name, command, cfg) in enumerate(configs()):
            cfg_path = os.path.join(work, f"{i}.json")
            out_dir = os.path.join(work, str(i))
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "nonholo.cli", command, "--config", cfg_path,
                     "--out", out_dir],
                    env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                # what a stopped run left behind depends on when it stopped
                print(f"{name} exit timeout")
                continue
            print(f"{name} exit {proc.returncode}")
            if os.path.isdir(out_dir):
                for fname in sorted(os.listdir(out_dir)):
                    print(f"{name}/{fname} {digest(os.path.join(out_dir, fname))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
