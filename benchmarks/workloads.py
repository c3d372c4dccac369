"""The benchmark's three workloads: seeded inputs, operations and output checks.

Every operation is one in-process call of ``nonholo.cli.main`` on a JSON
config that this module generates from the workload seed.  Inputs are made
with the standard library only, so the parent process and the set-up probe
can write and read them before numpy is imported; the output checks import
numpy when they run.

The checks never trust the program's own diagnostics: residuals and
energies are recomputed here from the states in the written CSV, with
formulas for the two systems written out independently of ``nonholo``.
Every check is a tolerance, never a bitwise comparison.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("particle_flow", "disk_newton", "particle_embed")
MAIN_SEED = 0
# A later claim must also hold on this seed, which is not used while a
# change is being written.
HOLDOUT_SEED = 1

SCHEMES = ("vni10", "vni20", "original_node", "dla")
PARTICLE_START = {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 1.0]}

RESIDUAL_TOL = 1e-9
ENDPOINT_TOL = 1e-9
# Largest |E - E0| / max(1, |E0|) over a run; first-order schemes drift by
# O(eps), second-order ones by O(eps^2), the reference flow not at all.
ENERGY_DRIFT_TOL = {
    "reference": 1e-10,
    "vni10": 5e-2,
    "original_node": 5e-2,
    "vni20": 1e-3,
    "dla": 1e-3,
}
CONVERGE_SLOPE, CONVERGE_SLOPE_TOL = 2.0, 0.15
EMBED_ENDPOINT_TOL = 1e-10
EMBED_PERIODICITY_TOL = 1e-8
EMBED_ORDER, EMBED_ORDER_TOL = 1.0, 0.15

# Spans of the traced run that must fire at least once on each workload:
# the layer table in README.md maps these functions to the workload.
EXPECTED_SPANS = {
    "particle_flow": (
        "exprdiff.parse", "exprdiff.evaluate", "exprdiff.gradient",
        "system.mu_at", "system.mu_jac_at", "system.grad_v_at", "system.c_matrix",
        "system.project_velocity", "system.constraint_residual", "system.energy",
        "reduction.h_field", "reduction._lambda_raw",
        "flow.rk4_step", "flow.integrate", "flow.Trajectory.to_csv",
        "discrete.run_integrator", "discrete.vni10_step", "discrete.vni20_step",
        "discrete.original_node_step", "discrete.dla_step", "discrete.newton_solve",
        "discrete.DiscreteNonholonomicSystem.check_regularity",
        "discrete.deformed_admissible_velocity", "discrete.DiscreteTrajectory.to_csv",
        "cli.main", "cli.build_system",
    ),
    "disk_newton": (
        "exprdiff.parse", "exprdiff.evaluate", "exprdiff.gradient", "exprdiff.hessian",
        "system.mu_at", "system.mu_jac_at", "system.grad_v_at", "system.hess_v_at",
        "system.constraint_residual", "system.energy",
        "reduction.h_field", "reduction._lambda_raw", "reduction.lambda_continuous",
        "flow.rk4_step", "flow.integrate", "flow.reference_flow",
        "discrete.run_integrator", "discrete.vni10_step", "discrete.vni20_step",
        "discrete.original_node_step", "discrete.dla_step", "discrete.newton_solve",
        "discrete.DiscreteNonholonomicSystem.check_regularity",
        "discrete.deformed_admissible_velocity", "discrete.DiscreteTrajectory.to_csv",
        "cli.main", "cli.build_system", "cli.convergence_study",
    ),
    "particle_embed": (
        "exprdiff.parse", "exprdiff.evaluate", "exprdiff.gradient",
        "system.mu_at", "system.mu_jac_at", "system.grad_v_at", "system.a_at",
        "reduction.h_field", "reduction.reduced_field", "reduction.psi_embed",
        "reduction.reduce_state",
        "flow.rk4_step", "flow.flow_field",
        "discrete.vni10_step",
        "embed.verify_embedding", "embed.EvolutionInterpolant.g_eval",
        "embed.EvolutionInterpolant.g_tilde", "embed.EvolutionInterpolant.g_tilde_dtau",
        "embed.EvolutionInterpolant._fd_jacobian",
        "cli.main", "cli.build_system",
    ),
}


@dataclass(frozen=True)
class Op:
    """One call of the command line: ``nonholo <command> --config <name>.json``."""

    name: str
    command: str
    config: dict
    system: str  # "particle" or "disk": which independent check formulas apply
    extra_args: tuple[str, ...] = ()

    def argv(self, work_dir: str) -> list[str]:
        return [
            self.command,
            "--config", os.path.join(work_dir, self.name + ".json"),
            "--out", os.path.join(work_dir, self.name),
            *self.extra_args,
        ]


def rolling_disk() -> dict:
    """The rolling disk with a potential, as a full ``system`` config object."""
    with open(os.path.join(DATA, "rolling_disk.json")) as fh:
        return json.load(fh)


def reference_endpoint() -> list[float]:
    """(q, v) at T = 1 of the particle's reference flow, recorded with the benchmark."""
    with open(os.path.join(DATA, "particle_reference_endpoint.json")) as fh:
        return json.load(fh)["endpoint"]


def _scheme_config(start: dict, scheme: str, eps: float, steps: int) -> dict:
    cfg = {**start, "integrator": scheme, "eps": eps, "N": steps}
    if scheme == "original_node":
        # that scheme keeps the deformed constraint set, so repair onto it
        cfg["project_initial"] = True
    if scheme == "dla":
        cfg["beta"] = 0.5
    return cfg


def _disk_start(rng: random.Random) -> dict:
    """q = (1, 0, th, 0) with seeded heading and rates, exactly admissible."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    w_th = rng.uniform(-1.0, 1.0)
    w_ph = rng.uniform(0.5, 1.5)
    v = [0.5 * math.cos(th) * w_ph, 0.5 * math.sin(th) * w_ph, w_th, w_ph]
    return {"q": [1.0, 0.0, th, 0.0], "v": v}


def _embed_points(rng: random.Random, count: int = 20) -> list[dict]:
    """Admissible particle states near q = (0, 1, 0): v_z = y v_x exactly."""
    points = []
    for _ in range(count):
        q = [rng.gauss(0.0, 0.5), 1.0 + rng.gauss(0.0, 0.5), rng.gauss(0.0, 0.5)]
        vx, vy = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        points.append({"q": q, "v": [vx, vy, q[1] * vx]})
    return points


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one pass over the workload, in the order they run."""
    rng = random.Random(seed)
    if workload == "particle_flow":
        # the standard start; the seed does not enter this workload
        ops = [Op("reference", "simulate",
                  {**PARTICLE_START, "integrator": "reference", "eps": 1e-4, "T": 1.0},
                  "particle")]
        ops += [Op(s, "simulate", _scheme_config(PARTICLE_START, s, 0.01, 1000), "particle")
                for s in SCHEMES]
        return ops
    if workload == "disk_newton":
        start = {"system": rolling_disk(), **_disk_start(rng)}
        ops = [Op(s, "simulate", _scheme_config(start, s, 0.01, 2000), "disk") for s in SCHEMES]
        ops.append(Op(
            "converge", "converge", {**start, "integrator": "vni20", "T": 0.5}, "disk",
            ("--eps-list", "0.02,0.01,0.005,0.0025", "--jobs", "1"),
        ))
        return ops
    if workload == "particle_embed":
        cfg = {
            "system": "nonholonomic_particle",
            "scheme": "vni10",
            "eps": 0.1,
            "base_step": 0.01,
            "q0": PARTICLE_START["q"],
            "points": _embed_points(rng),
            "order_levels": 5,
        }
        return [Op("embed", "embed", cfg, "particle")]
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def write_inputs(ops: list[Op], work_dir: str) -> None:
    for op in ops:
        with open(os.path.join(work_dir, op.name + ".json"), "w") as fh:
            json.dump(op.config, fh, indent=1)


# --- output checks (numpy from here on) -----------------------------------------


def _particle(q, v):
    import numpy as np

    mu = np.zeros((len(q), 1, 3))
    mu[:, 0, 0] = -q[:, 1]
    mu[:, 0, 2] = 1.0
    return mu, 0.5 * np.sum(v * v, axis=1)


def _disk(q, v):
    import numpy as np

    x, y, th = q[:, 0], q[:, 1], q[:, 2]
    mu = np.zeros((len(q), 2, 4))
    mu[:, 0, 0] = 1.0
    mu[:, 0, 3] = -0.5 * np.cos(th)
    mu[:, 1, 1] = 1.0
    mu[:, 1, 3] = -0.5 * np.sin(th)
    kinetic = 0.5 * (v[:, 0] ** 2 + v[:, 1] ** 2 + 0.25 * v[:, 2] ** 2 + 0.5 * v[:, 3] ** 2)
    return mu, kinetic + 0.5 * (x * x + y * y) + 0.1 * (1.0 - np.cos(th))


_MODELS = {"particle": (_particle, 3), "disk": (_disk, 4)}


def _check_simulate(op: Op, out_dir: str) -> list[str]:
    import numpy as np

    table = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",", skiprows=1, ndmin=2)
    cfg = op.config
    steps = cfg["N"] if "N" in cfg else round(cfg["T"] / cfg["eps"])
    if table.shape[0] != steps + 1:
        return [f"{op.name}: {table.shape[0]} rows, expected {steps + 1}"]
    model, n = _MODELS[op.system]
    q, v = table[:, 1 : 1 + n], table[:, 1 + n : 1 + 2 * n]
    scheme = cfg["integrator"]
    where = q - 0.5 * cfg["eps"] * v if scheme == "original_node" else q
    mu, _ = model(where, v)
    _, energy = model(q, v)
    problems = []
    residual = float(np.max(np.abs(np.einsum("kai,ki->ka", mu, v))))
    if not residual <= RESIDUAL_TOL:
        kind = "deformed" if scheme == "original_node" else "plain"
        problems.append(f"{op.name}: {kind} residual {residual:.3e} > {RESIDUAL_TOL:g}")
    drift = float(np.max(np.abs(energy - energy[0]))) / max(1.0, abs(energy[0]))
    if not drift <= ENERGY_DRIFT_TOL[scheme]:
        problems.append(f"{op.name}: energy drift {drift:.3e} > {ENERGY_DRIFT_TOL[scheme]:g}")
    if op.system == "particle" and scheme == "reference":
        gap = float(np.max(np.abs(table[-1, 1 : 1 + 2 * n] - np.array(reference_endpoint()))))
        if not gap <= ENDPOINT_TOL:
            problems.append(f"{op.name}: endpoint off the recorded one by {gap:.3e}")
    return problems


def _check_converge(op: Op, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "study.json")) as fh:
        study = json.load(fh)
    problems = []
    if study["failures"] or len(study["eps"]) != 4:
        problems.append(f"{op.name}: failed step sizes {study['failures']}")
    slope = study["state_slope"]
    if slope is None or not abs(slope - CONVERGE_SLOPE) <= CONVERGE_SLOPE_TOL:
        problems.append(f"{op.name}: state slope {slope}, expected 2 +- {CONVERGE_SLOPE_TOL}")
    return problems


def _check_embed(op: Op, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "embedding.json")) as fh:
        report = json.load(fh)
    problems = []
    if not report["endpoint_mismatch"] <= EMBED_ENDPOINT_TOL:
        problems.append(f"{op.name}: endpoint mismatch {report['endpoint_mismatch']:.3e}")
    if not report["periodicity_defect"] <= EMBED_PERIODICITY_TOL:
        problems.append(f"{op.name}: periodicity defect {report['periodicity_defect']:.3e}")
    p = report["measured_p"]
    if p is None or not abs(p - EMBED_ORDER) <= EMBED_ORDER_TOL:
        problems.append(f"{op.name}: measured order {p}, expected 1 +- {EMBED_ORDER_TOL}")
    return problems


_CHECKS = {"simulate": _check_simulate, "converge": _check_converge, "embed": _check_embed}


def check_output(op: Op, work_dir: str) -> list[str]:
    """Problems found in the files one operation wrote; empty when it passed."""
    try:
        return _CHECKS[op.command](op, os.path.join(work_dir, op.name))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{op.name}: output unreadable ({type(exc).__name__}: {exc})"]
