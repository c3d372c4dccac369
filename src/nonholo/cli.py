"""Batch harness: run simulations and studies described by a JSON config file.

Four subcommands share a common shape::

    nonholo simulate --config run.json [--out DIR]
    nonholo converge --config run.json [--out DIR] [--eps-list a,b,c]
    nonholo embed    --config run.json [--out DIR]
    nonholo interp   --config run.json [--out DIR]

Exit codes: 0 on success, 2 on configuration problems, 3 on failure at
runtime, domain errors of expressions included (rows computed are written).
Output data files are deterministic: identical configs produce
byte-identical CSVs, and timing lives only in the JSON summaries.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import exprdiff
from .discrete import (
    SCHEMES,
    NodePolicy,
    _scheme_run,
    deformed_admissible_velocity,
    run_integrator,
)
from .embed import (
    exact_step_map,
    interpolate_in_D,
    reduced_problem,
    reduced_step_map,
    verify_embedding,
)
from .flow import _QUIET, REFERENCE_STEP, RUNTIME_ERRORS, integrate, reference_flow, write_csv
from .reduction import DeformedConstraint, deformed_residual, lambda_continuous, reduce_state
from .system import (
    BUILTIN_FIELDS,
    MechanicalSystem,
    StatePoint,
    SystemError,
    _require_admissible,
    _require_finite,
    _require_steps,
    constraint_residual,
    deformed_node_residual,
    derive_connection,
    project_velocity,
)

INTEGRATORS = ("reference", *SCHEMES)

# The keys only some runs read: key -> command -> the integrators that read it; the rest refuse it.
RUN_KEYS = {
    "beta": {"simulate": ("dla",), "converge": ("dla",)},
    "nodes": {"simulate": ("dla",), "converge": ("dla",)},
    "deformation": {"simulate": ("reference",)},
    "project_each_step": {"simulate": ("reference",)},
}


class ConfigError(Exception):
    """The config file cannot be turned into a valid run."""


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def build_system(desc) -> MechanicalSystem:
    """Construct the mechanical system named or described by the config.

    A bare string picks a builtin.  An object either describes a system in
    full ({names, M, V, mu}) or starts from {"builtin": name} and overrides
    individual fields.
    """
    if isinstance(desc, str):
        desc = {"builtin": desc}
    if not isinstance(desc, dict):
        raise ConfigError("'system' must be a builtin name or an object")
    fields = {}
    if "builtin" in desc:
        name = desc["builtin"]
        if name not in BUILTIN_FIELDS:
            raise ConfigError(
                f"unknown builtin system {name!r}; available: {sorted(BUILTIN_FIELDS)}"
            )
        fields.update(BUILTIN_FIELDS[name])
    for key in ("names", "M", "V", "mu"):
        if key in desc:
            fields[key] = desc[key]
    unknown = set(desc) - {"builtin", "names", "M", "V", "mu", "n"}
    if unknown:
        raise ConfigError(f"unknown system fields: {sorted(unknown)}")
    missing = {"names", "M", "V", "mu"} - set(fields)
    if missing:
        raise ConfigError(f"system description is missing {sorted(missing)}")
    if "n" in desc and desc["n"] != len(fields["names"]):
        raise ConfigError(
            f"system.n = {desc['n']} does not match {len(fields['names'])} names"
        )
    try:
        return MechanicalSystem(
            names=fields["names"],
            M=np.asarray(fields["M"], dtype=float),
            V=fields["V"],
            mu=fields["mu"],
        )
    except (SystemError, exprdiff.ExprSyntaxError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid system: {exc}") from None


def _vector(cfg: dict, key: str, n: int) -> np.ndarray:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"config is missing {key!r}")
    if not isinstance(raw, list) or len(raw) != n:
        raise ConfigError(f"{key!r} must be a list of {n} numbers, got {raw!r}")
    return np.array([_as_number(entry, f"{key}[{i}]") for i, entry in enumerate(raw)])


@contextlib.contextmanager
def _set_up(prefix: str = ""):
    """Set-up of a run: what the library refuses here is a config error, `prefix` + its message.

    numpy's overflow warnings are off: every value computed here is checked afterwards.
    """
    try:
        with np.errstate(**_QUIET):
            yield
    except RUNTIME_ERRORS as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _initial_state(cfg: dict, sys: MechanicalSystem, deformation=None, e=0.0) -> StatePoint:
    """(q, v) from the config, on the deformation's set if one is given, else on the
    set a scheme's nodes keep at step size e (`discrete._scheme_run`; e = 0 is D).

    project_initial projects v onto D and, for e > 0, repairs it onto the
    scheme's set; the start, repaired or not, is checked against the set the
    run keeps, so a projected start off a deformation's set is refused.
    """
    q = _vector(cfg, "q", sys.n)
    v = _vector(cfg, "v", sys.n)
    repair = _flag(cfg, "project_initial")
    with _set_up("initial state: "):
        if repair:
            v = project_velocity(sys, q, v)
            if e:
                v = deformed_admissible_velocity(sys, q, v, e)
        x = StatePoint(q, v)
        if deformation is not None:
            res = deformed_residual(sys, deformation, x.concat())
        else:
            res = deformed_node_residual(sys, x.concat(), e)
    with _set_up():
        if repair and deformation is not None:
            _require_admissible(res, "projected initial velocity is off the deformed set",
                                "project_initial repairs onto D only")
        elif repair:
            _require_admissible(res, "repaired initial velocity is not admissible")
        else:
            _require_admissible(res, "initial velocity is not admissible",
                                "set project_initial to repair it")
    return x


def _as_number(raw, what: str) -> float:
    """raw as a finite float; JSON booleans are not numbers here."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = np.nan
    if isinstance(raw, bool) or not np.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


def _number(cfg: dict, key: str, default: float | None = None) -> float:
    """cfg[key] (or the default) as a finite float."""
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"config is missing {key!r}")
    return _as_number(raw, key)


def _positive(cfg: dict, key: str, default: float | None = None) -> float:
    """Like `_number`, and the value must be > 0."""
    value = _number(cfg, key, default)
    if not value > 0.0:
        raise ConfigError(f"{key} must be positive and finite, got {cfg[key]!r}")
    return value


def _integer(cfg: dict, key: str, default: int | None = None, least: int = 0) -> int:
    """cfg[key] (or the default) as a whole number >= least; 2.0 counts, 2.5 and true do not."""
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"config is missing {key!r}")
    whole = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole or raw < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {raw!r}")
    return int(raw)


def _flag(cfg: dict, key: str) -> bool:
    """cfg[key] as JSON true or false, default false; "no" is not false."""
    raw = cfg.get(key, False)
    if not isinstance(raw, bool):
        raise ConfigError(f"{key} must be true or false, got {raw!r}")
    return raw


def _out_path(cfg: dict, key: str, default: str, out_dir: str) -> str:
    """A plain file name inside the output directory."""
    name = cfg.get(key, default)
    plain = isinstance(name, str) and name == os.path.basename(name) and "\0" not in name
    if not plain or name in ("", ".", ".."):
        raise ConfigError(f"{key} must be a file name, got {name!r}")
    return os.path.join(out_dir, name)


def _steps_and_set(cfg: dict, integ: str, beta, policy: NodePolicy) -> tuple[float, int, float]:
    """(eps, N, e): a run's step size and step count, and e of the set its nodes keep
    (`discrete._scheme_run`, whose refusal is a config error; e = 0 is D, the reference's too)."""
    eps = _positive(cfg, "eps")
    has_n, has_t = "N" in cfg, "T" in cfg
    if has_n == has_t:
        raise ConfigError("give exactly one of 'N' (step count) or 'T' (end time)")
    steps = _integer(cfg, "N") if has_n else _positive(cfg, "T") / eps
    with _set_up():
        _require_steps("N" if has_n else "T / eps", steps)
        N = steps if has_n else max(1, round(steps))
        if integ != "reference":
            return eps, N, _scheme_run(integ, eps, N, beta, policy)[2]
        _require_finite("the end time eps * N", eps * N)
    return eps, N, 0.0


def _integrator(cfg: dict, command: str, default: str) -> tuple[str, float | None, NodePolicy]:
    """The config's integrator with the two-point scheme's beta and node policy as given,
    for `_steps_and_set` to check; a key of RUN_KEYS that the run does not read is refused."""
    integ = cfg.get("integrator", default)
    if integ not in INTEGRATORS:
        raise ConfigError(f"unknown integrator {integ!r}; pick one of {INTEGRATORS}")
    for key, readers in RUN_KEYS.items():
        if key in cfg and integ not in readers.get(command, ()):
            raise ConfigError(f"{command} with {integ!r} does not read {key!r}")
    nodes = str(cfg.get("nodes", "redefined")).upper()
    if nodes not in NodePolicy.__members__:
        raise ConfigError("'nodes' must be 'redefined' or 'original'")
    return integ, _number(cfg, "beta") if "beta" in cfg else None, NodePolicy[nodes]


def _deformation(cfg: dict, sys: MechanicalSystem) -> DeformedConstraint | None:
    if "deformation" not in cfg:
        return None
    desc = cfg["deformation"]
    if not isinstance(desc, dict) or set(desc) - {"g", "delta"}:
        raise ConfigError("'deformation' must be an object with keys 'g' and 'delta'")
    g = desc.get("g")
    if not isinstance(g, list) or len(g) != sys.m or not all(isinstance(e, str) for e in g):
        raise ConfigError(f"deformation.g must list {sys.m} expression strings, got {g!r}")
    try:
        exprs = [exprdiff.parse(text) for text in g]
    except exprdiff.ExprSyntaxError as exc:
        raise ConfigError(f"bad deformation expression: {exc}") from None
    extra = set().union(*map(exprdiff.free_variables, exprs)) - {*sys.names, *sys.vnames}
    if extra:
        raise ConfigError(f"unknown variables in deformation.g: {sorted(extra)}")
    return DeformedConstraint(g=exprs, delta=_number(desc, "delta", 0.0))


# --- simulate -------------------------------------------------------------------


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    sys = build_system(cfg.get("system", "nonholonomic_particle"))
    integ, beta, policy = _integrator(cfg, "simulate", "reference")
    eps, N, e = _steps_and_set(cfg, integ, beta, policy)
    project_each_step = _flag(cfg, "project_each_step")
    dc = _deformation(cfg, sys)
    x0 = _initial_state(cfg, sys, dc, e)

    csv_path = _out_path(cfg, "output", "trajectory.csv", out_dir)
    summary_path = _out_path(cfg, "summary", "summary.json", out_dir)
    started = time.perf_counter()
    try:
        if integ == "reference":
            traj = integrate(sys, x0, eps * N, eps, dc, project_each_step)
        else:
            traj = run_integrator(sys, integ, x0, eps, N, beta=beta, policy=policy)
    except RUNTIME_ERRORS as exc:
        # a failure inside the run loop carries its rows and where it stopped
        where = ""
        if hasattr(exc, "partial"):
            exc.partial.to_csv(csv_path)
            where = f"step {exc.step}, t = {exc.t:.6g}: "
        print(f"error: {where}{exc}", file=_sys.stderr)
        return 3

    traj.to_csv(csv_path)
    summary = {
        "rows": len(traj),
        "eps": eps,
        "steps": N,
        "integrator": integ,
        "energy_min": float(np.min(traj.energies)),
        "energy_max": float(np.max(traj.energies)),
        "energy_drift": float(np.max(np.abs(traj.energies - traj.energies[0]))),
        "max_abs_residual": float(np.max(np.abs(traj.residuals), initial=0.0)),
        "max_abs_lambda": float(np.max(np.abs(traj.lambdas), initial=0.0)),
        "csv": os.path.basename(csv_path),
        "runtime_seconds": time.perf_counter() - started,
    }
    _write_json(summary_path, summary)
    return 0


# --- converge -------------------------------------------------------------------


@dataclass
class StudyResult:
    """Per-step-size endpoint errors and the fitted consistency orders."""

    eps: list[float]
    state_error: list[float]
    lambda_error: list[float]
    state_slope: float | None
    lambda_slope: float | None
    failures: list[dict] = field(default_factory=list)


def convergence_study(cfg: dict, eps_list: list[float]) -> StudyResult:
    """Endpoint errors against one high-resolution oracle, across step sizes.

    The step sizes run one after another, largest first, on the one system
    built from the config; a step size whose run fails is recorded in
    `failures` and the study goes on.
    """
    if len(eps_list) < 4:
        raise ConfigError("a convergence study needs at least 4 step sizes")
    eps_list = [_positive({"eps_list": e}, "eps_list") for e in eps_list]
    sys = build_system(cfg.get("system", "nonholonomic_particle"))
    integ, beta, policy = _integrator(cfg, "converge", "vni10")
    x0 = _initial_state(cfg, sys)
    T = _positive(cfg, "T")
    with _set_up():
        _require_steps("the reference oracle's T / REFERENCE_STEP", T / REFERENCE_STEP)
    runs = []  # (eps, steps, start): a start on D is the oracle's own
    for eps in sorted(eps_list, reverse=True):
        _, steps, e = _steps_and_set({"eps": eps, "T": T}, integ, beta, policy)
        runs.append((eps, steps, _initial_state(cfg, sys, e=e) if e else x0))

    oracle = reference_flow(sys, x0, T)
    oracle_concat = oracle.concat()
    oracle_lam = lambda_continuous(sys, oracle_concat, check=False)

    eps_ok: list[float] = []
    state: list[float] = []
    lam: list[float] = []
    failures: list[dict] = []
    for eps, steps, start in runs:
        try:
            if integ == "reference":
                traj = integrate(sys, start, T, eps)
            else:
                traj = run_integrator(sys, integ, start, eps, steps, beta=beta, policy=policy)
        except RUNTIME_ERRORS as exc:
            failures.append({"eps": eps, "error": f"{type(exc).__name__}: {exc}"})
            continue
        eps_ok.append(eps)
        state.append(float(np.max(np.abs(traj.states[-1] - oracle_concat))))
        lam.append(float(np.max(np.abs(traj.lambdas[-1] - oracle_lam), initial=0.0)))

    state_slope = lambda_slope = None
    if len(eps_ok) >= 4:
        logs = np.log(eps_ok)
        if min(state) > 0.0:
            state_slope = float(np.polyfit(logs, np.log(state), 1)[0])
        if min(lam) > 0.0:
            lambda_slope = float(np.polyfit(logs, np.log(lam), 1)[0])
    return StudyResult(eps_ok, state, lam, state_slope, lambda_slope, failures)


def cmd_converge(cfg: dict, out_dir: str, eps_list: list[float] | None) -> int:
    if eps_list is None:
        eps_list = cfg.get("eps_list")
    if eps_list is None:
        raise ConfigError("give step sizes via 'eps_list' in the config or --eps-list")
    if not isinstance(eps_list, list):
        raise ConfigError("'eps_list' must be a list of step sizes")
    csv_path = _out_path(cfg, "output", "convergence.csv", out_dir)
    summary_path = _out_path(cfg, "summary", "study.json", out_dir)
    started = time.perf_counter()
    try:
        study = convergence_study(cfg, eps_list)
    except RUNTIME_ERRORS as exc:
        print(f"error: the reference oracle failed: {exc}", file=_sys.stderr)
        return 3

    write_csv(
        csv_path,
        ["eps", "state_error", "lambda_error"],
        zip(study.eps, study.state_error, study.lambda_error),
    )
    payload = asdict(study)
    payload["runtime_seconds"] = time.perf_counter() - started
    _write_json(summary_path, payload)
    if not study.eps:
        print("error: every step size failed", file=_sys.stderr)
        return 3
    return 0


# --- embed ----------------------------------------------------------------------


def cmd_embed(cfg: dict, out_dir: str) -> int:
    sys = build_system(cfg.get("system", "nonholonomic_particle"))
    q0 = _vector(cfg, "q0", sys.n) if "q0" in cfg else _vector(cfg, "q", sys.n)
    with _set_up("cannot split coordinates at q0: "):
        split = derive_connection(sys, q0)
    scheme = cfg.get("scheme", "vni10")
    base_step = _positive(cfg, "base_step", 2e-3)
    problem = reduced_problem(sys, split, base_step=base_step)
    if scheme == "exact":
        phi = exact_step_map(problem, p=_integer(cfg, "p", 1, least=1))
    else:
        with _set_up():
            phi = reduced_step_map(sys, split, scheme)
    eps = _positive(cfg, "eps")
    with _set_up():
        _require_steps("eps / base_step", eps / base_step)
    t_frac = _number(cfg, "t_frac", 0.37)
    order_levels = _integer(cfg, "order_levels", 5, least=2)
    summary_path = _out_path(cfg, "summary", "embedding.json", out_dir)

    pts_cfg = cfg.get("points")
    if not isinstance(pts_cfg, list) or not pts_cfg:
        raise ConfigError("'points' must be a non-empty list of {q, v} states")
    points = []
    for i, entry in enumerate(pts_cfg):
        if not isinstance(entry, dict):
            raise ConfigError(f"points[{i}] must be an object with 'q' and 'v'")
        x = _initial_state({**entry, "project_initial": _flag(cfg, "project_initial")}, sys)
        # _initial_state has applied reduce_state's own rule to x: it lies on D
        points.append(reduce_state(sys, split, x.concat(), check=False))

    started = time.perf_counter()
    try:
        report = verify_embedding(
            problem, phi, eps, np.asarray(points), t_frac=t_frac, order_levels=order_levels
        )
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    report["scheme"] = scheme
    report["eps"] = eps
    report["runtime_seconds"] = time.perf_counter() - started
    _write_json(summary_path, report)
    return 0


# --- interp ---------------------------------------------------------------------


def cmd_interp(cfg: dict, out_dir: str) -> int:
    sys = build_system(cfg.get("system", "nonholonomic_particle"))
    for key in ("x0", "x1"):
        if not isinstance(cfg.get(key), dict):
            raise ConfigError(f"config needs {key!r} as an object with 'q' and 'v'")
    a = _initial_state(cfg["x0"], sys)
    b = _initial_state(cfg["x1"], sys)
    eps = _positive(cfg, "eps")
    samples = _integer(cfg, "samples", 101, least=2)
    with _set_up():
        _require_steps("samples", samples)
    csv_path = _out_path(cfg, "output", "interpolation.csv", out_dir)
    q0 = _vector(cfg, "q0", sys.n) if "q0" in cfg else a.q
    with _set_up():
        split = derive_connection(sys, q0)
        curve = interpolate_in_D(sys, split, a.concat(), b.concat(), eps)

    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(sys.n)]
        + [f"v_{i + 1}" for i in range(sys.n)]
        + [f"residual_{a_ + 1}" for a_ in range(sys.m)]
    )
    rows = []
    try:
        for k, t in enumerate(np.linspace(0.0, eps, samples)):
            x = curve(float(t))
            rows.append([float(t), *x, *constraint_residual(sys, x)])
    except RUNTIME_ERRORS as exc:
        print(f"error: sample {k}, t = {t:.6g}: {exc}", file=_sys.stderr)
        return 3
    finally:
        write_csv(csv_path, header, rows)  # the rows before a failing sample
    return 0


# --- entry point ----------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--eps-list must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError("--eps-list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Simulate nonholonomic mechanical systems from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "integrate one trajectory and write it as CSV"),
        ("converge", "measure endpoint error across step sizes"),
        ("embed", "report how closely a discrete map embeds into a flow"),
        ("interp", "sample the constrained interpolant between two states"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON run description")
        p.add_argument("--out", default=".", help="directory for CSV/JSON artifacts")
        if name == "converge":
            p.add_argument(
                "--eps-list",
                default=None,
                help="comma-separated step sizes, overriding the config",
            )
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="accepted and ignored: the step sizes run one after another",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config top level must be a JSON object")
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "converge":
            eps_list = _parse_eps_list(args.eps_list) if args.eps_list else None
            return cmd_converge(cfg, out_dir, eps_list)
        if args.command == "embed":
            return cmd_embed(cfg, out_dir)
        return cmd_interp(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
