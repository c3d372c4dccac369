"""Batch harness: run simulations and studies described by a JSON config file.

Four subcommands share a common shape::

    nonholo simulate --config run.json [--out DIR]
    nonholo converge --config run.json [--out DIR] [--eps-list a,b,c]
    nonholo embed    --config run.json [--out DIR]
    nonholo interp   --config run.json [--out DIR]

Each command reads its config through one key table (`KEYS`); a key outside
the table, or one that the run does not read, is a configuration problem.
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
    BASE_STEP,
    exact_step_map,
    interpolate_in_D,
    reduced_problem,
    reduced_step_map,
    verify_embedding,
)
from .flow import (_QUIET, REFERENCE_STEP, RUNTIME_ERRORS, _flow_steps, integrate,
                   reference_flow, write_csv)
from .reduction import DeformedConstraint, deformed_residual, lambda_continuous, reduce_state
from .system import (
    BUILTIN_FIELDS,
    MechanicalSystem,
    StatePoint,
    SystemError,
    _require_admissible,
    _require_run,
    _require_steps,
    constraint_residual,
    deformed_node_residual,
    derive_connection,
    project_velocity,
)

INTEGRATORS = ("reference", *SCHEMES)


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


def _check_keys(obj, known, name: str | None = None) -> None:
    """Refuse obj unless it is an object whose keys are all `known`; an unknown
    key is named with the nearest known one.  `name` is obj's key, None at the top."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name or 'config'} must be an object with keys {list(known)}")
    prefix = f"{name}." if name else ""
    for key in obj:
        if key not in known:
            from difflib import get_close_matches  # the error path alone needs it
            near = get_close_matches(key, list(known), n=1)
            hint = f"; did you mean {prefix + near[0]!r}?" if near else ""
            raise ConfigError(f"unknown key {prefix + key!r}{hint}")


def build_system(desc) -> MechanicalSystem:
    """Construct the mechanical system named or described by the config.

    A bare string picks a builtin.  An object either describes a system in
    full ({names, M, V, mu}) or starts from {"builtin": name} and overrides
    individual fields.
    """
    if isinstance(desc, str):
        desc = {"builtin": desc}
    _check_keys(desc, ("builtin", "names", "M", "V", "mu", "n"), "system")
    fields = {}
    if "builtin" in desc:
        name = desc["builtin"]
        if name not in BUILTIN_FIELDS:
            raise ConfigError(f"no builtin system {name!r}; pick one of {sorted(BUILTIN_FIELDS)}")
        fields.update(BUILTIN_FIELDS[name])
    fields.update({key: desc[key] for key in ("names", "M", "V", "mu") if key in desc})
    missing = {"names", "M", "V", "mu"} - set(fields)
    if missing:
        raise ConfigError(f"system description is missing {sorted(missing)}")
    if "n" in desc and desc["n"] != len(fields["names"]):
        raise ConfigError(f"system.n = {desc['n']} does not match {len(fields['names'])} names")
    try:
        return MechanicalSystem(names=fields["names"], M=np.asarray(fields["M"], dtype=float),
                                V=fields["V"], mu=fields["mu"])
    except (SystemError, exprdiff.ExprSyntaxError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid system: {exc}") from None


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


# --- value parsers: each takes a JSON value, the key it was given at and the run read
# so far (the keys above it in its table), and returns the value the run uses.


def _rule(test, what: str):
    """The parser that returns a value that passes `test` and refuses any other as not `what`."""

    def parse(raw, key: str, run=None):
        if not test(raw):
            raise ConfigError(f"{key} must be {what}, got {raw!r}")
        return raw

    return parse


def _choice(*names: str):
    return _rule(lambda raw: raw in names, f"one of {names}")


_flag = _rule(lambda raw: isinstance(raw, bool), "true or false")  # "no" is not false
_file_name = _rule(lambda raw: isinstance(raw, str) and raw not in ("", ".", "..")  # in --out
                   and raw == os.path.basename(raw) and "\0" not in raw, "a file name")


def _number(raw, key: str, run=None) -> float:
    """raw as a finite float; JSON booleans are not numbers here."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = np.nan
    if isinstance(raw, bool) or not np.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _positive(raw, key: str, run=None) -> float:
    return _rule(lambda value: value > 0.0, "positive and finite")(_number(raw, key), key)


def _count(least: int):
    """The parser of a whole number from `least` to MAX_STEPS; 2.0 counts, 2.5 and true do not."""

    def parse(raw, key: str, run=None) -> int:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not raw >= least:
            raise ConfigError(f"{key} must be an integer >= {least}, got {raw!r}")
        _require_steps(key, raw, whole=True)
        return int(raw)

    return parse


def _list(item, least: int, what: str):
    """The parser of a list of at least `least` entries, each parsed by `item` as key[i]."""

    def parse(raw, key: str, run=None) -> list:
        if not isinstance(raw, list) or len(raw) < least:
            raise ConfigError(f"{key} must list at least {least} {what}, got {raw!r}")
        return [item(entry, f"{key}[{i}]", run) for i, entry in enumerate(raw)]

    return parse


_eps_list = _list(_positive, 4, "step sizes")


def _vector(raw, key: str, run) -> np.ndarray:
    """A list of the system's n finite numbers."""
    n = run["system"].n
    if not isinstance(raw, list) or len(raw) != n:
        raise ConfigError(f"{key} must be a list of {n} numbers, got {raw!r}")
    return np.array([_number(entry, f"{key}[{i}]") for i, entry in enumerate(raw)])


def _state(raw, key: str, run) -> tuple[np.ndarray, np.ndarray]:
    """(q, v) of an object that holds exactly q and v."""
    _check_keys(raw, ("q", "v"), key)
    return _vector(raw.get("q"), f"{key}.q", run), _vector(raw.get("v"), f"{key}.v", run)


def _deformation(raw, key: str, run) -> DeformedConstraint:
    """{g, delta}: g lists the system's m expressions over q and v, delta a number (0)."""
    _check_keys(raw, ("g", "delta"), key)
    sys, g = run["system"], raw.get("g")
    if not isinstance(g, list) or len(g) != sys.m or not all(isinstance(e, str) for e in g):
        raise ConfigError(f"{key}.g must list {sys.m} expression strings, got {g!r}")
    try:
        exprs = [exprdiff.parse(text) for text in g]
    except exprdiff.ExprSyntaxError as exc:
        raise ConfigError(f"bad {key}.g expression: {exc}") from None
    extra = set().union(*map(exprdiff.free_variables, exprs)) - {*sys.names, *sys.vnames}
    if extra:
        raise ConfigError(f"unknown variables in {key}.g: {sorted(extra)}")
    return DeformedConstraint(g=exprs, delta=_number(raw.get("delta", 0.0), f"{key}.delta"))


# --- the key tables: each command's keys in parsing order (a parser may read the keys
# above it), key -> (value parser, default: REQUIRED, None where the key may be absent or
# a JSON value parsed like a given one, runs: None for all, else the RUN_KEY values read).
REQUIRED = object()
_START = {
    "system": (lambda raw, key, run: build_system(raw), "nonholonomic_particle", None),
    "integrator": (_choice(*INTEGRATORS), "reference", None),
    "q": (_vector, REQUIRED, None),
    "v": (_vector, REQUIRED, None),
    "project_initial": (_flag, False, None),
    "beta": (_number, None, ("dla",)),
    "nodes": (lambda raw, key, run: NodePolicy(_choice(*(p.value for p in NodePolicy))(raw, key)),
              "redefined", ("dla",)),
}
KEYS = {
    "simulate": {
        **_START,
        "eps": (_positive, REQUIRED, None),
        "N": (_count(0), None, None),
        "T": (_positive, None, None),
        "deformation": (_deformation, None, ("reference",)),
        "project_each_step": (_flag, False, ("reference",)),
        "output": (_file_name, "trajectory.csv", None),
        "summary": (_file_name, "summary.json", None),
    },
    "converge": {
        **_START,
        "integrator": (_choice(*INTEGRATORS), "vni10", None),
        "T": (_positive, REQUIRED, None),
        "eps_list": (_eps_list, None, None),
        "output": (_file_name, "convergence.csv", None),
        "summary": (_file_name, "study.json", None),
    },
    "embed": {
        "system": _START["system"],
        "scheme": (_choice("exact", *SCHEMES), "vni10", None),
        "eps": (_positive, REQUIRED, None),
        "q0": (_vector, REQUIRED, None),
        "points": (_list(_state, 1, "{q, v} states"), REQUIRED, None),
        "project_initial": _START["project_initial"],
        "base_step": (_positive, BASE_STEP, None),
        "t_frac": (_number, 0.37, None),
        "order_levels": (_count(2), 5, None),
        "p": (_count(1), 1, ("exact",)),
        "summary": (_file_name, "embedding.json", None),
    },
    "interp": {
        "system": _START["system"],
        "eps": (_positive, REQUIRED, None),
        "x0": (_state, REQUIRED, None),
        "x1": (_state, REQUIRED, None),
        "project_initial": _START["project_initial"],
        "q0": (_vector, None, None),
        "samples": (_count(2), 101, None),
        "output": (_file_name, "interpolation.csv", None),
    },
}
# The key whose value names the run, for the keys that only some runs read.
RUN_KEY = {"simulate": "integrator", "converge": "integrator", "embed": "scheme"}


class _Run(dict):
    """A config read through its command's table: key -> value, defaults filled in."""


def _read(cfg, command: str) -> _Run:
    """cfg's values, parsed by the command's key table; a key outside the table,
    or one that the run does not read, is refused and named."""
    table, selector = KEYS[command], RUN_KEY.get(command)
    _check_keys(cfg, table)
    run = _Run()
    with _set_up():
        for key, (parse, default, readers) in table.items():
            if key not in cfg:
                if default is REQUIRED:
                    raise ConfigError(f"config is missing {key!r}")
                run[key] = None if default is None else parse(default, key, run)
            elif readers is not None and run[selector] not in readers:
                raise ConfigError(f"{key!r} is read only with {selector} "
                                  f"{' or '.join(readers)}, not {run[selector]!r}")
            else:
                run[key] = parse(cfg[key], key, run)
    return run


def _initial_state(run: _Run, state, deformation=None, e=0.0) -> StatePoint:
    """The (q, v) `state` on the deformation's set if one is given, else on the set a
    scheme's nodes keep at step size e (`discrete._scheme_run`; e = 0 is D).

    project_initial projects v onto D and, for e > 0, repairs it onto the
    scheme's set; the start, repaired or not, is checked against the set the
    run keeps, so a projected start off a deformation's set is refused.
    """
    sys, repair = run["system"], run["project_initial"]
    q, v = state
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


def _steps_and_set(run: _Run, eps: float) -> tuple[int, float, float]:
    """(N, h, e): a run's N steps of h, N and h = eps if given N, else N = max(1, round(T / eps))
    and h = T / N, ending at T; and e of the set its nodes keep (`discrete._scheme_run` at h;
    e = 0 is D).  A run that the library would refuse is a config error here."""
    with _set_up():
        if run.get("N") is not None:
            N, h = run["N"], eps
        else:
            _require_steps("T / eps", run["T"] / eps)
            N = max(1, round(run["T"] / eps))
            h = run["T"] / N
        if run["integrator"] != "reference":
            return N, h, _scheme_run(run["integrator"], h, N, run["beta"], run["nodes"])[2]
        _require_run(h, N)
    return N, h, 0.0


def _run_steps(run: _Run, x0: StatePoint, N: int, h: float):
    """The run's integrator from x0: N steps of h (`_steps_and_set`)."""
    if run["integrator"] == "reference":  # a study has no deformation or project_each_step
        return integrate(run["system"], x0, h, N, run.get("deformation"),
                         run.get("project_each_step", False))
    return run_integrator(run["system"], run["integrator"], x0, h, N, beta=run["beta"],
                          policy=run["nodes"])


# --- simulate -------------------------------------------------------------------


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    run = _read(cfg, "simulate")
    integ, eps, dc = run["integrator"], run["eps"], run["deformation"]
    if (run["N"] is None) == (run["T"] is None):
        raise ConfigError("give exactly one of 'N' (step count) or 'T' (end time)")
    N, h, e = _steps_and_set(run, eps)
    x0 = _initial_state(run, (run["q"], run["v"]), dc, e)
    csv_path, summary_path = (os.path.join(out_dir, run[key]) for key in ("output", "summary"))
    started = time.perf_counter()
    try:
        traj = _run_steps(run, x0, N, h)
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
        "rows": len(traj), "eps": h, "steps": N, "integrator": integ,
        "energy_min": float(np.min(traj.energies)), "energy_max": float(np.max(traj.energies)),
        "energy_drift": float(np.max(np.abs(traj.energies - traj.energies[0]))),
        "max_abs_residual": float(np.max(np.abs(traj.residuals), initial=0.0)),
        "max_abs_lambda": float(np.max(np.abs(traj.lambdas), initial=0.0)),
        "csv": os.path.basename(csv_path), "runtime_seconds": time.perf_counter() - started,
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
    run = cfg if isinstance(cfg, _Run) else _read(cfg, "converge")
    eps_list = _eps_list(eps_list, "eps_list")
    sys, T = run["system"], run["T"]
    x0 = _initial_state(run, (run["q"], run["v"]))
    with _set_up("the reference oracle: "):
        _flow_steps(T, REFERENCE_STEP)
    runs = []  # (eps, start, N, h): a start on D is the oracle's own
    for eps in sorted(eps_list, reverse=True):
        N, h, e = _steps_and_set(run, eps)
        runs.append((eps, _initial_state(run, (run["q"], run["v"]), e=e) if e else x0, N, h))

    oracle_concat = reference_flow(sys, x0, T).concat()
    oracle_lam = lambda_continuous(sys, oracle_concat, check=False)

    eps_ok, state, lam, failures = [], [], [], []
    for eps, *marched in runs:
        try:
            traj = _run_steps(run, *marched)
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
    run = _read(cfg, "converge")
    eps_list = run["eps_list"] if eps_list is None else eps_list
    if eps_list is None:
        raise ConfigError("give step sizes via 'eps_list' in the config or --eps-list")
    csv_path, summary_path = (os.path.join(out_dir, run[key]) for key in ("output", "summary"))
    started = time.perf_counter()
    try:
        study = convergence_study(run, eps_list)
    except RUNTIME_ERRORS as exc:
        print(f"error: the reference oracle failed: {exc}", file=_sys.stderr)
        return 3

    write_csv(csv_path, ["eps", "state_error", "lambda_error"],
              zip(study.eps, study.state_error, study.lambda_error))
    _write_json(summary_path, {**asdict(study), "runtime_seconds": time.perf_counter() - started})
    if not study.eps:
        print("error: every step size failed", file=_sys.stderr)
        return 3
    return 0


# --- embed ----------------------------------------------------------------------


def cmd_embed(cfg: dict, out_dir: str) -> int:
    run = _read(cfg, "embed")
    sys, scheme, eps, base_step = run["system"], run["scheme"], run["eps"], run["base_step"]
    with _set_up("cannot split coordinates at q0: "):
        split = derive_connection(sys, run["q0"])
    problem = reduced_problem(sys, split, base_step=base_step)
    with _set_up():
        phi = (exact_step_map(problem, p=run["p"]) if scheme == "exact"
               else reduced_step_map(sys, split, scheme))
        _flow_steps(eps, base_step)
    # _initial_state applies reduce_state's own rule to each point: it lies on D
    points = [reduce_state(sys, split, _initial_state(run, x).concat(), check=False)
              for x in run["points"]]

    started = time.perf_counter()
    try:
        report = verify_embedding(problem, phi, eps, np.asarray(points), t_frac=run["t_frac"],
                                  order_levels=run["order_levels"])
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    _write_json(os.path.join(out_dir, run["summary"]), {**report, "scheme": scheme, "eps": eps,
                               "runtime_seconds": time.perf_counter() - started})
    return 0


# --- interp ---------------------------------------------------------------------


def cmd_interp(cfg: dict, out_dir: str) -> int:
    run = _read(cfg, "interp")
    sys, eps, samples = run["system"], run["eps"], run["samples"]
    a, b = (_initial_state(run, run[key]) for key in ("x0", "x1"))
    csv_path = os.path.join(out_dir, run["output"])
    with _set_up():
        split = derive_connection(sys, a.q if run["q0"] is None else run["q0"])
        curve = interpolate_in_D(sys, split, a.concat(), b.concat(), eps)

    header = ["t", *(f"{c}_{i + 1}" for c in "qv" for i in range(sys.n)),
              *(f"residual_{a_ + 1}" for a_ in range(sys.m))]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo", description="Simulate nonholonomic mechanical systems from a JSON config.")
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
            p.add_argument("--eps-list", help="comma-separated step sizes, overriding the config")
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted and ignored: the step sizes run one after another")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "converge":
            # the entries are checked like those of the config's eps_list
            flag = args.eps_list
            eps_list = [tok for tok in flag.split(",") if tok.strip()] if flag else None
            return cmd_converge(cfg, args.out, eps_list)
        if args.command == "embed":
            return cmd_embed(cfg, args.out)
        return cmd_interp(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
