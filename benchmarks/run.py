"""Benchmark of nonholo: three fixed workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to RUN_SECONDS, the ``run_seconds`` of BENCHMARK.json,
which the run protocol passes explicitly.  It is capped at MAX_SECONDS so
that a worker, whose last round and set-up top-up may run past the
deadline, still ends within WORKER_TIMEOUT_S.

Run from a checkout that holds ``src/nonholo``; the package is imported
from there, never from an installed copy.  Each workload runs in one
worker process with BLAS pinned to one thread: it drives passes over the
workload's operations for ``--seconds``, checks every output and, between
passes, waits for fresh interpreters that time set-up.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and its self-checks.  It prints every
metric by name with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (for ``--workload all``,
one such object per workload).  See README.md next to this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import workloads
from tracer import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

RUN_SECONDS = 36
MAX_SECONDS = 60
WORKER_TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The worker failed or ran too long."""


def child_env() -> dict:
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    env.update(PINNED, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def run_worker(args: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "measure", *args]
    # a process group of its own, so that a timeout also ends the set-up probe it waits on
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"the worker ran past {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    """What the numbers depend on besides the code: recorded, not compared."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nonholo")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, c.get('name'), c.get('version')]))")
    numpy_version, blas, blas_version = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True,
    ).stdout)
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "threads_env": PINNED,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        ops = workloads.operations(workload, seed)
        workloads.write_inputs(ops, work_dir)
        record = {"workload": workload, "seed": seed, "trace": int(trace), "env": environment()}
        record["measure"] = run_worker([
            "--workload", workload, "--seed", str(seed), "--dir", work_dir,
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ])
        record["env"]["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def e2e_metrics(record: dict) -> dict:
    m = record["measure"]
    return {
        "wall_s": (statistics.fmean(m["wall_s"]), "s"),
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MiB"),
        "ops_ok_frac": (1.0 - m["failed"] / m["attempted"], "frac"),
    }


def layer_metrics(record: dict) -> dict:
    t = record["measure"]["trace"]
    totals = t["totals"]
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")

    def ratio(num: str, den: str) -> float:
        return totals[num][0] / totals[den][0] if totals[den][0] else 0.0

    out["reduction.diag_lambda_per_h_field"] = (ratio("reduction._lambda_raw", "reduction.h_field"), "ratio")
    out["discrete.newton_iters_per_step"] = (t["newton_iters_per_step"], "ratio")
    out["discrete.newton_iters_max"] = (t["newton_iters_max"], "count")
    out["embed.g_tilde_per_g_eval"] = (
        ratio("embed.EvolutionInterpolant.g_tilde", "embed.EvolutionInterpolant.g_eval"), "ratio")
    out["trace.overhead_s"] = (t["overhead_s"], "s")
    return out


def report(record: dict) -> dict:
    """Print the workload's metrics and return its result object."""
    m = record["measure"]
    trace = bool(record["trace"])
    metrics = layer_metrics(record) if trace else e2e_metrics(record)
    problems = list(m["problems"]) + (m["trace"]["problems"] if trace else [])
    env = record["env"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    q1, med, q3 = quartiles(m["wall_s"])
    print(f"  wall_s over {len(m['wall_s'])} passes: mean {statistics.fmean(m['wall_s']):.4f}  "
          f"q1 {q1:.4f}  median {med:.4f}  q3 {q3:.4f} s")
    if not trace:
        q1, med, q3 = quartiles(m["setup_s"])
        print(f"  setup_s over {len(m['setup_s'])} interpreters: "
              f"q1 {q1:.4f}  median {med:.4f}  q3 {q3:.4f} s")
    print(f"  calibration loop median {statistics.median(m['calibration_s']):.4f} s; "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
          f"load {env['loadavg_start'][0]:.2f}")
    print(f"  operations: {m['attempted']} attempted, {m['failed']} failed")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    return {
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_seconds(text: str) -> float:
    seconds = float(text)
    if not 0 < seconds <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be in (0, {MAX_SECONDS}]")
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.MAIN_SEED,
                        help=f"input seed; {workloads.MAIN_SEED} is the main seed, "
                             f"{workloads.HOLDOUT_SEED} the hold-out")
    parser.add_argument("--seconds", type=run_seconds, default=RUN_SECONDS,
                        help=f"how long the passes of one workload run (at most {MAX_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "nonholo", "__init__.py")):
        print(f"error: no nonholo sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
