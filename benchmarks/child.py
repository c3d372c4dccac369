"""Child processes of the benchmark: the worker and its set-up probes.

    python3 benchmarks/child.py measure --workload W --seed N --dir D --seconds S --trace 0|1
    python3 benchmarks/child.py setup   --workload W --seed N --dir D

``run.py`` starts one ``measure`` worker per workload.  The worker drives
passes over the workload's operations, one after the other, and checks the
files every operation wrote.  Between passes it starts ``setup`` probes and
waits for them; each probe times, in its fresh interpreter, the span from
before ``import nonholo`` until the workload's systems are ready.  With
``--trace 1`` the worker instead alternates untraced passes with traced
ones, wrapping the library's layers for each traced pass and taking the
wrappers off after it.  Both modes print one JSON line.  The inputs must already be
in D (``run.py`` writes them).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import SPAN_NAMES, Tracer

# Set-up probes before each pass, and the fewest a run takes.  A probe costs
# about 0.2 s; its median needs many samples because fresh interpreters vary.
SETUP_PROBES_PER_ROUND = 3
MIN_SETUP_PROBES = 15
# A median over three pairs drops one pair that a change of host speed hit.
MIN_TRACED_PAIRS = 3


def setup_probe(workload: str, seed: int, work_dir: str) -> dict:
    started = time.perf_counter()
    import numpy as np
    from nonholo import cli, embed, system

    for op in workloads.operations(workload, seed):
        cfg = cli.load_config(os.path.join(work_dir, op.name + ".json"))
        sys_ = cli.build_system(cfg.get("system", "nonholonomic_particle"))
        if op.command == "embed":
            split = system.derive_connection(sys_, q0=np.asarray(cfg["q0"], dtype=float))
            embed.reduced_problem(sys_, split, base_step=float(cfg["base_step"]))
    return {"setup_s": time.perf_counter() - started}


def calibrate() -> float:
    """A fixed pure-Python loop that calls no library code: a record of host speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - started


def _digest(path: str) -> str:
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("runtime_seconds", None)  # timings are the only nondeterministic field
        data = json.dumps(payload, sort_keys=True).encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Closed loop over one workload: each operation starts when the last returned."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        from nonholo import cli

        self.cli = cli
        self.work_dir = work_dir
        self.ops = workloads.operations(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> tuple[float, dict]:
        """Time one pass, then check its outputs; returns (wall seconds, digests)."""
        for op in self.ops:  # outputs of the last pass must not pass for this one's
            shutil.rmtree(os.path.join(self.work_dir, op.name), ignore_errors=True)
        outcomes = []
        started = time.perf_counter()
        for op in self.ops:
            try:
                outcomes.append(self.cli.main(op.argv(self.work_dir)))
            except Exception as exc:  # an operation that raises counts as failed
                outcomes.append(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - started

        digests = {}
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            if isinstance(outcome, str):
                problems = [f"{op.name}: {outcome}"]
            elif outcome != 0:
                problems = [f"{op.name}: exit code {outcome}"]
            else:
                problems = workloads.check_output(op, self.work_dir)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                continue
            out_dir = os.path.join(self.work_dir, op.name)
            for fname in sorted(os.listdir(out_dir)):
                digests[f"{op.name}/{fname}"] = _digest(os.path.join(out_dir, fname))
        return wall, digests


def setup_sample(workload: str, seed: int, work_dir: str) -> float:
    """One set-up probe in a fresh interpreter, started while this process waits."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup",
           "--workload", workload, "--seed", str(seed), "--dir", work_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _rounds(seconds: float, one_round, min_rounds: int = 1) -> None:
    """Call one_round for about `seconds`, and at least `min_rounds` times.

    A new round starts while a round of median length would end less than
    half a round after the deadline.  The run then ends at the round
    boundary nearest the deadline, so its length does not grow with that of
    a round, and a workload with long rounds does not lose a whole round.
    """
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while len(durations) < min_rounds or time.perf_counter() + statistics.median(durations) / 2 <= deadline:
        started = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - started)


def measure(workload: str, seed: int, work_dir: str, seconds: float, trace: bool) -> dict:
    """Untraced passes with set-up probes, or traced passes paired with untraced ones."""
    runner = Runner(workload, seed, work_dir)
    if trace:
        out = traced_pairs(runner, workload, seconds)
    else:
        out = untraced_passes(runner, workload, seed, work_dir, seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    return out


def untraced_passes(runner: Runner, workload: str, seed: int, work_dir: str, seconds: float) -> dict:
    """Passes for `seconds`, each after SETUP_PROBES_PER_ROUND set-up probes.

    Interleaving the probes with the passes spreads them over the whole run,
    so their median sees the same drift of host speed as the passes do.  A
    run with few, long passes tops the probes up to MIN_SETUP_PROBES at the end.
    """
    walls, calibration, setups = [], [], []
    setup_sample(workload, seed, work_dir)  # untimed: byte-compiles and warms the file cache

    def one_round():
        for _ in range(SETUP_PROBES_PER_ROUND):
            setups.append(setup_sample(workload, seed, work_dir))
        calibration.append(calibrate())
        walls.append(runner.run_pass()[0])

    _rounds(seconds, one_round)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_sample(workload, seed, work_dir))
    return {"wall_s": walls, "setup_s": setups, "calibration_s": calibration}


def traced_pairs(runner: Runner, workload: str, seconds: float) -> dict:
    """Pairs of an untraced and a traced pass for `seconds`, at least MIN_TRACED_PAIRS.

    The tracer is taken off again after each traced pass.  The tracing cost
    is the median over pairs of traced minus untraced wall time: the two
    passes of a pair run back to back, so drift of host speed over the run
    mostly cancels.  The self-checks make the counts citable.
    """
    tracer = Tracer()
    walls, calibration, passes = [], [], []

    def one_pair():
        calibration.append(calibrate())
        wall, digests = runner.run_pass()
        walls.append(wall)
        tracer.reset()
        tracer.install()
        try:
            traced_wall, traced_digests = runner.run_pass()
        finally:
            tracer.uninstall()
        passes.append({
            "wall_s": traced_wall,
            "untraced_wall_s": wall,
            "totals": tracer.totals(),
            "newton": (tracer.newton_steps, tracer.newton_iters, tracer.newton_iters_max),
            "same_outputs": traced_digests == digests,
            "edges": tracer.edges(),
        })

    _rounds(seconds, one_pair, min_rounds=MIN_TRACED_PAIRS)

    problems = []
    unbound = [name for name in SPAN_NAMES if not tracer.bindings.get(name)]
    if unbound:
        problems.append(f"no binding found for {unbound}")
    silent = [name for name in workloads.EXPECTED_SPANS[workload] if passes[0]["totals"][name][0] == 0]
    if silent:
        problems.append(f"expected spans did not fire: {silent}")
    for i, p in enumerate(passes):
        if not p["same_outputs"]:
            problems.append(f"traced pass {i + 1} wrote other outputs than the untraced pass before it")
    calls = [{name: t[0] for name, t in p["totals"].items()} for p in passes]
    moved = sorted(name for c in calls[1:] for name in c if c[name] != calls[0][name])
    if moved:
        problems.append(f"call counts differ between traced passes: {sorted(set(moved))}")
    if any(p["newton"] != passes[0]["newton"] for p in passes[1:]):
        problems.append("Newton counts differ between traced passes")

    totals = {name: (calls[0][name], statistics.median(p["totals"][name][1] for p in passes))
              for name in SPAN_NAMES}
    steps, iters, iters_max = passes[0]["newton"]
    return {
        "wall_s": walls,
        "calibration_s": calibration,
        "trace": {
            "wall_s": [p["wall_s"] for p in passes],
            "overhead_s": statistics.median(p["wall_s"] - p["untraced_wall_s"] for p in passes),
            "totals": totals,
            "newton_iters_per_step": iters / steps if steps else 0.0,
            "newton_iters_max": iters_max,
            "bindings": tracer.bindings,
            "edges": passes[-1]["edges"],
            "problems": problems,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="measure mode: how long passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup_probe(args.workload, args.seed, args.dir)
    else:
        result = measure(args.workload, args.seed, args.dir, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
