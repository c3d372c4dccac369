"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed K]

Runs each checkout's own ``benchmarks/run.py --workload W`` from that
checkout, N times each, in alternation: the parent first in odd pairs
(1, 3, ...), the change first in even ones, so that a drift of the host's
speed falls on both sides alike.  Each run's last output line is its JSON
result; a run that fails or reports ``correct: false`` stops the
comparison.  Every pair's values are printed as it ends, then one line per
end-to-end metric of ``BENCHMARK.json`` (read next to this script): the
median of each side, the change/parent ratio of the medians, the parent's
interquartile range, and how many pairs the change won (strictly better,
in the metric's direction).  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric, better being "lower" or "higher"."""
    with open(path) as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(checkout: str, workload: str, seed: int | None, seconds: float | None) -> dict:
    """One run of the checkout's benchmark: its metrics, name -> value."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: the run reported correct: false:\n{proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(parent: list[dict], change: list[dict], metrics: list[tuple[str, str]]) -> list[dict]:
    """Per metric: both medians, their ratio, the parent's IQR and the pairs the change won.

    parent[i] and change[i] are the metrics of pair i.
    """
    rows = []
    for name, better in metrics:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1.0 if better == "lower" else -1.0
        p_med, c_med = statistics.median(p), statistics.median(c)
        rows.append({
            "metric": name,
            "parent_median": p_med,
            "change_median": c_med,
            "ratio": c_med / p_med if p_med else float("nan"),
            "parent_iqr": _iqr(p),
            "won": sum(sign * (b - a) < 0.0 for a, b in zip(p, c)),
            "pairs": len(p),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    out = [f"{'metric':<14} {'parent':>12} {'change':>12} {'ratio':>8} {'parent IQR':>12} {'won':>7}"]
    for r in rows:
        won = f"{r['won']}/{r['pairs']}"
        out.append(f"{r['metric']:<14} {r['parent_median']:>12.6g} {r['change_median']:>12.6g} "
                   f"{r['ratio']:>8.4f} {r['parent_iqr']:>12.6g} {won:>7}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="passed to run.py (default: its own)")
    parser.add_argument("--seed", type=int, help="passed to run.py (default: its main seed)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = end_to_end_metrics()
    sides = {"parent": [], "change": []}
    try:
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side].append(run_once(checkout, args.workload, args.seed, args.seconds))
            values = "  ".join(f"{name} {sides['parent'][-1][name]:.6g} -> {sides['change'][-1][name]:.6g}"
                               for name, _ in metrics)
            print(f"pair {i} ({order[0]} first): {values}", flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(format_rows(summarize(sides["parent"], sides["change"], metrics))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
