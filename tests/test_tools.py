"""The benchmark comparison tool (its summary on fixed numbers and its run order), the
CSV gate's count of stray stderr lines, and the orders its studies measure."""
from __future__ import annotations

import importlib.util
import json
import os

import pytest

from nonholo.cli import convergence_study

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
csv_gate = _load("csv_gate")

# (name, better, bound) of each end-to-end metric, from BENCHMARK.json
_METRICS = {m[0]: m for m in bench_pairs.end_to_end_metrics()}
_PARENT = [{"wall_s": w, "ops_ok_frac": 1.0} for w in (0.20, 0.18, 0.22, 0.19, 0.21)]
_CHANGE = [{"wall_s": w, "ops_ok_frac": f}
           for w, f in zip((0.15, 0.19, 0.16, 0.17, 0.23), (1.0, 1.0, 0.9, 1.0, 1.0))]


def test_summary_on_fixed_numbers():
    rows = bench_pairs.summarize(_PARENT, _CHANGE, [_METRICS["wall_s"], _METRICS["ops_ok_frac"]])
    wall, ok = rows
    assert wall["parent_median"] == 0.20 and wall["change_median"] == 0.17
    assert wall["ratio"] == pytest.approx(0.85)
    # quartiles of 0.18 ... 0.22 by statistics.quantiles: 0.185 and 0.215
    assert wall["parent_iqr"] == pytest.approx(0.03)
    assert (wall["won"], wall["pairs"]) == (3, 5)  # a tie or a worse pair is not won
    assert (ok["ratio"], ok["parent_iqr"], ok["won"]) == (1.0, 0.0, 0)
    lines = bench_pairs.format_rows(rows)
    assert len(lines) == 3 and lines[1].split()[0] == "wall_s"
    assert lines[1].split()[-2:] == ["3/5", "ok"]


def _verdict(metric, parent, change):
    name = _METRICS[metric][0]
    rows = bench_pairs.summarize([{name: x} for x in parent], [{name: x} for x in change],
                                 [_METRICS[metric]])
    return rows[0]["verdict"]


_WIDE = (0.6, 0.8, 1.0, 1.2, 1.4)  # median 1.0, IQR 0.6


def test_verdict_worse_beyond_the_bound():
    # wall_s's bound is 0.25 of the parent's median, ops_ok_frac's 0.01
    assert _verdict("wall_s", [1.0] * 5, [1.3] * 5) == "worse"
    assert _verdict("wall_s", _WIDE, [1.3, 0.5, 1.3, 1.3, 0.5]) == "worse"
    assert _verdict("ops_ok_frac", [1.0] * 5, [0.98] * 5) == "worse"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    assert _verdict("wall_s", _WIDE, [0.7, 0.9, 1.0, 1.1, 1.3]) == "unresolved"
    assert _verdict("wall_s", _WIDE, [0.55, 0.55, 0.55, 0.55, 0.65]) == "unresolved"


def test_verdict_ok():
    assert _verdict("wall_s", [1.0] * 5, [1.2] * 5) == "ok"  # within the bound
    assert _verdict("wall_s", _WIDE, [0.55] * 5) == "ok"  # beats every parent run
    assert _verdict("ops_ok_frac", [1.0] * 5, [0.995] * 5) == "ok"


def test_the_parent_runs_first_in_odd_pairs(monkeypatch, capsys):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout)
        return {name: 1.0 for name, *_ in bench_pairs.end_to_end_metrics()}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--pairs", "3"]) == 0
    assert order == ["P", "C", "C", "P", "P", "C"]
    out = capsys.readouterr().out
    assert "pair 2 (change first)" in out
    assert [line.split()[0] for line in out.splitlines()[-4:]] == [
        "wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac"]


def test_save_keeps_the_pairs_and_the_summary_of_each_comparison(monkeypatch, tmp_path, capsys):
    runs = {"P": iter(_PARENT + _PARENT[:2]), "C": iter(_CHANGE + _CHANGE[:2])}
    full = {name: 1.0 for name, *_ in bench_pairs.end_to_end_metrics()}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, *_: {**full, **next(runs[checkout])})
    path = tmp_path / "bench.json"
    argv = ["P", "C", "--workload", "w", "--save", str(path)]
    assert bench_pairs.main(argv + ["--pairs", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-4].split()[-2:] == ["3/5", "ok"]
    assert bench_pairs.main(argv + ["--pairs", "2", "--seed", "1", "--seconds", "2.5"]) == 0
    first, second = json.loads(path.read_text())  # the second run appends
    assert (first["workload"], first["seed"], first["seconds"]) == ("w", None, None)
    assert (second["seed"], second["seconds"], len(second["pairs"])) == (1, 2.5, 2)
    assert [p["first"] for p in first["pairs"]] == ["parent", "change"] * 2 + ["parent"]
    assert [p["parent"]["wall_s"] for p in first["pairs"]] == [0.20, 0.18, 0.22, 0.19, 0.21]
    assert [p["change"]["ops_ok_frac"] for p in first["pairs"]] == [1.0, 1.0, 0.9, 1.0, 1.0]
    rows = {r["metric"]: r for r in first["summary"]}
    assert list(rows) == ["wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac"]
    wall = rows["wall_s"]
    assert (wall["parent_median"], wall["change_median"], wall["won"], wall["pairs"]) == (
        0.20, 0.17, 3, 5)
    assert (wall["verdict"], rows["setup_s"]["verdict"], rows["setup_s"]["won"]) == ("ok", "ok", 0)
    assert rows["ops_ok_frac"]["change_median"] == 1.0
    assert second["summary"][0]["parent_median"] == 0.19  # pairs 0.20 -> 0.15, 0.18 -> 0.19


def test_csv_gate_counts_the_stderr_lines_besides_the_one_error_line():
    assert csv_gate.stray_lines("") == 0
    assert csv_gate.stray_lines("config error: initial state: bad\n") == 0
    assert csv_gate.stray_lines("error: step 3, t = 0.03: blew up\n") == 0
    warned = ("x.py:1: RuntimeWarning: overflow encountered in matvec\n  return y\n"
              "config error: initial velocity is not admissible (residual inf)\n")
    assert csv_gate.stray_lines(warned) == 2
    assert csv_gate.stray_lines("Traceback (most recent call last):\n  File\nValueError: x\n") == 3


@pytest.mark.parametrize("name, order", [("other/converge", 1), ("other/converge_dla", 2),
                                         ("other/converge_dla_original", 1)])
def test_the_gate_studies_measure_each_schemes_order(name, order):
    # T = 0.25 is no whole number of the largest step 0.02: each run takes
    # round(T / eps) steps of T / N and ends at T, where the oracle ends
    cfg = {n: c for n, _, c in csv_gate.configs()}[name]
    study = convergence_study(cfg, cfg["eps_list"])
    assert abs(study.state_slope - order) <= 0.15, study
