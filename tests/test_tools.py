"""The benchmark comparison tool: its summary on fixed numbers and its run order."""
from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_PARENT = [{"wall_s": w, "ops_ok_frac": 1.0} for w in (0.20, 0.18, 0.22, 0.19, 0.21)]
_CHANGE = [{"wall_s": w, "ops_ok_frac": f}
           for w, f in zip((0.15, 0.19, 0.16, 0.17, 0.23), (1.0, 1.0, 0.9, 1.0, 1.0))]


def test_summary_on_fixed_numbers():
    rows = bench_pairs.summarize(_PARENT, _CHANGE, [("wall_s", "lower"), ("ops_ok_frac", "higher")])
    wall, ok = rows
    assert wall["parent_median"] == 0.20 and wall["change_median"] == 0.17
    assert wall["ratio"] == pytest.approx(0.85)
    # quartiles of 0.18 ... 0.22 by statistics.quantiles: 0.185 and 0.215
    assert wall["parent_iqr"] == pytest.approx(0.03)
    assert (wall["won"], wall["pairs"]) == (3, 5)  # a tie or a worse pair is not won
    assert (ok["ratio"], ok["parent_iqr"], ok["won"]) == (1.0, 0.0, 0)
    lines = bench_pairs.format_rows(rows)
    assert len(lines) == 3 and lines[1].split()[0] == "wall_s" and lines[1].endswith("3/5")


def test_the_parent_runs_first_in_odd_pairs(monkeypatch, capsys):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout)
        return {name: 1.0 for name, _ in bench_pairs.end_to_end_metrics()}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--pairs", "3"]) == 0
    assert order == ["P", "C", "C", "P", "P", "C"]
    out = capsys.readouterr().out
    assert "pair 2 (change first)" in out
    assert [line.split()[0] for line in out.splitlines()[-4:]] == [
        "wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac"]
