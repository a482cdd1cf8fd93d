"""scripts/bench_pairs.py: the pair summary BENCH_<pr>.json files carry."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(**metrics) -> dict:
    return {"result": {"correct": True, "failed": 0, "attempted": 10,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}


def test_summary_counts_wins_in_the_metric_direction(bench_pairs):
    pairs = [{"parent": run(rps=p, lat=p), "change": run(rps=c, lat=c)}
             for p, c in [(100, 110), (100, 90), (100, 100), (100, 120), (100, 105)]]
    s = bench_pairs.summarize(pairs, {"rps": "higher", "lat": "lower"})
    assert s["rps"]["change_wins"] == 3  # the tie counts for neither side
    assert s["lat"]["change_wins"] == 1
    assert s["rps"]["parent"] == {"median": 100, "q1": 100, "q3": 100, "iqr": 0}
    assert s["rps"]["change"]["median"] == 105 and s["rps"]["change"]["iqr"] == 10
    assert s["rps"]["median_diff"] == 5 and s["rps"]["median_diff_rel"] == 0.05
    assert s["rps"]["exceeds_parent_iqr"]
    assert s["failed_operations"] == {"parent": 0, "change": 0}


def test_summary_leaves_out_pairs_with_a_failed_run(bench_pairs):
    pairs = [{"parent": run(rps=1), "change": run(rps=2)},
             {"parent": {"result": None}, "change": run(rps=0)}]
    s = bench_pairs.summarize(pairs, {"rps": "higher"})
    assert s["rps"]["pairs"] == 1 and s["rps"]["change_wins"] == 1


def test_directions_cover_every_benchmark_metric(bench_pairs):
    better = bench_pairs.directions()
    assert better["rps"] == "higher" and better["server_cpu_us_per_req"] == "lower"
    assert set(better.values()) == {"higher", "lower"}
