"""scripts/bench_pairs.py: the pair summary BENCH_<pr>.json files carry;
scripts/bench_trajectory.py: those files chained across PRs."""

import importlib.util
import json
import shutil
import subprocess
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


def git_repo(path: Path) -> Path:
    """A throwaway repository whose one commit holds BENCHMARK.json."""
    path.mkdir()
    shutil.copy(SCRIPT.parent.parent / "BENCHMARK.json", path)
    for args in (["init", "-q"], ["add", "BENCHMARK.json"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                  "commit", "-q", "-m", "init"]):
        subprocess.run(["git", *args], cwd=path, check=True, capture_output=True)
    return path.resolve()


def test_work_dir_is_made_with_its_parents(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "REPO", git_repo(tmp_path / "repo"))
    work = tmp_path / "a" / "b" / "work"
    # no pairs: both trees are exported into --work, and no perfbench runs
    assert bench_pairs.main(["--pr", "0", "--parent", "HEAD", "--change", "HEAD",
                             "--workload", "w", "--pairs", "0", "--seed", "1",
                             "--seconds", "1", "--work", str(work)]) == 0
    assert work.is_dir() and list(work.iterdir()) == []


def test_staging_the_output_file_keeps_the_index_id(bench_pairs, tmp_path, monkeypatch):
    repo = git_repo(tmp_path / "repo")
    monkeypatch.setattr(bench_pairs, "REPO", repo)
    out = repo / "BENCH_0.json"

    def stage(name: str, text: str):
        (repo / name).write_text(text)
        bench_pairs.git("add", name)

    stage("src.txt", "change\n")
    before = bench_pairs.resolve("index", out)
    stage(out.name, "{}\n")
    assert bench_pairs.resolve("index", out) == before
    assert out.name in bench_pairs.git("diff", "--cached", "--name-only").split()
    stage("src.txt", "another change\n")
    assert bench_pairs.resolve("index", out) != before


# ---- scripts/bench_trajectory.py: the committed files chained across PRs ----

TRAJECTORY = SCRIPT.parent / "bench_trajectory.py"


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TRAJECTORY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def committed_docs(trajectory) -> dict:
    return {pr: [json.loads(p.read_text()) for p in paths]
            for pr, paths in trajectory.bench_files().items()}


def test_trajectory_pools_each_prs_files_in_pr_order(trajectory):
    files = trajectory.bench_files()
    assert list(files) == sorted(files) and {7, 9, 10, 13, 14} <= set(files)
    assert [p.name for p in files[9]] == ["BENCH_9.earlier-1.json", "BENCH_9.earlier-2.json",
                                         "BENCH_9.json"]
    docs = committed_docs(trajectory)
    # the BENCH_9 files hold 10 serve_small pairs each, the two BENCH_14 files too
    assert len(trajectory.pooled_pairs(docs[9], "serve_small")) == 30
    assert len(trajectory.pooled_pairs(docs[14], "serve_small")) == 20
    assert len(trajectory.pooled_pairs(docs[7], "serve_small")) == 10  # its trace-1 set is out


def test_trajectory_product_chains_the_ratios(trajectory, bench_pairs):
    rows = trajectory.trajectory(committed_docs(trajectory), "serve_small", "rps",
                                 bench_pairs.directions())
    assert [r["pr"] for r in rows][:5] == [7, 9, 10, 13, 14]
    product = 1.0
    for r in rows:
        product *= r["ratio"]
        assert r["product"] == pytest.approx(product)
        assert 0 <= r["won"] <= r["pairs"]


def test_trajectory_row_is_the_ratio_of_medians_and_the_wins(trajectory):
    """Per PR: bench_pairs.summarize over its pooled trace-0 pairs, without
    the pair whose parent run failed; the product runs across PRs."""
    pairs = [{"parent": run(rps=p, lat=p), "change": run(rps=c, lat=c)}
             for p, c in [(100, 150), (110, 120), (90, 80)]]
    pairs.append({"parent": {"result": None}, "change": run(rps=1000, lat=1000)})
    docs = [{"sets": [{"workload": "w", "trace": 0, "pairs": pairs},
                      {"workload": "w", "trace": 1, "pairs": pairs[:1] * 5},
                      {"workload": "other", "trace": 0, "pairs": pairs[:1]}]}]
    assert len(trajectory.pooled_pairs(docs, "w")) == 4
    better = {"rps": "higher", "lat": "lower"}
    rps = trajectory.trajectory({3: docs, 5: docs}, "w", "rps", better)
    assert rps == [{"pr": 3, "won": 2, "pairs": 3, "ratio": 1.2, "product": 1.2},
                   {"pr": 5, "won": 2, "pairs": 3, "ratio": 1.2, "product": pytest.approx(1.44)}]
    assert trajectory.trajectory({3: docs}, "w", "lat", better)[0]["won"] == 1
    assert trajectory.trajectory({3: docs}, "w", "absent", better) == []


def test_trajectory_prints_every_workload_and_writes_no_file(trajectory, capsys):
    def bench_files():
        return {p.name: p.stat().st_mtime_ns for p in SCRIPT.parent.parent.glob("BENCH*")}

    before = bench_files()
    assert trajectory.main() == 0
    out = capsys.readouterr().out
    for workload in ("serve_small", "serve_large", "kernels", "build"):
        assert f"{workload} rps (higher is better)" in out
    assert bench_files() == before
