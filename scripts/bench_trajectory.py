#!/usr/bin/env python3
"""Chain the committed BENCH_<pr>*.json files into one trajectory per metric.

    python3 scripts/bench_trajectory.py

Medians from different BENCH files do not compare: the host's speed drifts
between the times they were measured. The ratio of a change to its parent,
measured in alternating pairs at one time, does. For each workload and each
end-to-end metric of BENCHMARK.json this prints, per PR in PR order:

- ratio: the median of the change's runs over the median of the parent's;
- won: how many pairs the change won, in the metric's direction;
- product: the running product of the ratios so far, i.e. how far the
  metric has moved since the first PR that measured it, if each PR's
  parent is the one before it.

A PR's several files (BENCH_9.json, BENCH_9.earlier-1.json, ...) pool
their pairs. Only sets run with --trace 0 count, since tracing slows the
end-to-end numbers. Medians and wins are bench_pairs.summarize's, so a pair
with a failed run on either side is left out as it is there. It reads files
only and writes none.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import REPO, directions, summarize  # noqa: E402

NAME = re.compile(r"BENCH_(\d+)(\.[^/]*)?\.json$")


def bench_files() -> dict[int, list[Path]]:
    """PR number -> its BENCH files at the repo root, in PR order."""
    by_pr: dict[int, list[Path]] = {}
    for path in sorted(REPO.glob("BENCH_*.json")):
        m = NAME.fullmatch(path.name)
        if m:
            by_pr.setdefault(int(m.group(1)), []).append(path)
    return dict(sorted(by_pr.items()))


def pooled_pairs(docs: list[dict], workload: str) -> list[dict]:
    """The trace-0 pairs of workload in docs."""
    return [p for doc in docs for s in doc["sets"]
            if s["workload"] == workload and s["trace"] == 0 for p in s["pairs"]]


def trajectory(docs_by_pr: dict[int, list[dict]], workload: str, metric: str,
               better: dict[str, str]) -> list[dict]:
    """Per PR that measured metric on workload: its ratio, its wins and the
    running product."""
    rows, product = [], 1.0
    for pr, docs in docs_by_pr.items():
        s = summarize(pooled_pairs(docs, workload), better).get(metric)
        if s is None:
            continue
        parent = s["parent"]["median"]
        ratio = s["change"]["median"] / parent if parent else None
        product = product * ratio if ratio is not None and product is not None else None
        rows.append({"pr": pr, "won": s["change_wins"], "pairs": s["pairs"],
                     "ratio": ratio, "product": product})
    return rows


def main() -> int:
    docs_by_pr = {pr: [json.loads(p.read_text()) for p in paths]
                  for pr, paths in bench_files().items()}
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = directions()
    fmt = lambda x: "-" if x is None else f"{x:.3f}"  # noqa: E731
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in (m["name"] for m in spec["end_to_end"]):
            rows = trajectory(docs_by_pr, workload, metric, better)
            if not rows:
                continue
            print(f"{workload} {metric} ({better[metric]} is better)")
            print(f"  {'PR':>4} {'won':>7} {'ratio':>7} {'product':>8}")
            for r in rows:
                won = f"{r['won']}/{r['pairs']}"
                print(f"  {r['pr']:>4} {won:>7} {fmt(r['ratio']):>7} {fmt(r['product']):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
