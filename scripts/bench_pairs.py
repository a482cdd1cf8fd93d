#!/usr/bin/env python3
"""Run perfbench on a parent and a change in alternating pairs and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr <n> --parent HEAD~1 --change HEAD \\
        --workload serve_small --pairs 10 --seed 1001 --seconds 20 --trace 0

Each side is exported with `git archive` into its own directory under
--work, so both run the committed files of their commit, like a fresh
checkout, with identical benchmark settings. `--change index` exports the
staged tree (`git write-tree`) instead of a commit, less the output
file, so that staging that file does not change the id. --work is created
if it does not exist. Pair i runs seed --seed + i on both sides; even
pairs run the parent first, odd pairs the change first. After every run the output file is rewritten, so an
interrupted session keeps what it measured. An existing output file for
the same two revisions gains the new set of pairs.

The file holds every raw run (the last JSON line perfbench printed, plus
its exit code and wall time) and, per metric, each side's median and
quartiles and the number of pairs the change won, in the direction
BENCHMARK.json gives the metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = 1


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def resolve(rev: str, out: Path) -> str:
    """A tree-ish id: for "index" the staged tree without out, else the
    commit rev names."""
    if rev != "index":
        return git("rev-parse", "--verify", rev + "^{commit}")
    with tempfile.TemporaryDirectory() as tmp:
        # a throwaway index holding the staged tree, less out
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", git("write-tree"), env=env)
        if out.resolve().is_relative_to(REPO):
            git("update-index", "--force-remove", "--", str(out.resolve().relative_to(REPO)), env=env)
        return git("write-tree", env=env)


def export(treeish: str, dest: Path):
    """The files of treeish, as git archive writes them, into dest."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", treeish], cwd=REPO, check=True,
                       stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest, filter="data")


def directions() -> dict[str, str]:
    """metric name -> "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_side(tree: Path, cmd: list[str]) -> dict:
    """One perfbench run in tree: its result line, exit code and wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - t0, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, pairs won by the change, and the
    change's median minus the parent's, also relative to the parent's."""
    ok = [p for p in pairs if p["parent"]["result"] and p["change"]["result"]]
    if not ok:
        return {}
    out = {}
    for name in ok[0]["parent"]["result"]["metrics"]:
        vals = {side: [p[side]["result"]["metrics"][name]["value"] for p in ok]
                for side in ("parent", "change")}
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        par, chg = quartiles(vals["parent"]), quartiles(vals["change"])
        diff = chg["median"] - par["median"]
        out[name] = {"better": better.get(name), "parent": par, "change": chg,
                     "change_wins": wins, "pairs": len(ok), "median_diff": diff,
                     "median_diff_rel": diff / par["median"] if par["median"] else None,
                     "exceeds_parent_iqr": abs(diff) > par["iqr"]}
    out["failed_operations"] = {side: sum(p[side]["result"]["failed"] for p in ok)
                                for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--change", required=True, help='commit, or "index" for the staged tree')
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, help="where the two trees go (default: a temp dir)")
    ap.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = ap.parse_args(argv)

    out = args.out or REPO / f"BENCH_{args.pr}.json"
    revs = {"parent": resolve(args.parent, out), "change": resolve(args.change, out)}
    doc = {"schema": SCHEMA, "pr": args.pr, "parent": revs["parent"], "change": revs["change"],
           "change_is": f"tree staged on {git('rev-parse', 'HEAD')}" if args.change == "index"
           else "commit",
           "nproc": os.cpu_count(), "sets": []}
    if out.exists():
        old = json.loads(out.read_text())
        if (old["parent"], old["change"]) != (doc["parent"], doc["change"]):
            sys.exit(f"{out} compares other revisions; pass another --out")
        doc = old
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", "{seed}",
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    seeds = [args.seed + i for i in range(args.pairs)]
    entry = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
             "command": " ".join(["python3", *cmd[1:]]), "seeds": seeds,
             "order": "parent first on even pairs", "pairs": [], "summary": {}}
    doc["sets"].append(entry)
    better = directions()

    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    try:
        trees = {side: work / side for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], [a.format(seed=seed) for a in cmd])
                res = pair[side]["result"]
                print(f"{args.workload} seed {seed} {side}: exit {pair[side]['exit']}"
                      f" correct {res and res['correct']}", file=sys.stderr)
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], better)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [p for p in entry["pairs"] for s in revs if not (p[s]["result"] or {}).get("correct")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
