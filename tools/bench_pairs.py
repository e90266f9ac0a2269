"""Run perfbench in alternating pairs on two checkouts and judge the change.

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds X --trace 0

once in the parent checkout and once in the change checkout, with the
side that runs first alternating from pair to pair (the parent first in
the first pair).  Pair i uses the i-th seed of --seeds.  A run whose last
line of standard output is not a JSON object, or says "correct": false,
stops the tool with an error.

For each end-to-end metric of BENCHMARK.json (read from this repository,
whose root holds this file) it prints each side's median and quartiles,
the pairs the change wins (ties count for neither side), and two rules:

* gain: the change wins at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
* worse: the change's median is worse than the parent's by more than the
  metric's relative bound.  Where either side's interquartile range,
  relative to the parent's median, exceeds the bound, the metric is
  unresolved instead, unless every change run is better than every parent
  run.

Each side's median cpu_s, the process CPU time of a run's measured
iterations (from perfbench's diagnostics line), is printed as well; it is
reported, not judged.

--out writes every run's metrics and cpu_s, the summary, and the commit of each
checkout (git rev-parse HEAD; null for a copy that is not the root of a
git work tree) to a JSON file.

Run from the repository root, for example

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload desk_point --seeds 31,32,33,34,35,36,37,38,39,40 \\
        --seconds 20 --out pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _better(a: float, b: float, better: str) -> bool:
    """a is strictly better than b."""
    return a < b if better == "lower" else a > b


def wins(parent, change, better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    return sum(_better(c, p, better) for p, c in zip(parent, change))


def gain_holds(parent, change, better: str) -> bool:
    """The change wins at least 9/10 of the pairs, and its median is better
    than the parent's by more than the parent's interquartile range."""
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    gap = pmed - cmed if better == "lower" else cmed - pmed
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > p3 - p1


def verdict(parent, change, better: str, bound: float) -> str:
    """"worse" when the change's median is worse than the parent's by more
    than bound (relative to the parent's median); "unresolved" when
    instead either side's interquartile range exceeds bound times the
    parent's median and not every change run beats every parent run;
    "within bound" otherwise."""
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    worse_by = cmed - pmed if better == "lower" else pmed - cmed
    if worse_by > bound * abs(pmed):
        return "worse"
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if max(p3 - p1, c3 - c1) > bound * abs(pmed) and not all_better:
        return "unresolved"
    return "within bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one perfbench run in checkout, as {name: value}, and
    its cpu_s from the diagnostics line before the last (None when that
    line has none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: seed {seed}: last line is not JSON "
                         f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    if not isinstance(record, dict) or record.get("correct") is not True:
        raise SystemExit(f"{checkout}: seed {seed}: run not correct: "
                         f"{lines[-1][:500]}")
    try:
        diagnostics = json.loads(lines[-2])["diagnostics"]
    except (IndexError, KeyError, ValueError):
        diagnostics = {}
    return {**{name: m["value"] for name, m in record["metrics"].items()},
            "cpu_s": diagnostics.get("cpu_s")}


def head_commit(checkout: Path) -> str | None:
    """The commit checked out at checkout (git rev-parse HEAD), or None
    when checkout is not the root of a git work tree (a copy made with
    git archive, say), so that no enclosing repository is named."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != Path(checkout).resolve():
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path,
                        help="write every run's metrics and the summary here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> "
            f"{runs['change'][-1][m['name']]:.4g}" for m in metrics), flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(seeds)} pairs, --seconds {args.seconds:g}")
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        summary[name] = {
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_wins": wins(parent, change, better),
            "gain_holds": gain_holds(parent, change, better),
            "verdict": verdict(parent, change, better, m["bound"]),
        }
        s = summary[name]
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        print(f"{name} ({m['unit']}, {better} is better, bound {m['bound']:g}): "
              f"parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}], "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}], "
              f"change wins {s['change_wins']}/{len(seeds)}, "
              f"gain {'holds' if s['gain_holds'] else 'does not hold'}, "
              f"{s['verdict']}")
    cpu = {side: [r.get("cpu_s") for r in runs[side]] for side in runs}
    if all(v is not None for side in cpu.values() for v in side):
        summary["cpu_s"] = {f"{side}_median": statistics.median(v) for side, v in cpu.items()}
        print(f"cpu_s (s, reported, not judged): parent {summary['cpu_s']['parent_median']:.4g}, "
              f"change {summary['cpu_s']['change_median']:.4g}")
    if args.out is not None:
        commits = {"parent": head_commit(args.parent),
                   "change": head_commit(args.change)}
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "seeds": seeds,
             "commits": commits, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
