"""Time the kernel rungs and the benchmark on two source trees, alternating.

    python scripts/kernel_ladder.py PARENT CHANGE --out BENCH_23.json
        [--repeats 5] [--pairs 10] [--seconds 10] [--workloads witness,acceptance]

PARENT and CHANGE are checkouts of this repository.  Every run is a fresh
process with PYTHONPATH at that tree's src, and the two trees alternate;
the tree that runs first alternates per repetition.

* ladder: each rung of RUNGS is an argv tuple, so one argument can hold a
  whole polynomial: two rungs parse the spanning benchmark's dense input
  and every monomial of total exponent 14 in e1..e5.  Each rung runs
  ``--repeats`` times per tree.  The child times ``from slcc.cli import
  main`` first, with only ``time`` imported before it (``import_s``, the
  start-up a change to the imports shows in), then ``slcc.cli.main(argv)``
  inside the process (``in_process_s``, imports excluded), and reports its
  peak RSS, the sha256 of its stdout and main's exit code (2 on the rung
  whose line is a usage error); the parent times the whole process
  (``wall_s``).  The JSON names a rung by its argv, each argument
  over 40 characters replaced by its length and digest.  ``--repeats 0``
  skips this part.
* perfbench: ``--pairs`` alternating pairs of ``perfbench/run.py
  --workload W --seconds S`` per workload, each run in its own tree.  Each
  metric gets its runs, median and quartiles per tree, and the number of
  pairs in which the change was lower.  ``--pairs 0`` skips this part.

The JSON goes to ``--out``; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import DEFAULT_SEED, dense_terms, poly_text  # noqa: E402

RING_E5 = ",".join(f"e{i}:2" for i in range(1, 6))
# every exponent vector of total exponent 14 in e1..e5: C(18, 4) = 3060 terms
EVERY_E5_14 = poly_text(
    {tuple(map(c.count, range(5))): 1 for c in itertools.combinations_with_replacement(range(5), 14)}
)
RUNGS = (
    # the CLI's fixed cost per run: parsing off the command table, a one-term answer
    ("symfunc", "elementary", "--i", "1", "--vars", "x1"),
    # a line the table does not parse: argparse builds its parser to report the error
    ("witness", "--group", "B", "--n", "2", "--bogus"),
    ("witness", "--group", "B", "--n", "7"),
    ("witness", "--group", "D", "--n", "7"),
    ("witness", "--group", "B", "--n", "8"),
    ("span", "reduce", "--group", "B", "--n", "2", "--poly", "e1^2000"),
    # the spanning workload's dense input: 964 terms, 13.5k tokens to parse
    ("span", "reduce", "--group", "D", "--n", "5", "--poly", poly_text(dense_terms(DEFAULT_SEED))),
    # a change of basis in degrees 6, 8, 10, 12 and 14
    ("span", "reduce", "--group", "D", "--n", "6", "--poly",
     "e1^6*e2^4*e3^2*e4^2+e4^5*e5^3*e6^2+e1^14+e2^7*e6^7"),
    # no change of basis: every remainder term is a basis monomial
    ("span", "reduce", "--group", "D", "--n", "7", "--poly",
     "e1^5*e2^3*e3^2*e7^2+e4^4*e5^3*e6^2*e7^3+e1^12+e2^6*e7^6"),
    ("poly", "parse", "--ring", RING_E5, "--expr", EVERY_E5_14),
    # 645120 monomials built, rendered and printed
    ("span", "basis", "--group", "B", "--n", "7"),
    ("acceptance",),
    # presentations: declared monomials, their normal forms and the remainders read back
    ("verify", "presentation", "--kind", "max-flag", "--N", "13", "--max-degree", "80"),
    ("present", "sgr-even", "--m", "5", "--n", "10", "--parity", "even"),
)
WORKLOADS = ("witness", "verify", "spanning", "acceptance")
METRICS = ("wall_s", "setup_s", "peak_rss_mib", "success_rate")

CHILD = """
import time
start = time.perf_counter()
from slcc.cli import main
import_s = time.perf_counter() - start
import contextlib, hashlib, io, json, resource, sys
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
seconds = time.perf_counter() - start
print(json.dumps({
    "exit": code,
    "import_s": import_s,
    "in_process_s": seconds,
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
}))
"""


def _run_rung(tree: str, argv: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    if proc.returncode:
        raise SystemExit(f"{tree}: {_label(argv)} failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["wall_s"] = wall
    return record


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)]}


def _label(argv: tuple[str, ...]) -> str:
    """The argv as one line, each argument over 40 characters shown by its size and digest."""
    return " ".join(
        a if len(a) <= 40 else f"<{len(a)} chars, sha256 {hashlib.sha256(a.encode()).hexdigest()[:12]}>"
        for a in argv
    )


def ladder(trees: dict[str, str], repeats: int) -> dict:
    rungs = []
    for argv in RUNGS:
        argv_text = _label(argv)
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        for rep in range(repeats):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for side in order:
                runs[side].append(_run_rung(trees[side], argv))
            print(f"ladder {argv_text} #{rep + 1}: "
                  + ", ".join(f"{s} {runs[s][-1]['in_process_s']:.3f}"
                              f" (import {runs[s][-1]['import_s']:.3f})" for s in trees),
                  file=sys.stderr)
        rung: dict = {"argv": argv_text}
        for side, records in runs.items():
            rung[side] = {
                key: [round(r[key], 4) for r in records]
                for key in ("import_s", "in_process_s", "wall_s", "peak_rss_mib")
            }
            rung[side]["median_import_s"] = _summary(rung[side]["import_s"])["median"]
            rung[side]["median_in_process_s"] = _summary(rung[side]["in_process_s"])["median"]
            rung[side]["median_wall_s"] = _summary(rung[side]["wall_s"])["median"]
            rung[side]["exit"] = sorted({r["exit"] for r in records})
            rung[side]["stdout_sha256"] = sorted({r["stdout_sha256"] for r in records})
        sides = list(trees)
        rung["stdout_identical"] = len({d for s in sides for d in rung[s]["stdout_sha256"]}) == 1
        rung["speedup_in_process"] = round(
            rung[sides[0]]["median_in_process_s"] / rung[sides[1]]["median_in_process_s"], 2
        )
        rungs.append(rung)
    return {
        "command": "python -c <time the slcc.cli import, then slcc.cli.main(argv)> <argv>",
        "method": f"fresh process per run, PYTHONPATH at each tree's src; the trees alternate "
        f"and the side that runs first alternates per repetition; {repeats} repetitions",
        "rungs": rungs,
    }


def _perfbench_run(tree: str, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {name: m["value"] for name, m in result["metrics"].items() if name in METRICS}
    record["correct"], record["failed"] = result["correct"], result["failed"]
    return record


def perfbench(trees: dict[str, str], workloads: list[str], pairs: int, seconds: float) -> dict:
    parent, change = trees
    out: dict = {
        "command": f"python3 perfbench/run.py --workload <w> --seconds {seconds:g} (default seed)",
        "method": "alternating parent/change runs, the side that runs first alternates per pair",
    }
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        for i in range(pairs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                runs[side].append(_perfbench_run(trees[side], workload, seconds))
            print(f"perfbench {workload} pair {i + 1}: "
                  + ", ".join(f"{s} {runs[s][-1]['wall_s']:.4f}" for s in trees),
                  file=sys.stderr)
        section: dict = {"pairs": pairs}
        for metric in METRICS:
            entry: dict = {}
            for side in trees:
                values = [round(r[metric], 4) for r in runs[side]]
                summary = _summary(values)
                entry[side] = values
                entry[f"{side}_median"] = summary["median"]
                entry[f"{side}_quartiles"] = summary["quartiles"]
            entry["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(entry[parent], entry[change])
            )
            section[metric] = entry
        section["golden_digests_matched"] = all(r["correct"] for s in trees for r in runs[s])
        section["failed_invocations"] = sum(r["failed"] for s in trees for r in runs[s])
        out[workload] = section
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--out", required=True, help="where to write the JSON")
    parser.add_argument("--repeats", type=int, default=5, help="ladder runs per rung and tree")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench pairs per workload")
    parser.add_argument("--seconds", type=float, default=10, help="perfbench --seconds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record: dict = {"host": {"python": platform.python_version(), "nproc": os.cpu_count()}}
    if args.repeats:
        record["ladder"] = ladder(trees, args.repeats)
    if args.pairs:
        workloads = args.workloads.split(",")
        record["perfbench"] = perfbench(trees, workloads, args.pairs, args.seconds)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
