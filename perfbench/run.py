"""slcc benchmark: real CLI invocations, each in a fresh child process.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0

A single client runs a closed loop: one child at a time, the next started
only after the previous one has exited, because `_GB_CACHE` and the
`lru_cache` sites are process-global and a CLI user starts cold every time.
One round runs each of the workload's invocations once; rounds repeat for
`--seconds`.  `wall_s`, `setup_s` and `peak_rss_mib` are medians over
rounds; the two times are normalized to a reference host speed sampled
inside each child (see hostspeed.py).

With `--trace 1` the untraced rounds are followed by one traced round whose
spans give the per-layer metrics (see README.md for which end-to-end metric
each should move).  Every invocation is checked: exit code 0, every pass
field of its JSON true, and its stdout sha256 equal to the golden digest in
golden.json where one is recorded for that exact invocation.

The last stdout line is the JSON result; the lines before it are a report
with the environment header, percentiles, every invocation's full stdout
digest (to copy into golden.json after an intended output change) and any
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
from workloads import DEFAULT_SEED, Invocation, Workload, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
CHILD_TIMEOUT_S = 60
# children that only import slcc.cli, for more set-up samples per run
SETUP_CHILDREN = 12

WARM_UP = Invocation("warm-up", ("witness", "--group", "D", "--n", "2", "--format", "json"))
PASS_FIELDS = ("verified", "pass", "equal", "all_pass")

ACCEPTANCE_CRITERIA = (
    "criterion-01-grassmannian-ranks",
    "criterion-02-coinvariant-dimensions",
    "criterion-03-witnesses",
    "criterion-04-spanning",
    "criterion-05-flag-ideal-equality",
    "criterion-06-sgr-even-collapse",
    "criterion-07-charclass",
    "criterion-08-specialization",
    "criterion-09-symfunc",
    "criterion-10-determinism",
)

# span names reported as <name>.calls and <name>.self_s
CALLS_AND_SELF = (
    "polyring.mul", "polyring.add", "polyring.sub", "polyring.pow",
    "polyring.leading_term", "polyring.substitute", "polyring.new", "polyring.str",
    "polyring.parse_poly",
    "groebner.groebner_basis", "groebner.normal_form", "groebner.member_with_cofactors",
    "groebner.ideal_equal", "groebner.quotient_hilbert", "groebner.standard_monomials",
    "presentations.build", "presentations.verify_presentation",
    "weyl.witness", "weyl.invariant_generators",
    "spanning.reduce", "spanning.expand",
    "charclass.total_borel", "charclass.complement_borel",
    "symfunc.complete", "symfunc.elementary", "symfunc.g_poly",
    "series.series_mul",
)
SELF_ONLY = (
    "presentations.coherence", "spanning.basis", "spanning.verify_free",
    "charclass.verify_cor_dual", "symfunc.checks",
)
CALLS_ONLY = ("charclass.euler",)
WORK_COUNTS = (
    "polyring.mul.term_products", "polyring.leading_term.terms_scanned",
    "groebner.budget_exceeded", "presentations.verify_presentation.basis_size",
    "spanning.reduce.out_terms",
)


# -- one child -------------------------------------------------------------


def spawn(mode: str, argv: tuple[str, ...], label: str) -> tuple[dict, dict | None]:
    """Run child.py in `mode` and wait for it; the result with its set-up
    times, and the child's record (None when the child itself failed)."""
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, *argv],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"label": label, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}, None
    result = {"label": label, "t_spawn": t_spawn, "t_reaped": time.time(), "problems": []}
    try:
        record = json.loads(proc.stdout)
    except ValueError:
        record = None
    if proc.returncode != 0 or record is None:
        result["problems"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return result, None
    if proc.stderr.strip():
        result["problems"].append(f"stderr: {proc.stderr.strip()[-500:]}")
    result.update(
        setup_raw_s=record["t_imported"] - t_spawn,
        t_child=(record["t_start"], record["t_end"]),
    )
    if "setup_factor" in record:
        result["setup_s"] = (result["setup_raw_s"] - record["setup_probe_s"]) * record["setup_factor"]
    return result, record


def run_setup() -> dict:
    """A child that only imports `slcc.cli`: one more set-up sample."""
    return spawn("setup", (), "set-up")[0]


def run_invocation(inv: Invocation, traced: bool, golden: dict[str, str]) -> dict:
    """Run `inv` in a fresh child and check its output; never raises for a
    failure of the program, which is reported in the result's `problems`."""
    result, record = spawn("1" if traced else "0", inv.argv, inv.label)
    if record is None:
        return result
    result.update(
        wall_raw_s=record["wall_raw_s"],
        rss_mib=record["maxrss_mib"],
        trace=record.get("trace"),
        digest=hashlib.sha256(record["stdout"].encode()).hexdigest(),
    )
    if not traced:
        result["wall_net_s"] = record["wall_raw_s"] - record["main_probe_s"]
        result["wall_s"] = result["wall_net_s"] * record["main_factor"]
    result["problems"] += check_output(inv, record, result["digest"], golden)
    return result


def check_output(inv: Invocation, record: dict, digest: str, golden: dict[str, str]) -> list[str]:
    problems = []
    if record["exit"] != 0:
        problems.append(f"slcc exited {record['exit']}")
    try:
        payload = json.loads(record["stdout"])
    except ValueError:
        return problems + ["stdout is not JSON"]
    flags = list(pass_fields(payload))
    if not flags:
        problems.append("no pass field in the output")
    problems += [f"{key} is {value!r}" for key, value in flags if value is not True]
    expected = golden.get(inv.label)
    if expected is not None and expected != digest:
        problems.append(f"stdout sha256 {digest} differs from golden {expected}")
    if inv.expected_target is not None and parse_terms(payload.get("target", "")) != inv.expected_target:
        problems.append("the reported target is not the generated input polynomial")
    return problems


def pass_fields(payload):
    """(key, value) for every pass field anywhere in a JSON payload."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in PASS_FIELDS:
                yield key, value
            yield from pass_fields(value)
    elif isinstance(payload, list):
        for item in payload:
            yield from pass_fields(item)


def parse_terms(text: str) -> dict[tuple[int, ...], int]:
    """Term map of a printed polynomial in e1..e5, e.g. `-3*e1^2*e4 + e5`."""
    terms = {}
    for token in text.replace(" - ", " + -").split(" + "):
        negative = token.startswith("-")
        coeff, expo = 1, [0] * 5
        for factor in token.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                name, _, power = factor.partition("^")
                expo[int(name[1:]) - 1] += int(power or 1)
        terms[tuple(expo)] = -coeff if negative else coeff
    return terms


# -- rounds and metrics ----------------------------------------------------


def run_rounds(workload: Workload, seconds: float, golden: dict[str, str]) -> list[list[dict]]:
    """Untraced rounds, back to back, while another round of average length
    still fits in `seconds` (at least one round)."""
    rounds = []
    begin = time.perf_counter()
    elapsed = 0.0
    while not rounds or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append([run_invocation(inv, False, golden) for inv in workload.invocations])
        elapsed = time.perf_counter() - begin
    return rounds


def _round_sums(rounds: list[list[dict]], key: str) -> list[float]:
    return [sum(r[key] for r in rnd if key in r) for rnd in rounds]


def highest_percentile(values: list[float]) -> dict | None:
    """The highest nearest-rank percentile with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return {"percentile": round(100 * rank / len(ordered), 1), "value": ordered[rank - 1]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1, "q3": q3,
        "highest_percentile": highest_percentile(values),
        "samples": len(values),
        "values": values,
    }


def error_rate(results: list[dict]) -> float:
    """Failed invocations over attempted ones."""
    return sum(1 for r in results if r["problems"]) / len(results)


def setup_samples(rounds: list[list[dict]], setups: list[dict], key: str) -> list[float]:
    """One child's set-up time, from every child of the run that has one."""
    return [r[key] for r in setups + [r for rnd in rounds for r in rnd] if key in r]


def end_to_end(rounds: list[list[dict]], setups: list[dict]) -> dict:
    """The end-to-end metrics as name -> (value, unit).

    `wall_s` is the median over rounds, and `setup_s` the median set-up of
    one child times the round's child count, of times normalized to the
    reference host speed (hostspeed.py): on a shared VM the raw times of one
    invocation spread by 0.16 between fresh runs, and by up to 50% between
    runs minutes apart, with the neighbours' load.  The raw medians are in
    the report.

    `success_rate` is 1 - error_rate: a bound is a share of the parent's
    median, so a metric whose median is 0 at a correct commit cannot carry one.
    """
    results = [r for rnd in rounds for r in rnd]
    return {
        "wall_s": (statistics.median(_round_sums(rounds, "wall_s")), "s"),
        "setup_s": (
            len(rounds[0]) * statistics.median(setup_samples(rounds, setups, "setup_s")), "s"
        ),
        "peak_rss_mib": (
            statistics.median(max((r.get("rss_mib", 0.0) for r in rnd)) for rnd in rounds),
            "MiB",
        ),
        "success_rate": (1 - error_rate(results), "ratio"),
    }


def per_layer(traced: list[dict], untraced_wall_s: float) -> dict:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    distinct = 0
    for r in traced:
        summary = spans.summarize(r["trace"])
        for into, part in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s")):
            for name, value in summary[part].items():
                into[name] = into.get(name, 0) + value
        for name, value in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        distinct += r["trace"]["gb_distinct"]
    criteria = {name.split(".", 1)[1] for name in calls if name.startswith("acceptance.")}
    if not criteria <= set(ACCEPTANCE_CRITERIA):
        raise SystemExit(f"unknown acceptance criteria {sorted(criteria - set(ACCEPTANCE_CRITERIA))}; "
                         "update ACCEPTANCE_CRITERIA and BENCHMARK.json")
    m: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in WORK_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    gb_calls = calls.get("groebner.groebner_basis", 0)
    m["groebner.groebner_basis.distinct"] = (distinct, "count")
    m["groebner.groebner_basis.hit_ratio"] = (1 - distinct / gb_calls if gb_calls else 0.0, "ratio")
    m["groebner.cofactor_use_ratio"] = (
        calls.get("groebner.member_with_cofactors", 0) / distinct if distinct else 0.0, "ratio"
    )
    for name in ACCEPTANCE_CRITERIA:
        m[f"acceptance.{name}.s"] = (total_s.get(f"acceptance.{name}", 0.0), "s")
    m["cli.main.s"] = (total_s.get("cli.main", 0.0), "s")
    m["cli.self_s"] = (self_s.get("cli.main", 0.0), "s")
    traced_wall = sum(r.get("wall_raw_s", 0.0) for r in traced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    return m


# -- environment and entry point ---------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def host_probe_s() -> float:
    """Median of 21 host-speed probes (hostspeed.probe): on a shared VM the
    neighbours' load does not enter the load average, but slows the probe."""
    return statistics.median(hostspeed.probe() for _ in range(21))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "probe_s_start": host_probe_s(),
    }


def load_golden() -> dict[str, str]:
    with open(GOLDEN) as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads()), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slcc", "cli.py")):
        print("perfbench: src/slcc is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = environment()
    golden = load_golden()
    workload = workloads(args.seed)[args.workload]
    # a cheap first child compiles src/ to bytecode, so no timed child pays for it
    warm = run_invocation(WARM_UP, False, {})
    begin = time.perf_counter()
    setups = [run_setup() for _ in range(SETUP_CHILDREN)]
    rounds = run_rounds(workload, args.seconds - (time.perf_counter() - begin), golden)
    results = [r for rnd in rounds for r in rnd]
    metrics = end_to_end(rounds, setups)
    if args.trace:
        traced = [run_invocation(inv, True, golden) for inv in workload.invocations]
        results += traced
        if any(r["problems"] for r in traced):
            metrics = {}
        else:
            metrics = per_layer(traced, statistics.median(_round_sums(rounds, "wall_net_s")))
    env["loadavg_end"] = os.getloadavg()
    env["probe_s_end"] = host_probe_s()

    failed = sum(1 for r in results if r["problems"])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "closed_loop": "1 client, 1 child process at a time",
        "environment": env,
        "rounds": len(rounds),
        "wall_s": spread(_round_sums(rounds, "wall_s")),
        "wall_raw_s": spread(_round_sums(rounds, "wall_raw_s")),
        "setup_s_one_child": spread(setup_samples(rounds, setups, "setup_s")),
        "setup_raw_s_one_child": spread(setup_samples(rounds, setups, "setup_raw_s")),
        "error_rate": error_rate(results),
        "invocations": {
            inv.label: {
                "wall_s": [rnd[i].get("wall_s") for rnd in rounds],
                "digest": rounds[-1][i].get("digest"),
            }
            for i, inv in enumerate(workload.invocations)
        },
        "failures": [
            {"label": r["label"], "problems": r["problems"]}
            for r in [warm] + setups + results if r["problems"]
        ],
    }
    print(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": failed == 0 and not any(r["problems"] for r in [warm] + setups) and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
