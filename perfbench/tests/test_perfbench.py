"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They start real child processes, one at a time, and take about half a minute.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, Workload, dense_terms, poly_text, workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".term_products", ".terms_scanned", ".distinct", ".basis_size", ".out_terms")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_wrong_golden_digest_makes_error_rate_nonzero():
    golden = run.load_golden()
    assert run.error_rate([r for rnd in run.run_rounds(workloads()["acceptance"], 0, golden) for r in rnd]) == 0
    golden["acceptance"] = "0" * 64
    rounds = run.run_rounds(workloads()["acceptance"], 0, golden)
    results = [r for rnd in rounds for r in rnd]
    assert run.error_rate(results) == 1
    assert any("golden" in p for p in results[0]["problems"])
    metrics = run.end_to_end(rounds, [])
    assert metrics["success_rate"][0] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert declared == {name: unit for name, (_, unit) in metrics.items()}


def test_traced_counts_repeat_exactly():
    golden = run.load_golden()
    witness = workloads()["witness"]
    runs = []
    for _ in range(2):
        traced = [run.run_invocation(inv, True, golden) for inv in witness.invocations]
        assert all(not r["problems"] for r in traced)
        runs.append(run.per_layer(traced, 0.0))
    counts = [{k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["weyl.witness.calls"] == (2, "count")
    assert counts[0]["polyring.leading_term.terms_scanned"][0] > 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in runs[0].items()}


def test_builder_dispatch_is_traced():
    # build("max_flag") calls present_max_flag through presentations._BUILDERS,
    # which holds its own reference to the function
    inv = run.Invocation("max-flag N=4", ("verify", "presentation", "--kind", "max-flag",
                                          "--N", "4", "--format", "json"))
    r = run.run_invocation(inv, True, {})
    assert not r["problems"]
    assert spans.summarize(r["trace"])["calls"]["presentations.build"] == 2


def test_untraced_times_are_normalized():
    r = run.run_invocation(run.WARM_UP, False, {})
    assert not r["problems"]
    for key in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s"):
        assert r[key] > 0
    # the probes' own time is taken out before the time is rescaled
    assert r["wall_net_s"] <= r["wall_raw_s"]


def test_never_more_than_one_child_at_a_time():
    tiny = Workload("tiny", "", (run.WARM_UP,) * 3)
    setups = [run.run_setup() for _ in range(2)]
    results = setups + [r for rnd in run.run_rounds(tiny, 2.0, {}) for r in rnd]
    assert len(results) >= 5 and run.error_rate(results) == 0
    for r in results:
        assert r["t_spawn"] <= r["t_child"][0] <= r["t_child"][1] <= r["t_reaped"]
    for earlier, later in zip(results, results[1:]):
        assert earlier["t_reaped"] <= later["t_spawn"]


def test_missing_public_name_fails_loudly(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import slcc.cli  # noqa: F401  (loads every slcc module)

    bad = ("groebner", "no_such_function", "groebner.no_such_function")
    monkeypatch.setattr(spans, "TARGETS", (bad,) + spans.TARGETS)
    with pytest.raises(LookupError, match="no_such_function"):
        spans.install()


def test_dense_input_is_seeded():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from slcc.polyring import parse_poly
    from slcc.weyl import e_ring

    terms = dense_terms(DEFAULT_SEED)
    assert terms == dense_terms(DEFAULT_SEED)
    assert terms != dense_terms(DEFAULT_SEED + 1)
    assert 900 < len(terms) <= 1001
    assert all(sum(e) == 10 and -9 <= c <= 9 and c for e, c in terms.items())
    assert parse_poly(poly_text(terms), e_ring(5)).terms == terms
