"""The acceptance matrix: one test (and one printed pass/fail line) per criterion.

All criteria are exact identities; there are no tolerances to calibrate.
Criterion 10 (byte-identical CLI output) is additionally exercised across two
real subprocesses, where hash randomization would expose any iteration-order
leak into the serialized report.
"""

import subprocess
import sys

import pytest

from slcc import acceptance, weyl


@pytest.mark.parametrize("name", acceptance.all_names())
def test_criterion(name, capsys):
    result = acceptance.run_check(name)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_unknown_check_is_refused():
    with pytest.raises(KeyError, match="unknown acceptance check 'criterion-99'"):
        acceptance.run_check("criterion-99")


def test_cli_acceptance_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "slcc", "acceptance", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout


def test_run_all_twice_in_one_process_leaves_the_weyl_caches_intact():
    settings = [(group, n) for group in "BD" for n in range(1, 6)]
    first = acceptance.run_all()
    second = acceptance.run_all()
    assert first == second
    assert all(r.passed for r in first)
    for group, n in settings:
        cached = weyl.invariant_generators(group, n)
        assert weyl.invariant_generators(group, n) is cached
        fresh = weyl.invariant_generators.__wrapped__(group, n)
        # a caller that wrote into a cached term map would show here
        assert [str(g) for g in cached.gens] == [str(g) for g in fresh.gens]
        assert [g.terms for g in cached.gens] == [g.terms for g in fresh.gens]
        assert weyl.coinvariant_ideal(group, n).generators == cached.gens
