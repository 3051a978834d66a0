"""The two dump scripts print their pinned hashes: every decomposition and
every Groebner engine result they cover is byte-identical.

An announced output change updates these pins, as it updates
perfbench/golden.json.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINS = [
    (
        "dump_decompositions.py",
        "310 decompositions, sha256 "
        "4b846926416c2a976b4ea47b36a298437293c2e7bf02018cdc42f8d32a19e936",
    ),
    (
        "dump_groebner.py",
        "474 records, sha256 ef09e2fa89410d3b814050512bf796e5670668a3293f6e7fa7cee5b0fd10b070",
    ),
]


@pytest.mark.parametrize("script, line", PINS, ids=[script for script, _ in PINS])
def test_dump_hash(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), os.devnull],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [line]
