"""Smoke test of the benchmark: one brief run per workload, untraced and traced.

    python3 perfbench/smoke.py              # about three minutes on 2 cores
    python3 -m pytest -q perfbench/smoke.py

Each run uses ``--seconds 1``, so it measures a single pass.  The test
asserts that every metric named in BENCHMARK.json is printed with its unit,
both in the human-readable lines and in the final JSON line, and that no
item failed (``fail_ratio == 0``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke(workload, trace):
    lines, result = run(workload, trace)
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.split()[:2] == [metric["name"], "="]
                   and line.split()[-1] == metric["unit"] for line in lines), metric
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    fail_ratio = [line.split() for line in lines if line.split()[:1] == ["fail_ratio"]]
    assert fail_ratio and float(fail_ratio[0][2]) == 0.0


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
