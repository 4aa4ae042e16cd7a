"""Smoke self-test of the benchmark at its smallest size.

    python3 framebench/smoke.py

Runs every workload for five seconds (the fewest that give the eleven
timed frames ``frame_ms_tail`` needs), untraced and traced, and
asserts that each metric named in ``BENCHMARK.json`` is printed with its
unit, both in the report lines and in the final JSON line, and that the
output check passed.  Then copies only ``BENCHMARK.json`` and this
directory into ``framebench/out/bare/`` and asserts that the benchmark
fails there without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root, workload, trace):
    cmd = [sys.executable, "framebench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def check(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines), m
    print(f"ok {workload} trace={trace}")


def check_bare():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "framebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "revisit-loop", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok bare checkout fails without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(spec, workload, trace)
    check_bare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
