#!/usr/bin/env python3
"""Self-test of the serving benchmark: every workload at smoke size.

Runs perfbench/run.py --smoke for each workload, untraced and traced, and
checks that each run verifies and reports exactly the metrics BENCHMARK.json
names, with sane values. Run from the root of a checkout:
  python3 perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            assert res["correct"] is True, where
            assert res["attempted"] >= 1 and res["failed"] == 0, where
            names = [m["name"] for m in spec[kind]]
            assert list(res["metrics"]) == names, where
            for m in spec[kind]:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (where, m["name"])
                assert math.isfinite(got["value"]), (where, m["name"])
            if trace == 0:
                for name in names:
                    assert res["metrics"][name]["value"] > 0, (where, name)
                assert res["metrics"]["success_share"]["value"] == 1.0, where
            print(f"ok  {where}")


if __name__ == "__main__":
    main()
