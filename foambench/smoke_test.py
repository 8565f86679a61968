#!/usr/bin/env python3
"""Smoke test of the benchmark at FoamConfig::testing() size (~1 minute).

    python3 foambench/smoke_test.py

For every workload, through the same run.py the benchmark is run with:
  * every metric BENCHMARK.json names is printed, by name and with its unit,
    both as a `metric` line and in the final JSON object, and nothing else;
  * the output checks pass, and the final-state digest repeats for one seed
    and changes with the seed;
  * a NaN planted in the final state makes the output check fire.
It also checks that a set environment knob stops the run before it starts.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace, *extra, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "testing", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=600)
    return p.returncode, p.stdout


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def result(workload, seed, trace, *extra):
    code, out = run(workload, seed, trace, *extra)
    if code != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {code}:\n{out}")
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(res)}")
    digest = re.search(r"^digest ([0-9a-f]{16})$", out, re.M)
    if digest is None:
        fail(f"{workload}: no digest line")
    return res, out, digest.group(1)


def check_metrics(workload, trace, res, out):
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
    for name, unit in want.items():
        if not re.search(rf"^metric {re.escape(name)} +\S+ {re.escape(unit)}$",
                         out, re.M):
            fail(f"{workload}: no `metric {name} <value> {unit}` line")
        if not isinstance(res["metrics"][name]["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")


def main():
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace in (0, 1):
            res, out, _ = result(w, 1, trace)
            if not res["correct"] or res["failed"] != 0:
                fail(f"{w} trace {trace}: output check failed:\n{out}")
            check_metrics(w, trace, res, out)
        _, _, d1 = result(w, 1, 0)
        _, _, d1b = result(w, 1, 0)
        _, _, d2 = result(w, 2, 0)
        if d1 != d1b:
            fail(f"{w}: digest {d1} != {d1b} for the same seed")
        if d1 == d2:
            fail(f"{w}: seeds 1 and 2 give the same final state {d1}")
        res, out, _ = result(w, 1, 0, "--doctor-nan")
        if res["correct"] or res["failed"] != res["attempted"]:
            fail(f"{w}: a planted NaN went unnoticed:\n{out}")
        if not re.search(r"output check failed: \S+ on rank \d+ cell \d+ = nan",
                         out):
            fail(f"{w}: the NaN failure does not name field, rank and cell")
        print(f"ok  {w}")

    env = dict(os.environ, FOAM_SCHEDULER="graph")
    code, out = run("coupled", 1, 0, env=env)
    if code == 0 or '"metrics"' in out:
        fail("a set FOAM_SCHEDULER did not stop the run")
    print("ok  env knob refused")


if __name__ == "__main__":
    main()
