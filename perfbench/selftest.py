#!/usr/bin/env python3
"""Self-tests of the repository benchmark (see README.md).

    python3 perfbench/selftest.py

Run from the repository root; takes about four minutes. It checks that

  * the metrics each run prints match BENCHMARK.json by name and unit,
    untraced and traced;
  * a corrupted functional output and a dropped request record are each
    counted as a failed operation;
  * a 10 % slower simulated DRAM (MULTIGRAIN_PERTURB=dram=0.9) moves
    device_fwd_us by more than its bound;
  * two runs with the same seed print bit-identical simulated metrics;
  * every workload passes its checks at the held-out seed.

Exits 1 on the first failed expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7919
SIMULATED = ["device_fwd_us", "device_attn_us", "device_peak_hbm_mb",
             "speedup_vs_coarse", "speedup_vs_fine", "paper_speedup_err",
             "serve_p50_us", "serve_p99_us", "serve_goodput_rps",
             "serve_slo_met_ratio"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace=0, corrupt=None, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, **(env or {})))
    if out.returncode != 0:
        sys.exit("selftest: %s failed:\n%s" % (" ".join(cmd), out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace else "end_to_end"
    want = {(m["name"], m["unit"]) for m in SPEC[kind]}
    got = {(k, v["unit"]) for k, v in result["metrics"].items()}
    expect(want == got, "%s metrics match BENCHMARK.json" % kind,
           "differing: %s" % sorted(want ^ got))
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def expect(ok, what, detail=""):
    if not ok:
        sys.exit("selftest: FAILED: %s %s" % (what, detail))
    print("ok:", what, flush=True)


def main():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    base = run("serve_poisson", 1)
    expect(base["correct"] and base["failed"] == 0, "clean run passes")
    again = run("serve_poisson", 1)
    expect(all(value(base, m) == value(again, m) for m in SIMULATED),
           "same seed repeats simulated metrics bit for bit")

    for corrupt in ("functional", "record"):
        bad = run("serve_poisson", 1, corrupt=corrupt)
        expect(bad["failed"] >= 1 and not bad["correct"] and
               value(bad, "ok_ratio") < 1,
               "corrupted %s output is counted as failed" % corrupt)

    slow = run("serve_poisson", 1, env={"MULTIGRAIN_PERTURB": "dram=0.9"})
    shift = value(slow, "device_fwd_us") / value(base, "device_fwd_us") - 1
    expect(shift > bound["device_fwd_us"],
           "dram=0.9 moves device_fwd_us by %.4f > bound %.4f" %
           (shift, bound["device_fwd_us"]))

    traced = run("serve_poisson", 1, trace=1)
    expect(traced["correct"], "traced run passes its checks")

    for workload in [w["name"] for w in SPEC["workloads"]]:
        held = run(workload, HELD_OUT_SEED)
        expect(held["failed"] == 0 and value(held, "ok_ratio") == 1,
               "%s passes at held-out seed %d" % (workload, HELD_OUT_SEED))


if __name__ == "__main__":
    main()
