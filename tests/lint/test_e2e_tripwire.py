#!/usr/bin/env python3
"""Self-test for scripts/e2e_tripwire.py (the CI timing tripwire).

Writes synthetic bench/e2e/run.py output files into a temporary directory
and pins the tripwire's four verdicts:

  identical     the run equals the baseline: exit 0.
  uniform 2x    every workload 2x slower — the median-ratio normalisation
                must cancel a uniformly slower machine: exit 0.
  one at 0.70x  one workload 0.70x while the rest hold — below the 0.75
                tripwire after normalisation: exit 1, naming the workload.
  four runs     one workload with only four timed runs: exit 2.

Registered as ctest target lint_e2e_tripwire. Pure stdlib.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TRIPWIRE = Path(__file__).resolve().parents[2] / "scripts" / "e2e_tripwire.py"
WORKLOADS = {"cycle-static": 2e7, "cycle-churn": 1.1e7, "cycle-overlay": 3e6,
             "event-pushpull": 9e5, "event-sizeest": 4e5}

# (case, node_cycles_per_s scale per workload, timed runs per workload,
#  expected exit status, text the output must contain)
CASES = [
    ("identical", {}, {}, 0, "all 5 workloads within the tripwire"),
    ("uniform 2x", dict.fromkeys(WORKLOADS, 0.5), {}, 0, "all 5 workloads within"),
    ("one at 0.70x", {"event-pushpull": 0.70}, {}, 1,
     "slower than the tripwire: event-pushpull"),
    ("four runs", {}, {"cycle-churn": 4}, 2, "cycle-churn has 4 timed runs"),
]


def run_file(path, scale, runs):
    """A quick run.py result: runs.get(workload, 5) timed runs around the
    scaled rate (a 1% seed-to-seed spread) plus one traced run, which carries
    no timing and must be skipped."""
    workloads = {}
    for name, rate in WORKLOADS.items():
        value = rate * scale.get(name, 1.0)
        timed = [{"trace": 0, "metrics": {"node_cycles_per_s": {
                     "value": value * (1.0 + 0.01 * (seed - 3))}}}
                 for seed in range(1, runs.get(name, 5) + 1)]
        workloads[name] = timed + [{"trace": 1, "metrics": {}}]
    path.write_text(json.dumps({"env": {"quick": True}, "workloads": workloads}))
    return path


def main():
    with tempfile.TemporaryDirectory() as tmp:
        baseline = run_file(Path(tmp) / "baseline.json", {}, {})
        for case, scale, runs, expected, text in CASES:
            run = run_file(Path(tmp) / "run.json", scale, runs)
            done = subprocess.run([sys.executable, str(TRIPWIRE), str(baseline), str(run)],
                                  capture_output=True, text=True, check=False)
            output = done.stdout + done.stderr
            if done.returncode != expected or text not in output:
                print(f"FAIL: {case}: expected exit {expected} and {text!r}, got exit "
                      f"{done.returncode}\n{output}", file=sys.stderr)
                sys.exit(1)
    print(f"e2e_tripwire self-test: {len(CASES)} cases pass")


if __name__ == "__main__":
    main()
