#!/usr/bin/env python3
"""Timing tripwire over the end-to-end benchmark's quick runs (stdlib only).

  e2e_tripwire.py BASELINE RUN

BASELINE and RUN are bench/e2e/run.py output files, each holding at least
MIN_RUNS timed quick runs (--quick --trace 0) of every workload the baseline
holds. For each workload the tripwire takes the median node_cycles_per_s over
those runs on each side and divides run by baseline. It then divides every
ratio by the median ratio across workloads, so a machine that is uniformly
slower or faster than the recording one cancels out, and fails when any
normalised ratio falls below TRIPWIRE.

Dividing by the median hides a slowdown shared by most workloads, and a
real gain on most of them moves the median too: such a change re-records
the baseline (docs/api.md, "Measuring speed and checking answers").

Exit status: 0 when every workload is within the tripwire, 1 when one is
not, 2 on malformed input.
"""

import json
import statistics
import sys

METRIC = "node_cycles_per_s"
MIN_RUNS = 5
TRIPWIRE = 0.75


def malformed(message):
    print(f"e2e_tripwire: {message}", file=sys.stderr)
    sys.exit(2)


def timed_medians(path):
    """{workload: median METRIC over the timed runs} of one run.py file."""
    try:
        with open(path) as handle:
            result = json.load(handle)
        if not result["env"]["quick"]:
            malformed(f"{path}: not a --quick run")
        medians = {}
        for workload, runs in result["workloads"].items():
            values = [
                run["metrics"][METRIC]["value"] for run in runs if run["trace"] == 0
            ]
            if len(values) < MIN_RUNS:
                malformed(
                    f"{path}: {workload} has {len(values)} timed runs, "
                    f"needs at least {MIN_RUNS}"
                )
            medians[workload] = statistics.median(values)
            if not medians[workload] > 0:
                malformed(f"{path}: {workload} {METRIC} median is {medians[workload]}")
    except (OSError, ValueError, KeyError, TypeError) as error:
        malformed(f"{path}: cannot read {METRIC} runs ({error!r})")
    if not medians:
        malformed(f"{path}: no workloads")
    return medians


def main(argv):
    if len(argv) != 2:
        malformed("usage: e2e_tripwire.py BASELINE RUN")
    baseline, run = (timed_medians(path) for path in argv)
    missing = sorted(set(baseline) - set(run))
    if missing:
        malformed(f"{argv[1]}: lacks {', '.join(missing)}")

    ratios = {workload: run[workload] / baseline[workload] for workload in baseline}
    machine = statistics.median(ratios.values())
    print(
        f"{METRIC}: median of timed quick runs, run / baseline, "
        f"normalised by the median ratio {machine:.3f}"
    )
    slow = []
    for workload, ratio in ratios.items():
        normalised = ratio / machine
        verdict = "ok" if normalised >= TRIPWIRE else f"SLOW (< {TRIPWIRE})"
        if normalised < TRIPWIRE:
            slow.append(workload)
        print(
            f"  {workload:15s} baseline {baseline[workload]:12.6g}  "
            f"run {run[workload]:12.6g}  ratio {ratio:.3f}  "
            f"normalised {normalised:.3f}  {verdict}"
        )
    if slow:
        print(
            f"e2e_tripwire: slower than the tripwire: {', '.join(slow)}",
            file=sys.stderr,
        )
        return 1
    print(f"e2e_tripwire: all {len(ratios)} workloads within the tripwire")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
