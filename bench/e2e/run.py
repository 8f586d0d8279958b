#!/usr/bin/env python3
"""End-to-end benchmark of the epiagg simulator (stdlib only).

Builds bench/e2e into build-e2e/ and runs each workload in its own
single-threaded epiagg_e2e process, one after another.

  python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace 0|1] [--quick] [--check]
                           [--out FILE] [--append]
  python3 bench/e2e/run.py compare A.json B.json

Without --workload every workload runs, both untraced (end-to-end metrics)
and traced (per-layer metrics), and the results go to --out (default
build-e2e/e2e_result.json). With --workload the run prints, as its last
line, one JSON object {correct, attempted, failed, metrics} holding the
end-to-end metrics (--trace 0) or the per-layer ones (--trace 1) that
BENCHMARK.json lists. See bench/e2e/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "epiagg_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("cycle-static", "cycle-churn", "cycle-overlay", "event-pushpull",
             "event-sizeest")
EPOCH_LENGTH = 30
# The simulation seeds of run seed n are SEED_STRIDE·n + r for rep r, so the
# reps of different run seeds never share inputs.
SEED_STRIDE = 1000
RUN_TIMEOUT_S = 170
DISTURBED = 1.2

# Per-layer shares: the probes whose cost per operation, times the
# operations per step the run performed, make up each share of a plain step.
SHARES = {
    "core.pair_share": ("core.pair",),
    "sim.store.exchange_share": ("sim.store.exchange",),
    "sim.observe_share": ("sim.observe",),
    "sim.queue.share": ("sim.queue.hold",),
    "membership.share": ("membership.cycle", "membership.peer",
                         "membership.churn"),
    "protocol.share": ("protocol.merge",),
    "workload.share": ("workload.sample",),
}
PROBES = ("core.pair", "sim.store.exchange", "sim.store.delivery",
          "sim.store.churn", "sim.store.snapshot", "sim.observe",
          "sim.queue.hold", "membership.cycle", "membership.peer",
          "membership.churn", "protocol.merge", "aggregate.combine",
          "workload.sample", "common.rng")


class BenchError(Exception):
    """A build or run failure; the message goes to stderr."""


# ------------------------------------------------------------------ build

def run_logged(cmd: list[str], timeout: float) -> None:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}") from error
    if done.returncode != 0:
        raise BenchError(f"failed: {' '.join(cmd)}\n{done.stdout}{done.stderr}")


def build() -> None:
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_logged(["cmake", "--build", str(BUILD), "--target", "epiagg_e2e",
                "-j", str(os.cpu_count() or 1)], timeout=850)


def environment(args: argparse.Namespace) -> dict:
    revision = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"git_revision": revision, "build_type": build_type,
            "nproc": os.cpu_count(), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick}


# -------------------------------------------------------------- one run

def invoke(workload: str, seed: int, seconds: float, quick: bool,
           trace: Path | None) -> dict:
    cmd = [str(BINARY), "--workload", workload, "--seed",
           str(SEED_STRIDE * seed)]
    if quick:
        cmd += ["--quick"]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    elif not quick:
        # At least three builds, so that setup_s is a median.
        cmd += ["--seconds", str(seconds), "--reps", "3"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: timed out after {RUN_TIMEOUT_S} s") from error
    if done.returncode != 0:
        raise BenchError(f"{workload}: epiagg_e2e exited {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(done.stdout)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def p95(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=20)[18] if len(xs) > 1 else xs[0]


def answer_metrics(reps: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, {accuracy_err, failed_frac}) over `reps`."""
    owed = sum(rep["owed"] for rep in reps)
    passed = sum(answer["ok"] for rep in reps for answer in rep["answers"])
    errors = [answer["error"] for rep in reps for answer in rep["answers"]]
    failed = owed - passed
    return owed, failed, {
        "accuracy_err": metric(statistics.median(errors) if errors else float("nan"),
                               "ratio", len(errors)),
        "failed_frac": metric(failed / owed if owed else 0.0, "ratio", owed),
    }


def require_steps(reps: list[dict]) -> None:
    """Raise when no rep in `reps` timed a step, so no timing exists."""
    if not any(rep["step_s"] for rep in reps):
        errors = [rep["error"] for rep in reps if rep["error"]]
        raise BenchError("no rep completed a step: "
                         + (errors[0] if errors else "zero steps"))


def undisturbed(reps: list[dict]) -> list[dict]:
    """The reps the host did not slow down.

    Every rep runs the same work on its own seed, so their median steps
    differ by a few percent. On a shared virtual machine, whole reps run up
    to 2x slower while a neighbour is busy; a rep whose median step exceeds
    DISTURBED times the fastest rep's is left out of the timing metrics.
    """
    timed = [rep for rep in reps if rep["step_s"]]
    fastest = min(statistics.median(rep["step_s"]) for rep in timed)
    return [rep for rep in timed
            if statistics.median(rep["step_s"]) <= DISTURBED * fastest]


def timed_metrics(raw: dict) -> dict:
    reps = raw["reps"]
    require_steps(reps)
    attempted, failed, answers = answer_metrics(reps)
    per_rep = undisturbed(reps)
    steps = [s for rep in per_rep for s in rep["step_s"]]
    metrics = {
        "setup_s": metric(statistics.median(rep["build_s"] for rep in reps),
                          "s", len(reps)),
        "node_cycles_per_s": metric(
            statistics.median(sum(rep["population"]) / sum(rep["step_s"])
                              for rep in per_rep), "node-cycles/s", len(per_rep)),
        "msgs_per_s": metric(
            statistics.median(sum(rep["messages"]) / sum(rep["step_s"])
                              for rep in per_rep), "msgs/s", len(per_rep)),
        "step_ms_p50": metric(statistics.median(steps) * 1e3, "ms", len(steps)),
        "step_ms_p95": metric(p95(steps) * 1e3, "ms", len(steps)),
        "peak_rss_mb": metric(raw["rss_peak_kb"] / 1024.0, "MB", 1),
        **answers,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "reps": len(reps), "reps_timed": len(per_rep), "steps": raw["steps"]}


def is_restart(step: int) -> bool:
    """True when step k, covering simulated time [k, k+1], touches an epoch
    boundary: its cycle restarts or completes an epoch."""
    return step % EPOCH_LENGTH in (0, EPOCH_LENGTH - 1)


def simulated_counts(rep: dict) -> tuple:
    return (rep["sent"], rep["lost"], rep["population"], rep["messages"],
            rep["epochs"], rep["error"])


def traced_metrics(raw: dict, trace_path: Path) -> dict:
    untraced = raw["reps"][0]
    traced = raw["traced"]
    require_steps([untraced])
    require_steps([traced])
    spans = json.loads(trace_path.read_text())["spans"]
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    roots = {span["name"]: span for span in children.get(0, [])}
    replay = children.get(roots["replay"]["id"], [])
    build_span = next(span for span in replay if span["name"] == "build")
    step_spans = [span for span in replay if span["name"] == "step"]
    plain = [duration(s) for k, s in enumerate(step_spans) if not is_restart(k)]
    restart = [duration(s) for k, s in enumerate(step_spans) if is_restart(k)]
    plain_step_ms = statistics.median(plain) * 1e3

    metrics: dict[str, dict] = {}
    for probe in children.get(roots["probes"]["id"], []):
        batches = children.get(probe["id"], [])
        metrics[probe["name"] + "_ns"] = metric(
            statistics.median(duration(b) / b["ops"] for b in batches) * 1e9,
            "ns", len(batches))
    missing = [p for p in PROBES if p + "_ns" not in metrics]
    if missing:
        raise BenchError(f"trace lacks probes: {', '.join(missing)}")

    ops = raw["ops_per_step"]
    attributed = 0.0
    for share, probes in SHARES.items():
        value = sum(ops.get(p, 0.0) * metrics[p + "_ns"]["value"] for p in probes)
        value /= plain_step_ms * 1e6
        attributed += value
        metrics[share] = metric(value, "ratio", len(plain))
    metrics["sim.unattributed_share"] = metric(1.0 - attributed, "ratio", len(plain))

    steps = len(untraced["step_s"])
    metrics.update({
        "sim.build_ms": metric(duration(build_span) * 1e3, "ms", 1),
        "sim.plain_step_ms": metric(plain_step_ms, "ms", len(plain)),
        "sim.restart_step_ms": metric(
            statistics.median(restart) * 1e3 if restart else float("nan"),
            "ms", len(restart)),
        "sim.msgs_per_step": metric(untraced["sent"] / max(steps, 1), "msgs", steps),
        "sim.lost_frac": metric(untraced["lost"] / untraced["sent"]
                                if untraced["sent"] else 0.0, "ratio", steps),
        "sim.population_mean": metric(statistics.fmean(untraced["population"]),
                                      "nodes", steps),
        "sim.epochs": metric(len(untraced["epochs"]), "count", 1),
        "sim.rss_build_mb": metric(untraced["rss_build_kb"] / 1024.0, "MB", 1),
        "sim.rss_growth_mb": metric(
            (raw["rss_peak_kb"] - untraced["rss_build_kb"]) / 1024.0, "MB", 1),
        "trace.overhead_frac": metric(
            statistics.median(duration(s) for s in step_spans)
            / statistics.median(untraced["step_s"]) - 1.0, "ratio", len(step_spans)),
    })
    attempted, failed, answers = answer_metrics([untraced, traced])
    metrics.update(answers)
    # The traced replay must simulate exactly what the untraced run did: a
    # difference means tracing or probing perturbed the run.
    attempted += 1
    same = simulated_counts(untraced) == simulated_counts(traced)
    failed += 0 if same else 1

    self_ms: dict[str, float] = {}
    for span in spans:
        covered = sum(duration(c) for c in children.get(span["id"], []))
        self_ms[span["name"]] = self_ms.get(span["name"], 0.0) + \
            (duration(span) - covered) * 1e3
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts_match": same, "self_ms": self_ms, "steps": steps}


def run_workload(workload: str, seed: int, seconds: float, quick: bool,
                 traced: bool) -> dict:
    if traced:
        trace_path = BUILD / f"trace_{workload}.json"
        result = traced_metrics(invoke(workload, seed, seconds, quick, trace_path),
                                trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result = timed_metrics(invoke(workload, seed, seconds, quick, None))
    result.update({"seed": seed, "trace": int(traced),
                   "correct": result["failed"] == 0})
    return result


# ------------------------------------------------------------------ report

def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_run(workload: str, result: dict) -> None:
    mode = "traced" if result["trace"] else "timed"
    print(f"== {workload} ({mode}, seed {result['seed']}): "
          f"{result['attempted'] - result['failed']}/{result['attempted']} checks "
          f"passed, {result['steps']} steps per rep")
    for name, m in result["metrics"].items():
        print(f"   {name:28s} {fmt(m['value']):>14s} {m['unit']:14s} "
              f"n={m['samples']}")


def result_line(result: dict) -> str:
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError(f"run did not produce: {', '.join(missing)}")
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]} for n in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ----------------------------------------------------------------- compare

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(q: tuple[float, float, float]) -> float:
    """(q3 - q1) / median, the run-to-run spread a bound is checked against."""
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def compare(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    print(f"A = {paths[0]} ({a['env']['git_revision']}), "
          f"B = {paths[1]} ({b['env']['git_revision']})")
    # Timed runs are compared with timed runs and traced with traced: both
    # carry accuracy_err and failed_frac, but over different reps.
    for workload in WORKLOADS:
        for mode in (0, 1):
            runs_a = [r for r in a["workloads"].get(workload, []) if r["trace"] == mode]
            runs_b = [r for r in b["workloads"].get(workload, []) if r["trace"] == mode]
            names = [n for r in runs_a for n in r["metrics"]]
            for name in dict.fromkeys(names):
                va = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
                vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
                if not va or not vb:
                    continue
                unit = next(r["metrics"][name]["unit"] for r in runs_a
                            if name in r["metrics"])
                print(f"{workload:15s} {'traced' if mode else 'timed':6s} {name:26s} "
                      + verdict(name, va, vb, unit, bounds, directions))
    return 0


def verdict(name: str, va: list[float], vb: list[float], unit: str,
            bounds: dict, directions: dict) -> str:
    qa, qb = quartiles(va), quartiles(vb)
    base = qa[1]
    text = (f"A {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]  "
            f"B {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] {unit}  ")
    if name == "failed_frac":
        # Bound 0: B may not fail more than A. A correct A reads 0, so this
        # is judged on the means over runs, before any ratio to A.
        fa, fb = statistics.fmean(va), statistics.fmean(vb)
        if fb > fa:
            return text + f"worse: mean {fmt(fb)} > A's {fmt(fa)} (bound 0)"
        return text + f"within bound 0: mean {fmt(fb)} <= A's {fmt(fa)}"
    if base == 0:
        return text + "base is 0: no ratio"
    text += f"B/A {qb[1] / base:.4f} (base A {fmt(base)} {unit})  "
    if name == "accuracy_err":
        # accuracy repeats exactly for a seed; its bound is the spread
        # across the base's seeds.
        bound, better = relative_spread(qa), "lower"
    elif name in bounds:
        bound, better = bounds[name]
    else:
        return text + f"(per-layer, {directions.get(name, 'no direction')}: no bound)"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - base) / abs(base)
    b_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
    wins = ""
    if len(va) == len(vb) and len(va) > 1:
        won = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
        wins = f", B wins {won}/{len(va)} pairs"
    own = max(relative_spread(qa), relative_spread(qb))
    if own > bound and not b_always_better:
        return text + f"unresolved (spread {own:.3f} > bound {bound:.3f}{wins})"
    if worse_by > bound:
        return text + f"worse by {worse_by:.3f} > bound {bound:.3f}{wins}"
    if -worse_by > relative_spread(qa):
        return text + f"better by {-worse_by:.3f}{wins}"
    return text + f"within bound {bound:.3f}{wins}"


# -------------------------------------------------------------------- main

def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="step time to measure per timed run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run only, 1: traced run only "
                             "(default with --workload: 0; without: both)")
    parser.add_argument("--quick", action="store_true",
                        help="N/10 and steps/5: a smoke test, not a metric source")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any check fails")
    parser.add_argument("--out", type=Path, default=BUILD / "e2e_result.json")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing --out file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"] \
            if BENCHMARK.exists() else 10
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    args = parse(argv)
    try:
        build()
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        if args.trace is not None:
            modes = [bool(args.trace)]
        else:
            modes = [False] if args.workload else [False, True]
        result = {"env": environment(args), "workloads": {}}
        if args.append and args.out.exists():
            result = json.loads(args.out.read_text())
        last = None
        for workload in workloads:
            runs = result["workloads"].setdefault(workload, [])
            for traced in modes:
                last = run_workload(workload, args.seed, args.seconds,
                                    args.quick, traced)
                runs.append(last)
                print_run(workload, last)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"results: {args.out}")
        failed = [w for w, runs in result["workloads"].items()
                  for r in runs if not r["correct"]]
        if args.workload:
            print(result_line(last))
        if args.check and failed:
            print(f"checks failed on: {', '.join(sorted(set(failed)))}",
                  file=sys.stderr)
            return 1
        return 0
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
