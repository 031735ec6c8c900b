#!/usr/bin/env python3
"""Repair-sweep benchmark: builds the program, runs one workload, checks it.

    python3 perfbench/run.py --workload hospital --seed 7 --trace 0

Prints every metric of the pass by name with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The full record of the run (reproducibility record, every sweep, and with
`--trace 1` every span) goes to .bench_build/perfbench/. See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import build  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("hospital", "flights")
# the twelve algorithms of Table 4, in its column order
ALGORITHMS = ("Bigdansing", "Holistic", "Nadeef", "Daisy", "MLNClean", "Horizon",
              "Baran", "Scare", "HoloClean", "Unified", "Relative", "Boostclean")
GUARDED = "Nadeef+ED"
EXPECTED_STATUS = {"Relative": "n/a"}  # every other run ends "ok"

DRIVER_HEAP = "3g"
# The parallel collector has no concurrent GC threads or write barriers to
# compete with the sweep; on a 4-core VM it makes a cold sweep 6-14% faster
# than G1, with 8-14% less CPU. A fixed heap size avoids resizing.
JVM_FLAGS = ["-XX:+UseParallelGC"]
JVM_LIMIT_S = 170  # the JVM is killed past this, so a run without a build ends in time


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_commit():
    """The checkout's commit when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            return open(os.path.join(ROOT, ".git", ref[5:])).read().strip()
        return ref
    except OSError:
        return None


def run_jvm(classpath, args, deadline):
    cmd = [build.java(), *build.jvm_flags(ROOT),
           f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", "-Xss16m", *JVM_FLAGS,
           f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
           *build.ADD_OPENS, "-cp", classpath, "perfbench.PerfBench", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        fail("benchmark JVM ran past its time limit")
    if code != 0:
        fail(f"benchmark JVM exited with code {code}")


# ---------------- result checks ----------------

def run_failures(run):
    """Reasons one run counts as failed."""
    why = []
    want = EXPECTED_STATUS.get(run["algo"], "ok")
    if run["status"] != want:
        why.append(f"status {run['status']}, expected {want}")
    why += run["problems"]
    if run["stragglers"]:
        why.append(f"{run['stragglers']} straggling jobs or threads")
    return why


def result_tuples(sweep):
    return {r["algo"]: r["result"] for r in sweep["runs"]}


# ---------------- metrics ----------------

def ok_repair_s(sweep):
    return sum(r["repair_s"] for r in sweep["runs"] if r["status"] == "ok")


def span_s(span):
    return span["end_s"] - span["start_s"]


def layer_metrics(sweep, cold):
    """Per-layer metrics of one traced sweep. The `core.Harness.*` counts
    come from the run's cold untraced sweep, which calls `Harness.runOne`.
    An algorithm the workload does not run reads 0."""
    spans = sweep["spans"]
    root = next(s for s in spans if s["parent"] == -1)
    children = [s for s in spans if s["parent"] == root["id"]]
    work = [s for s in spans if not s["name"].startswith("check.")]
    runs = {r["algo"]: r for r in sweep["runs"]}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum(span_s(s) if key is None else s[key] for s in named(name))

    def changed(algo):
        r = runs.get(algo)
        return r["result"][4] if r and r["status"] == "ok" else 0

    m = {
        "data.generate_s": total("data.generate"),
        "detect.raha_s": total("detect.raha"),
        "detect.spark_jobs": total("detect.raha", "jobs"),
        "detect.flagged_cells": sweep["flagged_cells"],
    }
    algos = [r["algo"] for r in sweep["runs"] if r["algo"] != GUARDED]
    algo_spans = [s for a in algos for s in named(f"algos.{a}")]
    for a in ALGORITHMS:
        ss = named(f"algos.{a}")
        m[f"algos.{a}.repair_s"] = sum(span_s(s) for s in ss)
        m[f"algos.{a}.spark_jobs"] = sum(s["jobs"] for s in ss)
        m[f"algos.{a}.driver_s"] = sum(span_s(s) - s["job_s"] for s in ss)
    m.update({
        "algos.repair_s": sum(span_s(s) for s in algo_spans),
        "algos.driver_s": sum(span_s(s) - s["job_s"] for s in algo_spans),
        "algos.spark_job_s": sum(s["job_s"] for s in algo_spans),
        "algos.spark_jobs": sum(s["jobs"] for s in algo_spans),
        "algos.spark_tasks": sum(s["tasks"] for s in algo_spans),
        "algos.shuffle_write_bytes": sum(s["shuffle_write_bytes"] for s in algo_spans),
        "algos.changed_cells": sum(changed(a) for a in algos),
        "core.Metrics.evaluate_s": total("core.Metrics.evaluate"),
        "core.Metrics.spark_jobs": total("core.Metrics.evaluate", "jobs"),
        "core.Cells.applyRepairs_s": total("core.Cells.applyRepairs"),
        "core.Cells.applyRepairs_jobs": total("core.Cells.applyRepairs", "jobs"),
        "core.Cells.changedCells_s": total("core.Cells.changedCells"),
        "core.Cells.repair_set_cells": sum(s["count"] for s in named("check.result")),
        "core.Violations.violatingCells_s": total("core.Violations.violatingCells"),
        "core.Violations.spark_jobs": total("core.Violations.violatingCells", "jobs"),
        "core.Violations.violating_cells": total("core.Violations.violatingCells", "count"),
        "core.DetectionGuard.guard_s": total("core.DetectionGuard.guard"),
        "core.DetectionGuard.reverted_cells": sweep["guard_raw_changed"] - changed(GUARDED),
        # the root span's self time: everything between the layer and check spans
        "core.Harness.overhead_s": span_s(root) - sum(span_s(s) for s in children),
        "core.Harness.stragglers": sum(r["stragglers"] for r in cold["runs"]),
        "core.Harness.leaked_rdds": cold["leaked_rdds"],
        "spark.jobs": sum(s["jobs"] for s in work) + sweep["unattributed_jobs"],
        "spark.stages": sum(s["stages"] for s in work),
        "spark.tasks": sum(s["tasks"] for s in work),
        "spark.shuffle_write_bytes": sum(s["shuffle_write_bytes"] for s in work),
        "spark.gc_s": sweep["gc_s"],
    })
    return m


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def run_jobs(sweep):
    """Spark jobs of each run's repair: what `Harness.runOne` submits from
    its run thread, or the traced spans of the same calls."""
    if not sweep["traced"]:
        return {r["algo"]: r["spark_jobs"] for r in sweep["runs"]}
    repair = ("core.DetectionGuard.repair", "core.DetectionGuard.guard")
    out = {}
    for s in sweep["spans"]:
        if s["run"] and (s["name"] == f"algos.{s['run']}" or s["name"] in repair):
            out[s["run"]] = out.get(s["run"], 0) + s["jobs"]
    return out


def traced_wall_s(sweep):
    """Traced sweep time: the root span less the checks run inside it."""
    root = next(s for s in sweep["spans"] if s["parent"] == -1)
    return span_s(root) - sum(span_s(s) for s in sweep["spans"]
                              if s["name"].startswith("check."))


def shared_s(sweep):
    """Time on the calls both passes make: generate, detect, repair+evaluate."""
    if not sweep["traced"]:
        return sum(v for k, v in sweep["segments"].items() if k != "unpersist")
    keep = ("data.generate", "detect.raha", "core.Metrics.evaluate",
            "core.DetectionGuard.repair", "core.DetectionGuard.guard")
    return sum(span_s(s) for s in sweep["spans"]
               if s["name"] in keep or s["name"].startswith("algos."))


def self_times(sweep):
    spans = sweep["spans"]
    out = {}
    for s in spans:
        kids = sum(span_s(c) for c in spans if c["parent"] == s["id"])
        out[s["name"]] = out.get(s["name"], 0.0) + span_s(s) - kids
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=45,
                    help="accepted for the driver; a run makes a fixed number of sweeps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    classpath, source_digest = build.build(ROOT, BENCH_DIR)
    deadline = time.monotonic() + JVM_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(OUT_DIR, f"raw-{tag}.json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    run_jvm(classpath, [
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--local-dir", os.path.join(OUT_DIR, "spark-local"), "--out", raw_path,
    ], deadline)
    doc = json.load(open(raw_path))
    record = dict(doc["record"], git_commit=git_commit(), source_sha256=source_digest,
                  driver_heap=DRIVER_HEAP, jvm_flags=JVM_FLAGS)
    sweeps = doc["sweeps"]

    # correctness: failed runs; drift from the stored reference, where this
    # seed has one; and any sweep whose results differ from the first's
    reference = json.load(open(REFERENCE)).get(args.workload, {}).get(str(args.seed))
    first = result_tuples(sweeps[0])
    failures, drift, mismatch, failed_runs = [], [], [], 0
    for i, sw in enumerate(sweeps):
        kind = "traced" if sw["traced"] else "untraced"
        for r in sw["runs"]:
            why = run_failures(r)
            failed_runs += bool(why)
            failures += [f"{kind} sweep {i} {r['algo']}: {w}" for w in why]
            if reference is not None and r["result"] != reference.get(r["algo"]):
                drift.append(f"{kind} sweep {i} {r['algo']}: {r['result']} != "
                             f"reference {reference.get(r['algo'])}")
            if r["result"] != first.get(r["algo"]):
                mismatch.append(f"{kind} sweep {i} {r['algo']}: {r['result']} != "
                                f"sweep 0 {first.get(r['algo'])}")
    if reference is not None and set(reference) != set(first):
        drift.append(f"runs {sorted(first)} != reference runs {sorted(reference)}")
    attempted = sum(len(sw["runs"]) for sw in sweeps)
    for line in failures + drift + mismatch:
        print(f"FAIL {line}")
    print(f"failed_runs {failed_runs}/{attempted} runs")
    print("result_drift " + (f"{len(drift)} runs" if reference is not None
                             else f"n/a (no reference for seed {args.seed})"))
    print(f"pass_mismatch {len(mismatch)} runs")
    print(f"record {json.dumps(record, sort_keys=True)}")

    setup_s = statistics.median(doc["setup_s"])
    print("setup_samples_s " + " ".join(f"{x:.3f}" for x in doc["setup_s"]))
    if args.trace == 0:
        (sw,) = sweeps
        metrics = {
            "setup_s": (setup_s, "s"),
            "sweep_s": (sw["wall_s"], "s"),
            "sweep_cpu_s": (sw["cpu_s"], "s"),
            "repair_s": (ok_repair_s(sw), "s"),
        }
    else:
        # sweeps: untraced (cold), traced, and with time left untraced
        cold, traced = sweeps[:2]
        layers = layer_metrics(traced, cold)
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        t_wall = traced_wall_s(traced)
        accounted = sum(v for k, v in self_times(traced).items()
                        if not k.startswith("check.") and k != "sweep")
        accounted += layers["core.Harness.overhead_s"]
        jobs = run_jobs(traced)
        repeat = all(run_jobs(sw) == jobs for sw in sweeps if not sw["traced"])
        if not repeat:
            failures.append("per-run Spark job counts differ between passes")
            print(f"FAIL {failures[-1]}")
        overhead = None
        if len(sweeps) == 3:
            overhead = shared_s(traced) / shared_s(sweeps[2]) - 1
        budget_messages = {r["algo"]: r["message"] for r in traced["runs"] if r["message"]}
        print(f"traced_sweep_s {t_wall:.4f} s (layer self times + overhead: {accounted:.4f} s)")
        print(f"job_counts_repeat {repeat} {json.dumps(jobs, sort_keys=True)}")
        print("tracing_overhead " + ("n/a (no time for a warm untraced sweep)" if overhead is None
                                     else f"{overhead:+.2%} on the calls both passes make"))
        for algo, msg in budget_messages.items():
            print(f"budget {algo}: {msg}")
        with open(os.path.join(OUT_DIR, f"trace-{tag}.json"), "w") as f:
            json.dump({"record": record, "tracing_overhead": overhead,
                       "job_counts_repeat": repeat, "run_jobs": jobs,
                       "budget_messages": budget_messages,
                       "spans": traced["spans"], "self_s": self_times(traced),
                       "metrics": layers}, f, indent=1)

    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({"record": record, "setup_s": doc["setup_s"], "sweeps": sweeps,
                   "failures": failures, "drift": drift, "mismatch": mismatch}, f, indent=1)
    for k, (v, unit) in metrics.items():
        print(f"{k} {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not drift and not mismatch,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
