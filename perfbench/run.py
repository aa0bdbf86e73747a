#!/usr/bin/env python3
"""soslen benchmark: real CLI invocations, end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a soslen source tree (``src/soslen`` and ``scripts``);
nothing needs installing.  Workloads are defined in workloads.py and
explained in README.md.

``--trace 0`` runs every command as a fresh process (``python -m
soslen.cli ...``, the same as the installed ``soslen`` script) and reports
the end-to-end metrics of BENCHMARK.json.  Whole passes over the workload
are repeated until ``--seconds`` of command time is measured, and at least
``workloads.MIN_PASSES`` times; times are medians over passes.

``--trace 1`` runs the same pass in-process three times, each in its own
fresh interpreter: once untraced, then twice with spans wrapped around the
layer functions (tracer.py).  It reports the per-layer metrics and checks
that the traced outputs equal the untraced ones and that every count
repeats exactly between the two traced passes.

Every command's exit code, stdout and written files are checked
(checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; ``failed / attempted`` is the
fail ratio.  Records of each run, the spans and the machine record go to
``.perfbench_out/`` in the source tree.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 165  # no new work starts after this; every run ends inside 180 s
SETUP_SAMPLES = 9  # fresh `soslen --version` starts per run
CACHE_BASE = "cache.base.jsonl"


class HarnessError(RuntimeError):
    """The harness itself could not run a step (not a wrong program output)."""


def is_exact(name: str, unit: str) -> bool:
    """Counts and sizes repeat exactly at one seed; times, rates and time
    shares do not."""
    return unit not in ("s", "1/s", "%") and name != "trace.coverage"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYLAB_CACHE", None)  # the workload decides which commands use a cache
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child_argv(argv: list[str]) -> list[str]:
    if argv[0] == "soslen":
        return [sys.executable, "-m", "soslen.cli", *argv[1:]]
    return [sys.executable, str(ROOT / "scripts" / "verify_certificate.py"), *argv[1:]]


def run_fresh(cmd: dict, cwd: Path, env: dict, deadline: float) -> dict:
    """One command as its own process; its wall time and own peak RSS."""
    for name in cmd["writes"]:
        (cwd / name).unlink(missing_ok=True)
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(_child_argv(cmd["argv"]), cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline + 10 - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rec = checks.evaluate(cmd, code, out_path.read_bytes(), cwd)
    rec["wall_s"] = wall
    rec["maxrss_kb"] = usage.ru_maxrss
    return rec


def run_inproc(cmds, cwd: Path, env: dict, deadline: float, label: str, traced: bool,
               restore=None, spans_out=None) -> dict:
    """One pass inside a fresh interpreter (inproc.py)."""
    spec_path, result_path = cwd / f".spec-{label}.json", cwd / f".result-{label}.json"
    spec_path.write_text(json.dumps({
        "root": str(ROOT), "traced": traced, "label": label, "commands": cmds,
        "restore": restore, "spans_out": str(spans_out) if spans_out else None,
    }))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "inproc.py"), str(spec_path), str(result_path)],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=max(1.0, deadline + 10 - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"in-process pass {label} ran past the time limit") from exc
    if proc.returncode != 0:
        raise HarnessError(f"in-process pass {label} failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(result_path.read_text())


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def timed_run(cmds, work, env, seconds, min_passes, deadline, restore, seed, records):
    """Fresh-process passes; end-to-end metrics as medians over passes.

    The ``soslen --version`` starts that give setup_s are spread evenly over
    the gaps between the commands of the first pass, so that they sample the
    whole run rather than one stretch of it.
    """
    version = workloads.version_command(seed)
    # the first start compiles bytecode into the source tree; it is not timed
    records.append(dict(run_fresh(version, work, env, deadline), phase="warmup"))
    setup = []
    gaps = len(cmds) + 1  # before each command, and after the last
    # sample j goes into gap j * gaps // SETUP_SAMPLES: evenly over the pass
    per_gap = collections.Counter(j * gaps // SETUP_SAMPLES for j in range(SETUP_SAMPLES))

    def sample_setup(gap):
        for _ in range(per_gap[gap]):
            rec = run_fresh(version, work, env, deadline)
            records.append(dict(rec, phase="setup"))
            setup.append(rec["wall_s"])

    passes, measured = [], 0.0
    while True:
        first = not passes
        if restore:
            shutil.copyfile(work / restore[0], work / restore[1])
        recs = []
        for i, c in enumerate(cmds):
            if first:
                sample_setup(i)
            recs.append(run_fresh(c, work, env, deadline))
        if first:
            sample_setup(len(cmds))
        records.extend(dict(r, phase=f"pass{len(passes)}") for r in recs)
        passes.append(recs)
        pass_wall = sum(r["wall_s"] for r in recs)
        measured += pass_wall
        if time.monotonic() + pass_wall > deadline:
            break
        if measured >= seconds and len(passes) >= min_passes:
            break
    lat = [[r["wall_s"] for r in recs] for recs in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(x) for x in lat),
        "cmd_p50_s": statistics.median(statistics.median(x) for x in lat),
        "cmd_p90_s": statistics.median(_p90(x) for x in lat),
        "peak_rss_mb": max(r["maxrss_kb"] for recs in passes for r in recs) / 1024,
        "out_bytes": statistics.median(sum(r["out_bytes"] for r in recs) for recs in passes),
    }
    detail = {
        "passes": len(passes),
        "commands_per_pass": len(cmds),
        "setup_samples_s": setup,
        "pass_wall_s": [sum(x) for x in lat],
        "command_wall_s": [[c["id"], [recs[i]["wall_s"] for recs in passes]]
                           for i, c in enumerate(cmds)],
    }
    return metrics, detail


def traced_run(cmds, work, env, deadline, restore, label, units, records, problems):
    """One untraced and two traced in-process passes; per-layer metrics."""
    spans_out = OUT_DIR / f"{label}-spans.jsonl"
    spans_out.unlink(missing_ok=True)
    runs = {}
    for name, traced in (("untraced", False), ("A", True), ("B", True)):
        runs[name] = run_inproc(cmds, work, env, deadline, name, traced, restore, spans_out)
        records.extend(dict(r, phase=name) for r in runs[name]["records"])
    plain, a, b = runs["untraced"], runs["A"], runs["B"]
    for ru, ra, rb in zip(plain["records"], a["records"], b["records"]):
        for key in ("exit", "stdout_sha256", "files_sha256"):
            if not ru[key] == ra[key] == rb[key]:
                problems.append(f"{ru['id']}: {key} differs with tracing on")
    metrics = {}
    for name, value in a["layers"].items():
        if is_exact(name, units[name]):
            metrics[name] = value
            if b["layers"][name] != value:
                problems.append(f"count {name} did not repeat: {value} vs {b['layers'][name]}")
        else:
            metrics[name] = (value + b["layers"][name]) / 2
    metrics["trace.overhead_s"] = (a["wall_s"] + b["wall_s"]) / 2 - plain["wall_s"]
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in runs.values())
    machine = a["machine"]
    l3 = machine.get("l3_bytes")
    largest = metrics["linalg.rank_mod_p.max_matrix_mb"] * 2**20
    detail = {
        "machine": machine,
        "computed_counts": {
            "note": "computed from matrix shapes and ranks, not measured: "
                    "mulmods = sum over pivots k < rank of (m-k)(n-k); "
                    "cells = sum of m*n; bytes_computed = 16 * mulmods "
                    "(one int64 read and one write per updated cell, temporaries ignored)",
            "mulmods": metrics["linalg.rank_mod_p.mulmods"],
            "cells": metrics["linalg.rank_mod_p.cells"],
            "bytes_computed": metrics["linalg.rank_mod_p.bytes_computed"],
            "max_matrix_bytes": largest,
            "cache_resident": None if l3 is None else largest <= l3,
        },
        "bindings": a["bindings"],
        "wall_s": {k: r["wall_s"] for k, r in runs.items()},
        "layers_A": a["layers"],
        "layers_B": b["layers"],
        "layer_seconds_A": a["layer_seconds"],
        "layer_seconds_B": b["layer_seconds"],
        "spans": str(spans_out.relative_to(ROOT)),
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    label = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{label}-{os.getpid()}"
    work.mkdir()
    env = _child_env()
    records, problems = [], []
    try:
        golden = workloads.load_golden(size)
        wl = workloads.build(workload, seed, size)
        cold, restore = None, None
        if wl["prep"]:
            prep = run_inproc(workloads.attach_expectations(wl["prep"], seed, golden),
                              work, env, deadline, "prep", False)
            records.extend(dict(r, phase="prep") for r in prep["records"])
            cold = {r["id"]: r for r in prep["records"]}
            shutil.copyfile(work / workloads.CACHE, work / CACHE_BASE)
            restore = [CACHE_BASE, workloads.CACHE]
        cmds = workloads.attach_expectations(wl["commands"], seed, golden, cold)
        if trace:
            metrics, detail = traced_run(cmds, work, env, deadline, restore, label, units,
                                         records, problems)
        else:
            metrics, detail = timed_run(cmds, work, env, seconds,
                                        workloads.MIN_PASSES.get(workload, 1), deadline,
                                        restore, seed, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    failed = [r for r in records if r["problems"]]
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed) + len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = dict(result, workload=workload, seed=seed, size=size, detail=detail,
                  problems=problems + [f"{r['id']}: {p}" for r in failed for p in r["problems"]],
                  records=records)
    (OUT_DIR / f"{label}.json").write_text(json.dumps(report, indent=1))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="'smoke' runs tiny instances for the harness self-test")
    args = ap.parse_args(argv)
    missing = [p for p in ("src/soslen/cli.py", "scripts/verify_certificate.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a soslen source tree, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for problem in report["problems"]:
        print(f"FAIL {problem}")
    for name, m in report["metrics"].items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    ratio = report["failed"] / report["attempted"]
    print(f"{'fail_ratio':45s} {ratio:>16.6g} ratio ({report['failed']}/{report['attempted']})")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
