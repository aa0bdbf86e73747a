#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at the "smoke" size (typical 3 4, ik --sweep 3 2,
witness 3 3 and 3 4, a dozen replays) and checks that

  * every metric of BENCHMARK.json is printed, by name and with its unit,
    and the last line is the result object;
  * command outputs and certificate bytes are identical with tracing on
    and off, and between fresh processes and in-process runs;
  * counts repeat exactly across two traced runs at one seed;
  * a deliberately wrong expected hash makes the fail ratio positive.

Exits 0 when every check holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

SEED = 7
SIZE = "smoke"
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def bench_cli(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", SIZE],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} trace={trace}:\n{proc.stderr}")
    label = f"{workload}-{SIZE}-seed{SEED}-trace{trace}"
    report = json.loads((run.OUT_DIR / f"{label}.json").read_text())
    return report, proc.stdout


def outputs(report: dict, phases) -> dict:
    """command id -> the set of output fingerprints seen in these phases."""
    seen = {}
    for r in report["records"]:
        if r["phase"].startswith(phases):
            key = (r["exit"], r["stdout_sha256"], json.dumps(r["files_sha256"], sort_keys=True))
            seen.setdefault(r["id"], set()).add(key)
    return seen


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        print(f"{workload}:")
        reports = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            report, stdout = bench_cli(workload, trace)
            reports[trace] = report
            last = json.loads(stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[group]}
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"trace={trace}: result object has exactly the four keys")
            expect({k: v["unit"] for k, v in last["metrics"].items()} == want,
                   f"trace={trace}: every {group} metric present with its unit")
            expect(all(f"{name} " in stdout and f" {unit}" in stdout for name, unit in want.items())
                   and "fail_ratio" in stdout,
                   f"trace={trace}: every metric printed by name and unit")
            expect(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                   f"trace={trace}: all {last['attempted']} commands correct")
        fresh = outputs(reports[0], ("pass",))
        inproc = outputs(reports[1], ("untraced", "A", "B"))
        expect(fresh.keys() == inproc.keys()
               and all(len(fresh[k] | inproc[k]) == 1 for k in fresh),
               "outputs identical: fresh process, in-process untraced, traced")

    print("counts across two traced runs:")
    first, _ = bench_cli("ik-sweep", 1)
    second, _ = bench_cli("ik-sweep", 1)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    exact = [n for n, u in units.items() if run.is_exact(n, u)]
    expect(all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in exact),
           f"{len(exact)} count metrics repeat exactly")

    print("wrong expected hash:")
    real = workloads.load_golden

    def tampered(size):
        golden = real(size)
        golden["soslen typical 3 4"]["stdout_sha256"] = "0" * 64
        return golden

    workloads.load_golden = tampered
    try:
        report = run.run("typical", workloads.GOLDEN_SEED, 0.1, False, SIZE)
    finally:
        workloads.load_golden = real
    expect(report["failed"] > 0 and not report["correct"],
           f"fail ratio {report['failed']}/{report['attempted']} > 0")

    print("self-test " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
