#!/usr/bin/env python3
"""Record golden.json: exit code and output hashes of every benchmark command.

    python3 perfbench/record_golden.py

Runs each command of every workload (both sizes, every replay miss
candidate) once as a fresh process at the golden seed, checks it against
the seed-free rules, and writes the hashes.  Outputs are meant never to
change, so rerun this only for a deliberate, documented output change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def golden_commands(seed: int, size: str) -> list[dict]:
    cmds = []
    for name in ("typical", "ik-sweep", "certify"):
        cmds += workloads.build(name, seed, size)["commands"]
    cmds += workloads.build("replay", seed, size)["prep"]
    cmds += [workloads.command(["soslen", "bounds", str(n), str(d)], seed)
             for n, d in workloads.SIZES[size]["miss_pool"]]
    return cmds


def main() -> int:
    seed = workloads.GOLDEN_SEED
    work = run.OUT_DIR / "work-golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run._child_env()
    golden, bad = {}, 0
    try:
        for size in workloads.SIZES:
            table = golden[size] = {}
            for cmd in golden_commands(seed, size):
                cmd = dict(cmd, expect=None)
                rec = run.run_fresh(cmd, work, env, time.monotonic() + 3600)
                entry = {k: rec[k] for k in ("exit", "stdout_sha256", "files_sha256")}
                if rec["problems"] or table.get(cmd["id"], entry) != entry:
                    bad += 1
                    print(f"FAIL {cmd['id']}: {rec['problems'] or 'differs from an earlier run'}")
                table[cmd["id"]] = entry
                print(f"{rec['wall_s']:8.3f}s {size} {cmd['id']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
