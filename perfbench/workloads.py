"""The four workloads as lists of soslen command lines, built from a seed.

``soslen ...`` argv lists run as ``python -m soslen.cli ...`` and
``verify FILE`` runs ``scripts/verify_certificate.py FILE``.  The workload
seed is passed to every command that takes ``--seed``.

Golden hashes (golden.json, one table per size) were recorded at
GOLDEN_SEED, the program's default seed.  They apply at that seed, and at
every seed to the commands that take no seed and read no seeded file
(bounds and table).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_SEED = 271828
GOLDEN_PATH = Path(__file__).with_name("golden.json")
CACHE = "cache.jsonl"

# typical lengths, known to hold for generic forms at any seed
TYPICAL_R = {(3, 4): 4, (3, 6): 4, (4, 5): 6, (4, 8): 6, (4, 9): 7}

# subcommands that take no --seed flag, and those whose output no seed affects
_NO_SEED_FLAG = ("bounds", "table", "gramcheck", "--version")
_SEED_FREE_OUTPUT = ("bounds", "table")

SIZES = {
    "full": {
        "typical": [(4, 8), (4, 9)],
        "ik-sweep": [(6, 3), (4, 6)],
        "certify": [(3, 10), (4, 5)],
        "replay_grid": [(n, d) for n in range(3, 7) for d in range(2, 9)],
        "replay_extra": [
            ["table", "--paper-table"],
            ["ik", "--sweep", "4", "3"],
            ["ik", "--sweep", "5", "2"],
            ["typical", "3", "6"],
            ["typical", "4", "5"],
            ["witness", "3", "8", "--out", "w38.json"],
            ["witness", "4", "4", "--out", "w44.json"],
            ["witness", "5", "3", "--out", "w53.json"],
        ],
        "replay_copies": 3,
        "miss_pool": [(n, d) for n in range(7, 13) for d in range(2, 10)],
        "misses": 12,
    },
    "smoke": {
        "typical": [(3, 4)],
        "ik-sweep": [(3, 2)],
        "certify": [(3, 3), (3, 4)],
        "replay_grid": [(3, 2), (3, 3)],
        "replay_extra": [
            ["table", "--paper-table"],
            ["typical", "3", "4"],
            ["witness", "3", "3", "--out", "w33.json"],
        ],
        "replay_copies": 2,
        "miss_pool": [(7, 2), (7, 3), (8, 2)],
        "misses": 2,
    },
}

WORKLOADS = ("typical", "ik-sweep", "certify", "replay")

# whole passes a timed run makes at least.  Certify's pass holds commands of
# 1-3 s, whose times swing with the host's speed more than long commands do;
# a second pass averages two samples of each.  The time budget of a full
# benchmark check leaves room for a second pass of no other workload.
MIN_PASSES = {"certify": 2}


def command_id(argv: list[str]) -> str:
    """argv without --seed and --cache: the key of the golden record."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--seed", "--cache"):
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def load_golden(size: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[size]


def command(argv, seed, writes=(), check=None, cache=False):
    argv = list(argv)
    if argv[0] == "soslen" and argv[1] not in _NO_SEED_FLAG:
        argv += ["--seed", str(seed)]
    if cache:
        argv += ["--cache", CACHE]
    return {"id": command_id(argv), "argv": argv, "writes": list(writes), "check": check}


def _soslen_cmd(tail, seed, cache=False):
    """``soslen`` followed by ``tail``, with the seed-free rule of its subcommand."""
    sub = tail[0]
    if sub == "typical":
        n, d = int(tail[1]), int(tail[2])
        rule = ["typical", {"n": n, "d": d, "r": TYPICAL_R[(n, d)]}]
        return command(["soslen", *tail], seed, check=rule, cache=cache)
    if sub == "ik":
        n, d = int(tail[2]), int(tail[3])
        return command(["soslen", *tail], seed, check=["ik_sweep", {"n": n, "d": d}], cache=cache)
    if sub == "witness":
        n, d, out = int(tail[1]), int(tail[2]), tail[4]
        return command(["soslen", *tail], seed, writes=[out],
                       check=["witness", {"n": n, "d": d, "path": out}], cache=cache)
    return command(["soslen", *tail], seed, cache=cache)


def version_command(seed):
    return command(["soslen", "--version"], seed, check=["prefix", {"text": "soslen "}])


def build(name: str, seed: int, size: str = "full") -> dict:
    """Commands of one workload.

    Returns {"prep": commands run once, untimed, before the passes (or []),
    "commands": one pass}.  Replay hits carry no expectation yet: the
    caller fills it in from the prep run's records.
    """
    cfg = SIZES[size]
    if name == "typical":
        cmds = [_soslen_cmd(["typical", str(n), str(d)], seed) for n, d in cfg["typical"]]
        return {"prep": [], "commands": cmds}
    if name == "ik-sweep":
        cmds = [_soslen_cmd(["ik", "--sweep", str(n), str(d)], seed) for n, d in cfg["ik-sweep"]]
        return {"prep": [], "commands": cmds}
    if name == "certify":
        (na, da), (nb, db) = cfg["certify"]
        cmds = [
            _soslen_cmd(["witness", str(na), str(da), "--out", "A.json"], seed),
            _soslen_cmd(["witness", str(nb), str(db), "--out", "B.json"], seed),
            command(["verify", "B.json"], seed, check=["verify", {}]),
            command(["soslen", "mix", "B.json", "M.json"], seed, writes=["M.json"],
                    check=["mix", {"infile": "B.json", "outfile": "M.json"}]),
            command(["soslen", "gramcheck", "B.json", "M.json"], seed,
                    check=["stdout", {"text": "true\n"}]),
        ]
        return {"prep": [], "commands": cmds}
    if name == "replay":
        listed = [["bounds", str(n), str(d)] for n, d in cfg["replay_grid"]] + cfg["replay_extra"]
        prep = [_soslen_cmd(tail, seed, cache=True) for tail in listed]
        rng = random.Random(seed)
        hits = [dict(c, hit=True) for c in prep] * cfg["replay_copies"]
        misses = [
            dict(_soslen_cmd(["bounds", str(n), str(d)], seed, cache=True), hit=False)
            for n, d in rng.sample(cfg["miss_pool"], cfg["misses"])
        ]
        cmds = hits + misses
        rng.shuffle(cmds)
        return {"prep": prep, "commands": cmds}
    raise ValueError(f"unknown workload {name!r}")


def attach_expectations(cmds: list[dict], seed: int, golden: dict, cold: dict | None = None):
    """Set each command's exact expectation: golden hashes where they apply,
    else, for a replay hit, the cold run's record."""
    for c in cmds:
        seed_free = c["argv"][0] == "soslen" and c["argv"][1] in _SEED_FREE_OUTPUT
        g = golden.get(c["id"]) if (seed == GOLDEN_SEED or seed_free) else None
        if g is not None:
            c["expect"] = g
        elif cold is not None and c.get("hit"):
            rec = cold[c["id"]]
            c["expect"] = {k: rec[k] for k in ("exit", "stdout_sha256", "files_sha256")}
        else:
            c["expect"] = None
    return cmds
