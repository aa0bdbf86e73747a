"""Output checks for one soslen command: golden hashes plus seed-free rules.

A command is a plain dict so that it can travel to the in-process runner
as JSON:

    {"id": str, "argv": [...], "writes": [file, ...],
     "expect": {"exit": int, "stdout_sha256": str, "files_sha256": {...}} | None,
     "check": [rule, {params}] | None}

``expect`` holds exact hashes: the golden values recorded at the golden seed,
or the cold run's values for a cache hit.  ``check`` names a rule below that
holds at every seed.  Both are applied when present.  Only the standard
library is used, so the runner can import this before timing the program's
own import.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

P1, P2 = 2147483647, 2147483629


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dim_forms(n: int, d: int) -> int:
    return math.comb(n + d - 1, n - 1)


def ik_expected(n: int, d: int, s: int) -> int:
    """Conjectured h_{2d} of the squared ideal of s generic points."""
    a = n * s
    c = dim_forms(n, 2 * d) - math.comb(dim_forms(n, d) - s + 1, 2)
    return min(a, c) if (n, d, s) in {(3, 2, 5), (4, 2, 9), (5, 2, 14)} else max(a, c)


def _check_typical(out: bytes, cwd: Path, n: int, d: int, r: int) -> list[str]:
    want = (
        f"typical n={n} d={d}: r_found={r} certified_lower={r} "
        f"fos_cap={2 ** (n - 1)} status=Exact\n"
    ).encode()
    return [] if out == want else [f"typical stdout {out[:200]!r} != {want!r}"]


def _check_ik_sweep(out: bytes, cwd: Path, n: int, d: int) -> list[str]:
    lines = out.decode().splitlines()
    s_values = range(dim_forms(n, d - 1), dim_forms(n, d))
    if len(lines) != len(s_values):
        return [f"ik sweep printed {len(lines)} lines, expected {len(s_values)}"]
    problems = []
    for line, s in zip(lines, s_values):
        e = ik_expected(n, d, s)
        pat = (
            rf"HilbertH2d n={n} d={d} s={s}: Verified computed={e} expected={e} "
            rf"\(seed=\d+ primes={P1}\|{P2}\)"
        )
        if not re.fullmatch(pat, line):
            problems.append(f"ik line {line!r} does not match {pat!r}")
    return problems


def _check_witness(out: bytes, cwd: Path, n: int, d: int, path: str) -> list[str]:
    try:
        cert = json.loads((cwd / path).read_bytes())
    except (OSError, ValueError) as exc:
        return [f"certificate {path} unreadable: {exc}"]
    s, b = cert.get("s"), cert.get("length")
    head = (
        rf"witness n={n} d={d} s={s}: length={b} injectivity_rank=(\d+) "
        rf"primes=[0-9|]+ -> {re.escape(path)}"
    )
    first = out.decode(errors="replace").split("\n", 1)[0]
    m = re.fullmatch(head, first)
    ok = (
        m is not None
        and cert["n"] == n and cert["d"] == d
        and b == len(cert["basis"]) == dim_forms(n, d) - s > 0
        and cert["injectivity_rank"] == int(m.group(1)) == b * (b + 1) // 2
        and all(len(v) == dim_forms(n, d) for v in cert["basis"])
        and len(cert["witness"]) == dim_forms(n, 2 * d)
        and len(cert["points"]) == s
        and cert["primes"] and set(cert["primes"]) <= {P1, P2}
    )
    return [] if ok else [f"witness {path} fails the shape checks (stdout {first[:200]!r})"]


def _check_verify(out: bytes, cwd: Path) -> list[str]:
    ok = b"certificate valid" in out and b"[FAIL]" not in out
    return [] if ok else [f"verifier did not accept: {out[-300:]!r}"]


def _check_mix(out: bytes, cwd: Path, infile: str, outfile: str) -> list[str]:
    try:
        cert = json.loads((cwd / infile).read_bytes())
        rep = json.loads((cwd / outfile).read_bytes())
    except (OSError, ValueError) as exc:
        return [f"mix files unreadable: {exc}"]
    b = len(cert["basis"])
    want = f"mix {infile} -> {outfile} ({b} summands)\n".encode()
    ok = (
        out == want
        and rep.get("kind") == "sos_representation"
        and (rep["n"], rep["d"]) == (cert["n"], cert["d"])
        and len(rep["summands"]) == b
        and rep["target"] == [str(c) for c in cert["witness"]]
    )
    return [] if ok else [f"mix output {out[:200]!r} or {outfile} is wrong"]


def _check_stdout(out: bytes, cwd: Path, text: str) -> list[str]:
    return [] if out == text.encode() else [f"stdout {out[:200]!r} != {text!r}"]


def _check_prefix(out: bytes, cwd: Path, text: str) -> list[str]:
    return [] if out.startswith(text.encode()) else [f"stdout {out[:200]!r} lacks {text!r}"]


RULES = {
    "typical": _check_typical,
    "ik_sweep": _check_ik_sweep,
    "witness": _check_witness,
    "verify": _check_verify,
    "mix": _check_mix,
    "stdout": _check_stdout,
    "prefix": _check_prefix,
}


def evaluate(cmd: dict, exit_code: int, stdout: bytes, cwd: Path) -> dict:
    """Hash the command's outputs and list every way they are wrong."""
    files = {}
    for name in cmd.get("writes", ()):
        try:
            files[name] = (cwd / name).read_bytes()
        except OSError:
            files[name] = None
    record = {
        "id": cmd["id"],
        "exit": exit_code,
        "stdout_sha256": sha256(stdout),
        "files_sha256": {k: (sha256(v) if v is not None else None) for k, v in files.items()},
        "out_bytes": len(stdout) + sum(len(v) for v in files.values() if v is not None),
    }
    problems = [f"{name} was not written" for name, v in files.items() if v is None]
    expect = cmd.get("expect")
    if expect is not None:
        for key in ("exit", "stdout_sha256", "files_sha256"):
            if record[key] != expect[key]:
                problems.append(f"{key} {record[key]} != expected {expect[key]}")
    rule = cmd.get("check")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    elif rule is not None:
        name, params = rule
        try:
            problems += RULES[name](stdout, cwd, **params)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"malformed {name} output: {exc!r}")
    record["problems"] = problems
    return record
