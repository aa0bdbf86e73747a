"""Certificates with integers past 4,300 digits, the default limit on
int <-> str conversion since Python 3.10.7; ternary witnesses reach it from
d = 13 on.

The certificate here is ``witness 3 3`` with one basis vector multiplied by
10**2500 and the witness recomputed.  It stays valid, because 10 is a unit
modulo every listed prime, and its witness has about 5,000-digit
coefficients.  The limit is per process, so every check runs in a fresh
interpreter and this one never lifts it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import soslen.cli as cli
from soslen.fileio import canonical_json

ROOT = Path(__file__).resolve().parents[1]
VERIFIER = ROOT / "scripts" / "verify_certificate.py"

WRITE_SCALED = """
import sys
getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
from soslen.fileio import canonical_json
from soslen.witness import _sum_of_squares_int, build_witness
cert = build_witness(3, 3).to_dict()
cert["basis"][0] = [10**2500 * c for c in cert["basis"][0]]
cert["witness"] = _sum_of_squares_int(cert["basis"], 3, 3)
assert max(abs(c) for c in cert["witness"]) > 10**4300
with open(sys.argv[1], "w") as fh:
    fh.write(canonical_json(cert))
"""


def run(*args, cwd):
    env = dict(os.environ)
    env.pop("PYLAB_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def scaled(tmp_path_factory):
    """A directory holding the scaled certificate as ``big.json``."""
    where = tmp_path_factory.mktemp("large")
    proc = run("-c", WRITE_SCALED, "big.json", cwd=where)
    assert proc.returncode == 0, proc.stderr
    return where


def test_verifier_accepts_it(scaled):
    proc = run(VERIFIER, "big.json", cwd=scaled)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "big.json: certificate valid, sos length = 4\n" in proc.stdout


def test_mix_and_gramcheck_read_it(scaled):
    proc = run("-m", "soslen.cli", "mix", "big.json", "mixed.json", cwd=scaled)
    assert (proc.returncode, proc.stdout) == (0, "mix big.json -> mixed.json (4 summands)\n")
    proc = run("-m", "soslen.cli", "gramcheck", "big.json", "mixed.json", cwd=scaled)
    assert (proc.returncode, proc.stdout) == (0, "true\n"), proc.stderr


def test_cache_record_holding_it_replays(scaled, tmp_path):
    argv = ["witness", "3", "3", "--out", "w.json", "--cache", "cache.jsonl"]
    key = cli._config_from_args(cli.build_parser().parse_args(argv)).cache_key()
    content = (scaled / "big.json").read_text()
    record = canonical_json({"key": key, "output": "replayed\n", "exit_code": 0,
                             "files": {"w.json": content}})
    (tmp_path / "cache.jsonl").write_text(record)
    proc = run("-m", "soslen.cli", *argv, cwd=tmp_path)
    # a recomputation would print the real summary and write the unscaled
    # certificate, and append its own record
    assert (proc.returncode, proc.stdout) == (0, "replayed\n"), proc.stderr
    assert (tmp_path / "w.json").read_text() == content
    assert (tmp_path / "cache.jsonl").read_text() == record
