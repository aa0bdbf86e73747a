"""Start-up in a fresh process.

Commands that need no linear algebra (``--version``, ``bounds``, ``table``,
``mix``, ``gramcheck`` and every cache hit) must never import numpy; the
numeric modules load on first use.  ``--version`` and cache hits go further
and load neither ``bounds`` nor ``ring``, nor the standard modules only
they need.  Each test starts its own interpreter, because in this one every
module is already loaded.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soslen.cli as cli
from soslen.fileio import canonical_json, write_atomic
from soslen.witness import build_witness

ROOT = Path(__file__).resolve().parents[1]

# runs ``python -m soslen.cli ARGS`` and reports afterwards whether numpy was
# ever loaded
PROBE = """
import runpy, sys
try:
    runpy.run_module("soslen.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("numpy loaded: %s\\n" % ("numpy" in sys.modules))
"""


# runs ``python -m soslen.cli ARGS`` and reports afterwards, as one JSON line,
# the modules it imported beyond those of a bare interpreter and the type of
# soslen.bounds and soslen.ring (``_LazyModule`` until first attribute access)
MODULES_PROBE = """
import sys
before = set(sys.modules)
import json, runpy
try:
    runpy.run_module("soslen.cli", run_name="__main__", alter_sys=True)
finally:
    lazy = {m: type(sys.modules[m]).__name__
            for m in ("soslen.bounds", "soslen.ring") if m in sys.modules}
    sys.stderr.write(json.dumps({"new": sorted(set(sys.modules) - before),
                                 "lazy": lazy}) + "\\n")
"""

# standard modules that only the bounds, ring and CSV code paths need
EXACT_MODULES = ("dataclasses", "fractions", "decimal", "csv")


def _env():
    env = dict(os.environ)
    env.pop("PYLAB_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_env(),
                          capture_output=True, text=True)


def soslen(*argv, cwd=None):
    """Exit code, stdout and whether numpy was loaded, of one fresh command."""
    proc = python("-c", PROBE, *argv, cwd=cwd)
    loaded = proc.stderr.splitlines()[-1]
    assert loaded in ("numpy loaded: True", "numpy loaded: False"), proc.stderr
    return proc.returncode, proc.stdout, loaded.endswith("True")


def test_version_skips_numpy():
    code, out, numpy = soslen("--version")
    assert (code, out, numpy) == (0, "soslen 0.1.0\n", False)


@pytest.mark.parametrize("argv", [["bounds", "3", "4"], ["table", "--paper-table"]])
def test_bounds_commands_skip_numpy(argv, capsys):
    code, out, numpy = soslen(*argv)
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)
    assert not numpy


@pytest.mark.parametrize(
    "argv, files",
    [(["ik", "--sweep", "4", "3"], []), (["witness", "3", "3", "--out", "F"], ["F"])],
)
def test_cache_hit_skips_numpy(argv, files, tmp_path):
    argv = [*argv, "--cache", "cache.jsonl"]
    code, first, numpy = soslen(*argv, cwd=tmp_path)
    assert code == 0 and numpy  # the miss computes, so it reaches linear algebra
    written = {name: (tmp_path / name).read_bytes() for name in files}
    for name in files:
        (tmp_path / name).unlink()
    code, second, numpy = soslen(*argv, cwd=tmp_path)
    assert (code, second) == (0, first)
    assert not numpy
    assert {name: (tmp_path / name).read_bytes() for name in files} == written


@pytest.mark.parametrize(
    "argv, cached",
    [(["--version"], False), (["bounds", "3", "4"], True),
     (["witness", "3", "3", "--out", "F"], True)],
)
def test_version_and_cache_hits_skip_bounds_and_ring(argv, cached, tmp_path):
    if cached:
        argv = [*argv, "--cache", "cache.jsonl"]
        code, first, _ = soslen(*argv, cwd=tmp_path)  # the miss fills the cache
        assert code == 0
    proc = python("-c", MODULES_PROBE, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if cached:
        assert proc.stdout == first
    report = json.loads(proc.stderr.splitlines()[-1])
    assert [m for m in report["new"] if m in EXACT_MODULES] == []
    assert report["lazy"] == {"soslen.bounds": "_LazyModule", "soslen.ring": "_LazyModule"}


# numpy < 2 imports numpy.random, and through it secrets, hmac and hashlib, with numpy
NEEDS_NUMPY_2 = pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                                   reason="numpy < 2 imports numpy.random with numpy")


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="no built-in sha256: soslen falls back to hashlib")
@pytest.mark.parametrize("argv, cached", [
    pytest.param(["typical", "3", "4"], False, marks=NEEDS_NUMPY_2),
    pytest.param(["ik", "4", "2", "6"], False, marks=NEEDS_NUMPY_2),
    pytest.param(["witness", "3", "3", "--out", "F"], False, marks=NEEDS_NUMPY_2),
    (["bounds", "3", "4"], True),
])
def test_seeds_and_cache_keys_skip_openssl(argv, cached, tmp_path):
    """Derived seeds and cache keys hash with the interpreter's own sha256,
    so no command maps OpenSSL's libcrypto through hashlib."""
    if cached:
        argv = [*argv, "--cache", "cache.jsonl"]
    for attempt in ("miss", "hit") if cached else ("run",):
        proc = python("-c", MODULES_PROBE, *argv, cwd=tmp_path)
        assert proc.returncode == 0, (attempt, proc.stderr)
        new = json.loads(proc.stderr.splitlines()[-1])["new"]
        assert "_hashlib" not in new and "hashlib" not in new, attempt
    assert (tmp_path / "cache.jsonl").exists() == cached


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy < 2 imports numpy.random with numpy")
def test_ik_sweep_leaves_numpy_random_unloaded(tmp_path):
    proc = python("-c", MODULES_PROBE, "ik", "--sweep", "4", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stderr.splitlines()[-1])["new"]
    assert "numpy" in new and [m for m in new if m.startswith("numpy.random")] == []


@pytest.mark.parametrize("argv", [["typical", "3", "4"], ["ik", "--sweep", "3", "2"]])
def test_serial_commands_leave_the_process_pool_unloaded(argv, tmp_path):
    # concurrent.futures, and the logging it imports, load only for a pool
    proc = python("-c", MODULES_PROBE, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stderr.splitlines()[-1])["new"]
    assert "numpy" in new and "concurrent.futures" not in new


@pytest.mark.parametrize("preset, threads", [
    ({}, "1"), ({"OMP_NUM_THREADS": "2"}, None), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
])
def test_one_blas_thread_unless_the_environment_chose(preset, threads, tmp_path):
    env = {k: v for k, v in _env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    probe = ("import os, sys\nfrom soslen.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", probe, "typical", "3", "3"], cwd=tmp_path,
                          env={**env, **preset}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {threads}"


def test_mix_and_gramcheck_skip_numpy(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["witness", "3", "3", "--out", "c.json"]) == 0
    assert cli.main(["mix", "c.json", "in_process.json"]) == 0
    capsys.readouterr()
    code, out, numpy = soslen("mix", "c.json", "m.json", cwd=tmp_path)
    assert (code, out, numpy) == (0, "mix c.json -> m.json (4 summands)\n", False)
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()
    code, out, numpy = soslen("gramcheck", "c.json", "m.json", cwd=tmp_path)
    assert (code, out, numpy) == (0, "true\n", False)


def test_import_registers_numeric_modules_without_loading_numpy():
    proc = python("-c", "import sys, soslen.cli\n"
                  "print(sorted(m for m in ('soslen.linalg', 'soslen.generic',"
                  " 'soslen.witness') if m in sys.modules), 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['soslen.generic', 'soslen.linalg', 'soslen.witness'] False\n"


def test_package_names_resolve_on_first_use():
    proc = python("-c", """
import sys, soslen
assert soslen.DEFAULT_SEED == 271828 and soslen.P1 == 2147483647
assert "numpy" not in sys.modules
assert "rank_mod_p" in dir(soslen)
M = soslen.PrimeMatrix([[1, 2], [2, 4]], soslen.P1)
assert soslen.rank_mod_p(M) == 1
for module in (soslen, soslen.bounds, soslen.ring, soslen.linalg, soslen.generic,
               soslen.witness):
    for name in module.__all__:
        getattr(module, name)  # a stale export raises AttributeError
try:
    soslen.no_such_name
except AttributeError:
    print("ok")
""")
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_parallel_sweep_matches_serial_in_fresh_processes():
    argv = ["ik", "--sweep", "3", "2"]
    serial = soslen(*argv, "--parallelism", "1")
    parallel = soslen(*argv, "--parallelism", "2")
    assert serial[0] == 0 and serial[1].count("\n") == 3
    assert parallel[:2] == serial[:2]


LAZY_MODULES = ("soslen.bounds", "soslen.ring", "soslen.linalg", "soslen.generic",
                "soslen.witness")


def test_package_import_registers_the_lazy_modules():
    proc = python("-c", f"""
import sys, soslen
for m in {LAZY_MODULES!r}:
    assert getattr(soslen, m.split(".")[1]) is sys.modules[m], m
    print(m, type(sys.modules[m]).__name__)
print("numpy loaded:", "numpy" in sys.modules)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{m} _LazyModule\n" for m in LAZY_MODULES) + (
        "numpy loaded: False\n")


def test_library_load_mix_and_compare_skip_numpy(tmp_path):
    write_atomic(tmp_path / "c.json", canonical_json(build_witness(3, 3).to_dict()))
    proc = python("-c", """
import sys
from soslen.witness import gram_equivalent, load_sos_file, random_mix
rep = load_sos_file("c.json")
print(gram_equivalent(rep, random_mix(rep, 9)), "numpy" in sys.modules)
""", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "True False\n"), proc.stderr
