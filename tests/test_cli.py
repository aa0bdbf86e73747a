import ast
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import soslen.cli as cli
from soslen import fileio
from soslen.cli import main, paper_table_text
from soslen.fileio import canonical_json, canonical_pieces, write_atomic
from soslen.linalg import RationalMatrix, kernel_basis_rational
from soslen.witness import _eval_rows_int, _sum_of_squares_int, build_witness

PAPER_ROWS = {
    "s_min(4,d):": [5, 12, 24, 41, 65, 97, 137],
    "p(4,2d)≥:": [5, 8, 11, 15, 19, 23, 28],
    "p(4,2d)≤:": [7, 11, 16, 22, 29, 36, 43],
    "s_min(5,d):": [8, 21, 48, 94, 166, 273, 422],
    "p(5,2d)≥:": [7, 14, 22, 32, 44, 57, 73],
    "p(5,2d)≤:": [11, 20, 30, 44, 59, 77, 97],
    "s_min(6,d):": [10, 34, 88, 192, 374, 670, 1123],
    "p(6,2d)≥:": [11, 22, 38, 60, 88, 122, 164],
    "p(6,2d)≤:": [15, 29, 50, 77, 110, 152, 201],
}

GOLDEN_PAPER_TABLE = """\
d:                2     3     4     5     6     7     8

s_min(4,d):       5    12    24    41    65    97   137
p(4,2d)≥:         5     8    11    15    19    23    28
p(4,2d)≤:         7    11    16    22    29    36    43

s_min(5,d):       8    21    48    94   166   273   422
p(5,2d)≥:         7    14    22    32    44    57    73
p(5,2d)≤:        11    20    30    44    59    77    97

s_min(6,d):      10    34    88   192   374   670  1123
p(6,2d)≥:        11    22    38    60    88   122   164
p(6,2d)≤:        15    29    50    77   110   152   201
"""


class TestPaperTable:
    def test_all_63_numbers(self):
        text = paper_table_text()
        lines = {ln.split()[0]: [int(x) for x in ln.split()[1:]] for ln in text.splitlines() if ln}
        for label, values in PAPER_ROWS.items():
            assert lines[label] == values, label
        assert sum(len(v) for v in PAPER_ROWS.values()) == 63

    def test_golden_layout(self):
        assert paper_table_text() == GOLDEN_PAPER_TABLE

    def test_cli_invocation(self, capsys):
        assert main(["table", "--paper-table"]) == 0
        assert capsys.readouterr().out == GOLDEN_PAPER_TABLE


class TestBoundsCommand:
    def test_single_row(self, capsys):
        assert main(["bounds", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "lower>=6" in out and "upper<=7" in out

    def test_flags_equal_positionals(self, capsys):
        assert main(["bounds", "--n", "3", "--d", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["bounds", "3", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_conflicting_values_usage_error(self, capsys):
        assert main(["bounds", "3", "5", "--n", "4"]) == 4

    def test_invalid_range_usage_error(self, capsys):
        assert main(["bounds", "2", "1"]) == 4
        assert main(["table", "--n-min", "1"]) == 4

    def test_empty_table_range_is_named(self, capsys):
        assert main(["table", "--n-min", "5", "--n-max", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "soslen: error: empty table range: --n-min 5 > --n-max 3\n"

    def test_non_integer_seed_is_named(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "abc"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "soslen: error: --seed must be an integer or 'random', got 'abc'\n"


class TestIkCommand:
    def test_single_instance(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Verified" in out and "computed=14" in out

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 1)])
    def test_sweep_outside_the_formula_exits_4(self, n, d, capsys):
        # [N_{d-1}, N_d) is empty at (1, 2): no job would run to reject it
        assert main(["ik", "--sweep", str(n), str(d)]) == 4
        assert capsys.readouterr() == ("", (
            f"soslen: error: expected-value formula needs n >= 3, d >= 2, got ({n}, {d})\n"))

    def test_sweep_sorted_and_verified(self, capsys):
        assert main(["ik", "--sweep", "3", "2", "--seed", "4", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["s"] for r in records] == [3, 4, 5]
        assert all(r["status"] == "Verified" for r in records)

    def test_json_round_trip_identity(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out

    def test_csv_columns(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "4", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "quantity,n,d,s,r,computed,expected,status,seed,primes"

    def test_guard_exit_code(self, capsys):
        assert main(["ik", "6", "8", "1123"]) == 4

    def test_n6_row_where_the_products_are_compressed(self, capsys):
        # 8,001 pair products ranked from 2,248 squares; the bytes printed
        # when all 8,001 rows were ranked
        assert main(["ik", "6", "5", "126", "--trials", "1"]) == 0
        assert capsys.readouterr().out == (
            "HilbertH2d n=6 d=5 s=126: Verified computed=756 expected=756 "
            "(seed=12800866389339847338 primes=2147483647|2147483629)\n"
        )

    def test_parallel_sweep_matches_serial(self, capsys):
        assert main(["ik", "--sweep", "3", "2", "--seed", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["ik", "--sweep", "3", "2", "--seed", "4", "--parallelism", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestTinyPrimes:
    """Primes p <= 2d, where pair products are ranked in coefficient form:
    the bytes these commands printed before the evaluation form."""

    def test_ik_instance(self, capsys):
        assert main(["ik", "4", "2", "6", "--prime", "3", "--prime2", "101"]) == 0
        assert capsys.readouterr().out == (
            "HilbertH2d n=4 d=2 s=6: Verified computed=25 expected=25 "
            "(seed=16935642664428343380 primes=3|101)\n"
        )

    def test_ik_sweep(self, capsys):
        assert main(["ik", "--sweep", "3", "4", "--prime", "7", "--prime2", "101"]) == 0
        assert capsys.readouterr().out == "".join(
            f"HilbertH2d n=3 d=4 s={s}: Verified computed={h} expected={h} "
            f"(seed={seed} primes=7|101)\n"
            for s, h, seed in (
                (10, 30, 15060219574575658512),
                (11, 35, 10859573912541615330),
                (12, 39, 5543531694706067154),
                (13, 42, 2859227071111045840),
                (14, 44, 4982356975779028997),
            )
        )

    def test_witness(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["witness", "3", "3", "--prime", "5", "--prime2", "7",
                     "--out", "cert.json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("witness n=3 d=3 s=6: length=4 injectivity_rank=10 primes=7 ")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2ca362c7ece4bd03f11c38369b6c08d7eebc03a75b790283c8409bf2fa92f14")
        assert hashlib.sha256((tmp_path / "cert.json").read_bytes()).hexdigest() == (
            "9c705b647684868086886de74000473cebbc240c10f910eda70964c545bc790a")


class TestTypicalCommand:
    def test_exact(self, capsys):
        assert main(["typical", "3", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "r_found=3" in out and "status=Exact" in out

    def test_interval_only_exit_code(self, capsys):
        assert main(["typical", "3", "3", "--r-max", "3", "--seed", "4"]) == 2
        assert "r_found=None" in capsys.readouterr().out


CSV_HEADER = (
    "n,d,N_d,N_2d,lambda_ceil,lambda_approx,Lambda_floor,Lambda_approx,"
    "leep_L,s_min,theta,upper_best,upper_source\n"
)


class TestCsvOutput:
    """The exact CSV bytes of the bounds, table and typical commands."""

    @pytest.mark.parametrize("argv, expected", [
        (["bounds", "3", "4"],
         CSV_HEADER + "3,4,15,45,4,3.242349,9,9.000000,6,10,5,6,LeepL\n"),
        (["table", "--n-min", "3", "--n-max", "4", "--d-min", "2", "--d-max", "3"],
         CSV_HEADER
         + "3,2,6,15,3,3.000000,5,5.000000,4,3,3,4,LeepL\n"
         "3,3,10,28,4,3.134540,7,7.000000,5,6,4,5,LeepL\n"
         "4,2,10,35,5,4.155711,7,7.881527,7,5,5,7,LambdaFloor\n"
         "4,3,20,84,5,4.617619,12,12.471121,11,12,8,11,LeepL\n"),
        (["typical", "3", "2"],
         "n,d,r_found,certified_lower,fos_cap,status\n3,2,3,3,4,Exact\n"),
    ])
    def test_bytes(self, argv, expected, capsys):
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected


_FORMAT_CASES = {
    "bounds 3 5": (0, {
        "table": "8e65607738ceb26c500ec59265a53a2ff398769861c11930c4b19ff3f6963d90",
        "json": "7019431691743b97ce92f688c59b8cea1afe6504e1f2010eca82a1666797c8ea",
        "csv": "ca3e343cc7e91f154e0c05def56f3ced1463d5c9703e68489b4416e194c005e8",
    }),
    "table --n-min 3 --n-max 4 --d-min 2 --d-max 3": (0, {
        "table": "0c4c21684d6eb21bfed00abeb0fee7dff22c5a79cceca552e23f0a010b6f40b0",
        "json": "04b3e28b62531bb21891efc34997663063ed21ba77588c7c96f3a44f9e538da0",
        "csv": "539e7614fc85deeebad3e2804322c9094a9e6b467b98e652f85f7bbdfc83f544",
    }),
    # the preset layout as text; as records, the bytes of the default ranges
    "table --paper-table": (0, {
        "table": "07ae520b7f61246a31cc860e595ecbb02a71dc83751c3f70eb993dd16ac0e0ba",
        "json": "a5dabdcc9db8af74fa6bab7b94a899a6db9485880d86fa1c2e87030925880017",
        "csv": "c06518007fec9f79048117c705b73fdf3d8ee60d772fbdf1046296e176730bc2",
    }),
    "ik 3 2 5 --seed 4": (0, {
        "table": "fe9a7b6eaa2b9da352bf70355d4129ea7d891fcc3e8067212d6fabafadf04755",
        "json": "535797a3a23434c557dc156a8b7e1b69978187aec66a2a7fad6e9330e7a1e84c",
        "csv": "ff22baecde084b6ac5cd087d895d27eae89d77bac219bfefe94aff8c85f10af6",
    }),
    "ik --sweep 3 3 --seed 4": (0, {
        "table": "1f0da32aaae81783df2237ca3faa89214e4311ec183a577076896e8e4259713f",
        "json": "4b533355ee38bdb15b4556175749833ceb75b81a277bf4c636d1928656911c1d",
        "csv": "e143d258ac699da9b974b77dc7157e8d7a4a24433f2f1c82931cd1454afce741",
    }),
    "typical 3 2 --seed 4": (0, {
        "table": "cba3bd04fc3eee3f9d9fc158253b27178d68e81b8d7945f6ca1113c4a97683d1",
        "json": "e64af4367e28adb047e7ad1d73cf6d6ffcd2b13fd30dec7843766343a95faa0b",
        "csv": "5e96c9b61ee30f9251bd0221fac3c15cf2241b76dd6077a30d1bfadb237047b6",
    }),
    # r_found is None: "None" in the table, null in JSON, an empty CSV cell
    "typical 3 3 --r-max 3 --seed 4": (2, {
        "table": "438cdc67c629f4c81081e18cadb9feabca617745fb57c5a6b8ffc082458abac6",
        "json": "449c9050022ae475311efc2de0ad237317e288e86ead4be8b345ea381a5b442e",
        "csv": "0661c1f0517cb4358457fe1abe4b85d987ad1a6e5b41d474de72bac099593256",
    }),
}

_HELP_CASES = {
    "--help": "0b044fe656bf2944daf5e58f3dd01fbe1a8f0c85298535d7d1e31682d67dab37",
    "bounds --help": "06fe13070eaecf052d9f31e17a0dad1257ee6ca7f96b162236617322fb4a4519",
    "table --help": "60709bfac2c98bb36dbbaf60eaa8b72e64f7b1ac858918d60af9e56f650ae1d0",
    "ik --help": "8d43d2c967e820e2d4ed8844437b06641860dce10cfe0855f7bf7ff76a51c4b0",
    "typical --help": "88068e81d95a9db2aeeb7ace68e7c0c35bebf5a93f2fb0639c1dda221db34d11",
    "witness --help": "0d619b8d46512a93e7d5746cd50ee6f076fb1343d1ee7ab4a832f1e551cac927",
    "mix --help": "088e8209b5c9a973a525aedf7f4e823dde0add3cfb746affe2984786184e1092",
    "gramcheck --help": "f36ff549897a5b5a60676b95b234076c9733b9a20cf70d7492f84059f88937de",
}

# argparse lays help out differently from one Python release to the next;
# these hashes are CPython 3.11's at 80 columns
_help_layout = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="help hashes recorded with CPython 3.11's argparse"
)


@pytest.mark.parametrize("argv, code, digest", [
    *[(f"{cmd} --format {fmt}", code, digest)
      for cmd, (code, digests) in _FORMAT_CASES.items() for fmt, digest in digests.items()],
    *[pytest.param(cmd, 0, digest, marks=_help_layout) for cmd, digest in _HELP_CASES.items()],
])
def test_format_bytes(argv, code, digest, capsys, monkeypatch):
    """sha256 of stdout and the exit code of every output format and help
    text: the bytes that reports, pipelines and caches depend on."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PYLAB_CACHE", raising=False)
    try:
        got = main(argv.split())
    except SystemExit as exc:  # --help
        got = exc.code
    assert got == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    # a configured prime below the screening prime: the gate runs at 7, then at 101
    ("ik --sweep 3 4 --prime 7 --prime2 101",
     "d3d2fd4d9a7331fbcf583614fc28b2ab3d07e2680bd78bb2dfd570d424a21def"),
    ("ik --sweep 4 6 --prime 101 --prime2 103",
     "9180fb5bc26af99aac1fbc8520ee9ec19db6c6d3811238a09a89286610130e43"),
    # default primes: gate and square rank at the screening prime
    ("ik --sweep 5 4 --seed 31337",
     "d4240fe2849616135041dc9d697edb66390ea4f95b456a354d0707ab9d7cab5f"),
])
def test_ik_sweep_bytes(argv, digest, capsys, monkeypatch):
    """sha256 of the stdout of sweeps whose gate runs at different primes."""
    monkeypatch.delenv("PYLAB_CACHE", raising=False)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestWitnessFlow:
    def test_witness_mix_gramcheck(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["witness", "3", "3", "--seed", "4", "--out", "c.json"]) == 0
        out = capsys.readouterr().out
        assert "length=4" in out
        cert = json.loads(Path("c.json").read_text())
        assert cert["length"] == 4 and cert["s"] == 6

        assert main(["mix", "c.json", "m.json", "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["gramcheck", "c.json", "m.json"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_gramcheck_different_targets_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["witness", "3", "2", "--seed", "4", "--out", "a.json"]) == 0
        assert main(["witness", "3", "2", "--seed", "5", "--out", "b.json"]) == 0
        capsys.readouterr()
        assert main(["gramcheck", "a.json", "b.json"]) == 4

    def test_standalone_verifier_accepts_certificate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["witness", "4", "2", "--seed", "4", "--out", "c.json"]) == 0
        capsys.readouterr()
        script = Path(__file__).resolve().parents[1] / "scripts" / "verify_certificate.py"
        proc = subprocess.run(
            [sys.executable, str(script), "c.json"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "certificate valid" in proc.stdout


    def test_witness_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        # witness 7 5 at s_min: 5457 pair products x 8008 columns > 4*10^7 entries
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        assert main(["witness", "7", "5"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("soslen: error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_allow_large_reaches_the_witness_guard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        monkeypatch.setattr(cli.generic, "MAX_DENSE_ENTRIES", 0)
        assert main(["witness", "3", "2", "--out", "c.json"]) == 4
        assert main(["witness", "3", "2", "--out", "c.json", "--allow-large"]) == 0
        assert (tmp_path / "c.json").exists()


# 100,000 nested arrays: deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def run_cli(argv, cwd, **kwargs):
    """One fresh ``soslen`` process, so that a traceback would reach stderr;
    ``kwargs`` go to ``subprocess.run``."""
    code = "import sys; from soslen.cli import main; sys.exit(main())"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYLAB_CACHE", None)
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, **kwargs)


class TestStandaloneVerifierMalformed:
    def test_one_invalid_line_per_bad_file(self, tmp_path):
        (tmp_path / "fields.json").write_text('{"basis": [], "witness": []}')
        (tmp_path / "text.json").write_text("not json\n")
        paths = [str(tmp_path / name) for name in ("fields.json", "text.json", "missing.json")]
        script = Path(__file__).resolve().parents[1] / "scripts" / "verify_certificate.py"
        proc = subprocess.run([sys.executable, str(script), *paths], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        for path in paths:
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(path + ":")]
            assert len(lines) == 1, proc.stdout
            assert lines[0].startswith(f"{path}: INVALID (malformed certificate: ")

    def test_deep_nesting_is_one_invalid_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        proc = run_verifier(path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout.count("\n") == 1
        assert proc.stdout.startswith(f"{path}: INVALID (malformed certificate: RecursionError")


VERIFIER = Path(__file__).resolve().parents[1] / "scripts" / "verify_certificate.py"


def test_reproduction_script_verifies_every_row():
    proc = subprocess.run([sys.executable, str(VERIFIER.parent / "reproduce_tables.py")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(VERIFIER.parents[1] / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert paper_table_text() in proc.stdout
    results = [ln for ln in proc.stdout.splitlines() if ln.startswith("  ")]
    # 7 ternary identities, 3 exceptional triples, 17 typical lengths, 2 ratios
    assert len(results) == 29 and any(ln.startswith("  t(4,20) = 7 ") for ln in results)
    bad = [ln for ln in results if not any(w in ln for w in ("Verified", "Exact", "True"))]
    assert bad == []


class TestStandaloneVerifierIndependence:
    """The verifier shares no code with the package whose certificates it
    checks: it imports the standard library only and runs without the
    package on the path."""

    def test_imports_only_the_standard_library(self):
        tree = ast.parse(VERIFIER.read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "." for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        assert modules
        assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []

    def test_runs_isolated_on_a_package_certificate(self, tmp_path):
        path = tmp_path / "c.json"
        write_atomic(path, canonical_json(build_witness(3, 3).to_dict()))
        # -I ignores PYTHONPATH and leaves the script's directory off sys.path
        proc = subprocess.run([sys.executable, "-I", str(VERIFIER), str(path)],
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "certificate valid" in proc.stdout


def run_verifier(*paths):
    return subprocess.run([sys.executable, str(VERIFIER), *map(str, paths)],
                          capture_output=True, text=True)


class TestStandaloneVerifierSoundness:
    """Checks the verifier needs beyond shape, multiply-back, vanishing and
    pair-product rank."""

    @staticmethod
    def forged_certificate():
        """A witness 3 3 certificate whose last point repeats the first, with
        4 of the 5 forms vanishing on the 5 distinct points as its basis: it
        passes the four older checks, yet the basis does not span the forms
        vanishing on the points, so its length claim proves nothing."""
        cert = build_witness(3, 3)
        points = [list(p) for p in cert.points]
        points[-1] = points[0]
        kernel = kernel_basis_rational(RationalMatrix(_eval_rows_int(points, 3, 3)))
        assert len(kernel) == cert.length + 1
        basis = kernel[:-1]
        return dict(cert.to_dict(), points=points, basis=basis,
                    witness=_sum_of_squares_int(basis, 3, 3))

    def test_repeated_point_is_invalid(self, tmp_path):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(self.forged_certificate()))
        proc = run_verifier(path)
        assert proc.returncode == 1
        failed = [ln for ln in proc.stdout.splitlines() if "[FAIL]" in ln]
        assert failed == ["  [FAIL] independent points: evaluation matrix has rank s = 6 "
                          "modulo a prime"], proc.stdout
        assert proc.stdout.endswith(f"{path}: INVALID (1 failed checks)\n")

    def test_empty_prime_list_is_invalid(self, tmp_path):
        path = tmp_path / "noprimes.json"
        path.write_text(json.dumps(dict(build_witness(3, 3).to_dict(), primes=[])))
        proc = run_verifier(path)
        assert proc.returncode == 1
        assert "  [FAIL] rank evidence" in proc.stdout

    def test_package_certificates_pass(self, tmp_path):
        paths = []
        for n, d in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]:
            paths.append(tmp_path / f"w{n}{d}.json")
            write_atomic(paths[-1], canonical_json(build_witness(n, d).to_dict()))
        proc = run_verifier(*paths)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.count("certificate valid") == len(paths)
        assert "independent points" not in proc.stdout  # printed only on failure


@functools.lru_cache(maxsize=None)
def load_verifier():
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_certificate.py"
    spec = importlib.util.spec_from_file_location("verify_certificate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_rank_mod_p(rows, p):
    """Row reduction on plain lists, one entry at a time."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestVerifierRank:
    """The verifier's packed-row rank against plain row reduction."""

    @given(st.randoms(use_true_random=False), st.sampled_from((2, 3, 101, 2**31 - 1, 4294967291)))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, rng, p):
        m, n, k = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 6)
        B = [[rng.randint(-(2**70), 2**70) for _ in range(k)] for _ in range(m)]
        C = [[rng.choice((0, 1, -1, rng.randint(-(2**40), 2**40))) for _ in range(n)] for _ in range(k)]
        rows = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        if m and rng.random() < 0.3:
            rows.append(list(rows[0]))
        assert load_verifier().rank_mod_p(rows, p) == reference_rank_mod_p(rows, p)

    def test_lanes_at_their_largest(self):
        # entries just below p and full rank, so every row is updated at every
        # pivot with lanes near their bound
        p = 4294967291
        rows = [[p - 1 - pow(i + 2, j, 97) for j in range(40)] for i in range(40)]
        assert load_verifier().rank_mod_p(rows, p) == reference_rank_mod_p(rows, p) == 40


class TestCache:
    def test_byte_identical_without_recomputation(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "cache.jsonl")
        argv = ["ik", "3", "2", "5", "--seed", "4", "--cache", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out

        calls = []
        real = cli._execute

        def counting(args):
            calls.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "_execute", counting)
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second == first
        assert calls == []  # served from cache
        assert len(Path(cache).read_text().splitlines()) == 1

    def test_cache_replays_witness_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = str(tmp_path / "cache.jsonl")
        argv = ["witness", "3", "2", "--seed", "4", "--out", "w.json", "--cache", cache]
        assert main(argv) == 0
        content = Path("w.json").read_text()
        Path("w.json").unlink()
        capsys.readouterr()
        assert main(argv) == 0
        assert Path("w.json").read_text() == content

    def test_failed_file_write_stores_nothing(self, tmp_path, capsys, monkeypatch):
        def crash(path, content):
            raise OSError("simulated full disk")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "write_atomic", crash)
        argv = ["witness", "3", "2", "--seed", "4", "--out", "w.json", "--cache", "c.jsonl"]
        assert main(argv) == 4
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []  # no record to replay a lost file

    def test_env_var_cache_path(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "envcache.jsonl"
        monkeypatch.setenv("PYLAB_CACHE", str(cache))
        assert main(["bounds", "3", "3"]) == 0
        capsys.readouterr()
        assert cache.exists()

    def test_different_seed_misses_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        assert main(["ik", "3", "2", "3", "--seed", "4", "--cache", cache]) == 0
        assert main(["ik", "3", "2", "3", "--seed", "5", "--cache", cache]) == 0
        capsys.readouterr()
        assert len(Path(cache).read_text().splitlines()) == 2


    def test_torn_final_line_is_skipped(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        hit_argv = ["ik", "3", "2", "5", "--seed", "4", "--cache", str(cache)]
        assert main(hit_argv) == 0
        first = capsys.readouterr().out
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write('{"exit_code":0,"files":{},"key":"ab')  # crash mid-append

        calls = []
        real = cli._execute

        def counting(args):
            calls.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "_execute", counting)
        assert main(hit_argv) == 0
        assert capsys.readouterr().out == first
        assert calls == []
        assert main(["bounds", "3", "5", "--cache", str(cache)]) == 0
        assert "lower>=6" in capsys.readouterr().out
        assert calls == ["bounds"]
        # the record stored after the tear starts on its own line, so it hits
        assert main(["bounds", "3", "5", "--cache", str(cache)]) == 0
        assert "lower>=6" in capsys.readouterr().out
        assert calls == ["bounds"]

    def test_lookup_matches_the_key_field_only(self, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        key, other = "ab" * 32, "cd" * 32
        cli._cache_store(cache, {"key": other, "output": f"see {key}\n", "exit_code": 0,
                                 "files": {}})
        assert cli._cache_lookup(cache, key) is None
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write(f'["{key}"]\n')  # valid JSON holding the key, but not a record
            fh.write(f'{{"exit_code":0,"files":{{}},"key":"{key}","out')  # torn mid-append
        assert cli._cache_lookup(cache, key) is None
        record = {"key": key, "output": "hit\n", "exit_code": 0, "files": {}}
        cli._cache_store(cache, record)
        assert cli._cache_lookup(cache, key) == record
        assert cli._cache_lookup(cache, other)["output"] == f"see {key}\n"

    def test_deeply_nested_line_holding_the_key_is_skipped(self, tmp_path):
        argv = ["bounds", "3", "4", "--cache", "cache.jsonl"]
        first = run_cli(argv, tmp_path)
        key = json.loads((tmp_path / "cache.jsonl").read_text())["key"]
        (tmp_path / "cache.jsonl").write_text(DEEP_JSON.replace("[]", f'["{key}"]') + "\n")
        again = run_cli(argv, tmp_path)  # recomputed, not a RecursionError traceback
        assert (first.returncode, first.stderr) == (again.returncode, again.stderr) == (0, "")
        assert again.stdout == first.stdout
        assert "Traceback" not in again.stderr

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"output": "x\n"},
            {"exit_code": 0},
            {"output": 5, "exit_code": 0},
            {"output": "x\n", "exit_code": "0"},
            {"output": "x\n", "exit_code": 0, "files": ["w.json"]},
            {"output": "x\n", "exit_code": 0, "files": {"w.json": 1}},
        ],
    )
    def test_record_lacking_replay_fields_is_skipped(self, tmp_path, capsys, monkeypatch, fields):
        monkeypatch.chdir(tmp_path)
        argv = ["bounds", "3", "4", "--cache", "cache.jsonl"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        key = json.loads(Path("cache.jsonl").read_text())["key"]
        Path("cache.jsonl").write_text(json.dumps({"key": key, **fields}) + "\n")
        assert main(argv) == 0  # recomputed, not a KeyError or TypeError traceback
        assert capsys.readouterr().out == expected
        assert main(argv) == 0  # the recomputed record is stored and now hits
        assert capsys.readouterr().out == expected
        assert len(Path("cache.jsonl").read_text().splitlines()) == 2


    def test_concurrent_writers_keep_every_record(self, tmp_path):
        """Four processes append at once to a cache whose last record was torn
        by a crash: the tear is mended once, and every record stays whole."""
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"exit_code":0,"files":{},"key":"torn')
        go = tmp_path / "go"
        writer = (
            "import os, sys\n"
            "import soslen.cli as cli\n"
            "path, go, who = sys.argv[1:]\n"
            "while not os.path.exists(go):\n"
            "    pass\n"
            "for i in range(25):\n"
            "    cli._cache_store(path, {'key': f'{who}-{i}', 'output': who * 5000,\n"
            "                            'exit_code': 0, 'files': {}})\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        procs = [subprocess.Popen([sys.executable, "-c", writer, str(cache), str(go), str(who)],
                                  env=env) for who in range(4)]
        go.touch()  # all four start appending at once
        assert [proc.wait(timeout=60) for proc in procs] == [0] * 4
        torn, *lines = cache.read_text().splitlines()
        assert torn == '{"exit_code":0,"files":{},"key":"torn'
        assert len(lines) == 100
        assert all(isinstance(json.loads(line), dict) for line in lines)
        for who in range(4):
            for i in range(25):
                assert cli._cache_lookup(str(cache), f"{who}-{i}")["output"] == str(who) * 5000

    def test_store_waits_for_the_lock(self, tmp_path):
        import fcntl

        cache = tmp_path / "cache.jsonl"
        record = {"key": "k", "output": "x\n", "exit_code": 0, "files": {}}
        with open(cache, "a+b") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            writer = threading.Thread(target=cli._cache_store, args=(str(cache), record))
            writer.start()
            writer.join(0.3)
            assert writer.is_alive() and cache.read_bytes() == b""
        writer.join(10)  # closing the holder released the lock
        assert not writer.is_alive()
        assert cli._cache_lookup(str(cache), "k") == record


class TestAtomicWrites:
    """A failed write leaves the previous file byte-identical and no temp file."""

    OLD = b'{"old":true}\n'

    @staticmethod
    def _crash_before_rename(monkeypatch, written):
        def crash(src, dst):
            written.append(Path(src).read_text())
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "c.json"
        target.write_bytes(self.OLD)
        with pytest.raises(UnicodeEncodeError):  # raised by the write itself
            write_atomic(target, "x" * 100_000 + "\ud800")
        assert target.read_bytes() == self.OLD
        assert list(tmp_path.iterdir()) == [target]
        written = []
        self._crash_before_rename(monkeypatch, written)
        with pytest.raises(OSError):
            write_atomic(target, "new\n")
        assert written == ["new\n"]  # the new text went to a temp file only
        assert target.read_bytes() == self.OLD
        assert list(tmp_path.iterdir()) == [target]

    def test_symlink_and_pipe_are_written_through(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_bytes(self.OLD)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        write_atomic(link, "new\n")
        assert link.is_symlink() and real.read_text() == "new\n"
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        write_atomic(pipe, "through\n")
        reader.join(10)
        assert got == ["through\n"]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]

    def test_stdout_pipe_is_written_through(self):
        # /dev/stdout resolves to "/proc/<pid>/fd/pipe:[...]", no path at all
        code = "from soslen.fileio import write_atomic; write_atomic('/dev/stdout', 'through\\n')"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "through\n", "")

    def test_stdout_redirected_to_a_file_keeps_the_summary(self, tmp_path):
        # replacing the file stdout is open on would cut off what follows
        code = "import sys; from soslen.cli import main; sys.exit(main())"
        argv = [sys.executable, "-c", code, "witness", "3", "2", "--out", "/dev/stdout"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYLAB_CACHE", None)
        piped = subprocess.run(argv, capture_output=True, env=env, cwd=tmp_path)
        with open(tmp_path / "out.txt", "wb") as fh:
            redirected = subprocess.run(argv, stdout=fh, env=env, cwd=tmp_path)
        assert piped.returncode == redirected.returncode == 0
        assert b"witness n=3 d=2" in piped.stdout
        assert (tmp_path / "out.txt").read_bytes() == piped.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_certificate_and_replay_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["witness", "3", "2", "--seed", "4", "--out", "w.json", "--cache", "c.jsonl"]
        Path("w.json").write_bytes(self.OLD)
        written = []
        for attempt in ("computed", "replayed"):
            with monkeypatch.context() as m:
                self._crash_before_rename(m, written)
                assert main(argv) == 4, attempt
            assert Path("w.json").read_bytes() == self.OLD
            assert main(argv) == 0  # first computes and caches, then replays
            fresh = Path("w.json").read_text()
            Path("w.json").write_bytes(self.OLD)
        assert written == [fresh, fresh]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "w.json"]
        capsys.readouterr()

    def test_pieces_write_the_text_at_every_target(self, tmp_path):
        getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
        # pieces longer than one slice, with characters of 1 to 4 bytes in UTF-8
        raw = "aé€😀" * fileio._SLICE
        obj = {"long": raw, "rows": [[-(10**5000), 0], []]}
        text = canonical_json(obj)
        path = tmp_path / "c.json"
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        for expected, content in ((text, lambda: text), (text, lambda: canonical_pieces(obj)),
                                  (raw, lambda: [raw[:7], "", raw[7:]])):
            write_atomic(path, content())
            assert path.read_text() == expected
            got = []
            reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
            reader.start()
            write_atomic(pipe, content())
            reader.join(10)
            assert got == [expected]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "pipe"]
        code = ("import sys; from soslen.fileio import canonical_pieces, write_atomic; "
                "getattr(sys, 'set_int_max_str_digits', lambda maxdigits: None)(0); "
                "write_atomic(sys.argv[1], canonical_pieces([-(10**5000), 'é' * 70000]))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        with open(path, "wb") as fh:  # stdout's own file is written through sys.stdout
            proc = subprocess.run([sys.executable, "-c", code, str(path)], stdout=fh, env=env)
        assert proc.returncode == 0
        assert path.read_text() == canonical_json([-(10**5000), "é" * 70000])


def _json_values():
    """JSON values: nested dicts and lists, empty ones among them, ints of
    more than 4,300 digits (the default str conversion limit), unicode
    strings, bools and None."""
    scalars = (st.none() | st.booleans() | st.integers()
               | st.integers(-(10**4400), -(10**4301)) | st.text())
    return st.recursive(scalars, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                        max_leaves=20)


class TestCanonicalPieces:
    @given(_json_values())
    @settings(max_examples=200, deadline=None)
    def test_join_equals_json_dumps(self, obj):
        getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        pieces = list(canonical_pieces(obj))
        assert "".join(pieces) == canonical_json(obj) == expected
        # no piece is longer than one scalar's text and its separators
        longest = max((len(json.dumps(x)) for x in _scalars(obj)), default=0)
        assert max(map(len, pieces)) <= longest + 2


def _scalars(obj):
    """The scalars and dict keys of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _scalars(value)
    elif isinstance(obj, list):
        for x in obj:
            yield from _scalars(x)
    else:
        yield obj


class TestCertificateBytes:
    """sha256 of what ``witness``, ``mix`` and ``gramcheck`` print and write,
    recorded before certificates were written piece by piece."""

    @staticmethod
    def _digest(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    def test_witness_mix_and_gramcheck(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        runs = [
            (["witness", "3", "10", "--out", "A.json"], "A.json",
             "f70e210f692e7042c77d8e94095f0511e148224b31d9727c9866bc188c77a971",
             "3cd2d452877734d3845f97e1d5208d96a0c8c35ca8c3af257b3d3b364683dec0"),
            (["witness", "4", "5", "--out", "B.json"], "B.json",
             "ab6de10f84ba408e1eab4265ddd3f095e33d1cae6d88040b3d3fbb1c1f980bac",
             "279cd782bc9d86cdea1089de9965a620c4f6fcf6abaad3c12e511b5a29e8df6c"),
            (["mix", "B.json", "M.json"], "M.json",
             "8944e6d4da55c68877e59b20d07cda20c8202e048fbf285fb9cf9342d3c48527",
             "c2c4f2c5e420ef4c8e4eed9116720a5b7cb20f18bbeb0ed1887ecee327196c7a"),
        ]
        for argv, path, out_digest, file_digest in runs:
            assert main(argv) == 0, argv
            assert self._digest(capsys.readouterr().out) == out_digest, argv
            assert self._digest(Path(path).read_bytes()) == file_digest, argv
        assert main(["gramcheck", "B.json", "M.json"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_cached_witness_and_its_hit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["witness", "3", "4", "--cache", "c.jsonl", "--out", "w34.json"]
        digests = {
            "w34.json": "40a2900ebce6818553b5523232d6f216b32e256dc8837d1a5ea4e96b44e67a65",
            "c.jsonl": "1532e842f00cd9a015906d1e604593cb8fb4f491dceee454d6e073fb12fd4e7d",
        }
        for attempt in ("computed", "replayed"):
            assert main(argv) == 0, attempt
            assert self._digest(capsys.readouterr().out) == (
                "45ad0aee09103f186e71226d2abb6543613c1aad2a7f4fb4a5193b25b4332843"), attempt
            assert {p: self._digest(Path(p).read_bytes()) for p in digests} == digests, attempt
            Path("w34.json").unlink()
            monkeypatch.setattr(cli, "_execute", None)  # the second run must not compute


class TestExitCodes:
    def test_internal_check_maps_to_5(self, monkeypatch, capsys):
        from soslen.errors import InternalCheckError

        def boom(**kwargs):
            raise InternalCheckError("computed value below the proven bound")

        monkeypatch.setattr(cli.generic, "ik_verify", boom)
        assert main(["ik", "3", "2", "5"]) == 5
        assert "internal check violated" in capsys.readouterr().err

    def test_certification_failure_maps_to_3(self, monkeypatch, capsys):
        from soslen.errors import CertificationError

        def boom(*args, **kwargs):
            raise CertificationError("injectivity rank short at every prime")

        monkeypatch.setattr(cli.witness, "build_witness", boom)
        assert main(["witness", "3", "3"]) == 3

    def test_memory_error_maps_to_4(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        monkeypatch.setattr(cli.generic, "rank_mod_p", boom)
        assert main(["ik", "3", "2", "5"]) == 4
        assert capsys.readouterr() == ("", (
            "soslen: error: out of memory in 'ik 3 2 5' (Unable to allocate 1.00 GiB); "
            "--allow-large lifts the size guard, not the memory limit\n"))

    def test_dead_pool_worker_maps_to_4(self, monkeypatch, capsys):
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        monkeypatch.setattr(cli.generic, "ik_verify", _exit_at_once)
        assert main(["ik", "--sweep", "3", "2", "--parallelism", "2"]) == 4
        assert capsys.readouterr() == ("", (
            "soslen: error: out of memory in 'ik --sweep 3 2 --parallelism 2' "
            "(a worker process died); --allow-large lifts the size guard, not the "
            "memory limit\n"))


HUGE = "99999999999999999999"


def _limit_address_space():
    """Run in the child before exec: 2 GiB of address space, so that a
    runaway allocation fails there instead of filling the machine."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestHugeInputs:
    """An n or d too large to work with is refused at once, with or without
    --allow-large: exit 4 and one stderr line, not an OverflowError, a
    2^(n-1) cap, s_min random points or one job per s."""

    @pytest.mark.parametrize("argv", [
        ["bounds", HUGE, HUGE],
        ["ik", HUGE, HUGE, "5"],
        ["witness", HUGE, HUGE],
        ["typical", HUGE, "3"],
        ["ik", "--sweep", "3", HUGE],
        ["typical", HUGE, "3", "--allow-large"],
        ["typical", "3", HUGE, "--allow-large"],
        ["witness", "3", HUGE, "--allow-large"],
        ["witness", HUGE, "3", "--allow-large"],
        ["ik", "--sweep", "3", HUGE, "--allow-large"],
        ["typical", HUGE, "3", "--r-max", "1"],  # no job to guard, only the cap
        # under the dense ceiling, above the bound on printed bits
        ["typical", "4000000000", "2", "--r-max", "1"],  # a cap of 4 * 10^9 bits
        ["bounds", "1000000000", "1000000000"],  # N_d of about 2 * 10^9 bits
    ], ids=" ".join)
    def test_exits_4_with_one_line(self, argv, tmp_path):
        proc = run_cli(argv, tmp_path, timeout=20, preexec_fn=_limit_address_space)
        assert proc.returncode == 4, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("soslen: error:")
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert "out of memory" not in proc.stderr  # refused before any large allocation


@pytest.mark.skipif(not hasattr(signal, "SIGINT"), reason="sends SIGINT")
def test_sigint_exits_130_with_one_line_and_no_cache(tmp_path):
    # the child says when soslen is loaded; the sweep takes seconds after that
    code = ("import sys\nfrom soslen.cli import main\nprint('loaded', flush=True)\n"
            "sys.exit(main())")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYLAB_CACHE", None)
    argv = ["ik", "--sweep", "6", "4", "--cache", "c.jsonl"]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    try:
        assert proc.stdout.readline() == "loaded\n"
        time.sleep(0.5)
        assert proc.poll() is None  # still computing
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130
    assert (out, err) == ("", "soslen: interrupted\n")
    assert not (tmp_path / "c.jsonl").exists()


def _exit_at_once(**kwargs):
    """A pool worker that dies as the out-of-memory killer leaves it."""
    os._exit(1)


class TestUsageErrors:
    def test_missing_parameters(self):
        assert main(["bounds"]) == 4
        assert main(["ik", "3", "2"]) == 4  # no s and no --sweep

    def test_argparse_errors_use_exit_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--format", "yaml"])
        assert exc.value.code == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestFlagValidation:
    """Out-of-range shared flags exit 4 with one line on stderr, before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ik", "3", "2", "5", "--prime", str(2**61 - 1)],
            ["witness", "3", "2", "--prime2", str(2**127 - 1)],
            ["ik", "3", "2", "5", "--prime", "91"],
            ["ik", "3", "2", "5", "--prime", "2147483647", "--prime2", "2147483647"],
            ["ik", "4", "2", "6", "--trials", "0"],
            ["ik", "--sweep", "3", "2", "--parallelism", "0"],
            ["typical", "3", "2", "--trials", "-1"],
        ],
    )
    def test_rejected(self, argv, capsys, monkeypatch):
        def no_work(cfg):
            raise AssertionError("a command ran despite an invalid flag")

        monkeypatch.setattr(cli, "_execute", no_work)
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("soslen: error:") and err.count("\n") == 1

    def test_largest_admissible_prime_runs(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "4", "--prime2", "3037000493"]) == 0
        assert "primes=2147483647|3037000493" in capsys.readouterr().out


class TestFileErrors:
    """Unreadable inputs and unwritable outputs are usage errors, not tracebacks."""

    def _assert_usage_error(self, argv, capsys):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("soslen: error:") and err.count("\n") == 1

    def test_witness_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the certificate was built for an unwritable --out")

        monkeypatch.setattr(cli.witness, "build_witness", no_build)
        out = str(tmp_path / "missing" / "c.json")
        self._assert_usage_error(["witness", "3", "2", "--seed", "4", "--out", out], capsys)

    def test_witness_default_name_is_a_directory(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the certificate was built for an unwritable default name")

        monkeypatch.setattr(cli.witness, "build_witness", no_build)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        (tmp_path / "witness_n3_d2_s3.json").mkdir()
        self._assert_usage_error(["witness", "3", "2"], capsys)
        (tmp_path / "witness_n3_d2_s4.json").mkdir()
        self._assert_usage_error(["witness", "3", "2", "4"], capsys)

    def test_gramcheck_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        self._assert_usage_error(["gramcheck", missing, missing], capsys)

    def test_mix_missing_file(self, tmp_path, capsys):
        self._assert_usage_error(
            ["mix", str(tmp_path / "nope.json"), str(tmp_path / "m.json")], capsys
        )

    def test_mix_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("the input was loaded for an unwritable output")

        monkeypatch.setattr(cli.witness, "load_sos_file", no_load)
        missing = tmp_path / "missing"
        assert main(["mix", str(tmp_path / "c.json"), str(missing / "m.json")]) == 4
        err = capsys.readouterr().err
        assert err == f"soslen: error: output directory {missing} does not exist\n"

    @pytest.mark.parametrize(
        "argv, env, err",
        [
            (["witness", "3", "2", "--out", "w.json", "--cache", "missing/c.jsonl"], None,
             "cache directory missing does not exist"),
            (["bounds", "3", "2"], "missing/c.jsonl", "cache directory missing does not exist"),
            (["witness", "3", "2", "--cache", "d"], None, "cache d is a directory"),
            (["witness", "3", "2", "--out", "d"], None, "--out d is a directory"),
            (["mix", "c.json", "d"], None, "output d is a directory"),
        ],
    )
    def test_unwritable_output_rejected_before_work(
        self, argv, env, err, tmp_path, capsys, monkeypatch
    ):
        def no_work(cfg):
            raise AssertionError("a command ran for an unwritable output")

        monkeypatch.setattr(cli, "_execute", no_work)
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("PYLAB_CACHE", raising=False)
        else:
            monkeypatch.setenv("PYLAB_CACHE", env)
        (tmp_path / "d").mkdir()
        assert main(argv) == 4
        assert capsys.readouterr().err == f"soslen: error: {err}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_device_output_accepted(self):
        argv = ["witness", "3", "2", "--out", os.devnull, "--cache", os.devnull]
        cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
        cli._check_output_paths(cfg)


# bounded JSON built from the keys and values of sos files, plus objects of
# the two file shapes with small fields; integers stay small so that no
# dimension count sees a huge n or d
_SOS_KEYS = ("basis", "witness", "n", "d", "s", "primes", "seed", "points", "length",
             "injectivity_rank", "kind", "summands", "target")
_SMALL = st.integers(-3, 6)
_COEFF = _SMALL | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x"])
_VECTORS = st.lists(st.lists(_COEFF, max_size=4), max_size=3)
_SOS_JSON = st.one_of(
    st.recursive(
        st.none() | st.booleans() | _COEFF | st.just("sos_representation"),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(_SOS_KEYS), inner, max_size=6),
        max_leaves=20,
    ),
    st.fixed_dictionaries({
        "kind": st.just("sos_representation"), "n": st.integers(1, 3),
        "d": st.integers(0, 2), "summands": _VECTORS, "target": st.lists(_COEFF, max_size=6),
    }),
    st.builds(  # a valid representation in one variable
        lambda cs, d: {"kind": "sos_representation", "n": 1, "d": d,
                       "summands": [[c] for c in cs], "target": [sum(c * c for c in cs)]},
        st.lists(_SMALL, min_size=1, max_size=3), st.integers(0, 2),
    ),
    st.fixed_dictionaries({
        key: _SMALL for key in ("n", "d", "s", "seed", "length", "injectivity_rank")
    } | {"primes": st.lists(_SMALL, max_size=2), "points": _VECTORS,
         "basis": _VECTORS, "witness": st.lists(_COEFF, max_size=6)}),
)


class TestMalformedSosFiles:
    """A JSON file of the wrong shape is a usage error that names the file."""

    @pytest.mark.parametrize(
        "data",
        [
            {"basis": [], "witness": []},  # certificate missing its other fields
            [],  # top level is not an object
            {"kind": "sos_representation", "n": 1, "d": 1,
             "summands": [[[1]]], "target": ["1"]},  # list as a coefficient
        ],
    )
    def test_usage_error_naming_the_file(self, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for argv in (["gramcheck", str(path), str(path)],
                     ["mix", str(path), str(tmp_path / "m.json")]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err.startswith("soslen: error:") and err.count("\n") == 1
            assert str(path) in err

    def test_deep_nesting_is_a_usage_error_naming_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        for argv in (["gramcheck", str(path), str(path)],
                     ["mix", str(path), str(tmp_path / "m.json")]):
            proc = run_cli(argv, tmp_path)
            assert (proc.returncode, proc.stdout) == (4, "")
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith(f"soslen: error: {path} is malformed (RecursionError")
            assert proc.stderr.count("\n") == 1

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_SOS_JSON)
    def test_gramcheck_fuzz_has_documented_exit(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "f.json")
            Path(path).write_text(json.dumps(data))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["gramcheck", path, path])
        assert code in {0, 2, 3, 4, 5}
        assert "Traceback" not in err.getvalue()


# argv drawn from the subcommands and their flags, with bad values, missing
# and unreadable files; every size is at most 4, so no draw runs for long.
# --parallelism is never above 1, so no draw starts a process pool.
_SIZE = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", ""])
_FILE = st.sampled_from(["cert.json", "rep.json", "bad.json", "missing.json", "dir"])
_FLAG_VALUES = {
    "--n": _SIZE, "--d": _SIZE, "--s": _SIZE, "--r-max": _SIZE,
    "--n-min": _SIZE, "--n-max": _SIZE, "--d-min": _SIZE, "--d-max": _SIZE,
    "--seed": st.sampled_from(["1", "random", "x", "-3"]),
    "--prime": st.sampled_from(["2", "101", "91", "-7", "1000003", "3037000500"]),
    "--prime2": st.sampled_from(["3", "101", "2147483647", "x"]),
    "--trials": st.sampled_from(["0", "1", "2", "-1", "x"]),
    "--parallelism": st.sampled_from(["0", "1", "-2", "x"]),
    "--format": st.sampled_from(["table", "json", "csv", "xml"]),
    "--cache": st.sampled_from(["cache.jsonl", "missing/c.jsonl", "dir"]),
    "--out": st.sampled_from(["out.json", "missing/out.json", "dir"]),
}
_SWITCHES = ["--sweep", "--allow-large", "--paper-table", "--help", "--version", "--bogus"]
_SEEDED = ["--seed", "--prime", "--prime2", "--trials", "--parallelism", "--allow-large"]
_ACCEPTED = {  # the flags each subcommand takes, beside --format and --cache
    "bounds": ["--n", "--d"],
    "table": ["--paper-table", "--n-min", "--n-max", "--d-min", "--d-max"],
    "ik": ["--n", "--d", "--s", "--sweep", *_SEEDED],
    "typical": ["--n", "--d", "--r-max", *_SEEDED],
    "witness": ["--n", "--d", "--s", "--out", *_SEEDED],
    "mix": _SEEDED,
    "gramcheck": [],
    "nonsense": [],
}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(list(_ACCEPTED)))
    files = sub in ("mix", "gramcheck")
    if draw(st.booleans()):  # the positionals the subcommand expects, of the right kind
        count = {"table": 0, "nonsense": 0, "ik": 3, "witness": draw(st.integers(2, 3))}.get(sub, 2)
        argv = [sub] + draw(st.lists(_FILE if files else st.sampled_from("1234"),
                                     min_size=count, max_size=count))
    else:
        argv = [sub] + draw(st.lists(_FILE if files else _SIZE, max_size=4))
    accepted = _ACCEPTED[sub] + ["--format", "--cache"]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 9)):
            flag = draw(st.sampled_from(accepted))
        else:  # possibly a flag of another subcommand, or of none
            flag = draw(st.sampled_from(list(_FLAG_VALUES) + _SWITCHES))
        argv.append(flag)
        if flag in _FLAG_VALUES and draw(st.integers(0, 9)):  # sometimes the value is missing
            argv.append(draw(_FLAG_VALUES[flag]))
    return argv


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        """A directory holding a certificate, a mix of it, a file that is not
        JSON, and a directory where a file is expected; each example runs in
        a fresh copy, since a draw may write into it (``mix``'s output path
        is drawn from the same names)."""
        root = tmp_path_factory.mktemp("fuzz")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["witness", "3", "2", "--out", "cert.json"]) == 0
                assert main(["mix", "cert.json", "rep.json"]) == 0
        finally:
            os.chdir(cwd)
        (root / "bad.json").write_text("{")
        (root / "dir").mkdir()
        return root

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(_argvs())
    def test_only_documented_exits(self, template, monkeypatch, argv):
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(shutil.copytree(template, Path(tmp) / "w"))
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse: --help, --version or a usage error
                code = exc.code
                assert code in (0, 4), argv
            finally:
                os.chdir(cwd)
        assert code in {0, 2, 3, 4, 5}, argv
        assert "Traceback" not in err.getvalue()
