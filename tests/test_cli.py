import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import soslen.cli as cli
from soslen.cli import main, paper_table_text

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


class TestIkCommand:
    def test_single_instance(self, capsys):
        assert main(["ik", "3", "2", "5", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Verified" in out and "computed=14" in out

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

    def test_parallel_sweep_matches_serial(self, capsys):
        assert main(["ik", "--sweep", "3", "2", "--seed", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["ik", "--sweep", "3", "2", "--seed", "4", "--parallelism", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestTypicalCommand:
    def test_exact(self, capsys):
        assert main(["typical", "3", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "r_found=3" in out and "status=Exact" in out

    def test_interval_only_exit_code(self, capsys):
        assert main(["typical", "3", "3", "--r-max", "3", "--seed", "4"]) == 2
        assert "r_found=None" in capsys.readouterr().out


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


class TestExitCodes:
    def test_internal_check_maps_to_5(self, monkeypatch, capsys):
        from soslen.errors import InternalCheckError

        def boom(**kwargs):
            raise InternalCheckError("computed value below the proven bound")

        monkeypatch.setattr(cli, "ik_verify", boom)
        assert main(["ik", "3", "2", "5"]) == 5
        assert "internal check violated" in capsys.readouterr().err

    def test_certification_failure_maps_to_3(self, monkeypatch, capsys):
        from soslen.errors import CertificationError

        def boom(*args, **kwargs):
            raise CertificationError("injectivity rank short at every prime")

        monkeypatch.setattr(cli, "build_witness", boom)
        assert main(["witness", "3", "3"]) == 3


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

        monkeypatch.setattr(cli, "build_witness", no_build)
        out = str(tmp_path / "missing" / "c.json")
        self._assert_usage_error(["witness", "3", "2", "--seed", "4", "--out", out], capsys)

    def test_gramcheck_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        self._assert_usage_error(["gramcheck", missing, missing], capsys)

    def test_mix_missing_file(self, tmp_path, capsys):
        self._assert_usage_error(
            ["mix", str(tmp_path / "nope.json"), str(tmp_path / "m.json")], capsys
        )


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
