"""Command-line surface: bounds tables, dimension experiments, certificates.

Exit codes: 0 success/Verified, 2 inconclusive (resampling advised or
typical length not pinned), 3 certification/genericity failure, 4 usage
error, 5 internal check violation (a proven inequality failed, i.e. a bug).

Results are deterministic for fixed (command, params, seed, primes); the
optional cache (--cache or $PYLAB_CACHE) replays byte-identical output
without recomputation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__, bounds, generic, ring, witness
from .errors import CertificationError, GenericityError, GuardError, InternalCheckError
from .fileio import canonical_json, canonical_pieces, write_atomic
from .primes import DEFAULT_SEED, P1, P2, _validate_modulus

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_CERTIFICATION = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what a shell reports for a command SIGINT ends

_PAPER_TABLE_NS = (4, 5, 6)
_PAPER_TABLE_DS = range(2, 9)

# flags shared across subcommands; everything else is a command parameter
_COMMON_ARGS = {
    "command", "format", "cache", "seed", "prime", "prime2", "trials",
    "parallelism", "allow_large",
}


class RunConfig(namedtuple(
    "RunConfig",
    "command params seed primes trials parallelism format cache allow_large",
)):
    """One resolved invocation: command, its parameters, and the common knobs.

    The seed defaults to a fixed constant so runs replay bit-for-bit;
    passing --seed random opts into entropy (the drawn value still lands
    in the cache key, so the run stays replayable).  A named tuple rather
    than a dataclass, so that start-up does not import dataclasses.
    """

    __slots__ = ()

    def cache_key(self) -> str:
        """sha256 of every field but the two that cannot change the output,
        --parallelism and --cache, and of the version."""
        import hashlib  # here, not at the top: only a cached run needs a key

        payload = {**self._asdict(), "version": __version__}
        del payload["parallelism"], payload["cache"]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def param(self, name, required=True):
        """Merge the positional and flag spellings of a parameter."""
        pos = self.params.get(f"{name}_pos")
        flag = self.params.get(name)
        if pos is not None and flag is not None and pos != flag:
            raise ValueError(f"conflicting positional and flag values for {name}")
        value = pos if pos is not None else flag
        if value is None and required:
            raise ValueError(f"missing required parameter {name}")
        return value


def _resolve_seed(raw) -> int:
    if raw is None:
        return DEFAULT_SEED
    if isinstance(raw, str) and raw.lower() == "random":
        import random

        return random.SystemRandom().randrange(2**63)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--seed must be an integer or 'random', got {raw!r}") from None


def _check_common_flags(d: dict) -> None:
    """Reject out-of-range shared flags before any computation starts."""
    if "prime" in d:
        _validate_modulus(d["prime"])
        _validate_modulus(d["prime2"])
        if d["prime"] == d["prime2"]:
            raise ValueError(
                f"--prime and --prime2 must differ (both are {d['prime']}); "
                "the two-prime agreement check needs two distinct primes"
            )
    for flag in ("trials", "parallelism"):
        if d.get(flag) is not None and d[flag] < 1:
            raise ValueError(f"--{flag} must be >= 1, got {d[flag]}")


def _config_from_args(args) -> RunConfig:
    d = vars(args)
    _check_common_flags(d)
    params = {k: v for k, v in sorted(d.items()) if k not in _COMMON_ARGS}
    return RunConfig(
        command=args.command,
        params=params,
        seed=_resolve_seed(d.get("seed")) if "seed" in d else None,
        primes=(d["prime"], d["prime2"]) if "prime" in d else None,
        trials=d.get("trials"),
        parallelism=d.get("parallelism", 1),
        format=d.get("format", "table"),
        cache=d.get("cache") or os.environ.get("PYLAB_CACHE") or None,
        allow_large=d.get("allow_large", False),
    )


def _check_output_paths(cfg: RunConfig, default_out=None) -> None:
    """Reject an output file (--out or witness's ``default_out`` name, mix's
    output, the cache) whose directory is missing or that is a directory,
    before the cache lookup or the build; a device or pipe (/dev/stdout)
    passes, as write_atomic writes it."""
    label = "--out" if cfg.command == "witness" else "output"
    for path, what in ((cfg.params.get("out") or default_out, label), (cfg.cache, "cache")):
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"{what} directory {Path(path).parent} does not exist")
        if path is not None and Path(path).is_dir():
            raise ValueError(f"{what} {path} is a directory")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 by default, which collides with
    the inconclusive status; force usage errors onto exit code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- rendering


def _render(fmt: str, obj, header, rows, text: str) -> str:
    """One command's result in ``fmt``: ``obj`` as canonical JSON, the
    ``header`` and ``rows`` as CSV text, one line per row, or ``text``."""
    if fmt == "json":
        return canonical_json(obj)
    if fmt == "csv":
        import csv  # here, not at the top: only --format csv writes it

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    return text


def _surd_dict(s: bounds.Surd) -> dict:
    return {**vars(s), "approx": s.approx(6)}


def _surd_text(s: bounds.Surd) -> str:
    exact = s.exact()
    if exact is not None:
        return str(exact)
    op = "+" if s.sign > 0 else "-"
    return f"({s.add} {op} sqrt({s.radicand}))/{s.den} ~ {s.approx(3)}"


def _bounds_row_dict(row) -> dict:
    """A bounds row's JSON record, in the order of its CSV columns."""
    return {
        "n": row.params.n,
        "d": row.params.d,
        "N_d": row.N_d,
        "N_2d": row.N_2d,
        "lambda_ceil": row.lam_ceil,
        "lambda": _surd_dict(row.lam),
        "Lambda_floor": row.Lam_floor,
        "Lambda": _surd_dict(row.Lam),
        "leep_L": row.leep_L,
        "s_min": row.s_min,
        "theta": row.theta,
        "upper_best": row.upper_best,
        "upper_source": row.upper_source.value,
    }


def _csv_cell(key: str, value):
    """A bounds record's field as a CSV column: a surd by its decimal value."""
    return (f"{key}_approx", value["approx"]) if isinstance(value, dict) else (key, value)


def _render_bounds(rows, fmt: str) -> str:
    lines = []
    for r in rows:
        lines.append(f"bounds n={r.params.n} d={r.params.d}:")
        lines.append(f"  N_d={r.N_d}  N_2d={r.N_2d}")
        lines.append(f"  lambda = {_surd_text(r.lam)}  ceil={r.lam_ceil}")
        lines.append(f"  Lambda = {_surd_text(r.Lam)}  floor={r.Lam_floor}")
        lines.append(f"  leep_L={r.leep_L}  s_min={r.s_min}")
        lines.append(
            f"  lower>={r.theta}  upper<={r.upper_best} ({r.upper_source.value})"
        )
    records = [_bounds_row_dict(r) for r in rows]  # rows is never empty
    cells = [dict(_csv_cell(k, v) for k, v in rec.items()) for rec in records]
    return _render(
        fmt, records, list(cells[0]), [c.values() for c in cells], "\n".join(lines) + "\n"
    )


def paper_table_text() -> str:
    """The preset bounds table (n = 4, 5, 6; d = 2..8) in the row layout
    s_min / lower / upper per n, suitable for golden-file comparison."""
    ds = list(_PAPER_TABLE_DS)
    blocks = []
    for n in _PAPER_TABLE_NS:
        rows = [bounds.bounds_row(bounds.DegreeParams(n, d)) for d in ds]
        blocks.append(
            [
                (f"s_min({n},d):", [r.s_min for r in rows]),
                (f"p({n},2d)≥:", [r.theta for r in rows]),
                (f"p({n},2d)≤:", [r.upper_best for r in rows]),
            ]
        )
    label_w = 13
    num_w = 6
    lines = ["d:".ljust(label_w) + "".join(str(d).rjust(num_w) for d in ds)]
    for block in blocks:
        lines.append("")
        for label, vals in block:
            lines.append(label.ljust(label_w) + "".join(str(v).rjust(num_w) for v in vals))
    return "\n".join(lines) + "\n"


def _report_line(rep: dict) -> str:
    where = f"n={rep['n']} d={rep['d']}"
    if rep["s"] is not None:
        where += f" s={rep['s']}"
    if rep["r"] is not None:
        where += f" r={rep['r']}"
    return (
        f"{rep['quantity']} {where}: {rep['status']} "
        f"computed={rep['computed']} expected={rep['expected']} "
        f"(seed={rep['seed']} primes={rep['primes']})"
    )


def _render_reports(reports, fmt: str) -> str:
    """The reports as JSON records, or one CSV row or text line each, with
    the primes joined by "|"; the CSV columns are the record's fields."""
    from dataclasses import fields  # here, not at the top: start-up skips it

    records = [r.to_dict() for r in reports]
    rows = [{**rec, "primes": "|".join(map(str, rec["primes"]))} for rec in records]
    return _render(
        fmt, records, [f.name for f in fields(generic.DimensionReport)],
        [row.values() for row in rows], "\n".join(map(_report_line, rows)) + "\n",
    )


# ---------------------------------------------------------------- commands


def cmd_bounds(cfg: RunConfig):
    n = cfg.param("n")
    d = cfg.param("d")
    rows = [bounds.bounds_row(bounds.DegreeParams(n, d))]
    return _render_bounds(rows, cfg.format), EXIT_OK, {}


def cmd_table(cfg: RunConfig):
    if cfg.params["paper_table"]:
        if cfg.format == "table":
            return paper_table_text(), EXIT_OK, {}
        ns, ds = _PAPER_TABLE_NS, _PAPER_TABLE_DS
    else:
        n_min, n_max = cfg.params["n_min"], cfg.params["n_max"]
        d_min, d_max = cfg.params["d_min"], cfg.params["d_max"]
        if n_min < 3 or d_min < 2:
            raise ValueError("table ranges need n >= 3 and d >= 2")
        for what, lo, hi in (("n", n_min, n_max), ("d", d_min, d_max)):
            if hi < lo:
                raise ValueError(f"empty table range: --{what}-min {lo} > --{what}-max {hi}")
        ns, ds = range(n_min, n_max + 1), range(d_min, d_max + 1)
    return _render_bounds(bounds.bounds_table(ns, ds), cfg.format), EXIT_OK, {}


def cmd_ik(cfg: RunConfig):
    n = cfg.param("n")
    d = cfg.param("d")
    if cfg.params["sweep"]:
        s_values = generic.ik_range(n, d)  # rejects n < 3 or d < 2, even if the range is empty
        if s_values:  # the first s leaves the most vectors: the largest job, guarded first
            generic._check_square_guard(n, d, s_values.start, cfg.allow_large)
    else:
        s_values = [cfg.param("s")]
    jobs = [
        dict(n=n, d=d, s=s, trials=cfg.trials, seed=cfg.seed, primes=cfg.primes,
             allow_large=cfg.allow_large)
        for s in s_values
    ]
    reports = generic.run_jobs(generic.ik_verify, jobs, parallelism=cfg.parallelism)
    code = EXIT_OK
    if any(r.status is generic.Status.INCONCLUSIVE_HIGH for r in reports):
        code = EXIT_INCONCLUSIVE
    return _render_reports(reports, cfg.format), code, {}


def cmd_typical(cfg: RunConfig):
    n = cfg.param("n")
    d = cfg.param("d")
    result = generic.typical_length(
        n, d, r_max=cfg.params["r_max"], seed=cfg.seed, primes=cfg.primes,
        trials=cfg.trials, allow_large=cfg.allow_large,
    )
    record = result.to_dict()
    pairs = " ".join(f"{k}={v}" for k, v in record.items() if k not in ("n", "d"))
    out = _render(cfg.format, record, list(record), [record.values()],
                  f"typical n={n} d={d}: {pairs}\n")
    code = EXIT_OK if result.r_found is not None else EXIT_INCONCLUSIVE
    return out, code, {}


def cmd_witness(cfg: RunConfig):
    n = cfg.param("n")
    d = cfg.param("d")
    s = cfg.param("s", required=False)
    out_path = cfg.params["out"]
    if out_path is None and n >= 3 and d >= 2:  # build_witness rejects the rest
        s = bounds.s_min(bounds.DegreeParams(n, d)) if s is None else s
        out_path = f"witness_n{n}_d{d}_s{s}.json"
        _check_output_paths(cfg, out_path)
    cert = witness.build_witness(n, d, s, seed=cfg.seed, primes=cfg.primes,
                                 allow_large=cfg.allow_large)
    primes = "|".join(str(p) for p in cert.primes)
    form = ring.Form.from_coeffs(n, 2 * d, cert.witness)
    summary = (
        f"witness n={n} d={d} s={cert.s}: length={cert.length} "
        f"injectivity_rank={cert.injectivity_rank} primes={primes} -> {out_path}\n"
        f"witness form: {ring.form_to_text(form)}\n"
    )
    return summary, EXIT_OK, {out_path: cert.to_dict()}


def cmd_mix(cfg: RunConfig):
    out = cfg.params["out"]
    rep = witness.load_sos_file(cfg.params["infile"])
    mixed = witness.random_mix(rep, cfg.seed)
    summary = f"mix {cfg.params['infile']} -> {out} ({len(mixed.summands)} summands)\n"
    return summary, EXIT_OK, {out: witness.representation_to_dict(mixed)}


def cmd_gramcheck(cfg: RunConfig):
    rep1 = witness.load_sos_file(cfg.params["file1"])
    rep2 = witness.load_sos_file(cfg.params["file2"])
    same = witness.gram_equivalent(rep1, rep2)
    return ("true\n" if same else "false\n"), EXIT_OK, {}


_HANDLERS = {
    "bounds": cmd_bounds,
    "table": cmd_table,
    "ik": cmd_ik,
    "typical": cmd_typical,
    "witness": cmd_witness,
    "mix": cmd_mix,
    "gramcheck": cmd_gramcheck,
}


# ---------------------------------------------------------------- cache


def _cache_lookup(path: str, key: str) -> dict | None:
    p = Path(path)
    if not p.exists():
        return None
    hit = None
    for line in p.read_text().splitlines():
        if key not in line:
            continue  # a record with this key spells it out on its line
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError):
            continue  # torn by a crash mid-append, or nested too deep: never a hit
        if isinstance(rec, dict) and rec.get("key") == key and _replayable(rec):
            hit = rec
    return hit


def _replayable(rec: dict) -> bool:
    """Whether a record holds everything a cache hit writes: a record that
    lacks a field or has one of the wrong type is skipped like a torn line."""
    files = rec.get("files", {})
    return (
        isinstance(rec.get("output"), str)
        and type(rec.get("exit_code")) is int
        and isinstance(files, dict)
        and all(isinstance(v, str) for v in files.values())
    )


def _cache_store(path: str, record: dict) -> None:
    """Append one record under an exclusive lock, so that concurrent writers
    neither interleave their records nor both mend one torn tail; closing
    the file flushes the record and then releases the lock."""
    import fcntl  # here, not at the top: a cache hit never stores

    line = canonical_json(record).encode()
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line  # the last record was torn mid-append
        fh.write(line)


# ---------------------------------------------------------------- parser


def _add_common(p, with_seed=True):
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--cache", default=None, help="JSON-lines result cache path")
    if with_seed:
        p.add_argument("--seed", default=None, help="integer seed or 'random'")
        p.add_argument("--prime", type=int, default=P1)
        p.add_argument("--prime2", type=int, default=P2)
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--parallelism", type=int, default=1)
        p.add_argument("--allow-large", dest="allow_large", action="store_true")


def _add_nd(p, with_s=False):
    p.add_argument("n_pos", nargs="?", type=int, default=None, metavar="n")
    p.add_argument("d_pos", nargs="?", type=int, default=None, metavar="d")
    if with_s:
        p.add_argument("s_pos", nargs="?", type=int, default=None, metavar="s")
        p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="soslen", description=__doc__)
    parser.add_argument("--version", action="version", version=f"soslen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bounds", help="closed-form bounds for one (n, d)")
    _add_nd(p)
    _add_common(p, with_seed=False)

    p = sub.add_parser("table", help="bounds table over ranges of (n, d)")
    p.add_argument("--paper-table", dest="paper_table", action="store_true",
                   help="preset layout: n=4..6, d=2..8")
    p.add_argument("--n-min", type=int, default=_PAPER_TABLE_NS[0])
    p.add_argument("--n-max", type=int, default=_PAPER_TABLE_NS[-1])
    p.add_argument("--d-min", type=int, default=_PAPER_TABLE_DS[0])
    p.add_argument("--d-max", type=int, default=_PAPER_TABLE_DS[-1])
    _add_common(p, with_seed=False)

    p = sub.add_parser("ik", help="verify the conjectured squared-ideal dimension")
    _add_nd(p, with_s=True)
    p.add_argument("--sweep", action="store_true", help="all s in [N_(d-1), N_d)")
    _add_common(p)

    p = sub.add_parser("typical", help="smallest square count filling degree 2d generically")
    _add_nd(p)
    p.add_argument("--r-max", dest="r_max", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("witness", help="build a certified exact-length sum of squares")
    _add_nd(p, with_s=True)
    p.add_argument("--out", default=None, help="certificate output path")
    _add_common(p)

    p = sub.add_parser("mix", help="orthogonally mix a certificate or representation")
    p.add_argument("infile")
    p.add_argument("out")
    _add_common(p)

    p = sub.add_parser("gramcheck", help="compare two sos files up to orthogonal equivalence")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_common(p, with_seed=False)

    return parser


def _execute(cfg: RunConfig):
    return _HANDLERS[cfg.command](cfg)


def main(argv=None) -> int:
    # ternary certificates from d = 13 on hold integers of more than 4,300
    # digits, the default limit on int <-> str conversion since 3.10.7
    getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
    # one BLAS thread unless the environment chose: the ranks multiply 64-row
    # chunks, where a second thread doubled the CPU time but not the speed
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _check_output_paths(cfg)
        rec = None
        if cfg.cache:
            key = cfg.cache_key()
            rec = _cache_lookup(cfg.cache, key)
        fresh = rec is None
        if fresh:  # files come as JSON objects, written piece by piece
            output, code, files = _execute(cfg)
            if cfg.cache:  # the record holds each file's text
                files = {path: canonical_json(obj) for path, obj in files.items()}
            rec = {"output": output, "exit_code": code, "files": files}
        for path, content in rec.get("files", {}).items():
            write_atomic(path, content if isinstance(content, str) else canonical_pieces(content))
        if fresh and cfg.cache:
            _cache_store(cfg.cache, {"key": key, **rec})
        sys.stdout.write(rec["output"])
        return rec["exit_code"]
    except (GuardError, ValueError, OSError) as exc:
        print(f"soslen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificationError, GenericityError) as exc:
        print(f"soslen: certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except MemoryError as exc:
        job = " ".join(sys.argv[1:] if argv is None else argv)
        detail = f" ({exc})" if str(exc) else ""
        print(f"soslen: error: out of memory in '{job}'{detail}; --allow-large lifts "
              "the size guard, not the memory limit", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"soslen: internal check violated: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(canonical_json(exc.report.to_dict()), file=sys.stderr, end="")
        return EXIT_INTERNAL
    except KeyboardInterrupt:  # before the cache store, so nothing is stored
        print("soslen: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
