"""Run one pass of soslen commands inside this process, optionally traced.

    python3 perfbench/inproc.py SPEC.json RESULT.json

Run with the working directory the commands expect and ``src`` on
PYTHONPATH.  The spec lists the commands (see checks.py), whether to trace,
an optional [source, destination] file copy made before the pass, and where
to append spans.  The result holds the import time of soslen, each
command's checked record and wall time, and, when traced, the per-layer
metrics and the machine record.  Stdout of each command is captured; the
CLI's ``main`` and the verifier's ``main`` are called as a shell would call
them, so outputs match a fresh process byte for byte.  soslen's
``functools`` caches are cleared before each command, so that each starts
as cold as a fresh process.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing


def _load_verifier(path: Path):
    spec = importlib.util.spec_from_file_location("verify_certificate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lru_caches(modules: dict) -> list:
    """The functools caches defined in ``modules``, found before any wrapping."""
    found = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def _call(cli, verifier, argv):
    """Exit code and stdout bytes of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv[0] == "soslen":
                code = cli.main(argv[1:])
            else:
                saved = sys.argv
                sys.argv = [verifier.__file__, *argv[1:]]
                try:
                    code = verifier.main()
                finally:
                    sys.argv = saved
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is what a fresh process would exit 1 with
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(spec["root"])
    start = perf_counter()
    import soslen.cli as cli

    import_s = perf_counter() - start
    verifier = _load_verifier(root / "scripts" / "verify_certificate.py")
    caches = _lru_caches(tracing.installed_modules(verifier))
    tracer = None
    if spec["traced"]:
        tracer = tracing.Tracer()
        tracer.install(tracing.installed_modules(verifier))
    if spec.get("restore"):
        shutil.copyfile(*spec["restore"])
    cwd = Path.cwd()
    records = []
    wall = 0.0
    for index, cmd in enumerate(spec["commands"]):
        for name in cmd["writes"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        for cached in caches:  # each command starts as cold as a fresh process
            cached.cache_clear()
        if tracer is not None:
            tracer.command = index
        t0 = perf_counter()
        code, stdout = _call(cli, verifier, cmd["argv"])
        elapsed = perf_counter() - t0
        wall += elapsed
        rec = checks.evaluate(cmd, code, stdout, cwd)
        rec["wall_s"] = elapsed
        records.append(rec)
    result = {"import_s": import_s, "wall_s": wall, "records": records}
    if tracer is not None:
        result["layers"], result["layer_seconds"] = tracer.metrics(wall)
        result["bindings"] = tracer.bindings
        tracer.write(spec["spans_out"], spec["label"])
        import machine  # only now, so that import_s above times soslen's import alone

        result["machine"] = machine.record(root)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
