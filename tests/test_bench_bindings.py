"""Every function the benchmark's tracer wraps must exist under its name.

The tracer in ``perfbench/tracer.py`` binds soslen's layer functions (and
those of ``scripts/verify_certificate.py``) by module and attribute path.
A rename would otherwise surface only when the traced benchmark runs; here
it fails the test suite.  The tracer is loaded but not installed, except by
the last test, which installs it in a fresh process.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


@pytest.fixture(scope="module")
def modules():
    mods = {name: importlib.import_module(name) for name in
            {mod for _, mod, _, _ in TRACER.TARGETS} if name.startswith("soslen")}
    mods["verify_certificate"] = _load(
        "verify_certificate", ROOT / "scripts" / "verify_certificate.py"
    )
    return mods


@pytest.mark.parametrize(
    "span, module, path",
    [(span, module, path) for span, module, path, _ in TRACER.TARGETS],
    ids=[f"{span}:{path}" for span, _, path, _ in TRACER.TARGETS],
)
def test_target_resolves_to_a_callable(span, module, path, modules):
    owner = modules[module]
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{span}: {module}.{path} does not exist"
    assert callable(owner), f"{span}: {module}.{path} is not callable"


def test_tracer_installs_after_importing_only_the_cli():
    """The in-process benchmark imports ``soslen.cli`` alone and then looks up
    every target's module in ``sys.modules``; the CLI loads ``bounds``,
    ``ring`` and the numeric modules lazily, and they must be registered all
    the same."""
    code = f"""
import importlib.util
import soslen.cli as cli

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracer = load("perfbench_tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
verifier = load("verify_certificate", {str(ROOT / "scripts" / "verify_certificate.py")!r})
spans = tracer.Tracer()
spans.install(tracer.installed_modules(verifier))
assert cli.main(["ik", "3", "2", "5", "--seed", "4"]) == 0
assert cli.main(["bounds", "3", "4"]) == 0
calls = spans.metrics(1.0)[1]["calls"]
print(calls["cli.handler"], calls["generic.ik_verify"], calls["linalg.rank_mod_p"] > 0,
      calls["bounds.bounds_row"])
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 1 True 1"
