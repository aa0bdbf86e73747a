"""Every function the benchmark's tracer wraps must exist under its name.

The tracer in ``perfbench/tracer.py`` binds soslen's layer functions (and
those of ``scripts/verify_certificate.py``) by module and attribute path.
A rename would otherwise surface only when the traced benchmark runs; here
it fails the test suite.  The tracer is loaded but never installed.
"""

import importlib
import importlib.util
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
