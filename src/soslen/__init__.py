"""Exact bounds, dimension experiments and length certificates for sums of
squares of real forms.

Importing the package registers its heavier submodules as lazy modules,
and the public names below load their module on first use, so that
importing the package (and commands that need no linear algebra) never
imports numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundsRow",
        "DegreeParams",
        "Surd",
        "Lambda_upper",
        "asymptotic_constants",
        "binomial",
        "bounds_row",
        "bounds_table",
        "dim_forms",
        "lambda_lower",
        "leep_length_bound",
        "s_min",
        "theta_lower",
    ),
    "errors": (
        "CertificationError",
        "GenericityError",
        "GuardError",
        "InternalCheckError",
        "SoslenError",
    ),
    "generic": (
        "DimensionReport",
        "Quantity",
        "Status",
        "TypicalLengthResult",
        "dim_square_component",
        "generic_ideal_dim",
        "ik_expected",
        "ik_verify",
        "typical_length",
    ),
    "linalg": (
        "PrimeMatrix",
        "RationalMatrix",
        "kernel_basis_mod_p",
        "kernel_basis_rational",
        "rank_mod_p",
        "rank_rational",
    ),
    "primes": ("DEFAULT_PRIMES", "DEFAULT_SEED", "P1", "P2"),
    "ring": ("Form", "mono_rank", "mono_unrank", "monomials"),
    "witness": (
        "GramTensor",
        "LengthCertificate",
        "SosRepresentation",
        "build_witness",
        "gram_equivalent",
        "gram_tensor",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def _lazy_submodule(name: str):
    """Register ``soslen.<name>`` in ``sys.modules`` and as a package
    attribute now; it executes on first attribute access.

    numpy's start-up costs more than a whole bounds command or cache hit,
    and ``bounds`` and ``ring`` import dataclasses and fractions, so only
    the code that uses a module pays for it.  Callers import these modules
    plainly (``from . import generic``) and call through them
    (``generic.ik_verify(...)``), so calls resolve at call time.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("bounds", "ring", "linalg", "generic", "witness"):
    _lazy_submodule(_name)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
