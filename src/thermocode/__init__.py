"""Statistical mechanics of optimal binary prefix codes.

The package treats the set of coded messages of a prefix code as a physical
ensemble: counting messages at fixed total length gives entropy and a
discrete temperature, canonical weights over codeword lengths give the
matching continuous picture, two codes sharing a bit budget reach thermal
equilibrium, and the message set carries a temperature-dependent
box-counting dimension.  Exact integer and rational arithmetic backs every
float path.

`import thermocode` loads no submodule.  A public name, or a submodule
such as `thermocode.codes`, is imported on its first access (PEP 562), so a
short CLI run compiles only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# The one list of public names, by defining submodule.  Each submodule takes
# its __all__ from here (from . import _EXPORTS), and the package's __all__
# keeps this order.  This module imports no submodule, so each one can read
# the table while it loads.
_EXPORTS = {
    "codes": (
        "Pmf", "Code", "LengthSpectrum", "parse_code", "dump_code", "kraft_sum",
        "shannon_entropy", "average_codeword_length", "is_absolutely_optimal",
        "dyadic_pmf", "random_complete_code",
    ),
    "microcanonical": (
        "EnsembleTable", "LogEnsembleTable", "TemperatureEstimate", "SampleReport",
        "count_messages", "count_messages_brute", "count_messages_log",
        "iter_log_tables", "entropy_at", "temperature_at", "most_probable_length",
        "sample_messages",
    ),
    "gibbs": (
        "GibbsState", "gibbs_state", "mean_length", "beta_for_mean_length",
        "boltzmann_planck_entropy", "beta_from_temperature", "temperature_from_beta",
    ),
    "equilibrium": (
        "TwoCodeSystem", "Allocation", "solve_equilibrium", "brute_force_allocation",
        "allocation_table",
    ),
    "dimension": (
        "DimensionLimits", "PrefixCountTable", "box_dimension", "limit_dimensions",
        "unit_temperature_derivatives", "prefix_counts", "fit_dimension",
        "dimension_curve",
    ),
    "errors": (
        "CodeError", "ParseError", "DuplicateSymbolError", "DuplicateCodewordError",
        "PrefixViolationError", "UnknownSymbolError", "DecodeError", "InfeasibleError",
        "UnachievableLengthError", "DegenerateSpectrumError", "CapacityError",
    ),
}
_SUBMODULES = (*_EXPORTS, "rootfind", "cli")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
