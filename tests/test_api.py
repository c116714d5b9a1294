"""The public API: the names the package exports."""

import thermocode

PUBLIC_NAMES = {
    "Allocation", "CapacityError", "Code", "CodeError", "DecodeError",
    "DegenerateSpectrumError", "DimensionLimits", "DuplicateCodewordError",
    "DuplicateSymbolError", "EnsembleTable", "GibbsState", "InfeasibleError",
    "LengthSpectrum", "LogEnsembleTable", "ParseError", "Pmf",
    "PrefixCountTable", "PrefixViolationError", "SampleReport",
    "TemperatureEstimate", "TwoCodeSystem", "UnachievableLengthError",
    "UnknownSymbolError", "__version__", "allocation_table",
    "average_codeword_length", "beta_for_mean_length", "beta_from_temperature",
    "boltzmann_planck_entropy", "box_dimension", "brute_force_allocation",
    "count_messages", "count_messages_brute", "count_messages_log",
    "dimension_curve", "dump_code", "dyadic_pmf", "entropy_at", "fit_dimension",
    "gibbs_state", "is_absolutely_optimal", "iter_log_tables", "kraft_sum",
    "limit_dimensions", "mean_length", "most_probable_length", "parse_code",
    "prefix_counts", "random_complete_code", "sample_messages",
    "shannon_entropy", "solve_equilibrium", "temperature_at",
    "temperature_from_beta", "unit_temperature_derivatives",
}


def test_public_names_are_pinned():
    assert len(thermocode.__all__) == len(PUBLIC_NAMES) == 55
    assert set(thermocode.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in thermocode.__all__:
        assert getattr(thermocode, name) is not None, name


def test_package_table_matches_each_submodule():
    # the package resolves each name from the submodule whose __all__ has
    # it, in the order the submodules list them
    import importlib

    for module, names in thermocode._EXPORTS.items():
        source = importlib.import_module(f"thermocode.{module}")
        assert list(names) == source.__all__, module
        for name in names:
            assert getattr(thermocode, name) is getattr(source, name), name
