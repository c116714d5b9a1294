"""The public API: the names the package exports, and the contract of its
record types."""

import math
import pickle

import pytest

import thermocode
from thermocode import (
    Allocation,
    DimensionLimits,
    GibbsState,
    LengthSpectrum,
    PrefixCountTable,
    SampleReport,
    TemperatureEstimate,
    TwoCodeSystem,
    gibbs_state,
)

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


@pytest.mark.parametrize("module", list(thermocode._EXPORTS))
def test_star_import_binds_exactly_the_submodules_exports(module):
    import importlib

    namespace = {}
    exec(f"from thermocode.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(thermocode._EXPORTS[module])
    listed = importlib.import_module(f"thermocode.{module}").__all__
    assert type(listed) is list and listed == list(thermocode._EXPORTS[module])


CANON_SP = LengthSpectrum({1: 1, 2: 2})
FOUR_SP = LengthSpectrum({2: 4})

# one instance of each record type, its fields in declaration order
RECORDS = {
    GibbsState: dict(beta=1.0, log2_z=0.0, mean_length=1.5, variance=0.25,
                     length_prob={1: 0.5, 2: 0.25}, spectrum=CANON_SP),
    TemperatureEstimate: dict(value=2.0, one_sided=True),
    SampleReport: dict(draws=4, n_symbols=2, histogram={2: 1, 3: 2, 4: 1},
                       focus_total=3, conditional_counts={"010": 1, "100": 1}),
    DimensionLimits: dict(t_to_zero_plus=0.0, t_equal_one=1.0, t_to_inf=0.8, t_to_zero_minus=0.5),
    PrefixCountTable: dict(n_symbols=2, total_bits=3, counts=(1, 2, 4, 4)),
    TwoCodeSystem: dict(spectrum_first=CANON_SP, n_first=2, spectrum_second=FOUR_SP, n_second=3),
    Allocation: dict(beta_star=0.5, bits_first=3.0, bits_second=6.0, residual=0.0,
                     feasible_range=(8, 10), degenerate=False),
}
record_types = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@record_types
def test_record_fields_in_order_by_position_or_keyword(cls):
    fields = RECORDS[cls]
    assert cls._fields == tuple(fields)
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())


@record_types
def test_record_repr_names_every_field(cls):
    fields = RECORDS[cls]
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@record_types
def test_record_equality_is_fieldwise(cls):
    fields = RECORDS[cls]
    first = next(iter(fields))
    other = {**fields, first: FOUR_SP if first == "spectrum_first" else fields[first] + 1}
    assert cls(**fields) == cls(**fields)
    assert cls(**fields) != cls(**other)


@record_types
def test_record_is_immutable(cls):
    record = cls(**RECORDS[cls])
    for name in RECORDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@record_types
def test_record_pickles(cls):
    record = cls(**RECORDS[cls])
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert back == record


def test_record_defaults():
    report = SampleReport(draws=1, n_symbols=1, histogram={1: 1})
    assert report.focus_total is None and report.conditional_counts is None
    assert TemperatureEstimate(1.0).one_sided is False
    assert Allocation(0.5, 3.0, 6.0, 0.0, (8, 10)).degenerate is False


def test_record_properties():
    state = gibbs_state(CANON_SP, 1.0)
    assert (state.z, state.temperature, state.entropy) == (1.0, 1.0, 1.5)
    assert state._replace(log2_z=2000.0).z == math.inf  # 2**2000 overflows
    assert state._replace(beta=0.0).temperature == math.inf
    assert Allocation(**RECORDS[Allocation]).temperature == 2.0
    assert SampleReport(**RECORDS[SampleReport]).mean_total == 3.0
    assert TwoCodeSystem(**RECORDS[TwoCodeSystem]).feasible_range == (2 + 6, 4 + 6)
    assert PrefixCountTable(**RECORDS[PrefixCountTable]).n_max == 3


@pytest.mark.parametrize("n_first, n_second", [(0, 3), (2, 0), (-1, -1)])
def test_two_code_system_refuses_an_empty_message(n_first, n_second):
    fields = {**RECORDS[TwoCodeSystem], "n_first": n_first, "n_second": n_second}
    with pytest.raises(ValueError, match="both message lengths must be at least 1"):
        TwoCodeSystem(**fields)
    with pytest.raises(ValueError, match="both message lengths must be at least 1"):
        TwoCodeSystem(*fields.values())
    with pytest.raises(ValueError, match="both message lengths must be at least 1"):
        TwoCodeSystem(**RECORDS[TwoCodeSystem])._replace(n_first=n_first, n_second=n_second)
