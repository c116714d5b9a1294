"""Command line interface.

Every subcommand reads a JSON code document ({"code": [{"symbol", "codeword",
optional "prob"}, ...]}), computes one table or report, and writes CSV (or
key=value lines) with '.' as the decimal separator and 17 significant digits,
so repeated runs are byte identical.  Side results (notes, key=value lines)
go to stderr, or to stdout when --out FILE takes the primary output, so the
CSV stays clean for piping.  Units are bits throughout; beta means
inverse temperature 1/T, with beta = 0 the infinite-temperature point and
beta = 1 the dyadic point T = 1.

Exit codes: 0 success, 1 invalid input (bad document, prefix violation,
usage), 2 infeasible parameter (outside the achievable or feasible range),
3 capacity guard (exact counts for omega or equilibrium --brute, a prefix
table, a generated code, a --grid, a sampled message or the decimal exponent
of a string probability too large; for omega, retry with --mode log).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from array import array
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import accumulate, chain, islice, repeat, starmap, tee
from typing import TYPE_CHECKING

from .errors import (
    CapacityError,
    CodeError,
    InfeasibleError,
    UnachievableLengthError,
)

if TYPE_CHECKING:
    from .codes import Code, Pmf

# The commands call the package's public names as attributes of this
# module, as in _self.parse_code(...).  The first read of a name falls
# through to __getattr__ below, which imports its defining submodule through
# the package (whose _EXPORTS is the one name table) and binds the name
# here, so a run imports only the modules its command calls.  Setting
# cli.<name> (as a tracer does) replaces what the commands call.  _self is
# this module also when it runs as __main__ (python -m thermocode.cli).
_self = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


_CONVENTIONS = (
    "Lengths, entropies, and totals are in bits. "
    "beta is the inverse temperature 1/T: beta=0 means T=+-inf, "
    "beta=1 is the dyadic point T=1, negative beta means negative T."
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x, signed_inf: bool = True) -> str:
    """CSV cell: strings as given, ints exact, floats at 17 significant
    digits, inf/nan literal."""
    if type(x) is not float:
        if isinstance(x, str):
            return x
        if isinstance(x, int):
            return str(x)
        x = float(x)
    if x - x == 0.0:  # a finite float, the most common cell
        return f"{x:.17g}"
    if math.isnan(x):
        return "nan"
    return "-inf" if x < 0 else "+inf" if signed_inf else "inf"


def _row(*cells) -> str:
    return ",".join(map(_fmt, cells))


def _csv(header: str, rows: Iterable[tuple]) -> Iterator[str]:
    """The header line, then one _row line per row, formatted as it is written."""
    return chain([header], starmap(_row, rows))


def _kv(pairs: Iterable[tuple[str, object]]) -> Iterator[str]:
    """key=value lines, each value a _fmt cell and a bool true or false."""
    return (f"{k}={str(v).lower() if isinstance(v, bool) else _fmt(v)}" for k, v in pairs)


def _load_code(path: str) -> tuple[Code, Pmf | None]:
    with open(path) as file:
        return _self.parse_code(file.read())


def _int_total(value: float, what: str = "-L") -> int:
    if not math.isfinite(value) or value != int(value):
        raise UnachievableLengthError(f"{what} must be an integer number of bits, got {value}")
    return int(value)


# ---------------------------------------------------------------- subcommands
#
# Each _cmd_* computes everything and returns (rows, notes): the primary
# output lines and (key, value) pairs.  main() alone writes them, so a failed
# command writes nothing and never opens --out.  Rows may be lazy, but only
# over formatting of values already computed, so nothing fails mid-write.


def _cmd_check(args):
    code, pmf = _load_code(args.code)
    spectrum = code.spectrum()
    k = _self.kraft_sum(code)
    pairs = [("n", len(code)), ("l_min", spectrum.l_min), ("l_max", spectrum.l_max), ("kraft", str(k)), ("complete", k == 1)]
    if pmf is not None:
        pairs.append(("H", _self.shannon_entropy(pmf)))
        pairs.append(("L_X", _self.average_codeword_length(code, pmf)))
        pairs.append(("optimal", _self.is_absolutely_optimal(code, pmf)))
    return _kv(pairs), ()


def _window_sums(lead: Iterator[int], trail: Iterator[int], window: float) -> Iterator[tuple[int, int]]:
    """(j, exact sum of cells j..j+w) at each nonzero cell j, w = int(window).

    lead and trail are two passes over the same dense cells, lead's w + 1
    cells ahead of trail's (all of it ahead for a window of inf or larger).
    One running sum holds the window: at each cell it takes lead's next
    cell and, once yielded, gives back trail's.  So no list of the cells is
    kept, and each cell costs two big-integer steps.  A window that reaches
    the last cell may take as lead one cell, the total.
    """
    running = sum(islice(lead, int(window) if window < sys.maxsize else None))
    for j, c in enumerate(trail):
        running += next(lead, 0)  # the sum of cells j..j+w
        if c:
            yield j, running
            running -= c


def _cmd_omega(args):
    if not args.window >= 0:
        raise CodeError(f"--window must be a non-negative number of bits, got {args.window}")
    code, _ = _load_code(args.code)
    spectrum, n = code.spectrum(), args.n_symbols
    from .microcanonical import _check_exact_size, _miller, _temperatures

    # both modes read Miller's counts as they pass and build no table
    exact = args.mode == "exact"
    if exact:
        _check_exact_size(spectrum, n)
    if not args.window:
        cells = ((j, c) for j, c in enumerate(_miller(spectrum, n)) if c)
    else:
        # tee holds the w + 1 counts between the passes, of at most
        # N*log2(n_codewords) bits each: while they weigh no more than the
        # rows' float64 S column (64 bits a cell), one recurrence feeds both
        # passes; past that each pass reruns it, so memory stays flat.  A
        # window that reaches the last cell leads with the total of the
        # counts, n_codewords**N (at most 1 for N < 1, which _miller refuses
        # on its first cell, before any row is formatted).
        span = spectrum.l_max - spectrum.l_min
        if args.window >= n * span:
            passes = iter((spectrum.n_codewords**n,)), _miller(spectrum, n)
        else:
            heavy = (args.window + 1) * math.log2(spectrum.n_codewords) > 64 * span
            passes = (_miller(spectrum, n), _miller(spectrum, n)) if heavy else tee(_miller(spectrum, n))
        cells = _window_sums(*passes, args.window)
    # a log row is three 8-byte array cells: L, S and T
    offset, support, omegas, entropies = n * spectrum.l_min, array("q"), [], array("d")
    for j, total in cells:
        support.append(offset + j)
        if exact:
            omegas.append(total)
        entropies.append(math.log2(total))
    rows = zip(support, omegas if exact else repeat(""), entropies, entropies, _temperatures(support, entropies))
    return _csv("L,omega,log2_omega,S,T", rows), ()


def _cmd_temperature(args):
    # S and T read only log2 counts, and the log table keeps the exact L*,
    # so --mode exact and --mode log run this one path; it folds Miller's
    # counts only until L* is certified and the cell past L* (or -L) is in
    code, _ = _load_code(args.code)
    from .codes import _check_n_symbols
    from .microcanonical import _log_table

    _check_n_symbols(args.n_symbols)  # before a bad -L, as when the table came first
    star = args.total_bits is None
    total = None if star else _int_total(args.total_bits)
    table = _log_table(code.spectrum(), args.n_symbols, total, at_peak=star)
    if star:
        total = _self.most_probable_length(table)
    est = _self.temperature_at(table, total)
    entropy = _self.entropy_at(table, total)
    at = "_at_L_star" if star else ""
    pairs = [("L_star", total), ("L_star_over_N", total / args.n_symbols)] if star else [("L", total)]
    pairs += [(f"S{at}", entropy), (f"T{at}", est.value), ("one_sided", est.one_sided)]
    return _kv(pairs), ()


def _gibbs_rows(state):
    row = (
        state.beta,
        _fmt(state.temperature, signed_inf=False),
        _fmt(state.z, signed_inf=False),
        state.mean_length,
        state.entropy,
    )
    return _csv("beta,T,Z,lambda,H_G", [row])


def _cmd_gibbs(args):
    code, _ = _load_code(args.code)
    beta = args.beta if args.beta is not None else _self.beta_from_temperature(args.temp)
    return _gibbs_rows(_self.gibbs_state(code.spectrum(), beta)), ()


def _cmd_solve_temp(args):
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    if args.lam is not None:
        if args.total_bits is not None or args.n_symbols is not None:
            raise CodeError("give either --lambda or -L with -N, not both")
        target = args.lam
    else:
        if args.total_bits is None or args.n_symbols is None:
            raise CodeError("need --lambda, or -L together with -N")
        from .codes import _check_n_symbols

        _check_n_symbols(args.n_symbols)
        target = args.total_bits / args.n_symbols
    beta = _self.beta_for_mean_length(spectrum, target)
    return _gibbs_rows(_self.gibbs_state(spectrum, beta)), ()


def _cmd_equilibrium(args):
    code1, _ = _load_code(args.code)
    code2, _ = _load_code(args.code2)
    system = _self.TwoCodeSystem(
        spectrum_first=code1.spectrum(),
        n_first=args.n_symbols,
        spectrum_second=code2.spectrum(),
        n_second=args.n_second,
    )
    if args.brute:
        total = _int_total(args.total_bits)
        rows = _self.allocation_table(system, total)
        from .equilibrium import _best_split

        best = _best_split(rows, total)
        return _csv("L_I,L_II,omega_I,omega_II,product", rows), [("L_I_star", best)]
    allocation = _self.solve_equilibrium(system, args.total_bits)
    row = (
        allocation.beta_star,
        _fmt(allocation.temperature, signed_inf=False),
        allocation.bits_first,
        allocation.bits_second,
        allocation.residual,
    )
    return _csv("beta_star,T_star,L_I_star,L_II_star,residual", [row]), ()


# dimension --grid refuses more sample points than this: each one costs a
# float in a set and a row of canonical sums before anything is printed.
MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CodeError(f"--grid must be LO:HI:COUNT, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CodeError(f"bad --grid {text!r}: {exc}") from exc
    if count < 1 or not -math.inf < lo <= hi < math.inf:
        raise CodeError(f"bad --grid {text!r}: need finite LO <= HI and COUNT >= 1")
    if hi - lo == math.inf:
        raise CodeError(f"bad --grid {text!r}: HI - LO overflows a float")
    if count > MAX_GRID_POINTS:
        raise CapacityError(f"--grid COUNT {count} exceeds the cap {MAX_GRID_POINTS}")
    # the points of np.linspace(lo, hi, count), by the same IEEE operations in
    # the same order, so bit for bit the same floats
    div, delta = count - 1, hi - lo
    if not div:
        betas = {0.0 * delta + lo}
    elif delta / div == 0.0:  # numpy's branch for a step that underflows
        betas = {i / div * delta + lo for i in range(div)} | {hi}
    else:
        step = delta / div
        betas = {i * step + lo for i in range(div)} | {hi}
    if lo <= 1.0 <= hi:
        betas.add(1.0)  # the dyadic point is always sampled exactly
    return sorted(betas)


def _cmd_dimension(args):
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    betas = _parse_grid(args.grid)
    curve = _self.dimension_curve(spectrum, betas)
    limits = _self.limit_dimensions(spectrum)
    notes = [
        ("dim_T_to_0_plus", limits.t_to_zero_plus),
        ("dim_T_equal_1", limits.t_equal_one),
        ("dim_T_to_inf", limits.t_to_inf),
        ("dim_T_to_0_minus", limits.t_to_zero_minus),
    ]
    if not spectrum.is_degenerate:
        first, second = _self.unit_temperature_derivatives(spectrum)
        notes.append(("ddim_dT_at_1", first))
        notes.append(("d2dim_dT2_at_1", second))
    rows = (
        (beta, _fmt(temperature, signed_inf=False), lam, dim)
        for beta, temperature, lam, dim in curve
    )
    return _csv("beta,T,lambda,dim", rows), notes


def _cmd_prefixes(args):
    code, _ = _load_code(args.code)
    total = _int_total(args.total_bits)
    table = _self.prefix_counts(code, args.n_symbols, total, n_max=args.n_max)
    notes = {"fitted_slope": _self.fit_dimension(table)}
    spectrum = code.spectrum()
    if spectrum.l_min < total / args.n_symbols < spectrum.l_max:
        beta = _self.beta_for_mean_length(spectrum, total / args.n_symbols)
        notes["matched_beta"] = beta
        notes["dim_at_matched_beta"] = _self.box_dimension(spectrum, beta)
    rows = ((n, c, math.log2(c)) for n, c in enumerate(table.counts))
    return _csv("n,count,log2_count", rows), notes.items()


def _cmd_sample(args):
    code, pmf = _load_code(args.code)
    if pmf is None:
        pmf = _self.dyadic_pmf(code)  # fails loudly for incomplete codes
    focus = _int_total(args.focus_L, "--focus-L") if args.focus_L is not None else None
    report = _self.sample_messages(
        code, pmf, args.n_symbols, args.draws, args.seed, focus_total=focus
    )
    notes = [
        ("draws", report.draws),
        ("mean_total", report.mean_total),
        ("mean_per_symbol", report.mean_total / report.n_symbols),
    ]
    if report.conditional_counts is not None:
        notes.append(("focus_total", report.focus_total))
        notes.append(("distinct_messages", len(report.conditional_counts)))
        notes.append(("conditional_draws", sum(report.conditional_counts.values())))
    return _csv("L,count", report.histogram.items()), notes


def _cmd_gen(args):
    code = _self.random_complete_code(args.leaves, args.seed)
    return _self.dump_code(code, _self.dyadic_pmf(code)).splitlines(), ()


# -------------------------------------------------------------------- parser


def _add_mode(p, help="exact integer table or log2-domain table (default exact)"):
    p.add_argument("--mode", choices=("exact", "log"), default="exact", help=help)


def build_parser() -> _Parser:
    parser = _Parser(prog="thermocode", description=__doc__.splitlines()[0], epilog=_CONVENTIONS)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, help, code=True, n_symbols=False):
        """A subparser with the epilog and its handler; --code and -N first
        when asked.  --out is added to every subparser last."""
        p = sub.add_parser(name, help=help, epilog=_CONVENTIONS)
        p.set_defaults(func=func)
        if code:
            p.add_argument("--code", required=True, metavar="FILE", help="JSON code document")
        if n_symbols:
            p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message")
        return p

    command("check", _cmd_check, "validate a code document and report its basic quantities")

    p = command("omega", _cmd_omega, "message counts by total coded length, as CSV", n_symbols=True)
    _add_mode(p)
    p.add_argument("--window", type=float, default=0.0, help="aggregate counts over [L, L+WINDOW] bits")

    p = command("temperature", _cmd_temperature, "entropy and discrete temperature in bits, at -L or at the most probable length", n_symbols=True)
    p.add_argument("-L", dest="total_bits", type=float, help="total coded length in bits")
    _add_mode(p, "exact or log: both give the same answer, from the log2 table and its exact L*")

    p = command("gibbs", _cmd_gibbs, "canonical state at one beta or temperature, as CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="inverse temperature 1/T")
    group.add_argument("--temp", type=float, help="temperature T")

    p = command("solve-temp", _cmd_solve_temp, "invert the mean length curve: beta for a target mean (bits per codeword)")
    p.add_argument("--lambda", dest="lam", type=float, help="target mean codeword length in bits")
    p.add_argument("-L", dest="total_bits", type=float, help="total coded length in bits (with -N)")
    p.add_argument("-N", dest="n_symbols", type=int, help="codewords per message (with -L)")

    p = command("equilibrium", _cmd_equilibrium, "equal-temperature split of a bit budget between two codes")
    p.add_argument("--code2", required=True, metavar="FILE", help="second code document")
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message, first code")
    p.add_argument("--N2", dest="n_second", type=int, required=True, help="codewords per message, second code")
    p.add_argument("-L", dest="total_bits", type=float, required=True, help="total bit budget")
    p.add_argument("--brute", action="store_true", help="emit the exact product table over integer splits")

    p = command("dimension", _cmd_dimension, "box-counting dimension along the temperature axis, as CSV")
    p.add_argument("--grid", default="-5:5:201", metavar="LO:HI:COUNT", help="beta sample grid (default -5:5:201; beta=1 is always added)")

    p = command("prefixes", _cmd_prefixes, "exact distinct n-bit prefix counts of the fixed-length message set, as CSV", n_symbols=True)
    p.add_argument("-L", dest="total_bits", type=float, required=True, help="total coded length in bits")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest prefix length to count (default: L)")

    p = command("sample", _cmd_sample, "Monte Carlo draws of coded messages; length histogram as CSV", n_symbols=True)
    p.add_argument("--draws", type=int, required=True, help="number of messages to draw")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (PCG64)")
    p.add_argument("--focus-L", dest="focus_L", type=float, help="record every drawn message of this total length in bits")

    p = command("gen", _cmd_gen, "generate a random complete code document (uniform leaf splitting)", code=False)
    p.add_argument("--leaves", type=int, required=True, help="number of codewords, at least 2")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (Mersenne Twister)")

    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE", help="write primary output here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    # numpy's few BLAS calls here are tiny, and each extra OpenBLAS worker
    # thread spins at load for no gain; numpy loads on first use, after this
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # exact counts can run to millions of digits (the capacity guard bounds
    # a table's total bits, not the digits of one count); lift the
    # interpreter's int-to-str cap while main runs so they print instead of
    # raising, and give an in-process caller its own cap back on return
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _ascii(text: str) -> str:
    return text.encode("ascii", "backslashreplace").decode()


def _fits(chars: str) -> int:
    """How many of chars, in order, fit in 200 ASCII characters once each
    is escaped whole (\\xe9, \\u4e2d)."""
    return sum(1 for used in accumulate(len(_ascii(c)) for c in chars) if used <= 200)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        rows, notes = args.func(args)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            for line in rows:
                out.write(line + "\n")
        note_stream = sys.stdout if args.out else sys.stderr
        for line in _kv(notes):
            note_stream.write(line + "\n")
        return 0
    except (CapacityError, OSError, ValueError) as exc:  # CodeError and InfeasibleError are ValueErrors
        message = str(exc)  # it may quote a bad value whole: a long one prints its two ASCII ends
        if len(message) > 400:
            head, tail = _fits(message[:200]), _fits(message[-200:][::-1])
            left_out = len(message) - head - tail
            message = f"{_ascii(message[:head])} ...[{left_out} characters left out]... {_ascii(message[len(message) - tail:])}"
        print(f"error: {message}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2 if isinstance(exc, InfeasibleError) else 1


if __name__ == "__main__":
    sys.exit(main())
