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
3 capacity guard (an exact count table, a prefix table or a --grid too
large; for a count table, retry with --mode log).
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, starmap
from pathlib import Path

from ._lazy import np
from .codes import (
    Code,
    Pmf,
    average_codeword_length,
    dump_code,
    dyadic_pmf,
    is_absolutely_optimal,
    kraft_sum,
    parse_code,
    random_complete_code,
    shannon_entropy,
)
from .dimension import (
    box_dimension,
    dimension_curve,
    fit_dimension,
    limit_dimensions,
    prefix_counts,
    unit_temperature_derivatives,
)
from .equilibrium import (
    TwoCodeSystem,
    _best_split,
    allocation_table,
    solve_equilibrium,
)
from .errors import (
    CapacityError,
    CodeError,
    InfeasibleError,
    UnachievableLengthError,
)
from .gibbs import beta_for_mean_length, beta_from_temperature, gibbs_state
from .microcanonical import (
    _temperatures,
    count_messages,
    count_messages_log,
    entropy_at,
    most_probable_length,
    sample_messages,
    temperature_at,
)

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
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        if x > 0:
            return "+inf" if signed_inf else "inf"
        return "-inf"
    return f"{x:.17g}"


def _row(*cells) -> str:
    return ",".join(map(_fmt, cells))


def _csv(header: str, rows: Iterable[tuple]) -> Iterator[str]:
    """The header line, then one _row line per row, formatted as it is written."""
    return chain([header], starmap(_row, rows))


def _load_code(path: str) -> tuple[Code, Pmf | None]:
    return parse_code(Path(path).read_text())


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
    k = kraft_sum(code)
    rows = [
        f"n={len(code)}",
        f"l_min={spectrum.l_min}",
        f"l_max={spectrum.l_max}",
        f"kraft={k}",
        f"complete={'true' if k == 1 else 'false'}",
    ]
    if pmf is not None:
        entropy = shannon_entropy(pmf)
        avg = average_codeword_length(code, pmf)
        rows.append(f"H={_fmt(float(entropy))}")
        rows.append(f"L_X={_fmt(float(avg))}")
        rows.append(f"optimal={'true' if is_absolutely_optimal(code, pmf) else 'false'}")
    return rows, ()


def _count_table(args):
    """The message-count table of --code at -N, exact or log2 per --mode."""
    code, _ = _load_code(args.code)
    build = count_messages if args.mode == "exact" else count_messages_log
    return build(code.spectrum(), args.n_symbols)


def _windowed(support: list[int], values: list, window: float, total) -> list:
    """total() of the values over [L, L+window] at each support point."""
    return [
        total(values[i : bisect.bisect_right(support, L + window)])
        for i, L in enumerate(support)
    ]


def _cmd_omega(args):
    if not args.window >= 0:
        raise CodeError(f"--window must be a non-negative number of bits, got {args.window}")
    table = _count_table(args)
    exact = args.mode == "exact"
    support = table.support.tolist()
    values = [table.count(L) if exact else table.log2_count(L) for L in support]
    if args.window:
        values = _windowed(support, values, args.window, sum if exact else np.logaddexp2.reduce)
    entropies = [math.log2(c) for c in values] if exact else values
    temperatures = _temperatures(table.support, np.array(entropies))
    rows = (
        (L, value if exact else "", s, s, t)
        for L, value, s, t in zip(support, values, entropies, temperatures)
    )
    return _csv("L,omega,log2_omega,S,T", rows), ()


def _cmd_temperature(args):
    table = _count_table(args)
    star = args.total_bits is None
    total = most_probable_length(table) if star else _int_total(args.total_bits)
    est = temperature_at(table, total)
    entropy = entropy_at(table, total)
    at = "_at_L_star" if star else ""
    if star:
        rows = [f"L_star={total}", f"L_star_over_N={_fmt(total / args.n_symbols)}"]
    else:
        rows = [f"L={total}"]
    rows.append(f"S{at}={_fmt(entropy)}")
    rows.append(f"T{at}={_fmt(est.value)}")
    rows.append(f"one_sided={'true' if est.one_sided else 'false'}")
    return rows, ()


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
    beta = args.beta if args.beta is not None else beta_from_temperature(args.temp)
    return _gibbs_rows(gibbs_state(code.spectrum(), beta)), ()


def _cmd_solve_temp(args):
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    if args.lam is not None:
        if args.total_bits is not None:
            raise CodeError("give either --lambda or -L with -N, not both")
        target = args.lam
    else:
        if args.total_bits is None or args.n_symbols is None:
            raise CodeError("need --lambda, or -L together with -N")
        if args.n_symbols < 1:
            raise CodeError("n_symbols must be at least 1")
        target = args.total_bits / args.n_symbols
    beta = beta_for_mean_length(spectrum, target)
    return _gibbs_rows(gibbs_state(spectrum, beta)), ()


def _cmd_equilibrium(args):
    code1, _ = _load_code(args.code)
    code2, _ = _load_code(args.code2)
    system = TwoCodeSystem(
        spectrum_first=code1.spectrum(),
        n_first=args.n_symbols,
        spectrum_second=code2.spectrum(),
        n_second=args.n_second,
    )
    if args.brute:
        total = _int_total(args.total_bits)
        rows = allocation_table(system, total)
        if not rows:
            raise UnachievableLengthError(f"no achievable split of {total} bits")
        return _csv("L_I,L_II,omega_I,omega_II,product", rows), [("L_I_star", _best_split(rows))]
    allocation = solve_equilibrium(system, args.total_bits)
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
    if count > MAX_GRID_POINTS:
        raise CapacityError(f"--grid COUNT {count} exceeds the cap {MAX_GRID_POINTS}")
    betas = set(np.linspace(lo, hi, count).tolist())
    if lo <= 1.0 <= hi:
        betas.add(1.0)  # the dyadic point is always sampled exactly
    return sorted(betas)


def _cmd_dimension(args):
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    betas = _parse_grid(args.grid)
    curve = dimension_curve(spectrum, betas)
    limits = limit_dimensions(spectrum)
    notes = [
        ("dim_T_to_0_plus", limits.t_to_zero_plus),
        ("dim_T_equal_1", limits.t_equal_one),
        ("dim_T_to_inf", limits.t_to_inf),
        ("dim_T_to_0_minus", limits.t_to_zero_minus),
    ]
    if not spectrum.is_degenerate:
        first, second = unit_temperature_derivatives(spectrum)
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
    table = prefix_counts(code, args.n_symbols, total, n_max=args.n_max)
    notes = {"fitted_slope": fit_dimension(table)}
    spectrum = code.spectrum()
    if not spectrum.is_degenerate and spectrum.l_min < total / args.n_symbols < spectrum.l_max:
        beta = beta_for_mean_length(spectrum, total / args.n_symbols)
        notes["matched_beta"] = beta
        notes["dim_at_matched_beta"] = box_dimension(spectrum, beta)
    rows = zip(range(len(table.counts)), table.counts, table.log2_counts())
    return _csv("n,count,log2_count", rows), notes.items()


def _cmd_sample(args):
    code, pmf = _load_code(args.code)
    if pmf is None:
        pmf = dyadic_pmf(code)  # fails loudly for incomplete codes
    focus = _int_total(args.focus_L, "--focus-L") if args.focus_L is not None else None
    report = sample_messages(
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
    code = random_complete_code(args.leaves, args.seed)
    return dump_code(code, dyadic_pmf(code)).splitlines(), ()


# -------------------------------------------------------------------- parser


def _add_code(p, second: bool = False):
    p.add_argument("--code", required=True, metavar="FILE", help="JSON code document")
    if second:
        p.add_argument("--code2", required=True, metavar="FILE", help="second code document")


def _add_out(p):
    p.add_argument("--out", metavar="FILE", help="write primary output here instead of stdout")


def _add_mode(p):
    p.add_argument(
        "--mode",
        choices=("exact", "log"),
        default="exact",
        help="exact integer table or log2-domain table (default exact)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="thermocode", description=__doc__.splitlines()[0], epilog=_CONVENTIONS)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("check", help="validate a code document and report its basic quantities", epilog=_CONVENTIONS)
    _add_code(p)
    _add_out(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("omega", help="message counts by total coded length, as CSV", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message")
    _add_mode(p)
    p.add_argument("--window", type=float, default=0.0, help="aggregate counts over [L, L+WINDOW] bits")
    _add_out(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("temperature", help="entropy and discrete temperature in bits, at -L or at the most probable length", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message")
    p.add_argument("-L", dest="total_bits", type=float, help="total coded length in bits")
    _add_mode(p)
    _add_out(p)
    p.set_defaults(func=_cmd_temperature)

    p = sub.add_parser("gibbs", help="canonical state at one beta or temperature, as CSV", epilog=_CONVENTIONS)
    _add_code(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="inverse temperature 1/T")
    group.add_argument("--temp", type=float, help="temperature T")
    _add_out(p)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("solve-temp", help="invert the mean length curve: beta for a target mean (bits per codeword)", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("--lambda", dest="lam", type=float, help="target mean codeword length in bits")
    p.add_argument("-L", dest="total_bits", type=float, help="total coded length in bits (with -N)")
    p.add_argument("-N", dest="n_symbols", type=int, help="codewords per message (with -L)")
    _add_out(p)
    p.set_defaults(func=_cmd_solve_temp)

    p = sub.add_parser("equilibrium", help="equal-temperature split of a bit budget between two codes", epilog=_CONVENTIONS)
    _add_code(p, second=True)
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message, first code")
    p.add_argument("--N2", dest="n_second", type=int, required=True, help="codewords per message, second code")
    p.add_argument("-L", dest="total_bits", type=float, required=True, help="total bit budget")
    p.add_argument("--brute", action="store_true", help="emit the exact product table over integer splits")
    _add_out(p)
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("dimension", help="box-counting dimension along the temperature axis, as CSV", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("--grid", default="-5:5:201", metavar="LO:HI:COUNT", help="beta sample grid (default -5:5:201; beta=1 is always added)")
    _add_out(p)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("prefixes", help="exact distinct n-bit prefix counts of the fixed-length message set, as CSV", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message")
    p.add_argument("-L", dest="total_bits", type=float, required=True, help="total coded length in bits")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest prefix length to count (default: L)")
    _add_out(p)
    p.set_defaults(func=_cmd_prefixes)

    p = sub.add_parser("sample", help="Monte Carlo draws of coded messages; length histogram as CSV", epilog=_CONVENTIONS)
    _add_code(p)
    p.add_argument("-N", dest="n_symbols", type=int, required=True, help="codewords per message")
    p.add_argument("--draws", type=int, required=True, help="number of messages to draw")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (PCG64)")
    p.add_argument("--focus-L", dest="focus_L", type=float, help="record every drawn message of this total length in bits")
    _add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gen", help="generate a random complete code document (uniform leaf splitting)", epilog=_CONVENTIONS)
    p.add_argument("--leaves", type=int, required=True, help="number of codewords, at least 2")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (Mersenne Twister)")
    _add_out(p)
    p.set_defaults(func=_cmd_gen)

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
        for key, value in notes:
            note_stream.write(f"{key}={_fmt(value)}\n")
        return 0
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
