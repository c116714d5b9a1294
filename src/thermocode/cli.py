"""Command line interface.

Every subcommand reads a JSON code document ({"code": [{"symbol", "codeword",
optional "prob"}, ...]}), computes one table or report, and writes CSV (or
key=value lines) with '.' as the decimal separator and 17 significant digits,
so repeated runs are byte identical.  Units are bits throughout; beta means
inverse temperature 1/T, with beta = 0 the infinite-temperature point and
beta = 1 the dyadic point T = 1.

Exit codes: 0 success, 1 invalid input (bad document, prefix violation,
usage), 2 infeasible parameter (outside the achievable or feasible range),
3 capacity guard (exact table too large; retry with --mode log).
"""

from __future__ import annotations

import argparse
import bisect
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

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
    """CSV cell: ints exact, floats at 17 significant digits, inf/nan literal."""
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


def _load_code(path: str) -> tuple[Code, Pmf | None]:
    return parse_code(Path(path).read_text())


def _int_total(value: float, what: str = "-L") -> int:
    if not math.isfinite(value) or value != int(value):
        raise UnachievableLengthError(f"{what} must be an integer number of bits, got {value}")
    return int(value)


class _Out:
    """Primary output goes to --out (or stdout); side notes go to the other
    stream so the CSV stays clean for piping."""

    def __init__(self, out_path: str | None):
        self._path = out_path
        self._file = open(out_path, "w") if out_path else sys.stdout
        self.note_stream = sys.stdout if out_path else sys.stderr

    def line(self, text: str):
        self._file.write(text + "\n")

    def note(self, key: str, value: str):
        self.note_stream.write(f"{key}={value}\n")

    def close(self):
        if self._path:
            self._file.close()


# ---------------------------------------------------------------- subcommands


def _cmd_check(args) -> int:
    code, pmf = _load_code(args.code)
    out = _Out(args.out)
    spectrum = code.spectrum()
    k = kraft_sum(code)
    out.line(f"n={len(code)}")
    out.line(f"l_min={spectrum.l_min}")
    out.line(f"l_max={spectrum.l_max}")
    out.line(f"kraft={k}")
    out.line(f"complete={'true' if k == 1 else 'false'}")
    if pmf is not None:
        entropy = shannon_entropy(pmf)
        avg = average_codeword_length(code, pmf)
        out.line(f"H={_fmt(float(entropy))}")
        out.line(f"L_X={_fmt(float(avg))}")
        out.line(f"optimal={'true' if is_absolutely_optimal(code, pmf) else 'false'}")
    out.close()
    return 0


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


def _cmd_omega(args) -> int:
    table = _count_table(args)
    exact = args.mode == "exact"
    support = table.support.tolist()
    values = [table.count(L) if exact else table.log2_count(L) for L in support]
    if args.window:
        values = _windowed(support, values, args.window, sum if exact else np.logaddexp2.reduce)
    entropies = [math.log2(c) for c in values] if exact else values
    temperatures = _temperatures(table.support, np.array(entropies))

    out = _Out(args.out)
    out.line("L,omega,log2_omega,S,T")
    for L, value, s, t in zip(support, values, entropies, temperatures):
        omega_cell = str(value) if exact else ""
        s_cell = _fmt(s)
        out.line(f"{L},{omega_cell},{s_cell},{s_cell},{_fmt(t)}")
    out.close()
    return 0


def _cmd_temperature(args) -> int:
    table = _count_table(args)
    star = args.total_bits is None
    total = most_probable_length(table) if star else _int_total(args.total_bits)
    est = temperature_at(table, total)
    entropy = entropy_at(table, total)
    at = "_at_L_star" if star else ""
    out = _Out(args.out)
    if star:
        out.line(f"L_star={total}")
        out.line(f"L_star_over_N={_fmt(total / args.n_symbols)}")
    else:
        out.line(f"L={total}")
    out.line(f"S{at}={_fmt(entropy)}")
    out.line(f"T{at}={_fmt(est.value)}")
    out.line(f"one_sided={'true' if est.one_sided else 'false'}")
    out.close()
    return 0


def _write_gibbs_row(out_path: str | None, state) -> None:
    out = _Out(out_path)
    out.line("beta,T,Z,lambda,H_G")
    out.line(
        ",".join(
            [
                _fmt(state.beta),
                _fmt(state.temperature, signed_inf=False),
                _fmt(state.z, signed_inf=False),
                _fmt(state.mean_length),
                _fmt(state.entropy),
            ]
        )
    )
    out.close()


def _cmd_gibbs(args) -> int:
    code, _ = _load_code(args.code)
    beta = args.beta if args.beta is not None else beta_from_temperature(args.temp)
    _write_gibbs_row(args.out, gibbs_state(code.spectrum(), beta))
    return 0


def _cmd_solve_temp(args) -> int:
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    if args.lam is not None:
        if args.total_bits is not None:
            raise CodeError("give either --lambda or -L with -N, not both")
        target = args.lam
    else:
        if args.total_bits is None or args.n_symbols is None:
            raise CodeError("need --lambda, or -L together with -N")
        target = args.total_bits / args.n_symbols
    beta = beta_for_mean_length(spectrum, target)
    _write_gibbs_row(args.out, gibbs_state(spectrum, beta))
    return 0


def _cmd_equilibrium(args) -> int:
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
        out = _Out(args.out)
        out.line("L_I,L_II,omega_I,omega_II,product")
        for bits1, bits2, c1, c2, product in rows:
            out.line(f"{bits1},{bits2},{c1},{c2},{product}")
        out.note("L_I_star", str(_best_split(rows)))
    else:
        allocation = solve_equilibrium(system, args.total_bits)
        out = _Out(args.out)
        out.line("beta_star,T_star,L_I_star,L_II_star,residual")
        out.line(
            ",".join(
                [
                    _fmt(allocation.beta_star),
                    _fmt(allocation.temperature, signed_inf=False),
                    _fmt(allocation.bits_first),
                    _fmt(allocation.bits_second),
                    _fmt(allocation.residual),
                ]
            )
        )
    out.close()
    return 0


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CodeError(f"--grid must be LO:HI:COUNT, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CodeError(f"bad --grid {text!r}: {exc}") from exc
    if count < 1 or not lo <= hi:
        raise CodeError(f"bad --grid {text!r}: need LO <= HI and COUNT >= 1")
    betas = set(np.linspace(lo, hi, count).tolist())
    if lo <= 1.0 <= hi:
        betas.add(1.0)  # the dyadic point is always sampled exactly
    return sorted(betas)


def _cmd_dimension(args) -> int:
    code, _ = _load_code(args.code)
    spectrum = code.spectrum()
    betas = _parse_grid(args.grid)
    rows = dimension_curve(spectrum, betas)
    limits = limit_dimensions(spectrum)
    derivatives = None if spectrum.is_degenerate else unit_temperature_derivatives(spectrum)
    out = _Out(args.out)
    out.line("beta,T,lambda,dim")
    for beta, temperature, lam, dim in rows:
        out.line(
            ",".join(
                [
                    _fmt(beta),
                    _fmt(temperature, signed_inf=False),
                    _fmt(lam),
                    _fmt(dim),
                ]
            )
        )
    out.note("dim_T_to_0_plus", _fmt(limits.t_to_zero_plus))
    out.note("dim_T_equal_1", _fmt(limits.t_equal_one))
    out.note("dim_T_to_inf", _fmt(limits.t_to_inf))
    out.note("dim_T_to_0_minus", _fmt(limits.t_to_zero_minus))
    if derivatives is not None:
        out.note("ddim_dT_at_1", _fmt(derivatives[0]))
        out.note("d2dim_dT2_at_1", _fmt(derivatives[1]))
    out.close()
    return 0


def _cmd_prefixes(args) -> int:
    code, _ = _load_code(args.code)
    total = _int_total(args.total_bits)
    table = prefix_counts(code, args.n_symbols, total, n_max=args.n_max)
    notes = {"fitted_slope": fit_dimension(table)}
    spectrum = code.spectrum()
    if not spectrum.is_degenerate and spectrum.l_min < total / args.n_symbols < spectrum.l_max:
        beta = beta_for_mean_length(spectrum, total / args.n_symbols)
        notes["matched_beta"] = beta
        notes["dim_at_matched_beta"] = box_dimension(spectrum, beta)
    out = _Out(args.out)
    out.line("n,count,log2_count")
    for n, c in enumerate(table.counts):
        out.line(f"{n},{c},{_fmt(math.log2(c))}")
    for key, value in notes.items():
        out.note(key, _fmt(value))
    out.close()
    return 0


def _cmd_sample(args) -> int:
    code, pmf = _load_code(args.code)
    if pmf is None:
        pmf = dyadic_pmf(code)  # fails loudly for incomplete codes
    focus = _int_total(args.focus_L, "--focus-L") if args.focus_L is not None else None
    report = sample_messages(
        code, pmf, args.n_symbols, args.draws, args.seed, focus_total=focus
    )
    out = _Out(args.out)
    out.line("L,count")
    for L, c in report.histogram.items():
        out.line(f"{L},{c}")
    out.note("draws", str(report.draws))
    out.note("mean_total", _fmt(report.mean_total))
    out.note("mean_per_symbol", _fmt(report.mean_total / report.n_symbols))
    if report.conditional_counts is not None:
        out.note("focus_total", str(report.focus_total))
        out.note("distinct_messages", str(len(report.conditional_counts)))
        out.note("conditional_draws", str(sum(report.conditional_counts.values())))
    out.close()
    return 0


def _cmd_gen(args) -> int:
    code = random_complete_code(args.leaves, args.seed)
    document = dump_code(code, dyadic_pmf(code))
    if args.out:
        Path(args.out).write_text(document)
    else:
        sys.stdout.write(document)
    return 0


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
    # exact counts can run to millions of digits (a one-length code at huge
    # N has a single cell, so the capacity guard rightly lets it through);
    # lift the interpreter's int-to-str cap so they print instead of raising
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
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
