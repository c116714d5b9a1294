"""Workload job lists and the output checks that go with them.

A job is one `thermocode` CLI invocation.  Code documents are named by
placeholder (`@canon`, `@g16`, `@g64`) and resolved to files at run time.
Every job carries a check that reads its primary output (stdout) and notes
(stderr) and raises CheckError when they are wrong.  The checks use only the
standard library: exact counts come from the closed form for `canon` or from
Miller's power recurrence (`power_counts`), which shares no code with the
package.  This module never imports numpy or thermocode, so the process that
times the jobs stays small and its own resident set never leaks into the
jobs' max-RSS readings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable


class CheckError(Exception):
    """A job's output failed its correctness check."""


# The three-word code {0, 10, 11}: Omega(L) = C(N, L-N) * 2**(L-N).
CANON_DOC = json.dumps(
    {
        "code": [
            {"symbol": "a", "codeword": "0", "prob": "0.5"},
            {"symbol": "b", "codeword": "10", "prob": "0.25"},
            {"symbol": "c", "codeword": "11", "prob": "0.25"},
        ]
    },
    indent=2,
) + "\n"

# Random codes: (leaves, span, distinct lengths).  Holding span and the number
# of distinct lengths fixed keeps the cost of a job the same for every seed.
RANDOM_CODES = {"g16": (16, 4, 5), "g64": (64, 11, 12)}

# Log-domain tables carry float rounding from N-1 log-sum-exp convolutions;
# measured error at these sizes is below 1e-10 bits, so 1e-7 leaves margin
# while still catching a wrong cell (an off-by-one count is > 1e-4 bits here).
LOG_TOL_BITS = 1e-7


# ------------------------------------------------------------------ oracle


def spectrum_of(doc_text: str) -> dict[int, int]:
    """Codeword-length multiplicities of a code document."""
    spec: dict[int, int] = {}
    for entry in json.loads(doc_text)["code"]:
        n = len(entry["codeword"])
        spec[n] = spec.get(n, 0) + 1
    return dict(sorted(spec.items()))


def power_counts(spec: dict[int, int], n: int) -> dict[int, int]:
    """Exact Omega(L) for messages of n codewords, by Miller's recurrence for
    the coefficients of P(z)**n (Knuth, TAOCP vol. 2, 4.7):
    a_0 = p_0**n,  a_m = sum_k ((n+1)k - m) p_k a_{m-k} / (m p_0)."""
    l_min = min(spec)
    span = max(spec) - l_min
    p0 = spec[l_min]
    terms = [(l - l_min, d) for l, d in spec.items() if l > l_min]
    a = [p0**n] + [0] * (n * span)
    for m in range(1, n * span + 1):
        acc = 0
        for k, pk in terms:
            if k > m:
                break
            acc += ((n + 1) * k - m) * pk * a[m - k]
        a[m] = acc // (m * p0)
    return {n * l_min + m: c for m, c in enumerate(a) if c}


class Oracle:
    """Independent reference values for the workload's codes."""

    def __init__(self, spectra: dict[str, dict[int, int]]):
        self.spectra = spectra
        self._tables: dict[tuple[str, int], dict[int, int]] = {}

    def counts(self, code: str, n: int) -> dict[int, int]:
        key = (code, n)
        if key not in self._tables:
            if code == "canon":
                table = {n + k: comb(n, k) << k for k in range(n + 1)}
            else:
                table = power_counts(self.spectra[code], n)
            self._tables[key] = table
        return self._tables[key]

    def gibbs(self, code: str, beta: float) -> tuple[float, float]:
        """(Z, mean length) at inverse temperature beta, summed directly."""
        spec = self.spectra[code]
        w = {l: d * 2.0 ** (-beta * l) for l, d in spec.items()}
        z = sum(w.values())
        return z, sum(l * x for l, x in w.items()) / z


# ------------------------------------------------------------ output parsing


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {header!r}, got {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, tol: float, what: str, rel: bool = True):
    scale = max(1.0, abs(want)) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        raise CheckError(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _equal(got, want, what: str):
    if got != want:
        raise CheckError(f"{what}: got {str(got)[:80]}, want {str(want)[:80]}")


def _spread(keys: list[int], k: int) -> list[int]:
    """k roughly evenly spaced entries of keys, ends included."""
    if len(keys) <= k:
        return keys
    return [keys[round(i * (len(keys) - 1) / (k - 1))] for i in range(k)]


def _temperature(table: dict[int, float], support: list[int], L: int) -> tuple[float, bool] | None:
    """Central-difference dL/dS over achievable neighbours, or None at zero slope."""
    i = support.index(L)
    left, right = support[max(i - 1, 0)], support[min(i + 1, len(support) - 1)]
    ds = table[right] - table[left]
    one_sided = i in (0, len(support) - 1)
    return ((right - left) / ds, one_sided) if ds else None


# ------------------------------------------------------------------ checks

Check = Callable[[Oracle, str, str], None]


def check_doc(leaves: int, span: int, distinct: int) -> Check:
    """A `gen` document: complete, prefix free, dyadic probabilities, and the
    spectrum shape the seed search asked for."""

    def check(oracle: Oracle, out: str, err: str):
        entries = json.loads(out)["code"]
        words = [e["codeword"] for e in entries]
        _equal(len(words), leaves, "leaves")
        _equal(sum(Fraction(1, 2 ** len(w)) for w in words), 1, "Kraft sum")
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            if b.startswith(a):
                raise CheckError(f"{a!r} is a prefix of {b!r}")
        for e in entries:
            _equal(Fraction(e["prob"]), Fraction(1, 2 ** len(e["codeword"])), "dyadic prob")
        spec = spectrum_of(out)
        _equal((max(spec) - min(spec), len(spec)), (span, distinct), "span, distinct lengths")

    return check


def check_code_facts(code: str) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        spec = oracle.spectra[code]
        kv = _kv(out)
        _equal(int(kv["n"]), sum(spec.values()), "n")
        _equal((int(kv["l_min"]), int(kv["l_max"])), (min(spec), max(spec)), "l_min, l_max")
        _equal((kv["kraft"], kv["complete"], kv["optimal"]), ("1", "true", "true"), "kraft, complete, optimal")
        _equal(kv["H"], kv["L_X"], "H == L_X")

    return check


def check_omega_exact(code: str, n: int) -> Check:
    """Full table against the oracle, plus sum Omega = n_words**N and
    sum Omega 2**-L = Kraft**N."""

    def check(oracle: Oracle, out: str, err: str):
        spec = oracle.spectra[code]
        rows = _csv(out, "L,omega,log2_omega,S,T")
        got = {int(r[0]): int(r[1]) for r in rows}
        _equal(sum(got.values()), sum(spec.values()) ** n, "sum of counts")
        top = n * max(spec)
        kraft_scaled = sum(d << (max(spec) - l) for l, d in spec.items())
        _equal(sum(c << (top - L) for L, c in got.items()), kraft_scaled**n, "sum Omega 2**-L (scaled)")
        want = oracle.counts(code, n)
        _equal(got, want, "counts")
        support = sorted(want)
        s = {L: math.log2(c) for L, c in want.items()}
        for r in rows[:: max(1, len(rows) // 50)]:
            L = int(r[0])
            _close(float(r[2]), s[L], 1e-12, f"log2_omega at {L}")
            t = _temperature(s, support, L)
            if t is not None:
                _close(float(r[4]), t[0], 1e-9, f"T at {L}")

    return check


def check_omega_log(code: str, n: int, window: int = 0) -> Check:
    """log2 counts at a few lengths against log2 of the exact (windowed) count."""

    def check(oracle: Oracle, out: str, err: str):
        rows = _csv(out, "L,omega,log2_omega,S,T")
        want = oracle.counts(code, n)
        support = sorted(want)
        _equal([int(r[0]) for r in rows], support, "support")
        if any(r[1] for r in rows):
            raise CheckError("log mode printed exact counts")
        got = {int(r[0]): float(r[2]) for r in rows}
        peak = max(support, key=lambda L: want[L])
        for L in _spread(support, 7) + [peak]:
            exact = sum(c for M, c in want.items() if L <= M <= L + window)
            _close(got[L], math.log2(exact), LOG_TOL_BITS, f"log2_omega at {L}", rel=False)

    return check


def check_temperature(code: str, n: int, total: int | None, exact: bool) -> Check:
    """Entropy and temperature at -L, or at the most probable length."""

    def check(oracle: Oracle, out: str, err: str):
        want = oracle.counts(code, n)
        support = sorted(want)
        s = {L: math.log2(c) for L, c in want.items()}
        kv = _kv(out)
        tol = 1e-12 if exact else LOG_TOL_BITS
        if total is None:
            L = int(kv["L_star"])
            best = max(support, key=lambda M: (want[M] << (support[-1] - M), -M))
            if exact:
                _equal(L, best, "L_star")
            else:
                _close(s[L] - L, s[best] - best, tol, "weight at L_star", rel=False)
            s_key, t_key = "S_at_L_star", "T_at_L_star"
        else:
            L = int(kv["L"])
            _equal(L, total, "L")
            s_key, t_key = "S", "T"
        _close(float(kv[s_key]), s[L], tol, "S", rel=exact)
        t = _temperature(s, support, L)
        if t is not None:
            _close(float(kv[t_key]), t[0], 1e-9 if exact else 1e-6, "T")
            _equal(kv["one_sided"], "true" if t[1] else "false", "one_sided")

    return check


def check_brute_split(code1: str, n1: int, code2: str, n2: int, total: int) -> Check:
    """Every achievable split with its exact counts and product; the argmax note."""

    def check(oracle: Oracle, out: str, err: str):
        t1, t2 = oracle.counts(code1, n1), oracle.counts(code2, n2)
        want = [(a, total - a) for a in sorted(t1) if total - a in t2]
        rows = [tuple(map(int, r)) for r in _csv(out, "L_I,L_II,omega_I,omega_II,product")]
        _equal([r[:2] for r in rows], want, "splits")
        for a, b, c1, c2, prod in rows:
            _equal((c1, c2, prod), (t1[a], t2[b], t1[a] * t2[b]), f"counts at split {a}")
        best = max(rows, key=lambda r: (r[4], -r[0]))[0]
        _equal(int(_kv(err)["L_I_star"]), best, "L_I_star")

    return check


def check_prefixes(code: str, n: int, total: int) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        rows = _csv(out, "n,count,log2_count")
        counts = [int(r[1]) for r in rows]
        _equal([int(r[0]) for r in rows], list(range(total + 1)), "prefix lengths")
        _equal(counts[0], 1, "counts[0]")
        _equal(counts[total], oracle.counts(code, n)[total], "counts[L] == Omega(L)")
        for k, c in enumerate(counts):
            if not 1 <= c <= 2**k:
                raise CheckError(f"count {c} at prefix length {k} outside [1, 2**{k}]")
        if "fitted_slope" not in _kv(err):
            raise CheckError("no fitted_slope note")

    return check


def check_sample(code: str, n: int, draws: int, focus: int | None) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        spec = oracle.spectra[code]
        hist = {int(r[0]): int(r[1]) for r in _csv(out, "L,count")}
        _equal(sum(hist.values()), draws, "histogram total")
        if not all(n * min(spec) <= L <= n * max(spec) for L in hist):
            raise CheckError("sampled length outside the support")
        notes = _kv(err)
        _equal(int(notes["draws"]), draws, "draws note")
        if focus is not None:
            _equal(int(notes["conditional_draws"]), hist.get(focus, 0), "conditional draws")
            if int(notes["distinct_messages"]) > oracle.counts(code, n).get(focus, 0):
                raise CheckError("more distinct messages than Omega(focus)")

    return check


def check_gibbs(code: str, beta: float) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        (row,) = _csv(out, "beta,T,Z,lambda,H_G")
        _close(float(row[0]), beta, 1e-15, "beta")
        z, mean = oracle.gibbs(code, beta)
        _close(float(row[2]), z, 1e-11, "Z")
        _close(float(row[3]), mean, 1e-11, "lambda")
        if beta == 1.0:
            _close(float(row[2]), 1.0, 1e-12, "Z at beta=1", rel=False)

    return check


def check_solve_temp(code: str, target: float) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        (row,) = _csv(out, "beta,T,Z,lambda,H_G")
        _close(float(row[3]), target, 1e-12, "lambda", rel=False)
        _close(oracle.gibbs(code, float(row[0]))[1], target, 1e-10, "mean at beta")

    return check


def check_equilibrium(code1: str, n1: int, code2: str, n2: int, total: float) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        (row,) = _csv(out, "beta_star,T_star,L_I_star,L_II_star,residual")
        beta, bits1, bits2, residual = (float(row[i]) for i in (0, 2, 3, 4))
        _close(residual, 0.0, 1e-9, "residual", rel=False)
        _close(bits1 + bits2, total, 1e-12, "split total")
        _close(bits1, n1 * oracle.gibbs(code1, beta)[1], 1e-9, "L_I at beta_star")
        _close(bits2, n2 * oracle.gibbs(code2, beta)[1], 1e-9, "L_II at beta_star")

    return check


def check_dimension(code: str, count: int) -> Check:
    def check(oracle: Oracle, out: str, err: str):
        rows = _csv(out, "beta,T,lambda,dim")
        if len(rows) not in (count, count + 1):
            raise CheckError(f"{len(rows)} rows for a {count}-point grid")
        dims = {float(r[0]): float(r[3]) for r in rows}
        _close(dims[1.0], 1.0, 1e-12, "dim at beta=1", rel=False)
        for beta in _spread(sorted(dims), 9):
            z, mean = oracle.gibbs(code, beta)
            _close(dims[beta], beta + math.log2(z) / mean, 1e-9, f"dim at beta={beta}")
        _close(float(_kv(err)["dim_T_equal_1"]), 1.0, 1e-12, "dim_T_equal_1 note", rel=False)

    return check


def check_refusal(oracle: Oracle, out: str, err: str):
    _equal(out, "", "stdout of a refused job")
    if not err.startswith("error: "):
        raise CheckError(f"refusal without an error message: {err[:80]!r}")


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Job:
    """One CLI invocation: argv after `thermocode`, with @name placeholders."""

    argv: tuple[str, ...]
    check: Check
    rc: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolve(self, docs: dict[str, str]) -> list[str]:
        return [docs[a[1:]] if a.startswith("@") else a for a in self.argv]


def _job(check: Check, *argv, rc: int = 0) -> Job:
    return Job(tuple(str(a) for a in argv), check, rc)


def gen_jobs(seeds: dict[str, int]) -> dict[str, Job]:
    """The set-up jobs: one `gen` per random code, stdout is the document."""
    return {
        name: _job(check_doc(*RANDOM_CODES[name]), "gen", "--leaves", RANDOM_CODES[name][0], "--seed", seeds[name])
        for name in RANDOM_CODES
    }


def _checks(spectra) -> list[Job]:
    return [_job(check_code_facts(c), "check", "--code", f"@{c}") for c in spectra]


def _sizes(smoke: bool):
    return (lambda full, tiny: tiny) if smoke else (lambda full, tiny: full)


def _mid(spec: dict[int, int], n: int, frac: float = 0.5) -> int:
    """An achievable total length a fraction frac into the support."""
    return n * min(spec) + round(frac * n * (max(spec) - min(spec)))


def exact_jobs(spectra, smoke: bool = False) -> list[Job]:
    """Exact big-integer tables: `count_messages` carries most of the time."""
    size = _sizes(smoke)
    g16 = spectra["g16"]
    jobs = _checks(spectra)
    for code, n in (("canon", size(1200, 40)), ("g16", size(500, 20)), ("g64", size(160, 8))):
        jobs.append(_job(check_omega_exact(code, n), "omega", "--code", f"@{code}", "-N", n))
    for code, n, total in (
        ("canon", size(1200, 40), None),
        ("g16", size(500, 20), _mid(g16, size(500, 20), 0.4)),
        ("g64", size(160, 8), None),
    ):
        extra = ("-L", total) if total is not None else ()
        jobs.append(
            _job(check_temperature(code, n, total, exact=True), "temperature", "--code", f"@{code}", "-N", n, *extra)
        )
    n1, n2 = size(600, 30), size(100, 6)
    total = _mid(spectra["canon"], n1) + _mid(g16, n2)
    jobs.append(
        _job(
            check_brute_split("canon", n1, "g16", n2, total),
            "equilibrium", "--code", "@canon", "--code2", "@g16", "-N", n1, "--N2", n2, "-L", total, "--brute",
        )
    )
    for code, n in (("canon", size(600, 30)), ("g16", size(80, 8))):
        total = _mid(spectra[code], n)
        jobs.append(_job(check_prefixes(code, n, total), "prefixes", "--code", f"@{code}", "-N", n, "-L", total))
    return jobs + _checks(spectra)


def log_jobs(spectra, smoke: bool = False) -> list[Job]:
    """Float paths only: log-domain tables and the sampler, no exact counting."""
    size = _sizes(smoke)
    jobs = _checks(spectra)
    for code, n, window in (
        ("canon", size(2000, 40), 0),
        ("g16", size(1000, 20), 0),
        ("g16", size(1000, 20), 3),
        ("g64", size(1000, 10), 0),
    ):
        extra = ("--window", window) if window else ()
        jobs.append(
            _job(check_omega_log(code, n, window), "omega", "--code", f"@{code}", "-N", n, "--mode", "log", *extra)
        )
    for code, n, total in (("g64", size(1000, 10), None), ("canon", size(2000, 40), _mid(spectra["canon"], size(2000, 40), 0.7))):
        extra = ("-L", total) if total is not None else ()
        jobs.append(
            _job(
                check_temperature(code, n, total, exact=False),
                "temperature", "--code", f"@{code}", "-N", n, "--mode", "log", *extra,
            )
        )
    for code, n, draws, focus in (("canon", 4, size(1_000_000, 2000), 6), ("g64", 8, size(200_000, 2000), None)):
        extra = ("--focus-L", focus) if focus is not None else ()
        jobs.append(
            _job(
                check_sample(code, n, draws, focus),
                "sample", "--code", f"@{code}", "-N", n, "--draws", draws, "--seed", 7, *extra,
            )
        )
    return jobs + _checks(spectra)


def canonical_jobs(spectra, smoke: bool = False) -> list[Job]:
    """About thirty short jobs whose cost is mostly interpreter and import time."""
    jobs = _checks(spectra)
    names = list(spectra)
    for code in names:
        jobs.append(_job(check_gibbs(code, 1.0), "gibbs", "--code", f"@{code}", "--beta", 1))
    jobs.append(_job(check_gibbs("g16", 0.5), "gibbs", "--code", "@g16", "--temp", 2))
    jobs.append(_job(check_gibbs("g64", -1.0), "gibbs", "--code", "@g64", "--beta", -1))
    jobs.append(_job(check_gibbs("canon", 0.0), "gibbs", "--code", "@canon", "--beta", 0))
    for code in names:
        spec = spectra[code]
        lo, hi = min(spec), max(spec)
        for target in ((lo + hi) / 2, lo + 0.05 * (hi - lo)):
            jobs.append(_job(check_solve_temp(code, target), "solve-temp", "--code", f"@{code}", "--lambda", repr(target)))
    for code in ("g16", "g64"):
        n, total = 1000, _mid(spectra[code], 1000, 0.3)
        jobs.append(_job(check_solve_temp(code, total / n), "solve-temp", "--code", f"@{code}", "-L", total, "-N", n))
    for c1, c2 in (("canon", "g16"), ("g16", "g64"), ("canon", "g64")):
        n1, n2 = 1000, 500
        total = _mid(spectra[c1], n1) + _mid(spectra[c2], n2, 0.3)
        jobs.append(
            _job(
                check_equilibrium(c1, n1, c2, n2, total),
                "equilibrium", "--code", f"@{c1}", "--code2", f"@{c2}", "-N", n1, "--N2", n2, "-L", total,
            )
        )
    for code in names:
        jobs.append(_job(check_dimension(code, 201), "dimension", "--code", f"@{code}"))
        jobs.append(_job(check_dimension(code, 5), "dimension", "--code", f"@{code}", "--grid=-2:2:5"))
    points = 2001 if smoke else 20001
    jobs.append(_job(check_dimension("g64", points), "dimension", "--code", "@g64", f"--grid=-5:5:{points}"))
    # Expected refusals: exact tables past the capacity guard on every code
    # (three, so omega_s has a sample per code), and a mean outside (l_min, l_max).
    for code, n in (("g64", 100_000), ("g16", 300_000), ("canon", 1_000_001)):
        jobs.append(_job(check_refusal, "omega", "--code", f"@{code}", "-N", n, rc=3))
    jobs.append(_job(check_refusal, "solve-temp", "--code", "@g64", "--lambda", 100, rc=2))
    return jobs + _checks(spectra)


WORKLOADS = {"exact": exact_jobs, "log": log_jobs, "canonical": canonical_jobs}
