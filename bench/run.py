"""thermocode benchmark: time-to-result of real CLI jobs, checked for correctness.

Run from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Each job is its own `python -m thermocode.cli ...` subprocess with `src` on
PYTHONPATH, run in a closed loop from one client, one job at a time.  The
workload's job list is repeated until --seconds is used up; its outputs are
checked afterwards, outside the timed region.  With --trace 1 the same jobs
are also replayed in-process through `thermocode.cli.main` with the public
layer functions wrapped (see layers.py), and per-layer metrics are printed
instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a fuller report (every subcommand's
time with its sample count, the fail ratio, each job's stdout sha256, and the
environment).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jobs import CANON_DOC, RANDOM_CODES, WORKLOADS, Job, Oracle, gen_jobs, spectrum_of  # noqa: E402

# A run must end within 180 s; stop starting passes well before that.
RUN_BUDGET_S = 150.0
JOB_TIMEOUT_S = 120.0
SETUP_REPEATS = 7


# Runs in a child so this process never imports numpy (see jobs.py).
_PICK_SEEDS = r"""
import json, random, sys
import numpy
from thermocode import random_complete_code
rng = random.Random(int(sys.argv[1]))
seeds = {}
for name, (leaves, span, distinct) in json.loads(sys.argv[2]).items():
    for _ in range(100000):
        s = rng.getrandbits(31)
        sp = random_complete_code(leaves, s).spectrum()
        if (sp.l_max - sp.l_min, len(sp.lengths)) == (span, distinct):
            seeds[name] = s
            break
    else:
        sys.exit(f"no {leaves}-leaf code of span {span} with {distinct} lengths")
print(json.dumps({"seeds": seeds, "numpy": numpy.__version__}))
"""


@dataclass
class JobResult:
    rc: int
    seconds: float
    cpu_seconds: float
    max_rss_kb: int
    out: bytes
    err: bytes

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


@dataclass
class Tally:
    """Attempted and failed jobs, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {problem}")


class Runner:
    """Starts CLI jobs as subprocesses, one at a time, and reaps each one."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)

    def python(self, *argv: str) -> JobResult:
        """Run the interpreter with argv; returns its exit code, wall time,
        max RSS and output."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env
            )
        killer = threading.Timer(max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic())), proc.kill)
        killer.start()
        try:
            # Wait without reaping, so the killer can never hit a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            seconds = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return JobResult(proc.returncode, seconds, cpu, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())

    def cli(self, argv: list[str]) -> JobResult:
        return self.python("-m", "thermocode.cli", *argv)


def check_job(job: Job, result: JobResult, oracle: Oracle) -> str | None:
    """None when the job exited as expected and its output passes its check."""
    if result.rc != job.rc:
        return f"exit {result.rc}, want {job.rc}: {result.err[-200:].decode(errors='replace')!r}"
    try:
        job.check(oracle, result.out.decode(), result.err.decode())
    except Exception as exc:  # any malformed output is a failed job, not a crash
        return f"{type(exc).__name__}: {exc}"
    return None


def pick_codes(runner: Runner, seed: int) -> tuple[dict[str, int], str]:
    """Seeds for the random codes, drawn from the workload seed, through
    random_complete_code; also returns numpy's version."""
    res = runner.python("-c", _PICK_SEEDS, str(seed), json.dumps(RANDOM_CODES))
    if res.rc != 0:
        raise SystemExit(f"seed search failed: {res.err.decode(errors='replace')}")
    data = json.loads(res.out)
    return data["seeds"], data["numpy"]


def set_up(runner: Runner, gens: dict[str, Job], tally: Tally, oracle: Oracle) -> tuple[float, dict[str, str], dict]:
    """Generate and validate the code documents through `thermocode gen`.

    Returns the wall time, the document paths and the gen results."""
    docs, results = {}, {}
    t0 = time.perf_counter()
    for name, job in gens.items():
        res = results[name] = runner.cli(list(job.argv))
        tally.record(f"gen {name}", check_job(job, res, oracle))
        docs[name] = str(runner.work / f"{name}.json")
        Path(docs[name]).write_bytes(res.out)
    docs["canon"] = str(runner.work / "canon.json")
    Path(docs["canon"]).write_text(CANON_DOC)
    return time.perf_counter() - t0, docs, results


def run_pass(runner: Runner, jobs: list[Job], docs: dict[str, str]) -> tuple[float, list[JobResult]]:
    t0 = time.perf_counter()
    results = [runner.cli(job.resolve(docs)) for job in jobs]
    return time.perf_counter() - t0, results


def environment(root: Path, seed: int, numpy_version: str, spectra: dict, seeds: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "codes": {
            name: {
                "gen_seed": seeds.get(name),
                "words": sum(spec.values()),
                "span": max(spec) - min(spec),
                "distinct_lengths": len(spec),
            }
            for name, spec in spectra.items()
        },
    }


def _metric(value: float, unit: str, n: int) -> dict:
    """A reported value with its unit and sample count."""
    return {"value": value, "unit": unit, "n": n}


def measure(runner: Runner, jobs: list[Job], docs: dict, oracle: Oracle, tally: Tally,
            seconds: float, smoke: bool) -> tuple[dict[str, dict], list[JobResult]]:
    """Repeat the job list until the time is used; check outputs afterwards.
    Returns the metrics and the first pass's results.

    Each job's wall and CPU time is its median across passes, so one disturbed
    job in one pass does not move it.  wall_s and cpu_s sum these over the job
    list, and <command>_s averages the wall times over that subcommand's jobs."""
    walls: list[float] = []
    per_job: list[list[JobResult]] = [[] for _ in jobs]
    first: list[JobResult] = []
    digests: list[list[tuple[int, str]]] = []
    start = time.monotonic()
    while True:
        wall, results = run_pass(runner, jobs, docs)
        walls.append(wall)
        for samples, res in zip(per_job, results):
            samples.append(res)
        digests.append([(r.rc, r.digest) for r in results])
        if not first:
            first = results
        else:
            for r in results:
                r.out = r.err = b""  # later passes keep only their digests
        used = time.monotonic() - start
        if smoke or used + statistics.median(walls) > seconds or time.monotonic() + wall > runner.deadline:
            break
    for i, job in enumerate(jobs):
        problem = check_job(job, first[i], oracle)
        for p, pass_digests in enumerate(digests):
            same = pass_digests[i] == digests[0][i]
            tally.record(" ".join(job.argv), problem if same else f"pass {p} output differs from pass 0")
    n = len(jobs) * len(walls)
    wall_med = [statistics.median(r.seconds for r in samples) for samples in per_job]
    cpu_med = [statistics.median(r.cpu_seconds for r in samples) for samples in per_job]
    metrics = {"wall_s": _metric(sum(wall_med), "s", n), "cpu_s": _metric(sum(cpu_med), "s", n)}
    by_command: dict[str, list[float]] = defaultdict(list)
    for job, median in zip(jobs, wall_med):
        by_command[job.command].append(median)
    for command, values in sorted(by_command.items()):
        name = "startup_s" if command == "check" else f"{command.replace('-', '_')}_s"
        metrics[name] = _metric(statistics.fmean(values), "s", len(values) * len(walls))
    checks = [c for job, c in zip(jobs, cpu_med) if job.command == "check"]
    metrics["startup_cpu_s"] = _metric(statistics.fmean(checks), "s", len(checks) * len(walls))
    peak_kb = max(r.max_rss_kb for samples in per_job for r in samples)
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB", n)
    return metrics, first


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one pass: for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thermocode" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root (src/thermocode or BENCHMARK.json not found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    try:
        runner = Runner(root, work, time.monotonic() + RUN_BUDGET_S)
        tally = Tally()
        seeds, numpy_version = pick_codes(runner, args.seed)
        gens = gen_jobs(seeds)
        runner.cli(["gen", "--leaves", "2", "--seed", "0"])  # warm the file cache and bytecode
        oracle = Oracle({})
        setup_wall, setup_cpu = [], []
        for _ in range(1 if args.smoke or args.trace else SETUP_REPEATS):
            took, docs, gen_results = set_up(runner, gens, tally, oracle)
            setup_wall.append(took)
            setup_cpu.append(sum(r.cpu_seconds for r in gen_results.values()))
        oracle.spectra.update({name: spectrum_of(Path(p).read_text()) for name, p in docs.items()})
        jobs = WORKLOADS[args.workload](oracle.spectra, smoke=args.smoke)

        if args.trace:
            import layers

            _, results = run_pass(runner, jobs, docs)
            expected = [(list(job.argv), gen_results[name].rc, gen_results[name].out) for name, job in gens.items()]
            for job, res in zip(jobs, results):
                tally.record(" ".join(job.argv), check_job(job, res, oracle))
                expected.append((job.resolve(docs), res.rc, res.out))
            metrics = layers.traced_run(root, runner, expected, oracle.spectra, docs, tally, args.smoke)
            wanted = [m["name"] for m in declared["per_layer"]]
        else:
            metrics = {
                "setup_s": _metric(statistics.median(setup_cpu), "s", len(setup_cpu)),
                "setup_wall_s": _metric(statistics.median(setup_wall), "s", len(setup_wall)),
            }
            measured, results = measure(runner, jobs, docs, oracle, tally, args.seconds, args.smoke)
            metrics.update(measured)
            wanted = [m["name"] for m in declared["end_to_end"]]
        metrics["fail_ratio"] = _metric(tally.failed / tally.attempted, "1", tally.attempted)
        outputs = {" ".join(job.argv): res.digest for job, res in zip(jobs, results)}
        env = environment(root, args.seed, numpy_version, oracle.spectra, seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    report = {"workload": args.workload, "trace": args.trace, "environment": env, "stdout_sha256": outputs}
    print(json.dumps({**report, "report": metrics}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {k: metrics[name][k] for k in ("value", "unit")} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
