"""End-to-end benchmark of the siegel2 command line.

    python3 benchmark/run.py --workload cold-n12 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the program is started as
`python -m siegel2.cli ...` with the checkout's `src` first on PYTHONPATH,
one fresh process per command and at most one process at a time (a closed
loop with one client).

Workloads:

  cold-n12  rounds of one cold certification at trace bound 12 (`build`
            into an empty cache directory, then `verify`) and 22 seeded
            queries on the new cache
  warm-n16  one cold certification at N = 16 as set-up, then rounds of
            22 seeded queries on that cache

The machine's speed changes by up to two times from one second to the
next, so a fixed reference workload (`reference.py`, a fresh process) runs
before every program process.  The end-to-end metrics use each process's
calibrated time: its CPU time scaled by REF_SECONDS over the mean CPU time
of the reference runs within REF_WINDOW seconds of it.

Every output is checked by `checks.py`, which shares no code with siegel2,
after the timed loop.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Metric names and units come from BENCHMARK.json; README.md defines them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"
clock = time.perf_counter

STARTUPS = 9  # program start-ups whose median is setup_s on the cold workloads
MIN_QUERIES = 100  # so that at least 10 queries lie beyond the nearest-rank p90
MIN_CERTIFICATIONS = 2
PROCESS_LIMIT = 170  # seconds before a program process is killed
REF_SECONDS = 0.06  # calibrated times are CPU times where the reference takes this
REF_WINDOW = 2.0  # seconds before and after a process whose reference times count
MAX_COUNTS = ("igusa.terms_stored", "qexp.mul.max_bits")


class Proc(NamedTuple):
    argv: list
    wall: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float
    trace: dict | None
    start: float
    cpu: float  # user + system time, which leaves out slices the host took away


class Op(NamedTuple):
    """One timed operation: a cold certification or a query."""

    query: dict | None  # None for a cold certification
    wall: float
    procs: list
    check: Callable[[], None]  # raises checks.CheckError on a wrong output


def wait(proc: subprocess.Popen):
    """Exit code and rusage of `proc`, killed after PROCESS_LIMIT seconds."""
    timer = threading.Timer(PROCESS_LIMIT, proc.kill)
    timer.daemon = True  # never keeps the benchmark alive at exit
    try:
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Runner:
    """Starts program processes in a scratch directory of the checkout."""

    def __init__(self, work: Path, bound: int):
        self.work = work
        self.bound = bound
        self.started = 0
        self.parsed: dict[Path, dict] = {}
        self.refs: list[tuple[float, float, float]] = []  # (start, wall, cpu) of each
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def reference(self) -> None:
        start = clock()
        proc = subprocess.Popen([sys.executable, str(REFERENCE)], cwd=self.work)
        status, usage = wait(proc)
        if status:
            raise RuntimeError(f"{REFERENCE} exited {status}")
        self.refs.append((start, clock() - start, usage.ru_utime + usage.ru_stime))

    def calibrated(self, item) -> float:
        """Calibrated time of a Proc, or of an Op as the sum of its processes."""
        if isinstance(item, Op):
            return sum(self.calibrated(p) for p in item.procs)
        near = [cpu for start, _, cpu in self.refs
                if item.start - REF_WINDOW <= start <= item.start + item.wall + REF_WINDOW]
        return item.cpu * REF_SECONDS / statistics.fmean(near)

    def run(self, argv, traced=False) -> Proc:
        self.reference()
        self.started += 1
        argv = [str(a) for a in argv]
        spans = self.work / f"spans-{self.started}.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "siegel2.cli", *argv]
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = clock()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            returncode, usage = wait(proc)
            wall = clock() - start
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        trace = json.loads(spans.read_text()) if traced and spans.exists() else None
        return Proc(argv, wall, returncode, stdout, stderr, usage.ru_maxrss / 1024,
                    trace, start, usage.ru_utime + usage.ru_stime)

    def forms(self, cache: Path) -> dict:
        """The parsed cache, read once, after the timed loop."""
        if cache not in self.parsed:
            self.parsed[cache] = checks.read_cache(cache, self.bound)
        return self.parsed[cache]

    def certify(self, cache: Path, traced: bool, rng: random.Random) -> Op:
        """Cold certification: build into an empty directory, then verify."""
        common = ["--trace-bound", self.bound, "--cache-dir", cache]
        build = self.run(["build", *common], traced)
        verify = self.run(["verify", *common], traced)

        def check():
            checks.expect(
                build.returncode == 0
                and build.stdout.startswith(f"built (trace bound {self.bound})\n"),
                f"build exited {build.returncode}: {build.stderr[-300:]}",
            )
            checks.check_query(VERIFY, {}, self.bound,
                               verify.returncode, verify.stdout)
            checks.check_cache(self.forms(cache), self.bound, rng)

        return Op(None, build.wall + verify.wall, [build, verify], check)

    def query(self, query: dict, cache: Path, traced: bool) -> Op:
        proc = self.run(query_argv(query, self.bound, cache), traced)

        def check():
            checks.check_query(query, self.forms(cache), self.bound,
                               proc.returncode, proc.stdout)

        return Op(query, proc.wall, [proc], check)


# ----- the query streams -------------------------------------------------

ATOMS = list(checks.ATOM_WEIGHTS)
PRODUCT = "X10*X12*X4"
VERIFY = {"kind": "verify", "prime": 23}


def _coeff(rng: random.Random, indices: list, primes=()) -> dict:
    query = {"kind": "coeff", "expr": rng.choice(ATOMS), "index": rng.choice(indices)}
    if primes:
        query["prime"] = rng.choice(primes)
    return query


def query_round(seed: int, round_index: int, bound: int) -> list[dict]:
    """22 seeded queries on a built cache, a function of the arguments alone.

    14 single-atom calls, 7 products mod 23 (about 1.5 times as slow) and
    one rational product (about 2.5 times): sorted by cost they fill
    0-64 %, 64-95 % and 95-100 % of a run, so p50 and p90 each fall well
    inside one kind of query.  The four `verify` calls are the
    samples of certify_s on `warm-n16`.  The seed picks the atoms and
    indices of the `coeff` calls and the order; every round does the same
    work in the layers whose counts the traced run reports.
    """
    rng = random.Random(f"{seed}:{round_index}")
    indices = list(checks.l2_indices(bound))
    queries = [_coeff(rng, indices) for _ in range(3)]
    queries += [_coeff(rng, indices, (5, 7, 23)) for _ in range(2)]
    queries += [
        {"kind": "minmat", "expr": "X35", "prime": 23},
        {"kind": "minmat", "expr": "X10", "prime": 5},
        {"kind": "theta", "expr": "X35", "prime": 23},
        {"kind": "sturm", "expr": "X35", "prime": 23},
        VERIFY, VERIFY, VERIFY, VERIFY,
        {"kind": "verify", "prime": 5},
    ]
    queries += [{"kind": "coeff", "expr": PRODUCT, "index": rng.choice(indices), "prime": 23}
                for _ in range(7)]
    queries.append({"kind": "dump", "expr": "X4^3 - X6^2", "samples": rng.sample(indices, 3)})
    rng.shuffle(queries)
    return queries


def query_argv(query: dict, bound: int, cache: Path) -> list:
    kind = query["kind"]
    argv = [kind] if kind == "verify" else [kind, query["expr"]]
    if kind == "coeff":
        argv += list(query["index"])
    if "prime" in query and not (kind == "verify" and query["prime"] == 23):
        argv += ["--prime", query["prime"]]
    return argv + ["--trace-bound", bound, "--cache-dir", cache]


# ----- measurement --------------------------------------------------------


def min_rounds(queries_per_round: int, certifications_per_round: int) -> int:
    """Rounds enough for MIN_QUERIES queries and MIN_CERTIFICATIONS certifications."""
    return max(math.ceil(MIN_QUERIES / queries_per_round),
               math.ceil(MIN_CERTIFICATIONS / certifications_per_round))


def timed_loop(round_tasks, seconds: float, min_rounds: int, trace: bool):
    """Whole rounds until `seconds` have passed and `min_rounds` are done.

    In a traced run every operation runs untraced and then traced, so the
    two can be compared.  Returns the untraced rounds and the traced rounds,
    each a list of operations.
    """
    untraced, traced = [], []
    start = clock()
    if trace:
        min_rounds = 1  # the minimum serves the end-to-end statistics only
    while len(untraced) < min_rounds or clock() - start < seconds:
        plain, marked = [], []
        for task in round_tasks(len(untraced)):
            for is_traced in (False, True) if trace else (False,):
                op = task(is_traced)
                (marked if is_traced else plain).append(op)
        untraced.append(plain)
        traced.append(marked)
    return untraced, traced


def layer_totals(procs) -> Counter:
    """Per-layer self times, calls and counts summed over traced processes."""
    totals: Counter = Counter()
    for proc in procs:
        if proc.trace is None:
            continue
        spans = proc.trace["spans"]
        inner = [0.0] * len(spans)
        in_eisenstein = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
                if name == "igusa.siegel_eisenstein":
                    in_eisenstein[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            totals[f"{name}.self_s"] += end - start - inner[i]
            totals[f"{name}.calls"] += 1
            if name == "igusa.eisenstein_family":
                totals["igusa.eisenstein_family.validate_s"] += end - start - in_eisenstein[i]
            if parent < 0:
                totals["cli.startup_s"] += proc.wall - (end - start)
        for key, value in proc.trace["counts"].items():
            totals[key] = max(totals[key], value) if key in MAX_COUNTS else totals[key] + value
    return totals


def per_layer(untraced: list, traced: list) -> dict:
    """Per-round means over the traced rounds, and the tracing overhead."""
    per_round = [layer_totals(p for op in ops for p in op.procs) for ops in traced]
    out = {
        key: max(t[key] for t in per_round) if key in MAX_COUNTS
        else statistics.fmean(t[key] for t in per_round)
        for key in set().union(*per_round)
    }
    out["trace.round_s"] = statistics.fmean(sum(op.wall for op in ops) for ops in traced)
    out["trace.untraced_round_s"] = statistics.fmean(
        sum(op.wall for op in ops) for ops in untraced
    )
    out["trace.overhead_s"] = out["trace.round_s"] - out["trace.untraced_round_s"]
    return out


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup: list, certifications: list, queries: list, duration) -> dict:
    """The end-to-end metrics, with `duration(x)` the time of a Proc or Op."""
    query_s = [duration(op) for op in queries]
    return {
        "setup_s": statistics.median(sum(duration(p) for p in run) for run in setup),
        "certify_s": statistics.median(duration(op) for op in certifications),
        "query_ms.p50": 1000 * statistics.median(query_s),
        "query_ms.p90": 1000 * nearest_rank(query_s, 0.9),
        "queries_per_s": len(query_s) / sum(query_s),
        "peak_rss_mb": max(p.maxrss_mb for op in certifications + queries for p in op.procs),
    }


def report(runner: Runner, setup: list, certifications: list,
           queries: list) -> tuple[dict, dict]:
    """The calibrated end-to-end metrics, and for the run record the same
    metrics from plain wall times with the median reference time."""
    raw = end_to_end(setup, certifications, queries, lambda x: x.wall)
    raw["reference_s"] = statistics.median(wall for _, wall, _ in runner.refs)
    return end_to_end(setup, certifications, queries, runner.calibrated), raw


def cold(runner: Runner, seed: int, seconds: float, trace: bool):
    """Rounds of one cold certification and one round of queries.

    The queries read the cache the round's certification has just built.

    The program's own set-up here is interpreter start and import only, so
    setup_s is the median of STARTUPS start-ups: one 0.1 s start-up varies
    by more than 10 % from one run to the next.
    """
    startups = [runner.run(["--help"]) for _ in range(STARTUPS)]
    correct = all(p.returncode == 0 for p in startups)
    check_rng = random.Random(-seed)

    def round_tasks(r):
        cache = runner.work / f"round-{r}"
        traced_cache = runner.work / f"round-{r}-traced"
        return [lambda t: runner.certify(traced_cache if t else cache, t, check_rng)] + [
            lambda t, q=q: runner.query(q, cache, t) for q in query_round(seed, r, runner.bound)
        ]

    per_round = len(query_round(seed, 0, runner.bound))
    untraced, traced = timed_loop(round_tasks, seconds, min_rounds(per_round, 1), trace)
    ops = [op for ops in untraced + traced for op in ops]
    if trace:
        return correct, ops, per_layer(untraced, traced), {}
    plain = [op for ops in untraced for op in ops]
    metrics, raw = report(runner, [[p] for p in startups], [op for op in plain if not op.query],
                          [op for op in plain if op.query])
    return correct, ops, metrics, {"wall_metrics": raw}


def warm(runner: Runner, seed: int, seconds: float, trace: bool):
    """Set-up is one cold certification; the query stream then reads its cache.

    With the cache built, certifying is the `verify` call alone, so
    certify_s here is the median of the stream's `verify` (mod 23) calls.
    """
    cache = runner.work / "setup"
    setup = runner.certify(cache, trace, random.Random(-seed))
    correct = True
    try:
        setup.check()
    except (checks.CheckError, OSError) as exc:
        correct = False
        print(f"set-up check failed: {exc}", file=sys.stderr)

    def round_tasks(r):
        return [lambda t, q=q: runner.query(q, cache, t)
                for q in query_round(seed, r, runner.bound)]

    first = query_round(seed, 0, runner.bound)
    untraced, traced = timed_loop(
        round_tasks, seconds, min_rounds(len(first), first.count(VERIFY)), trace
    )
    ops = [op for ops in untraced + traced for op in ops]
    extra = {"setup_layers": dict(layer_totals(setup.procs))}
    if trace:
        return correct, ops, per_layer(untraced, traced), extra
    plain = [op for ops in untraced for op in ops]
    metrics, extra["wall_metrics"] = report(
        runner, [setup.procs], [op for op in plain if op.query == VERIFY], plain
    )
    return correct, ops, metrics, extra


WORKLOADS = {
    "cold-n12": (cold, 12),
    "warm-n16": (warm, 16),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the running program process is killed and waited
    # for, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "siegel2" / "cli.py").is_file():
        print(f"error: no siegel2 sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload, bound = WORKLOADS[args.workload]
        runner = Runner(work, bound)
        correct, ops, values, extra = workload(runner, args.seed, args.seconds, bool(args.trace))
        failed = 0
        for op in ops:
            try:
                op.check()
            except (checks.CheckError, OSError) as exc:
                failed += 1
                print(f"failed: {' '.join(op.procs[0].argv)}: {exc}\n{op.procs[-1].stderr[-500:]}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  procs=[[[p.start, p.wall, p.cpu] for p in op.procs] for op in ops],
                  refs=runner.refs, **extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
