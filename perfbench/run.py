"""Benchmark of the dburnside command line, one fresh process per job.

    python3 perfbench/run.py --workload sweep|structure|algebra
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the engine is imported from
``src`` (nothing is installed).  A run repeats rounds of its workload's
jobs, in an order permuted by the seed, until ``--seconds`` have passed
(at least two rounds, so that a slow machine still ends a run in about
``--seconds``).  The jobs themselves never see the seed.

Every job is a real CLI command in its own child process, because the
engine's memos are process-global and a CLI user pays for a cold process
on every command.  Children run one at a time with ``--threads 1``,
without ``DBURNSIDE_CACHE_DIR``, and with the cache directory the
workload prescribes.  Time, CPU and peak memory come from ``os.wait4``
on that child alone.

``--trace 0`` reports the end-to-end metrics:
    wall_s       one pass over all jobs: the sum of each job's median wall
                 time over the rounds, child start-up included
    cpu_s        the same for user + system CPU time of the job processes
    peak_rss_mb  the highest peak RSS of any job in any round
    setup_s      median over rounds of the set-up: interpreter start plus
                 ``import dburnside.cli`` in every child, plus the
                 cache-filling commands of ``algebra``
Each job's own median wall time is printed above the result line.

``--trace 1`` alternates untraced and traced rounds (at least one untraced
and two traced) and reports per-layer metrics, the median over traced
rounds of each round's total.  Layer spans are recorded by ``tracer.py``
around calls into the engine's public functions; the engine itself is
unchanged.

Every answer is checked against the pins in ``jobs.py`` and every emitted
certificate is re-checked by ``dburnside verify`` after the timed rounds.
A job that answers wrongly, crashes or ends inconclusive counts as
failed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, Job, Workload, certificates, check_answer  # noqa: E402

MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2
RUN_DEADLINE_S = 150.0     # children still running then are killed
VERIFY_TIMEOUT_S = 25.0


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    startup_s: float
    main_s: float
    error: Optional[str]
    certs: List[Dict]
    trace: Optional[Dict]


@dataclass
class Round:
    traced: bool
    fill_s: float
    runs: List[JobRun]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def setup_s(self) -> float:
        return self.fill_s + sum(r.startup_s for r in self.runs)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("DBURNSIDE_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env()
        self.serial = 0
        self.numpy: Optional[str] = None

    def spawn(self, argv: List[str], trace: bool):
        """Run child.py on argv; returns (exit code, start time, wall time,
        rusage, record, stdout bytes, stderr bytes)."""
        self.serial += 1
        base = self.tmp / f"job{self.serial}"
        record = Path(f"{base}.record.json")
        cmd = [sys.executable, str(HERE / "child.py"), str(record),
               "1" if trace else "0", "--", *argv]
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=str(self.tmp))
            killer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        rec = json.loads(record.read_text()) if record.is_file() else None
        if rec is not None:
            if not Path(rec["module"]).resolve().is_relative_to(SRC.resolve()):
                raise RuntimeError(f"child imported {rec['module']}, not {SRC}")
            self.numpy = rec.get("numpy") or self.numpy
        return (proc.returncode, t0, wall, usage, rec,
                Path(f"{base}.out").read_bytes(), Path(f"{base}.err").read_bytes())

    def run_job(self, job: Job, cache_dir: Optional[Path], trace: bool) -> JobRun:
        argv = list(job.argv) + ["--format", "json", "--threads", "1"]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        code, t0, wall, usage, rec, out, err = self.spawn(argv, trace)
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        error = check_answer(job, code, report)
        if error is not None and err:
            error += " | stderr: " + err.decode(errors="replace").strip()[-300:]
        return JobRun(job, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      (rec["ready"] - t0) if rec else wall,
                      rec["main_s"] if rec else 0.0,
                      error, certificates(report) if report else [],
                      rec.get("trace") if rec else None)

    def run_round(self, wl: Workload, order: List[Job], trace: bool,
                  index: int) -> Round:
        cache_root = self.tmp / f"cache{index}"
        fill_s = 0.0
        if wl.cache == "filled":
            t0 = time.monotonic()
            for argv in wl.fill:
                code, *_ = self.spawn(list(argv) + ["--format", "json",
                                                    "--cache-dir", str(cache_root)],
                                      False)
                if code != 0:
                    raise RuntimeError(f"cache fill {' '.join(argv)} exited {code}")
            fill_s = time.monotonic() - t0
        runs = []
        for i, job in enumerate(order):
            cache_dir = {"none": None, "filled": cache_root,
                         "fresh": cache_root / f"job{i}"}[wl.cache]
            runs.append(self.run_job(job, cache_dir, trace))
        shutil.rmtree(cache_root, ignore_errors=True)
        for p in self.tmp.glob("job*"):
            p.unlink()
        return Round(trace, fill_s, runs)

    def verify(self, certs: List[Dict]) -> List[bool]:
        """Check each certificate with ``dburnside verify``."""
        if not certs:
            return []
        paths = []
        for i, cert in enumerate(certs):
            path = self.tmp / f"cert{i}.json"
            path.write_text(json.dumps(cert))
            paths.append(str(path))
        out = subprocess.run([sys.executable, str(HERE / "child.py"), "--verify",
                              *paths], capture_output=True, env=self.env,
                             cwd=str(self.tmp), timeout=VERIFY_TIMEOUT_S)
        verdicts = {}
        for line in out.stdout.decode().splitlines():
            row = json.loads(line)
            rep = row.get("report") or {}
            verdicts[row["path"]] = (row["code"] == 0
                                     and rep.get("result", {}).get("valid") is True)
        return [verdicts.get(p, False) for p in paths]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _per_job(rounds: List[Round], attr: str) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for rnd in rounds:
        for r in rnd.runs:
            values.setdefault(r.job.name, []).append(getattr(r, attr))
    return {name: statistics.median(v) for name, v in values.items()}


def end_to_end(rounds: List[Round]) -> Dict[str, tuple]:
    wall = _per_job(rounds, "wall_s")
    cpu = _per_job(rounds, "cpu_s")
    return {
        "wall_s": (sum(wall.values()), "s"),
        "cpu_s": (sum(cpu.values()), "s"),
        "peak_rss_mb": (max(r.rss_mb for rnd in rounds for r in rnd.runs), "MB"),
        "setup_s": (statistics.median(rnd.setup_s for rnd in rounds), "s"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_totals(runs: List[JobRun]) -> Dict[str, tuple]:
    """Per-layer metrics of a set of traced job runs."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for r in runs:
        tr = r.trace or {"spans": {}, "counts": {}}
        for name, (calls, incl, self_s) in tr["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, n in tr["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def calls(name): return spans.get(name, [0, 0.0, 0.0])[0]
    def incl(name): return spans.get(name, [0, 0.0, 0.0])[1]
    def selfs(prefix): return sum(v[2] for k, v in spans.items()
                                  if k.startswith(prefix))
    def c(key): return counts.get(key, 0)

    tried = c("functors.products_tried")
    return {
        "lattice.get_lattice_s": (incl("lattice.get_lattice"), "s"),
        "lattice.get_lattice_calls": (calls("lattice.get_lattice"), "count"),
        "lattice.computed": (c("lattice.computed"), "count"),
        "lattice.subgroups": (c("lattice.subgroups"), "count"),
        "lattice.subgroups_per_s": (_ratio(c("lattice.subgroups"),
                                           c("lattice.computed_s")), "1/s"),
        "lattice.sections_s": (incl("lattice.sections"), "s"),
        "lattice.iso_s": (incl("lattice.iso"), "s"),
        "lattice.iso_calls": (calls("lattice.iso"), "count"),
        "bisets.basis_s": (incl("bisets.basis"), "s"),
        "bisets.basis_labels": (c("bisets.basis_labels"), "count"),
        "bisets.mackey_s": (incl("bisets.mackey"), "s"),
        "bisets.mackey_calls": (calls("bisets.mackey"), "count"),
        "bisets.mackey_terms": (c("bisets.mackey_terms"), "count"),
        "bisets.mackey_us": (1e6 * _ratio(incl("bisets.mackey"),
                                          calls("bisets.mackey")), "us"),
        "linalg.span_add_s": (incl("linalg.span_add"), "s"),
        "linalg.span_add_calls": (calls("linalg.span_add"), "count"),
        "linalg.span_rank_up": (c("linalg.span_rank_up"), "count"),
        "linalg.span_useful": (_ratio(c("linalg.span_rank_up"),
                                      calls("linalg.span_add")), "ratio"),
        "linalg.span_query_s": (incl("linalg.span_query"), "s"),
        "linalg.rank_s": (incl("linalg.rank"), "s"),
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "linalg.rank_cells": (c("linalg.rank_cells"), "count"),
        "functors.self_s": (selfs("functors."), "s"),
        "functors.products_tried": (tried, "count"),
        "functors.dedup": (_ratio(calls("linalg.span_add"), tried), "ratio"),
        "functors.mackey_per_product": (_ratio(calls("bisets.mackey"), tried),
                                        "ratio"),
        "functors.verify_s": (incl("functors.verify"), "s"),
        "functors.verify_calls": (calls("functors.verify"), "count"),
        "cache.load_s": (incl("cache.load"), "s"),
        "cache.load_hits": (c("cache.load_hits"), "count"),
        "cache.load_misses": (c("cache.load_misses"), "count"),
        "cache.save_s": (incl("cache.save"), "s"),
        "cache.bytes_read": (c("cache.bytes_read"), "bytes"),
        "cache.bytes_written": (c("cache.bytes_written"), "bytes"),
        "groups.build_s": (incl("groups.build"), "s"),
        "groups.direct_product_s": (incl("groups.direct_product"), "s"),
        "cli.self_s": (selfs("cli."), "s"),
        "job.main_s": (sum(r.main_s for r in runs), "s"),
    }


def per_layer(rounds: List[Round]) -> Dict[str, tuple]:
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    per_round = [layer_totals(rnd.runs) for rnd in traced]
    out = {k: (statistics.median(t[k][0] for t in per_round), unit)
           for k, (_, unit) in per_round[0].items()}
    overhead = (statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in plain) - 1.0)
    out["trace.overhead_share"] = (overhead, "ratio")
    return out


def count_mismatches(rounds: List[Round]) -> List[str]:
    """Jobs whose counters differ between traced rounds (they must not)."""
    first: Dict[str, Dict] = {}
    bad = []
    for rnd in rounds:
        for r in rnd.runs:
            if not r.trace:
                continue
            key = {"counts": {k: v for k, v in r.trace["counts"].items()
                              if not k.endswith("_s")},
                   "calls": {k: v[0] for k, v in r.trace["spans"].items()}}
            if first.setdefault(r.job.name, key) != key:
                bad.append(r.job.name)
    return bad


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dburnside").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            runner: Runner, start: float) -> List[Round]:
    rng = random.Random(seed)
    rounds: List[Round] = []
    # trace mode runs untraced, traced, traced, untraced, untraced, ...
    min_rounds = MIN_TRACED_ROUNDS + 1 if trace else MIN_ROUNDS
    while True:
        n = len(rounds)
        if n >= min_rounds:
            step = statistics.median(r.wall_s + r.fill_s for r in rounds)
            if time.monotonic() + step > start + seconds:
                break
        if time.monotonic() > runner.deadline:
            break
        traced = trace and n % 4 in (1, 2)
        order = rng.sample(wl.jobs, len(wl.jobs))
        rounds.append(runner.run_round(wl, order, traced, n))
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dburnside" / "cli.py").is_file():
        print(f"error: no dburnside sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tmp_root / f"run{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    runner = Runner(tmp, start + RUN_DEADLINE_S)
    try:
        rounds = measure(wl, args.seed, args.seconds, bool(args.trace),
                         runner, start)
        # certificates are checked once each, outside the timed rounds
        emitted: Dict[str, Dict] = {}
        for rnd in rounds:
            for r in rnd.runs:
                for cert in r.certs:
                    emitted.setdefault(json.dumps(cert, sort_keys=True), cert)
        keys = list(emitted)
        valid = dict(zip(keys, runner.verify([emitted[k] for k in keys])))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    runs = [r for rnd in rounds for r in rnd.runs]
    for r in runs:
        bad = [k for k in (json.dumps(c, sort_keys=True) for c in r.certs)
               if not valid.get(k, False)]
        if bad and r.error is None:
            r.error = f"{len(bad)} certificate(s) rejected by dburnside verify"
    failures = [r for r in runs if r.error is not None]
    mismatched = count_mismatches(rounds) if args.trace else []

    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} commit={git_commit()} "
          f"source_sha256={source_digest()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={runner.numpy} "
          f"certificates_verified={len(valid)}")
    plain = [rnd for rnd in rounds if not rnd.traced] or rounds
    wall, cpu = _per_job(plain, "wall_s"), _per_job(plain, "cpu_s")
    startup = _per_job(plain, "startup_s")
    rss = {}
    for r in runs:
        rss[r.job.name] = max(rss.get(r.job.name, 0.0), r.rss_mb)
    for job in wl.jobs:
        line = (f"# job {job.name:<34} wall {wall[job.name]:7.3f} s  cpu "
                f"{cpu[job.name]:7.3f} s  start {startup[job.name]:.3f} s  "
                f"rss {rss[job.name]:6.1f} MB")
        if args.trace:
            mine = [r for r in runs if r.job is job and r.trace]
            lt = layer_totals(mine[:1])
            main_s = lt["job.main_s"][0]
            line += (f"  | main {main_s:.3f} s  lattice "
                     f"{_ratio(lt['lattice.get_lattice_s'][0], main_s):.1%}"
                     f"  mackey {_ratio(lt['bisets.mackey_s'][0], main_s):.1%}"
                     f"  span {_ratio(lt['linalg.span_add_s'][0], main_s):.2%}"
                     f"  adds {lt['linalg.span_add_calls'][0]}"
                     f"  mackey/product "
                     f"{lt['functors.mackey_per_product'][0]:.3f}")
        print(line)
    failed_by = Counter((r.job.name, r.error) for r in failures)
    for (name, error), n in failed_by.items():
        print(f"# FAILED {name} ({n}x): {error}")
    print(f"# failed_share = {len(failures) / len(runs):.6g} "
          f"({len(failures)} of {len(runs)} jobs)")
    for name in sorted(set(mismatched)):
        print(f"# COUNTS DIFFER between traced rounds: {name}")
    absent = {}
    for r in runs:
        absent.update((r.trace or {}).get("absent", {}))
    for layer, why in sorted(absent.items()):
        print(f"# layer {layer} absent: {why}")

    metrics = per_layer(rounds) if args.trace else end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not mismatched,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
