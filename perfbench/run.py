#!/usr/bin/env python3
"""End-to-end benchmark of the `mubforge` CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload search-exhaustive --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --workload build-verify --quick --seconds 1

Run it from a checkout of the repository; it imports nothing installed and
puts the checkout's `src` on PYTHONPATH.  Each job is one fresh
`python -m mubforge.cli` process, started only after the previous one has
ended (a closed loop with a single client, sized for a 2-core machine).  The
workload seed makes the search seeds and the input spec files during
set-up; the program sees only those inputs.

A run repeats passes over its workload's fixed job list while another pass
still fits in `--seconds` of job time (always at least one), and checks
every job's output.  With `--trace 0` it reports the end-to-end metrics, each the
median over passes.  With `--trace 1` it runs one untraced pass and one
pass under `perfbench/tracer.py` and reports the per-layer metrics.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count jobs, so failed / attempted is the
failed_ratio (a wrong exit code, a failed output check or a timeout).  The
full record (environment, per-job wall time, RSS, output sha256, failures,
absent layers) goes to `.perfbench/results/` in the checkout.  Which layer
metric should move which end-to-end metric is in LAYER_EFFECTS below.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COMPUTED, LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("search-exhaustive", "search-random", "build-verify")
KINDS = ("field", "group", "semigroup")
FACTORIZABLE = {"field": 3, "group": 2, "semigroup": 1}
TOL = "1e-10"
UNLIMITED = str(1 << 20)  # a --count above every exhaustive total

JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # jobs not started by then count as timed out
IMPORT_SAMPLES = 7

END_TO_END = (
    ("wall_s", "s"),
    ("specs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_EFFECTS = {
    "import.mubforge_s": "setup_s on every workload; wall_s on build-verify (many short processes)",
    "cli.main": "setup_s on every workload; wall_s on build-verify",
    "poly2.fibonacci_index": "wall_s on build-verify (includes the lazy import.sympy_s)",
    "construct.StabilizerSpec.validate": "wall_s on build-verify",
    "poly2.stabilizer_char_polys": "wall_s on search-random, not search-exhaustive",
    "gf2.char_poly": "wall_s on search-random, not search-exhaustive",
    "backend.scan_symmetric": "specs_per_s on search-exhaustive; search-random only through m = 8",
    "backend.decode_symmetric": "specs_per_s on search-exhaustive",
    "construct.StabilizerSpec.to_json": "specs_per_s on search-exhaustive",
    "construct.search_specs": "the group/semigroup part of search-exhaustive",
    "construct.search_B": "the group/semigroup part of search-exhaustive",
    "construct.is_polynomial_in": "the group/semigroup part of search-exhaustive",
    "construct.find_addend": "the group/semigroup part of search-exhaustive",
    "construct.build_stabilizer": "wall_s and peak_rss_mb on build-verify",
    "construct.cyclicity_check": "wall_s and peak_rss_mb on build-verify",
    "construct.generators": "wall_s and peak_rss_mb on build-verify",
    "construct.bandyopadhyay_check": "wall_s and peak_rss_mb on build-verify (classes layer)",
    "entangle.entanglement_vector": "wall_s and peak_rss_mb on build-verify",
    "pauli.mub_from_generators": "wall_s on the numeric tier of build-verify (eigenbasis)",
    "pauli.verify_mub": "wall_s on the numeric tier of build-verify",
    "equiv.equivalence_map": "wall_s on build-verify",
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [("import.mubforge_s", "s", "lower"), ("import.sympy_s", "s", "lower")]
    for layer, _, _ in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [
        ("poly2.admissible_polys", "count", "lower"),
        ("backend.candidates", "count", "lower"),
        ("backend.hits", "count", "higher"),
        ("backend.hit_ratio", "ratio", "higher"),
        ("backend.candidates_per_s", "1/s", "higher"),
        ("construct.class_labels", "count", "lower"),
        ("pauli.dense_flops", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


# -- jobs and workloads -------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    name: str
    args: list[str]
    check: str  # "search", "build", "classify" or "equiv"
    kind: str | None = None
    m: int | None = None
    expect: int | None = None  # search: exact number of specs emitted
    ordered: bool = False  # search: ascending candidate (lexicographic) order
    numeric: bool = False  # build: numeric tier
    specs: list[str] = field(default_factory=list)  # input spec files


def _search(m, kind, count, seed=None, ordered=False, expect=None):
    args = ["search", "--m", str(m), "--kind", kind, "--count", str(count)]
    args += ["--exhaustive"] if seed is None else ["--seed", str(seed)]
    mode = "exhaustive" if seed is None else f"seed {seed}"
    return Job(f"search {kind} m={m} {mode}", args, "search", kind, m,
               expect=count if expect is None else expect, ordered=ordered)


def _spec_file(m, kind):
    return f"{kind}-m{m}.json"


def make_workload(name: str, seed: int, quick: bool) -> tuple[list[Job], list[Job]]:
    """(set-up jobs, measured jobs) of a workload, derived from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "search-exhaustive":
        if quick:
            jobs = [_search(4, "field", UNLIMITED, ordered=True, expect=96),
                    _search(3, "group", UNLIMITED, expect=126),
                    _search(4, "semigroup", 200)]
        else:
            jobs = [_search(5, "field", UNLIMITED, ordered=True, expect=1440),
                    _search(6, "field", 3000, ordered=True),
                    _search(4, "group", UNLIMITED, expect=19440),
                    _search(4, "semigroup", UNLIMITED, expect=19440)]
        rng.shuffle(jobs)
        return [], jobs
    if name == "search-random":
        counts = {8: 1} if quick else {8: 3, 12: 2, 16: 1}
        return [], [_search(m, kind, n, seed=rng.randrange(1 << 31))
                    for m, n in counts.items() for kind in KINDS]
    if quick:
        numeric = [(4, kind) for kind in KINDS]
        symbolic = [(6, "field")]
        equiv_m = (4,)
    else:
        numeric = [(m, kind) for m in (4, 5, 6) for kind in KINDS]
        symbolic = [(m, kind) for m in (8, 10) for kind in KINDS] + [(11, "field")]
        equiv_m = (5, 10)
    setup = [_search(m, kind, 1, seed=rng.randrange(1 << 31)) for m, kind in numeric + symbolic]
    jobs = []
    for (m, kind), tier in [(s, "numeric") for s in numeric] + [(s, "symbolic") for s in symbolic]:
        args = ["build", _spec_file(m, kind), "--tol", TOL]
        if tier == "numeric":
            args += ["--numeric-cap", "6"]
        jobs.append(Job(f"build {kind} m={m} {tier}", args, "build", kind, m,
                        numeric=tier == "numeric", specs=[_spec_file(m, kind)]))
    files = [_spec_file(m, kind) for m, kind in numeric + symbolic]
    jobs.append(Job(f"classify {len(files)} specs", ["classify", *files], "classify", specs=files))
    for m in equiv_m:
        for other in ("group", "semigroup"):
            pair = [_spec_file(m, "field"), _spec_file(m, other)]
            jobs.append(Job(f"equiv field-{other} m={m}", ["equiv", *pair], "equiv", m=m, specs=pair))
    return setup, jobs


# -- running one job ------------------------------------------------------------


@dataclass
class JobRun:
    wall_s: float
    rss_mb: float
    returncode: int | None
    timed_out: bool
    stdout: bytes
    stderr: bytes


class Launcher:
    """Client of perfbench/launcher.py, which starts every job and times it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], env: dict, timeout: float) -> JobRun:
        if timeout <= 0:
            return JobRun(0.0, 0.0, None, True, b"", b"not started: run deadline passed")
        out_path, err_path = self.workdir / ".job.out", self.workdir / ".job.err"
        request = {"cmd": cmd, "cwd": str(self.workdir), "env": env, "timeout": timeout,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        reply = json.loads(reply)
        return JobRun(reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["returncode"],
                      reply["timed_out"], out_path.read_bytes(), err_path.read_bytes())

    def close(self, ok: bool = True):
        """Stop the launcher; on error it kills the job it is running first."""
        if ok:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


# -- output checks ----------------------------------------------------------------


def _candidate_index(B) -> int:
    """Index of a symmetric matrix in the exhaustive scan: upper triangle, row-major, MSB first."""
    k = 0
    for i, row in enumerate(B):
        for j in range(i, len(B)):
            k = (k << 1) | row[j]
    return k


class Checker:
    """Checks job outputs; each distinct (job, output) pair is checked once."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._verdicts: dict[tuple[str, str], tuple[str | None, int]] = {}
        self._construct = None

    def _construct_module(self):
        if self._construct is None:
            from mubforge import construct, poly2

            # Pure functions of one polynomial: memoized in this process only,
            # so that validating tens of thousands of emitted specs stays cheap.
            for name in ("fibonacci_index", "is_irreducible"):
                if hasattr(poly2, name):
                    setattr(poly2, name, functools.lru_cache(maxsize=None)(getattr(poly2, name)))
            self._construct = construct
        return self._construct

    @staticmethod
    def digest(job: Job, stdout: bytes) -> str:
        """sha256 of the output; build reports without their `timings`."""
        data = stdout
        if job.check == "build":
            try:
                report = json.loads(stdout)
                report.pop("timings", None)
                data = json.dumps(report, sort_keys=True).encode()
            except (ValueError, AttributeError):
                pass
        return hashlib.sha256(data).hexdigest()

    def check(self, job: Job, run: JobRun) -> tuple[str | None, int, str]:
        """(failure or None, specs emitted or fully checked, output sha256)."""
        sha = self.digest(job, run.stdout)
        if run.timed_out:
            return "timeout", 0, sha
        if run.returncode != 0:
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {run.returncode}: {' '.join(tail)}", 0, sha
        key = (job.name, sha)
        if key not in self._verdicts:
            try:
                verdict = getattr(self, f"_check_{job.check}")(job, run.stdout.decode())
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                verdict = (f"malformed output: {type(exc).__name__}: {exc}", 0)
            self._verdicts[key] = verdict
        return (*self._verdicts[key], sha)

    def _check_search(self, job, text):
        construct = self._construct_module()
        lines = text.splitlines()
        if job.expect is not None and len(lines) != job.expect:
            return f"emitted {len(lines)} specs, expected {job.expect}", 0
        if len(set(lines)) != len(lines):
            return "duplicate specs in output", 0
        previous = -1
        for n, line in enumerate(lines):
            obj = json.loads(line)
            if obj["kind"] != job.kind or obj["m"] != job.m:
                return f"spec {n} is {obj['kind']} m={obj['m']}", 0
            try:
                construct.StabilizerSpec.from_json_dict(obj).validate()
            except construct.SpecValidationError as exc:
                return f"spec {n} fails validate: {exc.condition}: {exc}", 0
            if job.ordered:
                k = _candidate_index(obj["B"])
                if k <= previous:
                    return f"spec {n} breaks ascending lexicographic order", 0
                previous = k
        return None, len(lines)

    def _input(self, name):
        return json.loads((self.workdir / name).read_text(encoding="utf-8"))

    def _check_build(self, job, text):
        report = json.loads(text)
        if report["spec"] != self._input(job.specs[0]):
            return "report spec differs from the input spec", 0
        if report["cyclic_ok"] is not True or report["bandyopadhyay_ok"] is not True:
            return "cyclic_ok or bandyopadhyay_ok not set", 0
        factorizable = report["entanglement"]["counts"][0]
        if factorizable != FACTORIZABLE[job.kind]:
            return f"{factorizable} factorizable bases, expected {FACTORIZABLE[job.kind]}", 0
        status = report["mub_verification"]
        if job.numeric:
            deviation = float(report["mub_max_deviation"])
            if status != "passed" or not deviation <= float(TOL):
                return f"numeric check {status!r}, deviation {deviation}", 0
        elif not status.startswith("skipped (m >"):
            return f"symbolic tier ran numeric check: {status!r}", 0
        return None, 1

    def _check_classify(self, job, text):
        rows = [line.split() for line in text.splitlines()[1:]]
        if [r[0] for r in rows] != job.specs:
            return "classify rows do not match the input files", 0
        for path, kind, m, counts in rows:
            spec = self._input(path)
            if (kind, int(m)) != (spec["kind"], spec["m"]):
                return f"{path}: classified as {kind} m={m}", 0
            factorizable = int(counts.strip("()").split(",")[0])
            if factorizable != FACTORIZABLE[kind]:
                return f"{path}: {factorizable} factorizable bases", 0
        return None, 0

    def _check_equiv(self, job, text):
        verdict = json.loads(text)
        if not isinstance(verdict["equivalent"], bool) or not verdict["reason"]:
            return "verdict lacks a boolean `equivalent` or a reason", 0
        if verdict["equivalent"]:
            f = verdict["f"]
            n = 2 * job.m
            if len(f) != n or any(len(row) != n or set(row) - {0, 1} for row in f):
                return "equivalence map is not a 2m x 2m 0/1 matrix", 0
        return None, 0


# -- passes, tracing and metrics ------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, quick: bool, workdir: Path):
        self.workdir = workdir
        self.setup_jobs, self.jobs = make_workload(workload, seed, quick)
        self.quick = quick
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.checker = Checker(workdir)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.records: list[dict] = []
        self.launcher = Launcher(workdir)

    def _timeout(self):
        return min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())

    def _record(self, phase, job, run):
        error, specs, sha = self.checker.check(job, run)
        self.records.append({
            "phase": phase, "job": job.name, "args": job.args, "wall_s": run.wall_s,
            "rss_mb": run.rss_mb, "returncode": run.returncode, "sha256": sha,
            "specs": specs, "error": error,
        })
        return error, specs

    def measure_setup(self) -> list[float]:
        """Fresh-interpreter `import mubforge` times, after one warm-up import."""
        code = ("import time; t0 = time.perf_counter(); import mubforge; "
                "print(repr(time.perf_counter() - t0))")
        samples = []
        for i in range(1 + (3 if self.quick else IMPORT_SAMPLES)):
            run = self.launcher.run([sys.executable, "-c", code], self.env, self._timeout())
            if run.returncode != 0:
                raise RuntimeError(f"import mubforge failed: {run.stderr.decode(errors='replace')}")
            if i:
                samples.append(float(run.stdout))
        return samples

    def make_inputs(self) -> float:
        """Write the spec files the build jobs read; returns the time taken."""
        t0 = time.perf_counter()
        cmd = [sys.executable, "-m", "mubforge.cli"]
        for job in self.setup_jobs:
            run = self.launcher.run(cmd + job.args, self.env, self._timeout())
            error, _ = self._record("setup", job, run)
            if error is None:
                (self.workdir / _spec_file(job.m, job.kind)).write_bytes(run.stdout)
        return time.perf_counter() - t0

    def run_pass(self, traced: bool) -> dict:
        tracer = [sys.executable, str(Path(__file__).with_name("tracer.py"))]
        wall = specs = 0.0
        rss = 0.0
        stats = []
        phase = "traced" if traced else "untraced"
        for i, job in enumerate(self.jobs):
            if traced:
                stats_path = self.workdir / f".stats-{i}.json"
                stats_path.unlink(missing_ok=True)
                cmd = tracer + [str(stats_path)]
            else:
                cmd = [sys.executable, "-m", "mubforge.cli"]
            run = self.launcher.run(cmd + job.args, self.env, self._timeout())
            error, n = self._record(phase, job, run)
            wall += run.wall_s
            rss = max(rss, run.rss_mb)
            specs += n
            if traced:
                try:
                    stats.append(json.loads(stats_path.read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    self.records[-1]["error"] = error or f"no trace stats: {exc}"
        return {"wall_s": wall, "specs": specs, "peak_rss_mb": rss, "stats": stats}

    def failures(self) -> tuple[int, int]:
        return len(self.records), sum(1 for r in self.records if r["error"])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    walls = [p["wall_s"] for p in passes]
    return {
        "wall_s": _median(walls),
        "specs_per_s": _median([p["specs"] / p["wall_s"] for p in passes if p["wall_s"] > 0]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        "setup_s": _median(setup),
    }


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Sum the traced jobs' stats; returns (values, names of absent metrics)."""
    values = {name: 0.0 for name, _, _ in per_layer_metrics()}
    absent = set()
    total_s = {}
    for stats in traced["stats"]:
        for key in ("mubforge_s", "sympy_s"):
            if stats["imports"].get(key) is not None:
                values[f"import.{key}"] += stats["imports"][key]
        for layer, entry in stats["layers"].items():
            if "absent" in entry:
                absent.update({f"{layer}.calls", f"{layer}.self_s"})
                continue
            values[f"{layer}.calls"] += entry["calls"]
            values[f"{layer}.self_s"] += entry["self_s"]
            total_s[layer] = total_s.get(layer, 0.0) + entry["total_s"]
        for name, entry in stats["counters"].items():
            if "absent" in entry:
                absent.add(name)
            else:
                values[name] += entry["value"]
    if not traced["stats"]:
        absent.update(values)
    candidates = values["backend.candidates"]
    values["backend.hit_ratio"] = values["backend.hits"] / candidates if candidates else 0.0
    scan_s = total_s.get("backend.scan_symmetric", 0.0)
    values["backend.candidates_per_s"] = candidates / scan_s if scan_s else 0.0
    if "backend.candidates" in absent:
        absent.update({"backend.hit_ratio", "backend.candidates_per_s"})
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values, sorted(absent)


# -- environment and results ----------------------------------------------------------


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _backend_name():
    try:
        from mubforge import backend

        return backend.backend_name()
    except (ImportError, AttributeError, ValueError) as exc:
        return f"absent ({type(exc).__name__}: {exc})"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.pyx")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "backend": _backend_name(),
        "MUBFORGE_BACKEND": os.environ.get("MUBFORGE_BACKEND"),
        "MUBFORGE_THREADS": os.environ.get("MUBFORGE_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    workdir = OUT_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workload, seed, quick, workdir)
    ok = False
    try:
        setup = bench.measure_setup()
        inputs_s = bench.make_inputs()
        if trace:
            passes = [bench.run_pass(traced=False), bench.run_pass(traced=True)]
            metrics, absent = per_layer(*passes)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            # Measured time is job time; output checks between jobs do not count.
            passes = [bench.run_pass(traced=False)]
            while not quick and sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds:
                passes.append(bench.run_pass(traced=False))
            metrics, absent = end_to_end(passes, setup), []
            units = dict(END_TO_END)
        attempted, failed = bench.failures()
        ok = True
    finally:
        bench.launcher.close(ok)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick, "environment": environment(),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "samples": {"passes": len(passes), "setup_s": len(setup)},
        "pass_wall_s": [p["wall_s"] for p in passes], "setup_samples_s": setup,
        "inputs_s": inputs_s, "absent": absent,
        "computed": sorted(COMPUTED) if trace else [],
        "layer_effects": LAYER_EFFECTS, "jobs": bench.records, "result": result,
    }
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    suffix = "-quick" if quick else ""
    path = OUT_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_table(record, path)
    return result


def _print_table(record, path):
    result = record["result"]
    n = record["samples"]
    err = sys.stderr
    print(f"== {record['workload']} (seed {record['seed']}, {n['passes']} pass(es), "
          f"{n['setup_s']} import samples) -> {path.relative_to(ROOT)}", file=err)
    for name, metric in result["metrics"].items():
        note = " (absent)" if name in record["absent"] else ""
        note += " (computed)" if name in record["computed"] else ""
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}{note}", file=err)
    print(f"  {'failed_ratio':44s} {record['failed_ratio']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)", file=err)
    for job in record["jobs"]:
        if job["error"]:
            print(f"  FAILED {job['phase']} {job['job']}: {job['error']}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small job lists and a single pass (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "mubforge" / "cli.py").is_file():
        print(f"perfbench: no mubforge sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.quick)
                   for w in names}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = results[args.workload] if args.workload != "all" else {"workloads": results}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
