"""Run the loophom benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload and prints its metrics, ending with one
JSON line {"correct", "attempted", "failed", "metrics"}. Without
--workload every workload runs in turn and a summary table follows.

The load is a closed loop: one client, one child process at a time, jobs
back to back. Every job is a cold run of the workload in a fresh process
(bench/job.py), because a command-line user pays page construction and
empty caches on every invocation. Children import loophom from the
checkout's src/, with LOOPHOM_WORKERS removed and PYTHONHASHSEED fixed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
job_s (median wall time of a job), setup_s (median time for a fresh
process to import loophom and build the workload's pages) and
peak_rss_mb (median peak resident set of a job). Both times are quoted at
a reference machine speed, measured by the calibration kernel that each
child runs while it works (see job.py and `normalised`); the raw medians
are printed beside them. error_rate, failed over attempted, is printed
too and carried by the result line's "failed" and "attempted"; it is not
a BENCHMARK.json metric because it is 0 when the program is right.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

Every job's stdout is checked, after its clock has stopped, against the
reference committed in references.json for the chosen offset; see
`check_output` for the checks that do not depend on a reference. Any
failed check counts against error_rate and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import F3_SESSION, SESSION_CHECKS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

MIN_ROUNDS = 3
JOB_TIMEOUT_S = 90
# The time of job.calibration() at the reference speed that job_s and
# setup_s are quoted at; see `normalised`.
CALIBRATION_REF_S = 100e-6


@dataclass
class Job:
    wall_s: float
    stdout: bytes
    report: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LOOPHOM_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(name: str, offset: int, flag: str = "") -> Job:
    """Run bench/job.py once; the wall time covers the whole process."""
    cmd = [sys.executable, str(BENCH / "job.py"), name, str(offset)] + ([flag] if flag else [])
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Job(perf_counter() - start, b"", problems=[f"timed out after {JOB_TIMEOUT_S} s"])
    job = Job(perf_counter() - start, proc.stdout)
    err_lines = proc.stderr.decode(errors="replace").splitlines()
    try:
        job.report = json.loads(err_lines[-1])
    except (IndexError, ValueError):
        job.problems.append(f"no report; stderr ends: {err_lines[-3:]}")
    if proc.returncode != 0:
        job.problems.append(f"exit code {proc.returncode}")
    loaded = job.report.get("loophom_file")
    if loaded is not None and Path(loaded).resolve().parent != SRC / "loophom":
        job.problems.append(f"imported loophom from {loaded}, not {SRC}")
    return job


def _window(name: str, offset: int) -> range:
    argv = WORKLOADS[name].cli_calls(offset)[0]
    lo, _, hi = argv[argv.index("--components") + 1].partition("..")
    return range(int(lo), int(hi) + 1)


def _session_problems(stdout: str) -> list:
    lines = stdout.splitlines()
    problems = []
    if len(lines) != len(SESSION_CHECKS) + 1:
        return [f"expected {len(SESSION_CHECKS) + 1} lines, got {len(lines)}"]
    for check, line in zip(SESSION_CHECKS, lines):
        if not (line.startswith(f"{check} [") and line.endswith("]: Pass")):
            problems.append(f"{check} did not pass: {line[:200]}")
    if json.loads(lines[-1])["injective"] is not True:
        problems.append("hol -> loop inclusion is not injective")
    return problems


def check_output(name: str, offset: int, stdout: bytes) -> list:
    """Checks of one job's output that need no committed reference."""
    try:
        text = stdout.decode()
        if name == F3_SESSION:
            return _session_problems(text)
        json.loads(text)
        return []
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def reference_problems(name: str, offset: int, stdout: bytes, references: dict) -> list:
    """Checks against references.json; `check_output` must have passed."""
    ref = references[name]
    want = ref["stdout_sha256"].get(str(offset))
    if want is None:
        return [f"no reference for offset {offset}"]
    problems = []
    got = hashlib.sha256(stdout).hexdigest()
    if got != want:
        problems.append(f"stdout sha256 {got[:16]}... differs from the reference {want[:16]}...")
    if "induced_cells" in ref:
        cells = json.loads(stdout.decode().splitlines()[-1])["cells"]
        if cells != ref["induced_cells"]:
            problems.append("induced-map cells differ from the reference")
    return problems


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "loophom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MiB"
    if metric == "error_rate":
        return "fraction"
    if metric == "machine_speed":
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_monomial"):
        return "us"
    if metric.endswith("repeat_ratio"):
        return "ratio"
    return "count"


def timed_children(name: str, offset: int, kinds: list, seconds: float, trace: bool, references):
    """Run rounds of children, one of each kind per round, until a further
    round would pass `seconds`."""
    runs = {kind: [] for kind in kinds}
    jobs = [run_child(name, offset, "--setup")]  # writes the bytecode caches; not used
    start = perf_counter()
    rounds = 0
    while True:
        for kind in kinds:
            job = run_child(name, offset, kind)
            if kind != "--trace" and not job.problems and "calibration" not in job.report:
                job.problems.append("no calibration samples reported")
            if kind == "--setup":
                if not job.problems and "setup_s" not in job.report:
                    job.problems.append("set-up probe reported no time")
            else:
                job.problems += check_output(name, offset, job.stdout) or reference_problems(
                    name, offset, job.stdout, references
                )
            jobs.append(job)
            runs[kind].append(job)
        if trace and runs[""][-1].stdout != runs["--trace"][-1].stdout:
            runs["--trace"][-1].problems.append("traced stdout differs from untraced stdout")
        rounds += 1
        elapsed = perf_counter() - start
        # stop before a further round would overrun the measuring time
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    return jobs, runs


def normalised(time_s: float, job: Job) -> float:
    """`time_s` at the reference speed: scaled by CALIBRATION_REF_S over the
    mean calibration time the job measured while it ran."""
    return time_s * CALIBRATION_REF_S / job.report["calibration"]["mean_s"]


def net_wall_s(job: Job) -> float:
    """The job's wall time less the time its calibration runs took."""
    return job.wall_s - job.report.get("calibration", {}).get("total_s", 0.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Measure one workload. Returns attempted and failed child counts,
    the distinct problems seen, and {metric: (value, note)}."""
    offset = WORKLOADS[name].offset_for(seed)
    # One round is an untraced job plus either two set-up probes or one
    # traced job, so every kind of sample is spread over the whole run.
    kinds = ["", "--trace"] if trace else ["", "--setup", "--setup"]
    jobs, runs = timed_children(name, offset, kinds, seconds, trace, references)

    def passing(kind: str) -> list:
        """The passing children of one kind, or all of them if none passed."""
        return [j for j in runs[kind] if not j.problems] or runs[kind]

    untraced = passing("")
    values = {}
    if trace:
        traced = [j.report["trace"] for j in runs["--trace"] if "trace" in j.report]
        for metric in sorted(traced[0]) if traced else []:
            values[metric] = (
                _median([t[metric] for t in traced]),
                f"median of {len(traced)} traced jobs",
            )
        values["trace.overhead_s"] = (
            _median([j.wall_s for j in passing("--trace")])
            - _median([net_wall_s(j) for j in untraced]),
            f"median traced minus median untraced wall time, {len(untraced)} jobs each",
        )
    else:
        untraced = [j for j in untraced if "calibration" in j.report]
        setups = [j for j in passing("--setup") if "setup_s" in j.report]
        rss = [j.report["peak_rss_kb"] / 1024 for j in untraced]
        speed = _median([CALIBRATION_REF_S / j.report["calibration"]["mean_s"] for j in untraced])
        values["job_s"] = (
            _median([normalised(net_wall_s(j), j) for j in untraced]),
            f"median of {len(untraced)} jobs at the reference speed; "
            f"wall median {_median([j.wall_s for j in untraced]):.4g} s",
        )
        values["setup_s"] = (
            _median([normalised(j.report["setup_s"], j) for j in setups]),
            f"median of {len(setups)} fresh processes at the reference speed; "
            f"wall median {_median([j.report['setup_s'] for j in setups]):.4g} s",
        )
        values["peak_rss_mb"] = (_median(rss), f"median of {len(rss)} jobs")
        values["machine_speed"] = (
            speed,
            f"median over jobs of {CALIBRATION_REF_S * 1e6:g} us / mean calibration time",
        )
    failed = sum(1 for j in jobs if j.problems)
    values["error_rate"] = (failed / len(jobs), f"{failed} failed / {len(jobs)} attempted")
    return {
        "offset": offset,
        "attempted": len(jobs),
        "failed": failed,
        "problems": sorted({p for j in jobs for p in j.problems}),
        "loophom_file": next((j.report["loophom_file"] for j in jobs if j.report), None),
        "values": values,
    }


def _format(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    if not (SRC / "loophom" / "__init__.py").is_file():
        print(f"bench: no loophom package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run the loophom benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=0, help="picks each workload's window offset")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    references = json.loads(REFERENCES.read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    print("bench: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    lines = {}
    results = {}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace), references)
        window = _window(name, r["offset"])
        print(
            f"\n{name}  seed={args.seed} offset={r['offset']} "
            f"window={window.start}..{window.stop - 1} loophom={r['loophom_file']}"
        )
        for metric, (value, note) in r["values"].items():
            print(f"  {metric:<48} {_format(value):>14} {unit_of(metric):<8} {note}")
        for problem in r["problems"][:10]:
            print(f"bench: {name}: {problem}", file=sys.stderr)
        if len(r["problems"]) > 10:
            print(f"bench: {name}: {len(r['problems']) - 10} more problems", file=sys.stderr)
        results[name] = r
        lines[name] = {
            "correct": r["failed"] == 0,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {
                m["name"]: {"value": r["values"].get(m["name"], (0.0,))[0], "unit": m["unit"]}
                for m in metric_specs
            },
        }
    if len(names) > 1 and not args.trace:
        print()
        for name, r in results.items():
            cells = [
                f"{m}={_format(r['values'][m][0])} {unit_of(m)} ({r['values'][m][1].split(';')[0]})"
                for m in ("job_s", "setup_s", "peak_rss_mb", "error_rate")
            ]
            print(f"{name:<22} " + "  ".join(cells))
    print(json.dumps(lines[names[0]] if args.workload else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
