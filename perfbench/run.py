"""The optevo benchmark: workloads through the public CLI, one child process each.

    python3 perfbench/run.py --workload evolve-toy --seed 0 --seconds 30 --trace 0

Each workload (see workloads.py and README.md) is made from --seed. For
--seconds the benchmark starts fresh `optevo` CLI processes one after the
other (child.py), with --workers 1 and BLAS pinned to one thread, and checks
every process's results against the digest recorded for that seed in
digests.json (or, for a seed without one, against the run's first process).

--trace 0 reports the end-to-end metrics, each the median over the processes
of the run. --trace 1 alternates untraced and traced processes; the traced
ones carry timing wrappers around each optevo module (tracing.py) and give
the per-layer metrics, and the pair gives the tracing overhead.
--workload all runs every workload in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give each metric's median, quartiles and sample
count, and the environment; perfbench/.work/results/ keeps every sample.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

WORKERS = 1
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120

# name -> (unit, better); all measured with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "candidates_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


class ChildFailed(Exception):
    pass


def child_env(extra: dict) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def run_child(cli_argv: list, child_dir: Path, trace: bool, env: dict) -> dict:
    """Run one CLI process to its end; returns its timings and report."""
    child_dir.mkdir(parents=True)
    report_path = child_dir / "child.json"
    run_dir = child_dir / "run"
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
           "1" if trace else "0", "--", *cli_argv,
           "--workers", str(WORKERS), "--run-dir", str(run_dir)]
    with open(child_dir / "stdout.txt", "wb") as out, \
            open(child_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=child_dir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (child_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"exit code {proc.returncode}: {tail.strip()}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["first_train"] is None:
        raise ChildFailed("no training started")
    return {
        "run_dir": run_dir,
        "wall_s": ended - spawned,
        "setup_s": report["first_train"] - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "import_s": report["import_s"],
        "blas": report["blas"],
        "trace": report["trace"],
    }


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_child(workload, sample: dict, expected: str | None) -> list:
    """Result problems of one finished child; empty when it is correct."""
    run_dir = sample["run_dir"]
    problems = list(workload.problems(run_dir))
    digest = workload.digest(run_dir)
    sample["digest"] = digest
    if expected is not None and digest != expected:
        problems.append(f"result digest {digest[:12]} differs from {expected[:12]}")
    if sample["trace"] is not None:
        missing = tracing.missing_spans(workload.name, sample["trace"])
        if missing:
            problems.append(f"spans never fired: {', '.join(missing)}")
    return problems


def attempt(workload, cli_argv: list, child_dir: Path, trace: bool, env: dict,
            expected: str | None) -> tuple:
    """Run and check one child; returns (sample, problems)."""
    try:
        sample = run_child(cli_argv, child_dir, trace, env)
        problems = check_child(workload, sample, expected)
        sample["candidates"] = workload.candidates(sample.pop("run_dir"))
    except (ChildFailed, OSError, ValueError, KeyError) as e:
        return None, [f"{type(e).__name__}: {e}"]
    return sample, problems


def summarize(values: list) -> dict:
    values = sorted(values)
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "min": values[0],
            "max": values[-1], "n": len(values)}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workers": WORKERS,
        "src_lines": src_lines(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for `seconds`; returns the run's summary."""
    workload = WORKLOADS[name]
    expected = load_digests().get(name, {}).get(str(seed))
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli_argv = workload.prepare(seed, work)
        env = child_env({"OPTEVO_DATA_DIR": str(work / "data")})
        plain, traced, failures, unit_s = [], [], [], []
        started = time.monotonic()
        while True:
            unit_started = time.monotonic()
            # in trace mode one unit is an untraced and a traced process, in
            # alternating order so that drift favours neither
            kinds = [False, True] if trace else [False]
            if len(unit_s) % 2:
                kinds.reverse()
            for kind in kinds:
                k = len(plain) + len(traced) + len(failures)
                sample, problems = attempt(workload, cli_argv, work / f"c{k}",
                                           kind, env, expected)
                if not problems and expected is None:
                    first = (plain + traced or [sample])[0]
                    if sample["digest"] != first["digest"]:
                        problems.append("result digest differs between processes of one run")
                if problems:
                    failures.append(problems)
                    print(f"{name} process {k} failed: {'; '.join(problems)}",
                          file=sys.stderr)
                    continue
                (traced if kind else plain).append(sample)
                shutil.rmtree(work / f"c{k}", ignore_errors=True)
            unit_s.append(time.monotonic() - unit_started)
            if time.monotonic() - started + statistics.median(unit_s) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "expected_digest": expected,
        "blas": (plain + traced)[0]["blas"] if plain + traced else {},
        "attempted": len(plain) + len(traced) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "metrics": trace_metrics(traced, plain) if trace else end_to_end_metrics(plain),
        "samples": plain + traced,
    }


def end_to_end_metrics(samples: list) -> dict:
    for s in samples:
        s["candidates_per_s"] = s["candidates"] / (s["wall_s"] - s["setup_s"])
    return {
        name: {"unit": unit, **summarize([s[name] for s in samples])}
        for name, (unit, _better) in END_TO_END.items()
    } if samples else {}


def trace_metrics(traced: list, plain: list) -> dict:
    if not (traced and plain):
        return {}
    per_child = [tracing.layer_metrics(s["trace"], s["import_s"]) for s in traced]
    out = {
        name: {"unit": unit, **summarize([m[name] for m in per_child])}
        for name, (unit, _better) in tracing.LAYER_METRICS.items()
        if name != "trace.overhead"
    }
    overhead = (statistics.median(s["wall_s"] for s in traced)
                / statistics.median(s["wall_s"] for s in plain) - 1.0)
    out["trace.overhead"] = {"unit": "ratio", **summarize([overhead])}
    return out


def print_table(result: dict, env: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{result['failed']}/{result['attempted']} processes failed")
    print(f"  {'metric':<26} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['unit']:<6} {m['median']:>12.6g} "
              f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>3}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "optevo" / "cli.py").is_file():
        print(f"error: no optevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        result_env = {**env, **result.pop("blas")}
        print_table(result, result_env)
        out = WORK / "results" / (
            f"{result['workload']}-s{args.seed}-trace{args.trace}.json")
        out.write_text(json.dumps({"environment": result_env, **result}, indent=2),
                       encoding="utf-8")
    if any(not r["metrics"] for r in results):
        print("error: no process of some workload succeeded", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name:
            {"value": m["median"], "unit": m["unit"]}
        for r in results for name, m in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
