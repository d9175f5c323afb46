"""roomsense benchmark: end-to-end timings and per-layer spans of every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Without --trace, each workload gets an
untraced timing run and then a traced run, and the result holds both sets of
metrics; --trace 0 or --trace 1 runs only one of them.  Each workload runs
in fresh processes, one after another, so set-up time and peak memory belong
to that workload alone.  Timing runs (trace 0): one process that runs timed
bodies for --seconds (by default run_seconds from BENCHMARK.json), with
processes that stop at the first timed call before and after it, for
SETUP_SECONDS each side.  Traced runs (trace 1): one process that
alternates untraced and traced bodies.  Every body's outputs are checked.
The launcher runs BLAS with one thread, so that a run keeps one CPU busy.

The workloads are those listed in BENCHMARK.json.  saved-model-scoring is
kept out of that list, because its timings spread too widely between runs
on a small shared host, but --workload saved-model-scoring still runs it.

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  The metric
names and units are those listed in BENCHMARK.json; with more than one
workload each name is prefixed with its workload.  A traced run whose counts
differ between bodies or miss a sentinel is not correct.  Results, with the
environment, go to .perfbench/results/ and traced spans to .perfbench/spans/.
Exits 2 without a result if roomsense's sources (src/roomsense) are missing
or a workload process fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SECONDS = 1.5  # on set-up-only processes before, and again after, the timed process
CHILD_TIMEOUT_S = 170
EXTRA_WORKLOADS = ("saved-model-scoring",)  # runnable by name, not in BENCHMARK.json


class BenchError(RuntimeError):
    pass


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env():
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    # roomsense's matrices are a few hundred rows by 18 columns: BLAS threads
    # only add wake-ups, and a second busy CPU adds noise from the host
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def environment(nproc, env):
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": sources.hexdigest(),
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")},
    }


def spawn(env, workload, seed, seconds, trace, workdir, *extra):
    """One worker process; returns its JSON result."""
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
             str(trace), repr(t0), str(workdir), *extra],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {done.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, env):
    """Metrics (name -> value), per-metric sample statistics, and run details."""
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    if trace:
        spans_path = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
        r = spawn(env, workload, seed, seconds, 1, work / "traced", "--spans", str(spans_path))
        if "layers" not in r:
            raise BenchError(f"{workload}: no traced body completed: {r['failures']}")
        metrics = dict(r["layers"])
        traced, plain = statistics.median(r["traced_walls"]), statistics.median(r["walls"])
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - plain
        samples = {"trace.wall_s": r["traced_walls"], "untraced wall_s": r["walls"]}
    else:
        setups = []

        def sample_setups():
            start, count = time.monotonic(), len(setups)
            while len(setups) < count + 2 or time.monotonic() - start < SETUP_SECONDS:
                setups.append(spawn(env, workload, seed, seconds, 0, work / f"setup{len(setups)}",
                                    "--setup-only")["setup_s"])

        # set-up samples on both sides of the timed process, so that they
        # span the same stretch of time as its bodies
        sample_setups()
        r = spawn(env, workload, seed, seconds, 0, work / "timed")
        if not r["walls"]:
            raise BenchError(f"{workload}: no body completed: {r['failures']}")
        setups.append(r["setup_s"])
        sample_setups()
        samples = {
            "wall_s": r["walls"],
            "samples_per_s": [r["samples"] / w for w in r["walls"]],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"]],
        }
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["outputs.digest_mismatches"] = r["digest_mismatches"]
    metrics["outputs.digests_pinned"] = r["digests_pinned"]
    stats = {name: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
             for name, v in samples.items()}
    return metrics, stats, r


def report(workload, seed, trace, seconds, bench, env, env_info):
    """Run one workload, print its metrics, write its results file; returns the summary."""
    metrics, stats, r = run_workload(workload, seed, seconds, trace, env)
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {missing}")
    count_faults = metrics.get("trace.counter_mismatches", 0) + metrics.get("trace.sentinel_failures", 0)
    summary = {
        "correct": r["failed"] == 0 and count_faults == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }

    print(f"# {workload}  seed={seed}  trace={trace}  seconds={seconds}  seeds={r['seeds']}")
    for m in declared:
        value = metrics[m["name"]]
        line = f"{m['name']:<42} {value if isinstance(value, int) else format(value, '.6g'):>14} {m['unit']}"
        if m["name"] in stats:
            s = stats[m["name"]]
            line += f"   (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    print(f"{'error_rate':<42} {r['failed'] / r['attempted']:>14.6g} "
          f"({r['failed']} of {r['attempted']} operations failed)")
    if not trace:
        print(f"{'outputs.digest_mismatches':<42} {metrics['outputs.digest_mismatches']:>14} count "
              f"({metrics['outputs.digests_pinned']} digests pinned for this seed)")
    for failure in r["failures"]:
        print(f"FAILED {failure}")

    results = {
        "workload": workload, "seed": seed, "seeds": r["seeds"], "trace": trace,
        "seconds": seconds, "environment": env_info | {"blas": r["blas"]},
        "error_rate": r["failed"] / r["attempted"], "failures": r["failures"],
        "samples": stats, **summary,
    }
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def merge(parts):
    """One result from (prefix, summary) pairs; a non-empty prefix goes before metric names."""
    return {
        "correct": all(s["correct"] for _, s in parts),
        "attempted": sum(s["attempted"] for _, s in parts),
        "failed": sum(s["failed"] for _, s in parts),
        "metrics": {f"{prefix}.{name}" if prefix else name: value for prefix, s in parts
                    for name, value in s["metrics"].items()},
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = tuple(w["name"] for w in bench["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*names, *EXTRA_WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; use one outside the baseline's seeds as held out")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="how long each run runs timed bodies")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer metrics only; "
                             "default: both, one after the other")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "roomsense" / "__init__.py").is_file():
        print(f"error: roomsense sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    env_info = environment(nproc, env)

    workloads = names if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    try:
        summaries = [(w, merge([("", report(w, args.seed, trace, args.seconds, bench, env,
                                             env_info)) for trace in modes]))
                     for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summaries[0][1] if len(summaries) == 1 else merge(summaries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
