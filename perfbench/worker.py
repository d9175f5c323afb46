"""Run one workload in this fresh process and print its result as one JSON line.

Started by run.py, which passes the time it started this process (T0, from
the system-wide monotonic clock) so that set-up time counts the interpreter
start and `import roomsense`:

    worker.py WORKLOAD SEED SECONDS TRACE T0 WORKDIR [--setup-only] [--spans PATH]

With --setup-only the process exits at the first timed call.  Otherwise it
runs timed bodies back to back (one caller, closed loop) for about SECONDS,
checking each body's outputs after its timer stops.  With TRACE 1
it alternates untraced and traced bodies, so tracing overhead is the
difference between their median wall times.
"""

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import roomsense
from spans import COUNT_METRICS, LAYER_METRICS, Tracer, patched, reduce_run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "digests.json"


def blas_info():
    """BLAS library numpy was built with, and the thread count it reports."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
    except OSError:
        pass  # no /proc (not Linux) or an unloadable library: thread count unknown
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "numpy": np.__version__}


def pinned_digests(workload):
    if not PINS.is_file():
        return {}
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload.name, {})
    return pins.get(str(workload.seed) if workload.seeded_outputs else "*", {})


def timed_body(workload, index, tracer):
    """Wall time and result of one body; traced bodies time their root span."""
    if tracer is None:
        start = time.perf_counter()
        result = workload.body(index)
        return time.perf_counter() - start, result
    with patched(tracer), tracer.root("body", f"body{index}") as root:
        result = workload.body(index)
    return root["end"] - root["start"], result


def layer_metrics(tracer, workload):
    """Per-layer metrics: the set-up's spans plus the median traced body."""
    runs = {}
    for span in tracer.spans:
        runs.setdefault(span["run"], []).append(span)
    setup, _, _ = reduce_run(runs.pop("setup", []))
    bodies = [reduce_run(spans) for spans in runs.values()]
    layers = {
        m: setup[m] + (statistics.median_low if m in COUNT_METRICS else statistics.median)(
            b[0][m] for b in bodies)
        for m in LAYER_METRICS
    }
    first = bodies[0][0]
    layers["trace.counter_mismatches"] = sum(
        any(b[0][m] != first[m] for m in COUNT_METRICS) for b in bodies[1:])
    layers["trace.sentinel_failures"] = sum(
        b[0][m] != want for b in bodies for m, want in workload.sentinels.items())
    layers["trace.span_coverage"] = statistics.median(covered / wall for _, wall, covered in bodies)
    return layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("t0", type=float)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()
    if not Path(roomsense.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: imported roomsense from {roomsense.__file__}, not {ROOT / 'src'}")

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        with patched(tracer), tracer.root("setup", "setup"):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    pins = pinned_digests(workload)
    walls = {False: [], True: []}
    attempted, failures, mismatched, first_digests = 0, [], set(), None
    peak_rss_mb = None
    deadline = time.monotonic() + args.seconds
    index = 0
    while True:
        started = time.monotonic()
        for traced in (False, True) if tracer else (False,):
            try:
                wall, result = timed_body(workload, index, tracer if traced else None)
                if peak_rss_mb is None:
                    # set-up plus one body, as one run of the program; later
                    # bodies would let heap growth depend on how many fit
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                outcome = workload.check(result)
            except Exception:  # noqa: BLE001 - a raising body is a failed operation
                traceback.print_exc()
                attempted += workload.operations
                failures += [f"body {index}: raised"] * workload.operations
                deadline = 0  # stop: the run is already incorrect
                break
            walls[traced].append(wall)
            attempted += outcome.attempted
            failures += [f"body {index}: {op}: {msg}" for op, msg in outcome.failures.items()]
            first_digests = first_digests or outcome.digests
            for name in set(pins) | set(first_digests) | set(outcome.digests):
                got = outcome.digests.get(name)
                if got != first_digests.get(name) or (pins and got != pins.get(name)):
                    mismatched.add(name)
            index += 1
        # stop when another round would end nearer after the deadline than before it
        now = time.monotonic()
        if now + (now - started) / 2 >= deadline:
            break

    result = {
        "setup_s": setup_s,
        "samples": workload.samples,
        "walls": walls[False],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digest_mismatches": len(mismatched),
        "digests_pinned": len(pins),
        "peak_rss_mb": peak_rss_mb,
        "seeds": workload.seeds(),
        "blas": blas_info(),
    }
    if tracer:
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(args.spans)
        result["traced_walls"] = walls[True]
        if walls[True]:
            result["layers"] = layer_metrics(tracer, workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
