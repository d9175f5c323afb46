"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--write]

Runs run.py once per workload and seed (SEEDS untraced, TRACE_SEEDS traced),
one run after another, and reports
for every metric the median and quartiles of the per-run values (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median.  End-to-end metrics are flagged when their spread is
above a third of the bound in BENCHMARK.json, and, when perfbench/baseline.json
exists, when their median is worse than the recorded one by more than the
bound.  setup_s is flagged like the others.  The traced runs give the
per-layer figures; each count
is marked with whether it repeated exactly across those runs, and counts
that did not are listed.  With --write the figures go to
perfbench/baseline.json, the reference for later comparisons; seeds outside
the ones recorded there are held out.  Exits 1 when anything is flagged.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(details.read_text(encoding="utf-8"))["environment"]


def summarize(values):
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
            "values": values}


def measure(workload, seeds, trace, declared):
    per_metric = {m["name"]: [] for m in declared}
    attempted = failed = 0
    environment = None
    for seed in seeds:
        started = time.monotonic()
        result, environment = run(workload, seed, trace)
        took = time.monotonic() - started
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            per_metric[name].append(metric["value"])
        status = "ok" if result["correct"] else "INCORRECT"
        print(f"  {workload} seed {seed} trace {trace}: {status} ({took:.1f} s)", flush=True)
    return {name: summarize(v) for name, v in per_metric.items()}, attempted, failed, environment


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args()

    recorded = HERE / "baseline.json"
    before = json.loads(recorded.read_text(encoding="utf-8"))["workloads"] if recorded.is_file() else {}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    baseline = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS),
                "trace_seeds": list(TRACE_SEEDS), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        e2e, attempted, failed, environment = measure(workload, SEEDS, 0, bench["end_to_end"])
        entry = {"end_to_end": e2e, "attempted": attempted, "failed": failed}
        for m in bench["end_to_end"]:
            s = e2e[m["name"]]
            flags = []
            if s["spread"] is None or s["spread"] > m["bound"] / 3:
                flags.append("spread above a third of the bound")
            old = before.get(workload, {}).get("end_to_end", {}).get(m["name"])
            worse = ""
            if old:
                change = (s["median"] - old["median"]) / old["median"]
                worse = f" worse {change if m['better'] == 'lower' else -change:+.4f}"
                if (change if m["better"] == "lower" else -change) > m["bound"]:
                    flags.append("median worse than baseline.json by more than the bound")
            steady = steady and not flags
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:<20} {m['name']:<14} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread} "
                  f"bound {m['bound']}{worse}" + "".join(f"  <-- {f}" for f in flags))
        layers, _, _, _ = measure(workload, TRACE_SEEDS, 1, bench["per_layer"])
        for name, s in layers.items():
            if units[name] == "count":
                s["repeats"] = len(set(s["values"])) == 1
        varied = [n for n, s in layers.items() if s.get("repeats") is False]
        print(f"{workload:<20} counts that differ between traced runs: {varied or 'none'}")
        entry["per_layer"] = layers
        entry["environment"] = environment
        baseline["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: see the flagged metrics above")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
