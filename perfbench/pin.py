"""Pin the SHA-256 digests of every workload's outputs into digests.json.

    python3 perfbench/pin.py

Runs each workload's set-up and one body per seed, in this process and
untimed, and records the digests of the outputs whose bytes are pinned:
the 13 files of `roomsense benchmark --seed 42` (seed independent), the
building-featurize feature CSV and the saved-model-scoring predictions (one
per seed in SEEDS).  Outputs that fail their checks are not pinned.  Run it on the
commit whose outputs are the reference; a change that alters outputs on
purpose re-pins and says which outputs changed and why.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402 - needs the sources on sys.path

SEEDS = range(0, 41)


def digests_for(cls, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(seed, workdir)
        workload.setup()
        outcome = workload.check(workload.body(0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.failures:
        raise SystemExit(f"error: {cls.name} seed {seed} fails its checks: {outcome.failures}")
    return outcome.digests


def main():
    workdir = ROOT / ".perfbench" / "work" / "pin"
    pins = {}
    for name, cls in WORKLOADS.items():
        seeds = SEEDS if cls.seeded_outputs else ["*"]
        pins[name] = {}
        for seed in seeds:
            pins[name][str(seed)] = digests_for(cls, 0 if seed == "*" else seed, workdir)
            print(f"pinned {name} seed {seed}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
