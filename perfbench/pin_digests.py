"""Pin the ``reference`` backend's result digests for the default seeds.

    python3 perfbench/pin_digests.py --seeds 0-9

Runs every workload once per seed under the ``reference`` backend and
records the aggregate digest of its results in ``digests.json``, under the
fingerprint of this environment (numpy build and CPU features); pins of
other fingerprints are kept.  ``run.py`` fails a run whose ``reference``
result disagrees with its pin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as bench  # pins the BLAS threads before numpy loads

sys.path.insert(0, bench.SRC)

from workloads import WORKLOADS, aggregate_digest  # noqa: E402


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--workload", choices=tuple(WORKLOADS), action="append")
    args = parser.parse_args(argv)

    pins = bench.load_pins()
    mine = pins.setdefault(bench.fingerprint(), {})
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            with bench.reference_backend():
                outcome = workload.iterate(workload.setup(seed), bench.WORK_DIR)
            if any(d is None for d in outcome.digests):
                print(f"{name} seed {seed}: an operation raised", file=sys.stderr)
                return 1
            mine.setdefault(name, {})[str(seed)] = aggregate_digest(outcome.digests)
            print(f"{name} seed {seed}: {mine[name][str(seed)]}", flush=True)
    with open(bench.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
