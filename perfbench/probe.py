"""One set-up of the benchmark, timed from a fresh interpreter.

Times what a user pays before the first simulated ACT: importing the
program, loading the compiled kernel provider and generating the
workload's inputs. After the timed part it times the calibration loop
a few times, so that run.py can scale the set-up time to the
reference host speed. run.py starts this several times per run and
reports the median as ``setup_s``. Prints one JSON line.

    python3 perfbench/probe.py --workload paper-scenarios --seed 1
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.kernels  # noqa: E402

import benchstats  # noqa: E402
import workloads  # noqa: E402

CALIBRATIONS = 3


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    provider = repro.kernels.provider()
    workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - STARTED
    calibration_s = statistics.median(
        benchstats.calibration_loop() for _ in range(CALIBRATIONS))
    print(json.dumps({
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "provider": provider,
    }))


if __name__ == "__main__":
    main()
