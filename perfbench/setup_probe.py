"""Set-up cost in a fresh interpreter: import brokerlab, parse every scenario.

Usage: python3 setup_probe.py SRC_DIR < scenarios.json
Reads a JSON list of scenario payloads from stdin (not timed), then prints
the seconds spent importing the package from SRC_DIR and parsing them all,
at reference host speed (see hostspeed.py): the slowdown is measured by
slices timed in this process just before and just after.
"""

import json
import statistics
import sys
import time

from hostspeed import REFERENCE_SLICE_NS, WINDOW, calibration_slice


def main() -> int:
    payloads = json.load(sys.stdin)
    before = [calibration_slice() for _ in range(WINDOW)]
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from brokerlab.scenario import parse_scenario

    for payload in payloads:
        parse_scenario(payload)
    elapsed = time.perf_counter() - start
    after = [calibration_slice() for _ in range(WINDOW)]
    print(elapsed / (statistics.median(before + after) / REFERENCE_SLICE_NS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
