"""Set-up probe: what a fresh `kummerlab` CLI invocation pays before its command runs.

Imports `kummerlab.cli`, parses each spec and, with --calibrate, does the
first-call curvature calibration. `run.py` times this whole process from
outside, so interpreter start-up is included. The probe samples its own
contention throughout (see contention.py) and prints the samples as the
last line of its output. Run from the checkout root:

    python3 perfbench/probe.py [--calibrate] SPEC...
"""

import json
import sys

from contention import Sampler

SAMPLE_INTERVAL_S = 0.015

with Sampler(SAMPLE_INTERVAL_S) as sampler:
    sys.path.insert(0, "src")

    import kummerlab.cli  # noqa: E402,F401  (the import is what is measured)
    from kummerlab import curvature  # noqa: E402
    from kummerlab.specfile import parse_construction  # noqa: E402

    args = sys.argv[1:]
    calibrate = "--calibrate" in args
    for path in (a for a in args if a != "--calibrate"):
        parse_construction(path)
    if calibrate:
        curvature.calibration()
print(json.dumps({"samples": sampler.samples}))
