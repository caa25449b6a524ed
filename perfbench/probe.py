"""Set-up probe: one fresh process imports psq and makes a first call.

    python3 perfbench/probe.py --module psq --warmup threshold_sweep

Prints one JSON line with the import time, the import plus first call
time, whether scipy.optimize was loaded by the import, and the time of
the calibration loop measured after them.  The caller puts the psq
sources on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time

# Times are reported in reference seconds: measured seconds scaled by
# CALIBRATION_REF_S over the current time of calibrate().  Other tenants
# of a shared machine change its speed by tens of percent within
# minutes; the scaling takes that out.  CALIBRATION_REF_S is about what
# the loop takes on a 2-core 2.1 GHz Xeon VM under Python 3.11.
CALIBRATION_ITERS = 40_000
CALIBRATION_REF_S = 0.003


def calibrate() -> float:
    """Seconds the machine takes now for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERS):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def _warm_cli(psq):
    from psq.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(["sup-q", "--nx", "2", "--ny", "2"], standalone_mode=False)


def _warm_sweep(psq):
    psq.compute_bd(8)


def _warm_quotient(psq):
    from fractions import Fraction

    psq.quotient_q([1.0, 0.5], [0.25])
    psq.quotient_q([1, Fraction(1, 2)], [Fraction(1, 4)])


def _warm_general(psq):
    import numpy as np

    m = np.full((4, 4), 0.5)
    np.fill_diagonal(m, 1.0)
    psq.certify_general(m)
    psq.brute_force_sup(2, 1, n_starts=8, seed=7, n_jobs=1)


# The first call a user of each workload makes; run once before timing.
WARMUPS = {
    "cli_cold": _warm_cli,
    "threshold_sweep": _warm_sweep,
    "quotient_bulk": _warm_quotient,
    "general_search": _warm_general,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--module", choices=("psq", "psq.cli"), required=True)
    ap.add_argument("--warmup", choices=sorted(WARMUPS), required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    if args.module == "psq.cli":
        import psq.cli  # noqa: F401
    import psq

    t1 = time.perf_counter()
    loaded = "scipy.optimize" in sys.modules
    WARMUPS[args.warmup](psq)
    t2 = time.perf_counter()
    calib = statistics.median(calibrate() for _ in range(5))
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "scipy_optimize_loaded": loaded, "calib_s": calib}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
