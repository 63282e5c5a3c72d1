#!/usr/bin/env python3
"""Sweep the input current across the Hopf threshold and report, for each
value, the closed-form classification and (in the oscillatory range) the
numerically detected limit-cycle period.

Usage:
    python scripts/hopf_sweep.py --start 5.0 --stop 8.0 --step 0.25
"""

import argparse

import numpy as np

from fhn_meanfield import LimitState, ModelParams, classify, detect_limit_cycle
from fhn_meanfield.bifurcation import OSCILLATORY


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=0.01)
    parser.add_argument("--b", type=float, default=0.1)
    parser.add_argument("--lam", "--lambda", dest="lam", type=float, default=4.0)
    parser.add_argument("--start", type=float, default=5.0)
    parser.add_argument("--stop", type=float, default=8.0)
    parser.add_argument("--step", type=float, default=0.25)
    args = parser.parse_args()

    print(f"{'i_ext':>8} {'regime':>18} {'v*':>8} {'trace':>9} {'period':>8}")
    for i0 in np.arange(args.start, args.stop + 1e-9, args.step):
        p = ModelParams(a=args.a, b=args.b, lam=args.lam, i_ext=float(i0))
        rep = classify(p)
        e = rep.equilibria[0]
        period = ""
        if rep.regime == OSCILLATORY:
            cycle = detect_limit_cycle(p, LimitState(0.0, e.v + 0.5, e.x))
            if cycle is not None:
                period = f"{cycle.period:8.2f}"
        print(f"{i0:8.3f} {rep.regime:>18} {e.v:8.4f} {e.trace:9.4f} {period:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
