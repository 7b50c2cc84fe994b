#!/usr/bin/env python3
"""Elastic geodesic in the winding force field, for several grid sizes."""

import sys

from bundle_newton.cli import main

if __name__ == "__main__":
    codes = [
        main(["geodesic-force", "--n", str(n), "--out-dir", f"out/geodesic_force_n{n}"])
        for n in (100, 1000, 10000)
    ]
    # every case runs; the first failure decides the exit code
    sys.exit(next((code for code in codes if code), 0))
