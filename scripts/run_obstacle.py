#!/usr/bin/env python3
"""Obstacle-avoiding geodesics for both cap heights."""

import sys

from bundle_newton.cli import main

if __name__ == "__main__":
    codes = [
        main(
            [
                "obstacle",
                "--n",
                "100",
                "--h-ref",
                h_ref,
                "--out-dir",
                f"out/obstacle_href{h_ref}",
            ]
        )
        for h_ref in ("0.1", "0.2")
    ]
    # every case runs; the first failure decides the exit code
    sys.exit(next((code for code in codes if code), 0))
