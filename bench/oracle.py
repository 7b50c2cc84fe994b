"""Independent checks of the artifacts one CLI run writes.

Nothing here calls into ``bundle_newton``.  The discrete stationarity
residual of the final state is recomputed from ``curve.csv`` with plain
vectorized numpy: the Euclidean nodal residual covectors of the P1
discretization, projected onto each node's tangent plane, so that no
choice of tangent basis enters.  The residual bound follows from the
stopping rule: the run stops at a state whose Newton step ``dx`` satisfies
``|dx|_inf <= tol``, so its residual ``-A dx`` is at most ``tol`` times the
row-sum norm of the Newton matrix ``A``.  The bounds below allow a factor
``SLACK`` over that row-sum estimate.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SLACK = 10.0
UNIT_NORM_TOL = 1e-12


class OracleError(Exception):
    """The artifacts of a run fail an independent check."""


def read_meta(path) -> dict:
    meta = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise OracleError(f"malformed meta.txt line {line!r}")
        meta[key] = value
    return meta


def read_curve(path, header: str) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise OracleError(f"curve.csv header is {lines[:1]!r}, expected {header!r}")
    try:
        return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise OracleError(f"curve.csv holds a non-number: {exc}") from exc


def triple(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _tangent_part(points: np.ndarray, covectors: np.ndarray) -> np.ndarray:
    """Nodal 2-norms of ``covectors`` projected onto the tangent planes at ``points``."""
    radial = np.sum(points * covectors, axis=1, keepdims=True)
    return np.linalg.norm(covectors - radial * points, axis=1)


def _winding_force(y: np.ndarray, scale: float) -> np.ndarray:
    rho2 = y[:, 0] ** 2 + y[:, 1] ** 2
    azimuthal = np.stack([-y[:, 1], y[:, 0], np.zeros(len(y))], axis=1)
    return (scale * y[:, 2] / rho2)[:, None] * azimuthal


def _check_sphere_curve(curve: np.ndarray, meta: dict, tol: float, h: float) -> None:
    pts = curve[:, 1:4]
    y = pts[1:-1]
    if meta["problem"] == "geodesic-force":
        scale = float(meta["force_scale"])
        force = _winding_force(y, scale)
        # |d force / dy| <= 3 scale / rho^2 on the unit sphere
        lipschitz = 3.0 * scale / np.min(y[:, 0] ** 2 + y[:, 1] ** 2)
    else:
        h_ref = float(meta["h_ref"])
        ceiling = 1.0 - h_ref + float(meta["violation_tol"])
        _require(
            np.max(pts[:, 2]) <= ceiling,
            f"curve rises to z = {np.max(pts[:, 2]):.17g} above the cap bound {ceiling:.17g}",
        )
        p = float(meta["result_final_p"])
        force = p * np.maximum(0.0, y[:, 2] - 1.0 + h_ref)[:, None] * np.array([0.0, 0.0, 1.0])
        lipschitz = p
    residual = (2.0 * y - pts[:-2] - pts[2:]) / h + h * force
    worst = float(np.max(_tangent_part(y, residual)))
    bound = SLACK * tol * (4.0 / h + h * lipschitz)
    _require(worst <= bound, f"stationarity residual {worst:.3e} exceeds {bound:.3e}")


def _check_rod(curve: np.ndarray, meta: dict, tol: float, h: float) -> None:
    sigma = float(meta["sigma"])
    pos, dirs, lam_nodes = curve[:, 1:4], curve[:, 4:7], curve[:, 7:10]
    _require(
        np.array_equal(lam_nodes[0], lam_nodes[1]),
        "node 0 does not repeat the multiplier of the first interval",
    )
    lam = lam_nodes[1:]  # one row per interval
    v = dirs[1:-1]
    r_pos = lam[:-1] - lam[1:]
    r_dir = sigma * (2.0 * v - dirs[:-2] - dirs[2:]) / h - 0.5 * h * (lam[:-1] + lam[1:])
    constraint = np.diff(pos, axis=0) / h - 0.5 * (dirs[:-1] + dirs[1:])
    # row-sum norms of the position, direction and multiplier rows of A
    for name, worst, row_norm in (
        ("position", np.max(np.linalg.norm(r_pos, axis=1)), 2.0),
        ("direction", np.max(_tangent_part(v, r_dir)), 4.0 * sigma / h + 2.0),
        ("constraint", h * np.max(np.linalg.norm(constraint, axis=1)), 2.0 + h),
    ):
        bound = SLACK * tol * row_norm
        _require(worst <= bound, f"rod {name} residual {worst:.3e} exceeds {bound:.3e}")


_HEADERS = {
    "geodesic-force": "t,x,y,z",
    "obstacle": "t,x,y,z",
    "rod": "t,x,y,z,vx,vy,vz,lx,ly,lz",
}


def check_run(out_dir, expected: dict) -> None:
    """Check the artifacts in ``out_dir`` of a run started with ``expected``.

    ``expected`` maps ``meta.txt`` keys to the values the run was asked for
    (``problem``, ``n``, ``tol``, boundary triples, ...); each must appear
    in ``meta.txt`` with that value.  Raises :class:`OracleError` on the
    first failed check.
    """
    out_dir = Path(out_dir)
    meta = read_meta(out_dir / "meta.txt")
    for key, want in expected.items():
        _require(key in meta, f"meta.txt lacks {key!r}")
        got = meta[key]
        if isinstance(want, str):
            same = got == want
        elif isinstance(want, tuple):
            same = np.array_equal(triple(got), np.array(want))
        else:
            same = float(got) == want
        _require(same, f"meta.txt has {key} = {got}, the run asked for {want!r}")
    _require(
        meta.get("result_status") == "converged",
        f"result_status is {meta.get('result_status')!r}",
    )
    tol = float(meta["tol"])
    final_norm_dx = float(meta["result_final_norm_dx"])
    _require(final_norm_dx <= tol, f"result_final_norm_dx {final_norm_dx:.3e} exceeds tol")

    problem = meta["problem"]
    n = int(meta["n"])
    h = float(meta["t_end"]) / (n + 1)
    curve = read_curve(out_dir / "curve.csv", _HEADERS[problem])
    _require(curve.shape[0] == n + 2, f"curve.csv has {curve.shape[0]} rows for n = {n}")
    grid = np.linspace(0.0, float(meta["t_end"]), n + 2)
    _require(
        np.allclose(curve[:, 0], grid, rtol=0.0, atol=1e-14),
        "curve.csv t column is not the uniform grid",
    )
    unit = curve[:, 4:7] if problem == "rod" else curve[:, 1:4]
    drift = float(np.max(np.abs(np.linalg.norm(unit, axis=1) - 1.0)))
    _require(drift <= UNIT_NORM_TOL, f"nodes leave the unit sphere by {drift:.3e}")

    if problem == "rod":
        ends = {"y0": curve[0, 1:4], "y1": curve[-1, 1:4], "v0": curve[0, 4:7], "v1": curve[-1, 4:7]}
    else:
        ends = {"gamma0": curve[0, 1:4], "gammaT": curve[-1, 1:4]}
    for key, row in ends.items():
        _require(np.array_equal(row, triple(meta[key])), f"endpoint {key} moved to {row}")

    if problem == "rod":
        _check_rod(curve, meta, tol, h)
    else:
        _check_sphere_curve(curve, meta, tol, h)
