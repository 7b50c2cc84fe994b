"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np
import pytest

from bundle_newton import (
    Grid,
    NewtonConfig,
    NodalCurve,
    Termination,
    damped_newton,
    fem1d,
    tangent_basis,
)
from bundle_newton.newton import ProblemInterface
from bundle_newton.problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    RodProblem,
    obstacle_path_follow,
)
from conftest import (
    banded_from_dense,
    jacobian_at,
    random_banded,
    random_block_tridiag,
    random_obstacle_curve,
    random_rod_state,
    random_sphere_curve,
    random_tangent,
    random_unit,
    residual_at,
    to_dense,
)
from oracles import constrained_hessian_apply, normal_multiplier


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# -- criterion 1: Jacobian consistency suite -----------------------------------------


def test_criterion_1_jacobian_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    grid = Grid(1.0, 8)
    step = 1e-5
    worst = 0.0

    def states():
        geo = GeodesicForceProblem(grid)
        obs = ObstacleProblem(grid, h_ref=0.3).replace(p=2.0)
        rod = RodProblem(grid)
        for _ in range(20):
            yield geo, random_sphere_curve(grid, rng, z_margin=0.05)
        for _ in range(20):
            yield obs, random_obstacle_curve(grid, rng, obs)
        for _ in range(20):
            yield rod, random_rod_state(grid, rng)

    for problem, state in states():
        A = jacobian_at(problem, state)
        dense = to_dense(A)
        for _ in range(10):
            xi = rng.standard_normal(A.dim)
            xi /= np.abs(xi).max()
            jxi = dense @ xi
            plus = residual_at(problem, problem.retract(state, xi, step), state)
            minus = residual_at(problem, problem.retract(state, xi, -step), state)
            fd = (plus - minus) / (2.0 * step)
            worst = max(worst, np.abs(jxi - fd).max() / (1.0 + np.abs(jxi).max()))
    elapsed = time.monotonic() - t0
    report(
        1,
        worst <= 1e-6 and elapsed < 30.0,
        f"3 problems x 20 states x 10 directions, worst relative FD error "
        f"{worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


# -- criterion 2: force-free geodesic, undamped Newton, O(h^2) geometry ----------------


def _circle_deviation(points, gamma0, gammaT, midpoints=True):
    """Max distance of the discrete curve (nodes and, by default, interval
    midpoints) from the great circle through the boundary points."""
    normal = np.cross(gamma0, gammaT)
    normal /= np.linalg.norm(normal)
    samples = points
    if midpoints:
        samples = np.vstack([points, 0.5 * (points[:-1] + points[1:])])
    in_plane = samples - np.outer(samples @ normal, normal)
    closest = in_plane / np.linalg.norm(in_plane, axis=1, keepdims=True)
    return float(np.linalg.norm(samples - closest, axis=1).max())


def test_criterion_2_force_free_geodesic():
    rng = np.random.default_rng(102)
    cfg = NewtonConfig(theta_acc=math.inf)  # undamped: accept every full step
    deviations = {}
    counts = {}
    final_norms = {}
    for n in (50, 100):
        grid = Grid(1.0, n)
        problem = GeodesicForceProblem(grid, force_scale=0.0)
        start = problem.initial_state()
        pts = start.points.copy()
        for i in range(1, grid.n_nodes - 1):
            pts[i] = pts[i] + 1e-3 * random_tangent(rng, pts[i])
            pts[i] /= np.linalg.norm(pts[i])
        solution, trace = damped_newton(problem, NodalCurve(grid, pts), cfg)
        assert trace.terminated is Termination.CONVERGED
        counts[n] = len(trace.iterations)
        final_norms[n] = trace.iterations[-1].norm_dx
        deviations[n] = _circle_deviation(solution.points, problem.gamma0, problem.gammaT)
        # the nodal points themselves sit on the circle far below C h^2
        nodal_only = _circle_deviation(
            solution.points, problem.gamma0, problem.gammaT, midpoints=False
        )
        assert nodal_only <= grid.h**2
    ratio = deviations[50] / deviations[100]
    ok = (
        all(c <= 4 for c in counts.values())
        and all(v <= 1e-10 for v in final_norms.values())
        and 3.2 <= ratio <= 4.8
    )
    report(
        2,
        ok,
        f"iterations {counts[50]}/{counts[100]} (<= 4), final |dx| "
        f"{final_norms[50]:.1e}/{final_norms[100]:.1e} (<= 1e-10), curve-to-circle "
        f"deviation ratio N=50 to N=100 is {ratio:.2f} (in [3.2, 4.8])",
    )


# -- criteria 3 and 4: winding force, mesh independence and superlinear tail ------------

_criterion3_traces = {}


def test_criterion_3_mesh_independent_convergence():
    counts = {}
    elapsed = {}
    for n in (100, 1000):
        grid = Grid(1.0, n)
        problem = GeodesicForceProblem(grid)
        t0 = time.monotonic()
        _, trace = damped_newton(problem, problem.initial_state(), NewtonConfig())
        elapsed[n] = time.monotonic() - t0
        assert trace.terminated is Termination.CONVERGED
        counts[n] = len(trace.iterations)
        _criterion3_traces[n] = trace
    ok = (
        all(c <= 8 for c in counts.values())
        and abs(counts[100] - counts[1000]) <= 1
        and elapsed[1000] < 10.0
    )
    report(
        3,
        ok,
        f"iteration counts N=100: {counts[100]}, N=1000: {counts[1000]} "
        f"(<= 8, differ by <= 1), N=1000 runtime {elapsed[1000]:.2f}s (< 10s)",
    )


def test_criterion_4_superlinear_tail():
    assert _criterion3_traces, "criterion 3 must run first"
    ok = True
    pairs = []
    for trace in _criterion3_traces.values():
        norms = [it.norm_dx for it in trace.iterations]
        for a, b in zip(norms, norms[1:]):
            if a < 1e-2:
                pairs.append((a, b))
                ok = ok and b <= a**1.2
    report(
        4,
        ok and pairs,
        f"{len(pairs)} consecutive steps below 1e-2 all satisfy "
        "|dx_next| <= |dx|^1.2",
    )


# -- criterion 5: obstacle path following ------------------------------------------------


def test_criterion_5_obstacle_path_following():
    t0 = time.monotonic()
    details = []
    ok = True
    for h_ref in (0.1, 0.2):
        grid = Grid(1.0, 100)
        problem = ObstacleProblem(grid, h_ref=h_ref)  # p = P0 = 1, growth cap 4
        result = obstacle_path_follow(problem, NewtonConfig())
        zmax = float(result.state.points[:, 2].max())
        stage_ok = all(
            s.terminated is Termination.CONVERGED for s in result.stages
        )
        endpoints_ok = np.array_equal(
            result.state.points[0], problem.gamma0
        ) and np.array_equal(result.state.points[-1], problem.gammaT)
        violations = [s.problem.violation(s.state) for s in result.stages]
        monotone = all(b <= a + 1e-15 for a, b in zip(violations, violations[1:]))
        converged = result.terminated is Termination.CONVERGED
        ok = ok and converged and stage_ok and endpoints_ok and monotone
        # the final curve hugs the cap from below
        ok = ok and 1.0 - h_ref - 1e-3 <= zmax <= 1.0 - h_ref + 1e-3
        details.append(f"h_ref={h_ref}: max z {zmax:.6f} in band around {1 - h_ref}, "
                       f"{len(result.stages)} stages, violations monotone")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(5, ok, "; ".join(details) + f"; total {elapsed:.1f}s (< 60s)")


# -- criterion 6: inextensible rod ---------------------------------------------------------


def test_criterion_6_rod():
    grid = Grid(1.0, 100)
    problem = RodProblem(grid)  # reference boundary data, sigma = 1, no force
    state, trace = damped_newton(problem, problem.initial_state(), NewtonConfig())
    alphas = [it.accepted_alpha for it in trace.iterations if it.inner_trials > 0]
    # Newton steps move the iterate; the trailing row, with no trials, is the
    # convergence row
    steps = len(alphas)
    first_full = alphas.index(1.0) if 1.0 in alphas else None
    damped_early = any(a < 1.0 for a in alphas[: first_full or len(alphas)])
    full_after = first_full is not None and all(a == 1.0 for a in alphas[first_full:])
    constraint = float(np.abs(state.constraint_residuals()).max())
    vnorm_err = float(np.abs(np.linalg.norm(state.v.points, axis=1) - 1.0).max())
    ok = (
        trace.terminated is Termination.CONVERGED
        and trace.iterations[-1].norm_dx <= 1e-10
        and steps <= 15
        and damped_early
        and full_after
        and constraint <= 1e-8
        and vnorm_err <= 1e-12
    )
    report(
        6,
        ok,
        f"{steps} Newton steps (<= 15; {len(trace.iterations)} outer rows incl. convergence row), "
        f"final |dx| {trace.iterations[-1].norm_dx:.1e}, damped early then full steps, "
        f"constraint residual {constraint:.1e} (<= 1e-8), |v| error {vnorm_err:.1e}",
    )


# -- criterion 7: direct solver oracles -------------------------------------------------------


def test_criterion_7_solver_oracles():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        m = int(rng.choice([2, 3]))
        A = random_block_tridiag(rng, n, m)
        b = rng.standard_normal(n * m)
        oracle = np.linalg.solve(to_dense(A), -b)
        xi = A.factorize(-b)[1]
        worst = max(worst, np.abs(xi - oracle).max() / (1.0 + np.abs(oracle).max()))
    for _ in range(200):
        dim = int(rng.integers(4, 201))
        kl = int(rng.integers(1, 6))
        ku = int(rng.integers(1, 6))
        A = random_banded(rng, dim, kl, ku)
        b = rng.standard_normal(dim)
        oracle = np.linalg.solve(to_dense(A), -b)
        xi = A.factorize(-b)[1]
        worst = max(worst, np.abs(xi - oracle).max() / (1.0 + np.abs(oracle).max()))
    report(
        7,
        worst <= 1e-10,
        f"200 block-tridiagonal + 200 banded instances vs dense LU, worst "
        f"relative error {worst:.2e} (<= 1e-10)",
    )


# -- criterion 8: structural invariants ---------------------------------------------------------


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(108)
    grid = Grid(1.0, 20)
    curve = random_sphere_curve(grid, rng, z_margin=0.1)

    free = GeodesicForceProblem(grid, force_scale=0.0)
    A0 = to_dense(jacobian_at(free, curve))
    sym_err = np.abs(A0 - A0.T).max() / np.abs(A0).max()

    forced = GeodesicForceProblem(grid, force_scale=3.0)
    A3 = to_dense(jacobian_at(forced, curve))
    asym = np.abs(A3 - A3.T).max() / np.abs(A3).max()

    # an exactly stationary state: the connecting geodesic of the force-free
    # problem; the Newton direction vanishes and the driver stops immediately
    problem = GeodesicForceProblem(grid, force_scale=0.0)
    start = problem.initial_state()
    solution, trace = damped_newton(problem, start, NewtonConfig())
    immediate = (
        trace.terminated is Termination.CONVERGED
        and len(trace.iterations) == 1
        and trace.iterations[0].norm_dx <= 1e-12
        and np.array_equal(solution.points, start.points)
    )
    ok = sym_err <= 1e-12 and asym > 1e-8 and immediate
    report(
        8,
        ok,
        f"force-free symmetry error {sym_err:.2e} (<= 1e-12), winding asymmetry "
        f"{asym:.2e} (> 1e-8), stationary start converges in one outer iteration "
        f"with |dx| = {trace.iterations[0].norm_dx:.1e}",
    )


# -- criterion 9: affine covariance --------------------------------------------------------------


class _ScaledProblem(ProblemInterface):
    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.directions = []

    def evaluate(self, state):
        return self.inner.evaluate(state)

    def assemble_residual(self, at, frames=None):
        return self.scale * self.inner.assemble_residual(at, frames)

    def assemble_jacobian(self, at):
        A = self.inner.assemble_jacobian(at)
        rows = np.reshape(self.scale, (-1, 1))  # a scalar scales all rows alike
        return banded_from_dense(rows * to_dense(A), A.lower_bw, A.upper_bw)

    def retract(self, state, xi, alpha):
        self.directions.append(np.asarray(xi).copy())
        return self.inner.retract(state, xi, alpha)

    def norm_inf(self, xi):
        return self.inner.norm_inf(xi)


def test_criterion_9_affine_covariance():
    grid = Grid(1.0, 50)
    x0 = GeodesicForceProblem(grid).initial_state()
    runs = {}
    for scale in (1.0, 1e-6, 1e6):
        wrapped = _ScaledProblem(GeodesicForceProblem(grid), scale)
        _, trace = damped_newton(wrapped, x0, NewtonConfig())
        assert trace.terminated is Termination.CONVERGED
        runs[scale] = (wrapped, trace)
    ref_problem, ref_trace = runs[1.0]
    ok = True
    worst_xi = 0.0
    for scale in (1e-6, 1e6):
        problem, trace = runs[scale]
        ok = ok and len(trace.iterations) == len(ref_trace.iterations)
        for a, b in zip(ref_trace.iterations, trace.iterations):
            ok = ok and a.inner_trials == b.inner_trials
            ok = ok and abs(a.accepted_alpha - b.accepted_alpha) <= 1e-12
            for ta, tb in zip(a.thetas, b.thetas):
                # tail thetas live at the cancellation floor of the
                # transported residual; tiny absolute slack there
                ok = ok and abs(ta - tb) <= 1e-10 + 1e-12 * abs(ta)
        for xa, xb in zip(ref_problem.directions, problem.directions):
            worst_xi = max(
                worst_xi, np.abs(xa - xb).max() / (1.0 + np.abs(xa).max())
            )
    ok = ok and worst_xi <= 1e-12
    report(
        9,
        ok,
        f"scales 1e-6/1e6: identical iteration counts, alphas and thetas; "
        f"worst direction difference {worst_xi:.2e} (<= 1e-12 relative)",
    )


@pytest.mark.parametrize(
    "inner, span",
    [(GeodesicForceProblem(Grid(1.0, 50)), 1e12), (RodProblem(Grid(1.0, 20)), 1e8)],
    ids=["geodesic-n50-span1e12", "rod-n20-span1e8"],
)
def test_criterion_9_twin_row_scaling(inner, span):
    # one log-uniform factor per row of residual and Jacobian: the iteration
    # must not see the scaling
    x0 = inner.initial_state()
    dim = len(residual_at(inner, x0))
    runs = []
    for scale in (1.0, 10.0 ** np.random.default_rng(9).uniform(0.0, math.log10(span), dim)):
        wrapped = _ScaledProblem(inner, scale)
        _, trace = damped_newton(wrapped, x0, NewtonConfig())
        assert trace.terminated is Termination.CONVERGED
        runs.append((wrapped, trace))
    (ref_problem, ref_trace), (problem, trace) = runs
    ok = len(trace.iterations) == len(ref_trace.iterations)
    for a, b in zip(ref_trace.iterations, trace.iterations):
        ok = ok and a.inner_trials == b.inner_trials
        ok = ok and abs(a.accepted_alpha - b.accepted_alpha) <= 1e-12
        for ta, tb in zip(a.thetas, b.thetas):
            # below a simplified step |dx_bar| = theta alpha |dx| of 1e-13,
            # theta is the round-off of the transported residual
            if ta * a.accepted_alpha * a.norm_dx >= 1e-13:
                ok = ok and abs(ta - tb) <= 1e-10 + 1e-12 * abs(ta)
    worst_xi = max(
        np.abs(xa - xb).max() / (1.0 + np.abs(xa).max())
        for xa, xb in zip(ref_problem.directions, problem.directions, strict=True)
    )
    report(
        9,
        ok and worst_xi <= 1e-12,
        f"row scaling of span {span:.0e}: identical iteration counts and alphas, thetas "
        f"above the round-off floor; worst direction difference {worst_xi:.2e} (<= 1e-12)",
    )



# -- criterion 10: constrained Hessian on the sphere toy ------------------------------------------


def test_criterion_10_constrained_hessian_sphere():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):
        y = random_unit(rng)
        a = rng.standard_normal(3)
        B = rng.standard_normal((3, 3))
        B = B + B.T
        # f(x) = <a, x> + x.B.x / 2 constrained to the sphere c = (|x|^2-1)/2
        fp = a + B @ y
        fpp = B
        cp = y[None, :]
        cpp = np.eye(3)[None, :, :]
        lam = normal_multiplier(fp, cp)
        dx = random_tangent(rng, y)
        e = random_tangent(rng, y)
        out = constrained_hessian_apply(fpp, cp, cpp, lam, dx)
        # projection-derivative form: f''(y) dx + f'(y) P'(y) dx, with
        # P(y) = I - y y^T differentiated analytically
        dP = -(np.outer(dx, y) + np.outer(y, dx))
        oracle = fpp @ dx + dP.T @ fp
        got, want = out @ e, oracle @ e
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    report(
        10,
        worst <= 1e-8,
        f"100 random sphere instances, worst relative deviation from the "
        f"projection-derivative form {worst:.2e} (<= 1e-8)",
    )


# -- criterion 11: independence of the tangent basis -------------------------------------------


def _flat(state):
    if isinstance(state, NodalCurve):
        return state.points.ravel()
    return np.concatenate([state.y.ravel(), state.v.points.ravel(), state.lam.ravel()])


def _close(a, b, rel):
    # agreement to round-off above an absolute floor of 1e-12
    return abs(a - b) <= 1e-12 + rel * abs(a)


@pytest.mark.parametrize(
    "problem",
    [GeodesicForceProblem(Grid(1.0, 50)), RodProblem(Grid(1.0, 20)),
     ObstacleProblem(Grid(1.0, 20), h_ref=0.1)],
    ids=["geodesic-n50", "rod-n20", "obstacle-path-n20"],
)
def test_criterion_11_tangent_basis_independence(problem, monkeypatch):
    # compose every node's frame with its own seeded rotation or reflection:
    # the coefficients change, the iterates and their norms must not
    frames = fem1d.tangent_basis

    def turned(y):
        rng = np.random.default_rng(11)
        phi = rng.uniform(0.0, 2.0 * np.pi, len(y))
        flip = rng.choice([-1.0, 1.0], len(y))
        c, s = np.cos(phi), np.sin(phi)
        return frames(y) @ np.stack([np.stack([c, -flip * s], -1), np.stack([s, flip * c], -1)], -2)

    cfg = NewtonConfig()
    ref = problem.solve(cfg, problem.initial_state())
    monkeypatch.setattr(fem1d, "tangent_basis", turned)
    run = problem.solve(cfg, problem.initial_state())
    assert ref.terminated is run.terminated is Termination.CONVERGED
    rows = [(a, b) for sa, sb in zip(ref.attempts, run.attempts, strict=True)
            for a, b in zip(sa.iterations, sb.iterations, strict=True)]
    # theta enters through the simplified step theta * alpha * |dx|, whose
    # round-off the penalty weight amplifies
    differing = [k for k, (a, b) in enumerate(rows, start=1) if not (
        a.inner_trials == b.inner_trials
        and abs(a.accepted_alpha - b.accepted_alpha) <= 1e-12
        and _close(a.norm_dx, b.norm_dx, 1e-9)
        and _close(a.residual_inf, b.residual_inf, 1e-9)
        and all(_close(ta * a.accepted_alpha * a.norm_dx, tb * b.accepted_alpha * b.norm_dx, 1e-6)
                for ta, tb in zip(a.thetas, b.thetas))
    )]
    worst = np.abs(_flat(ref.state) - _flat(run.state)).max()
    report(
        11,
        not differing and worst <= 1e-12,
        f"{len(rows)} rows under per-node frame rotations and reflections, rows beyond "
        f"round-off {differing}: equal counts, alphas within 1e-12, norms and thetas to "
        f"round-off; final states differ by {worst:.1e} (<= 1e-12)",
    )
