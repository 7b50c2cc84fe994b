import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_newton import (
    DegenerateUpdate,
    Grid,
    NewtonConfig,
    Termination,
    damped_newton,
    tangent_basis,
    update_alpha,
)
import bundle_newton.fem1d as fem1d
import bundle_newton.newton as newton
from bundle_newton.newton import ProblemInterface
from bundle_newton.problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    PoleSingularity,
    RodProblem,
)
from conftest import (
    banded_from_dense,
    jacobian_at,
    random_block_tridiag,
    random_obstacle_curve,
    random_rod_state,
    random_sphere_curve,
    random_unit,
    residual_at,
    spy_factorize,
    to_dense,
)


# -- elementary operations -------------------------------------------------------


def test_direction_identity_system():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(banded_from_dense(np.eye(3)).factorize(v)[1], v, atol=1e-15)


def test_direction_zero_rhs():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert np.array_equal(banded_from_dense(A).factorize(-np.zeros(4))[1], np.zeros(4))


def test_direction_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        xi = banded_from_dense(A).factorize(-b)[1]
        assert np.abs(A @ xi + b).max() <= 1e-10 * (1 + np.abs(b).max())
        assert np.allclose(xi, np.linalg.solve(A, -b), atol=1e-10)


def test_direction_block_tridiagonal_dispatch():
    rng = np.random.default_rng(2)
    A = random_block_tridiag(rng, 5, 2)
    b = rng.standard_normal(10)
    dense = to_dense(A)
    xi = A.factorize(-b)[1]
    assert np.abs(dense @ xi + b).max() <= 1e-10 * (1 + np.abs(b).max())


def test_update_alpha_fixed_point():
    assert update_alpha(1.0, 0.5, 0.5) == 1.0


def test_update_alpha_halves():
    assert update_alpha(1.0, 1.0, 0.5) == pytest.approx(0.5)
    # a non-finite theta counts as theta = 2 theta_des
    assert update_alpha(0.5, math.nan, 0.5) == 0.25
    assert update_alpha(0.5, math.inf, 0.5) == 0.25


def test_update_alpha_caps_at_one():
    assert update_alpha(0.5, 0.125, 0.5) == 1.0
    assert update_alpha(0.5, 0.0, 0.5) == 1.0


@settings(max_examples=100)
@given(st.floats(1e-6, 1.0), st.floats(1e-8, 100.0), st.floats(1e-3, 0.99))
def test_update_alpha_bounds(alpha, theta, theta_des):
    out = update_alpha(alpha, theta, theta_des)
    assert 0.0 < out <= 1.0


# -- nodal max norm ----------------------------------------------------------------


def test_norm_inf_nodal_zero():
    problem = GeodesicForceProblem(Grid(1.0, 4))
    assert problem.norm_inf(np.zeros(8)) == 0.0


def test_norm_inf_nodal_pythagoras():
    problem = GeodesicForceProblem(Grid(1.0, 1))
    assert problem.norm_inf(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_norm_inf_nodal_basis_invariance():
    rng = np.random.default_rng(4)
    problem = GeodesicForceProblem(Grid(1.0, 1))
    for _ in range(10):
        y = random_unit(rng)
        V = tangent_basis(y)
        xi = rng.standard_normal(2)
        # rotate the basis in the tangent plane and re-express the coefficients
        phi = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        rotated = V @ np.array([[c, -s], [s, c]])
        xi_rot = rotated.T @ (V @ xi)
        a = problem.norm_inf(xi)
        b = problem.norm_inf(xi_rot)
        assert abs(a - b) < 1e-12 * (1 + a)


@pytest.mark.parametrize("make", [GeodesicForceProblem, RodProblem], ids=["curve", "rod"])
def test_norm_inf_is_bitwise_the_largest_linalg_norm_of_a_block(make):
    # reference: np.linalg.norm per nodal block (curve: 2 coefficients; rod: the
    # 3 + 2 + 3 of y, v and lam per node, after the first interval's 3 of lam)
    problem = make(Grid(1.0, 30))
    n = problem.grid.n_interior
    rng = np.random.default_rng(12)
    for _ in range(50):
        xi = rng.standard_normal(len(residual_at(problem, problem.initial_state())))
        xi *= 10.0 ** rng.uniform(-14.0, 5.0, xi.size)
        if make is RodProblem:
            groups = xi[3:].reshape(n, 8)
            blocks = [xi[None, :3], groups[:, :3], groups[:, 3:5], groups[:, 5:]]
        else:
            blocks = [xi.reshape(n, 2)]
        want = max(np.max(np.linalg.norm(block, axis=1)) for block in blocks)
        assert problem.norm_inf(xi) == want
    xi[-1] = np.nan  # a NaN in any block is not masked by the others
    assert math.isnan(problem.norm_inf(xi))


# -- test problems for the driver ----------------------------------------------------


class ScalarLinearProblem(ProblemInterface):
    """F(x) = x on the real line (trivial bundle, identity transport); a
    state is its own evaluation."""

    def assemble_residual(self, state, frames=None):
        return np.array([state])

    def assemble_jacobian(self, state):
        return banded_from_dense([[1.0]])

    def retract(self, state, xi, alpha):
        return state + alpha * float(xi[0])

    def norm_inf(self, xi):
        return float(np.abs(xi).max())


class StubbornProblem(ScalarLinearProblem):
    """Trial residual rigged so no damping factor is ever acceptable."""

    def assemble_residual(self, state, frames=None):
        return np.array([state if frames is None else 1e3])


def test_driver_scalar_linear_problem(monkeypatch):
    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(ScalarLinearProblem(), 1.0, NewtonConfig())
    assert trace.terminated is Termination.CONVERGED
    assert abs(x) <= 1e-10
    assert len(trace.iterations) == 2  # one full step plus the convergence row
    assert trace.iterations[0].thetas == (0.0,)
    assert trace.iterations[0].accepted_alpha == 1.0
    # the full step lands on the root, its simplified step is 0 and ends the
    # solve: no second factorization confirms it
    assert trace.iterations[-1].norm_dx == 0.0
    assert trace.iterations[-1].thetas == ()
    assert len(matrices) == 1


class NaNTrialProblem(ScalarLinearProblem):
    """Every trial residual is NaN, as at a trial point the residual cannot be
    evaluated at; records the damping factor of each trial."""

    def __init__(self):
        self.alphas = []

    def assemble_residual(self, state, frames=None):
        return np.array([state if frames is None else math.nan])

    def retract(self, state, xi, alpha):
        self.alphas.append(alpha)
        return super().retract(state, xi, alpha)


# the step size floor ALPHA_FAIL and the trials a stream of NaN thetas takes to pass it
FLOOR_TRIALS = [(1e-8, 27), (1e-3, 10)]


@pytest.mark.parametrize("alpha_fail, trials", FLOOR_TRIALS)
def test_driver_nan_trial_shrinks_the_step(monkeypatch, alpha_fail, trials):
    # a NaN theta rejects the trial and halves alpha; retrying the same full
    # step would never get anywhere.  ALPHA_FAIL alone ends the trials, after
    # ceil(log2(1 / ALPHA_FAIL)) halvings
    assert trials == math.ceil(math.log2(1.0 / alpha_fail))
    monkeypatch.setattr(newton, "ALPHA_FAIL", alpha_fail)
    problem = NaNTrialProblem()
    x, trace = damped_newton(problem, 1.0, NewtonConfig())
    assert trace.terminated is Termination.DAMPING_FAILED
    assert trace.message == (f"step size collapsed below {alpha_fail:g} "
                             f"after {trials} trials (last theta nan)")
    assert x == 1.0
    assert problem.alphas == [0.5**k for k in range(trials)]
    assert trace.iterations == []


def test_driver_plain_newton_ends_on_a_nan_trial():
    # with alpha pinned a NaN theta is the one rejected trial, and the same
    # trial would come back: the solve fails at once
    problem = NaNTrialProblem()
    x, trace = damped_newton(problem, 1.0, NewtonConfig(theta_acc=math.inf))
    assert trace.terminated is Termination.DAMPING_FAILED
    assert trace.message == "plain Newton step rejected (theta nan)"
    assert x == 1.0
    assert problem.alphas == [1.0]


class RaisingTrialProblem(ScalarLinearProblem):
    """The first ``n_raising`` trial points raise ``error`` (a point the
    problem cannot be evaluated at) from ``retract``, from their evaluation or
    from the trial residual, as ``where`` says; records the damping factor of
    each trial."""

    def __init__(self, error, where, n_raising=math.inf):
        self.error, self.where, self.n_raising = error, where, n_raising
        self.alphas = []
        self.retracted = False

    def _trial_point(self, where):
        if where == self.where and len(self.alphas) <= self.n_raising:
            raise self.error("cannot evaluate the trial point")

    def evaluate(self, state):
        if self.retracted:  # a trial point, not the start or the end state
            self.retracted = False
            self._trial_point("evaluate")
        return state

    def assemble_residual(self, state, frames=None):
        if frames is not None:
            self._trial_point("residual")
        return super().assemble_residual(state, frames)

    def retract(self, state, xi, alpha):
        self.alphas.append(alpha)
        self._trial_point("retract")
        self.retracted = True
        return super().retract(state, xi, alpha)


RAISING_TRIALS = [(DegenerateUpdate, "retract"), (PoleSingularity, "residual"),
                  (PoleSingularity, "evaluate")]


@pytest.mark.parametrize("error, where", RAISING_TRIALS)
@pytest.mark.parametrize("alpha_fail, trials", FLOOR_TRIALS)
def test_driver_raising_trial_shrinks_the_step_as_a_nan_one(
    monkeypatch, error, where, alpha_fail, trials
):
    monkeypatch.setattr(newton, "ALPHA_FAIL", alpha_fail)
    cfg = NewtonConfig()
    nan, raising = NaNTrialProblem(), RaisingTrialProblem(error, where)
    nan_x, nan_trace = damped_newton(nan, 1.0, cfg)
    x, trace = damped_newton(raising, 1.0, cfg)
    assert trace.terminated is nan_trace.terminated is Termination.DAMPING_FAILED
    assert trace.message == nan_trace.message.replace("nan", "inf")
    assert x == nan_x == 1.0
    assert raising.alphas == nan.alphas == [0.5**k for k in range(trials)]


@pytest.mark.parametrize("error, where", RAISING_TRIALS)
def test_driver_raising_trial_is_recorded_as_an_infinite_theta(error, where):
    x, trace = damped_newton(RaisingTrialProblem(error, where, n_raising=1), 1.0, NewtonConfig())
    assert trace.terminated is Termination.CONVERGED
    assert x == 0.0
    assert trace.iterations[0].thetas == (math.inf, 0.0)
    assert trace.iterations[0].accepted_alpha == 0.5


@pytest.mark.parametrize("error, where", RAISING_TRIALS)
def test_driver_plain_newton_propagates_a_raising_trial(error, where):
    # with alpha pinned no smaller step is tried, so there is nothing to reject
    problem = RaisingTrialProblem(error, where, n_raising=1)
    with pytest.raises(error):
        damped_newton(problem, 1.0, NewtonConfig(theta_acc=math.inf))
    assert problem.alphas == [1.0]


def test_driver_propagates_a_raising_iterate():
    class RaisingIterate(ScalarLinearProblem):
        def assemble_residual(self, state, frames=None):
            if frames is None:
                raise DegenerateUpdate("cannot evaluate the iterate")
            return super().assemble_residual(state, frames)

    with pytest.raises(DegenerateUpdate):
        damped_newton(RaisingIterate(), 1.0, NewtonConfig())


# -- stopping on the simplified Newton step ---------------------------------------------


def test_driver_does_not_stop_after_a_damped_step(monkeypatch):
    # the damped step has theta = 0 and a zero simplified step, yet only a
    # full step may stop the solve
    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(ScalarLinearProblem(), 1.0, NewtonConfig(alpha0=0.5))
    assert trace.terminated is Termination.CONVERGED
    assert x == 0.0
    assert [it.accepted_alpha for it in trace.iterations] == [0.5, 1.0, 1.0]
    assert trace.iterations[0].thetas == (0.0,)
    assert len(matrices) == 2


class ContractingTrialProblem(ScalarLinearProblem):
    """F(x) = x, with the trial residual rigged so that the full step from 1
    has contraction ``theta`` and simplified step ``-theta``."""

    def __init__(self, theta):
        self.theta = theta

    def assemble_residual(self, state, frames=None):
        return np.array([state if frames is None else self.theta * (frames - state)])


@pytest.mark.parametrize(
    "theta, tol, stops",
    [(0.4, 0.7, True), (0.5, 0.7, True), (0.6, 0.7, False), (0.9, 0.95, False), (0.4, 0.3, False)],
)
def test_driver_stops_only_on_a_contracting_step_within_tolerance(monkeypatch, theta, tol, stops):
    # theta > 0.5 (but accepted) or a simplified step above tol falls through
    # to the factorized check at the full step's point, the root 0
    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(ContractingTrialProblem(theta), 1.0, NewtonConfig(tol=tol))
    assert trace.terminated is Termination.CONVERGED
    assert x == 0.0
    assert trace.iterations[0].thetas == (theta,)
    assert trace.iterations[0].accepted_alpha == 1.0
    assert len(trace.iterations) == 2
    assert trace.iterations[-1].norm_dx == (theta if stops else 0.0)
    assert len(matrices) == (1 if stops else 2)


@pytest.mark.parametrize(
    "loose_at, x_end, norm_end, questions",
    [(lambda x: False, 0.0, 0.0, [(1.0, 1.0), (0.0, 0.4)]),  # nowhere: the check at the root
     (lambda x: x == 0.0, 0.0, 0.4, [(1.0, 1.0), (0.0, 0.4)]),  # at the full step: its estimate
     (lambda x: x == 1.0, 1.0, 1.0, [(1.0, 1.0)])],  # at the start: its factorized check
    ids=["nowhere", "at-the-step", "at-the-start"],
)
def test_driver_stops_early_only_where_the_rule_says(
    monkeypatch, loose_at, x_end, norm_end, questions
):
    # the full step from 1 lands on the root 0 with theta 0.4 and a simplified
    # step of 0.4; only norms above cfg.tol are put to the rule, so the root's
    # factorized check (norm 0) is not
    asked = []

    def stops_early(x, norm):
        asked.append((x, norm))
        return loose_at(x)

    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(ContractingTrialProblem(0.4), 1.0, NewtonConfig(), stops_early)
    assert trace.terminated is Termination.CONVERGED
    assert x == x_end
    assert trace.iterations[-1].norm_dx == norm_end and trace.iterations[-1].thetas == ()
    assert len(matrices) == (2 if norm_end == 0.0 else 1)
    assert asked == questions


class BadFirstTrialProblem(ScalarLinearProblem):
    """F(x) = x, whose first trial residual is ``value`` (NaN or infinite)."""

    def __init__(self, value):
        self.value, self.trials = value, 0

    def assemble_residual(self, state, frames=None):
        if frames is None:
            return super().assemble_residual(state)
        self.trials += 1
        return np.array([self.value if self.trials == 1 else state])


@pytest.mark.parametrize(
    "make, cfg, alphas",
    [
        (lambda: BadFirstTrialProblem(math.nan), NewtonConfig(), [0.5, 1.0, 1.0]),
        (lambda: RaisingTrialProblem(DegenerateUpdate, "retract", n_raising=1), NewtonConfig(),
         [0.5, 1.0, 1.0]),
        (lambda: RaisingTrialProblem(PoleSingularity, "residual", n_raising=1), NewtonConfig(),
         [0.5, 1.0, 1.0]),
        # plain Newton accepts the full step of infinite theta
        (lambda: BadFirstTrialProblem(math.inf), NewtonConfig(theta_acc=math.inf), [1.0, 1.0]),
    ],
    ids=["nan", "raising-retract", "raising-residual", "infinite-plain"],
)
def test_driver_does_not_stop_after_a_non_finite_trial(monkeypatch, make, cfg, alphas):
    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(make(), 1.0, cfg)
    assert trace.terminated is Termination.CONVERGED
    assert x == 0.0
    assert not math.isfinite(trace.iterations[0].thetas[0])
    assert [it.accepted_alpha for it in trace.iterations] == alphas
    assert len(matrices) == 2  # the step after the non-finite trial is factorized


def test_driver_root_at_start():
    x, trace = damped_newton(ScalarLinearProblem(), 0.0, NewtonConfig())
    assert trace.terminated is Termination.CONVERGED
    assert len(trace.iterations) == 1
    assert x == 0.0
    assert trace.iterations[0].norm_dx == 0.0


def test_driver_damping_failure():
    x, trace = damped_newton(StubbornProblem(), 1.0, NewtonConfig())
    assert trace.terminated is Termination.DAMPING_FAILED
    assert x == 1.0  # iterate unchanged on failure


def test_driver_max_iterations():
    class Cubic(ScalarLinearProblem):
        def assemble_residual(self, state, frames=None):
            return np.array([state**3 + state])

        def assemble_jacobian(self, state):
            return banded_from_dense([[3 * state**2 + 1.0]])

    _, trace = damped_newton(Cubic(), 10.0, NewtonConfig(max_outer=2))
    assert trace.terminated is Termination.MAX_ITERATIONS


class HalfStepProblem(ScalarLinearProblem):
    """F(x) = (x, 0) with the Newton matrix diag(2, 1), so that every full step
    halves x at theta = 1/2; at x = 1/2 the matrix is ``at_half``."""

    def __init__(self, at_half):
        self.at_half = at_half

    def assemble_residual(self, state, frames=None):
        return np.array([state, 0.0])

    def assemble_jacobian(self, state):
        return banded_from_dense(self.at_half if state == 0.5 else np.diag([2.0, 1.0]))


@pytest.mark.parametrize("at_half, diagnosis", [
    (np.diag([2.0, 1.0]), r"$"),
    ([[2.0, 2.0], [2.0, 2.0 + 1e-15]],
     r" \(Newton matrix condition estimate (\d\.\d\de\+1[4-9]), largest at unknown [01]\)$"),
    ([[2.0, 0.0], [0.0, 0.0]], r" \(Newton matrix: zero pivot at column 2 in banded LU\)$"),
], ids=["well-conditioned", "near-singular", "zero-pivot"])
def test_a_failed_solve_names_a_singular_newton_matrix_at_the_state_it_ends_at(at_half, diagnosis):
    # the one step ends at x = 1/2 without converging: only there is the
    # matrix assembled again and its condition estimated, and a zero pivot
    # is reported, not raised
    x, stage = damped_newton(HalfStepProblem(at_half), 1.0, NewtonConfig(max_outer=1))
    assert x == 0.5 and stage.terminated is Termination.MAX_ITERATIONS
    assert re.fullmatch("no convergence within 1 outer iterations" + diagnosis, stage.message)


def test_a_solve_records_the_state_it_returns():
    # however a solve ends, its stage holds the state damped_newton returns:
    # a trial point, the start, an iterate
    geo = GeodesicForceProblem(Grid(1.0, 20))
    cases = [
        (ScalarLinearProblem(), 1.0, NewtonConfig(), Termination.CONVERGED),
        (ScalarLinearProblem(), 0.0, NewtonConfig(), Termination.CONVERGED),
        (StubbornProblem(), 1.0, NewtonConfig(), Termination.DAMPING_FAILED),
        (NaNTrialProblem(), 1.0, NewtonConfig(theta_acc=math.inf), Termination.DAMPING_FAILED),
        (geo, geo.initial_state(), NewtonConfig(), Termination.CONVERGED),
        (geo, geo.initial_state(), NewtonConfig(max_outer=1), Termination.MAX_ITERATIONS),
    ]
    for problem, x0, cfg, terminated in cases:
        x, stage = damped_newton(problem, x0, cfg)
        assert stage.terminated is terminated
        assert stage.state is x


# the coarsest level of the rod run in test_nested.py that ends at a near-singular matrix
NEAR_SINGULAR_ROD = dict(
    y1=(-0.0016276324413633035, 0.9344134998567042, -0.24583110124946037),
    v0=(-0.6491654454001294, 0.2387984542764557, 0.7221907800115058),
    v1=(0.3172946085666753, 0.9430395232758364, 0.10000294452766682),
)


@pytest.mark.parametrize("problem, cfg, terminated, message", [
    (GeodesicForceProblem(Grid(1.0, 20)), NewtonConfig(), Termination.CONVERGED,
     r"stationary within tolerance"),
    (GeodesicForceProblem(Grid(1.0, 50), force_scale=10.0), NewtonConfig(),
     Termination.DAMPING_FAILED, r"step size collapsed below 1e-08 after 2 trials \(last theta \S+\)"),
    (GeodesicForceProblem(Grid(1.0, 20)), NewtonConfig(max_outer=1), Termination.MAX_ITERATIONS,
     r"no convergence within 1 outer iterations"),
    (RodProblem(Grid(1.0, 10), **NEAR_SINGULAR_ROD), NewtonConfig(), Termination.DAMPING_FAILED,
     r"step size collapsed .* \(Newton matrix condition estimate \S+, largest at unknown 1\)"),
    (RodProblem(Grid(1.0, 10)), NewtonConfig(theta_acc=math.inf), Termination.MAX_ITERATIONS,
     r"no convergence within 50 outer iterations \(Newton matrix condition estimate \S+, "
     r"largest at unknown 0\)"),
], ids=["converged", "damping_failed", "max_iterations", "rod-damping_failed", "rod-max_iterations"])
def test_a_finished_solve_keeps_no_nodal_data(problem, cfg, terminated, message):
    # the stage outlives the solve, so the solve leaves nothing of its states'
    # evaluations on its problem; a failure's diagnosis reads one before that
    before = dict(vars(problem))
    _, stage = damped_newton(problem, problem.initial_state(), cfg)
    assert stage.terminated is terminated
    assert re.fullmatch(message, stage.message), stage.message
    assert stage.problem is problem and vars(problem) == before


@pytest.mark.parametrize("problem", [GeodesicForceProblem(Grid(1.0, 20)), RodProblem(Grid(1.0, 25))],
                         ids=["geodesic", "rod-damped"])
def test_an_iterate_drops_its_evaluation_before_its_trials(monkeypatch, problem):
    # an evaluation is dropped once its residual and Jacobian are assembled:
    # by the iterate's first trial, and by the end of the solve.  The rod
    # solve rejects trials, so an iterate may have several
    evaluations = []  # (state, weak references to the arrays of its evaluation)
    evaluate, retract = problem.evaluate, problem.retract

    def watched_evaluate(state):
        at = evaluate(state)
        evaluations.append((state, [weakref.ref(a) for a in at if isinstance(a, np.ndarray)]))
        return at

    def watched_retract(state, xi, alpha):
        refs = [ref for evaluated, refs in evaluations if evaluated is state for ref in refs]
        assert refs and all(ref() is None for ref in refs)
        return retract(state, xi, alpha)

    monkeypatch.setattr(problem, "evaluate", watched_evaluate)
    monkeypatch.setattr(problem, "retract", watched_retract)
    _, stage = damped_newton(problem, problem.initial_state())
    assert stage.terminated is Termination.CONVERGED
    trials = sum(it.inner_trials for it in stage.iterations)
    if isinstance(problem, RodProblem):
        assert trials > sum(1 for it in stage.iterations if it.inner_trials)
    assert len(evaluations) == 1 + trials
    assert all(ref() is None for _, refs in evaluations for ref in refs)


def test_driver_undamped_mode_pins_alpha(monkeypatch):
    # theta_acc = inf accepts every trial and freezes alpha at alpha0
    grid = Grid(1.0, 20)
    problem = GeodesicForceProblem(grid)
    cfg = NewtonConfig(theta_acc=math.inf)
    matrices = spy_factorize(monkeypatch)
    x, trace = damped_newton(problem, problem.initial_state(), cfg)
    assert trace.terminated is Termination.CONVERGED
    assert all(it.accepted_alpha == 1.0 for it in trace.iterations)
    # plain Newton stops on the last step's simplified step too, and the
    # estimate holds: the Newton step at the final state is within tol
    assert trace.iterations[-1].thetas == () and trace.iterations[-1].norm_dx <= cfg.tol
    assert len(matrices) == len(trace.iterations) - 1
    _, dx = jacobian_at(problem, x).factorize(-residual_at(problem, x))
    assert problem.norm_inf(dx) <= cfg.tol


# -- interface consistency over the built-in problems ---------------------------------


def _builtin_problem_states(seed=5):
    rng = np.random.default_rng(seed)
    grid = Grid(1.0, 8)
    geo = GeodesicForceProblem(grid)
    obs = ObstacleProblem(grid, h_ref=0.3).replace(p=2.0)
    rod = RodProblem(grid)
    yield geo, random_sphere_curve(grid, rng, z_margin=0.05)
    yield obs, random_obstacle_curve(grid, rng, obs)
    yield rod, random_rod_state(grid, rng)


def test_transport_consistency_at_coincident_states():
    for problem, state in _builtin_problem_states():
        at = problem.evaluate(state)
        b = problem.assemble_residual(at)
        bt = problem.assemble_residual(at, state)
        assert np.abs(b - bt).max() <= 1e-12 * (1.0 + np.abs(b).max())


def test_newton_path_theta_decays_with_alpha():
    # theta measured along the Newton path tends to zero with the step size
    grid = Grid(1.0, 12)
    problem = GeodesicForceProblem(grid)
    state = problem.initial_state()
    at = problem.evaluate(state)
    b = problem.assemble_residual(at)
    fact, dx = problem.assemble_jacobian(at).factorize(-b)
    thetas = []
    for alpha in (0.5, 0.05, 0.005):
        x_plus = problem.retract(state, dx, alpha)
        # the simplified Newton step of the driver, and its contraction ratio
        dx_bar = fact.solve((1.0 - alpha) * b - residual_at(problem, x_plus, state))
        thetas.append(problem.norm_inf(dx_bar) / problem.norm_inf(alpha * dx))
    assert thetas[1] < thetas[0] and thetas[2] < thetas[1]
    assert thetas[2] < 0.01


def test_root_certificate_on_builtin_problems():
    # a converged run leaves a residual negligible against the initial one
    grid = Grid(1.0, 25)
    for problem in (GeodesicForceProblem(grid), RodProblem(grid)):
        x0 = problem.initial_state()
        final, trace = damped_newton(problem, x0, NewtonConfig())
        assert trace.terminated is Termination.CONVERGED
        r0 = np.abs(residual_at(problem, x0)).max()
        r_final = np.abs(residual_at(problem, final)).max()
        assert r_final <= 1e-8 * (1.0 + r0)


def test_monotone_acceptance_on_traces():
    grid = Grid(1.0, 30)
    cfg = NewtonConfig()
    for problem in (GeodesicForceProblem(grid), RodProblem(grid)):
        _, trace = damped_newton(problem, problem.initial_state(), cfg)
        assert trace.terminated is Termination.CONVERGED
        for it in trace.iterations:
            if it.thetas:
                assert it.thetas[-1] <= cfg.theta_acc
            assert newton.ALPHA_FAIL <= it.accepted_alpha <= 1.0


# -- affine covariance -----------------------------------------------------------------


class ScaledProblem(ProblemInterface):
    """Wrap a problem with residual and Jacobian multiplied by a constant."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.retract_log = []

    def evaluate(self, state):
        return self.inner.evaluate(state)

    def assemble_residual(self, at, frames=None):
        return self.scale * self.inner.assemble_residual(at, frames)

    def assemble_jacobian(self, at):
        A = self.inner.assemble_jacobian(at)
        return banded_from_dense(self.scale * to_dense(A), A.lower_bw, A.upper_bw)

    def retract(self, state, xi, alpha):
        self.retract_log.append(np.array(xi))
        return self.inner.retract(state, xi, alpha)

    def norm_inf(self, xi):
        return self.inner.norm_inf(xi)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_affine_covariance_of_the_iteration(scale):
    grid = Grid(1.0, 20)
    reference = ScaledProblem(GeodesicForceProblem(grid), 1.0)
    scaled = ScaledProblem(GeodesicForceProblem(grid), scale)
    x0 = GeodesicForceProblem(grid).initial_state()
    _, trace_ref = damped_newton(reference, x0, NewtonConfig())
    _, trace_scaled = damped_newton(scaled, x0, NewtonConfig())
    assert len(trace_ref.iterations) == len(trace_scaled.iterations)
    for a, b in zip(trace_ref.iterations, trace_scaled.iterations):
        assert a.inner_trials == b.inner_trials
        assert a.accepted_alpha == pytest.approx(b.accepted_alpha, rel=1e-12)
        for ta, tb in zip(a.thetas, b.thetas):
            # near convergence theta sits at the cancellation floor of the
            # transported residual; grant a tiny absolute slack there
            assert abs(ta - tb) <= 1e-10 + 1e-12 * abs(ta)
    assert len(reference.retract_log) == len(scaled.retract_log)
    for xa, xb in zip(reference.retract_log, scaled.retract_log):
        assert np.abs(xa - xb).max() <= 1e-12 * (1.0 + np.abs(xa).max())


# -- independence of the per-node tangent bases --------------------------------------


class StepRecorder:
    """Delegates to a problem and records the Euclidean form of every step:
    ``V @ xi`` per node for sphere-valued unknowns, ``xi`` itself otherwise."""

    def __init__(self, inner):
        self.inner = inner
        self.steps = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def retract(self, state, xi, alpha):
        if isinstance(self.inner, RodProblem):
            dy, dv, dlam = self.inner._split(xi)
            step = np.concatenate([dy, np.einsum("nij,nj->ni", state.v.basis, dv), dlam])
        else:
            step = np.einsum("nij,nj->ni", state.basis, np.reshape(xi, (-1, 2)))
        self.steps.append(alpha * step)
        return self.inner.retract(state, xi, alpha)


def _solve_recorded(problem):
    """Solve from a fresh start state, whose bases are not cached yet."""
    rod_problem = isinstance(problem, RodProblem)
    x0 = problem.initial_state()
    recorder = StepRecorder(problem)
    state, trace = damped_newton(recorder, x0, NewtonConfig())
    values = np.vstack([state.y, state.v.points, state.lam]) if rod_problem else state.points
    return values, trace, recorder.steps


@pytest.mark.parametrize("problem_class", [GeodesicForceProblem, RodProblem])
def test_iterates_independent_of_tangent_basis(problem_class, monkeypatch):
    # turning each node's tangent basis by a fixed random angle changes every
    # coefficient vector but must leave the iteration itself unchanged
    grid = Grid(1.0, 20)
    problem = problem_class(grid)
    ref_values, ref_trace, ref_steps = _solve_recorded(problem)

    phi = np.random.default_rng(20).uniform(0.0, 2.0 * np.pi, grid.n_interior)[:, None]
    calls = 0

    def rotated_basis(y):
        nonlocal calls
        calls += 1
        assert np.shape(y) == (grid.n_interior, 3)
        V = tangent_basis(y)
        c, s = np.cos(phi), np.sin(phi)
        return np.stack((c * V[..., 0] + s * V[..., 1], -s * V[..., 0] + c * V[..., 1]), axis=-1)

    # NodalCurve holds the frames of every sphere-valued unknown, the rod's
    # directions included, so patching its module reaches both problems
    monkeypatch.setattr(fem1d, "tangent_basis", rotated_basis)
    values, trace, steps = _solve_recorded(problem)
    assert calls > 0

    assert trace.terminated is ref_trace.terminated is Termination.CONVERGED
    assert len(trace.iterations) == len(ref_trace.iterations)
    for a, b in zip(trace.iterations, ref_trace.iterations):
        assert a.inner_trials == b.inner_trials
        # damped alphas are ratios of round-off-perturbed contraction estimates
        assert a.accepted_alpha == pytest.approx(b.accepted_alpha, rel=1e-12)
    assert np.abs(values - ref_values).max() <= 1e-12
    assert len(steps) == len(ref_steps)
    for a, b in zip(steps, ref_steps):
        assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())
