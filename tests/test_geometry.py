import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_newton import (
    DegenerateUpdate,
    retract_sphere,
    tangent_basis,
    tangent_project,
    unit_vector,
)
from bundle_newton.geometry import normalized
from conftest import random_tangent, random_unit
import oracles
from oracles import (
    SingularConstraint,
    constrained_hessian_apply,
    normal_multiplier,
    tangent_project_deriv,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


unit_vectors = st.builds(
    lambda seed: random_unit(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**31),
)


# -- tangent projection -------------------------------------------------------


def test_project_annihilates_normal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = random_unit(rng)
        assert np.allclose(tangent_project(y, y), 0.0, atol=1e-15)


def test_project_axis_aligned():
    assert np.allclose(tangent_project(E3, [0.3, -0.7, 2.0]), [0.3, -0.7, 0.0])


@settings(max_examples=50)
@given(unit_vectors, st.integers(0, 2**31))
def test_project_tangency_and_idempotence(y, seed):
    h = np.random.default_rng(seed).standard_normal(3)
    p = tangent_project(y, h)
    assert abs(p @ y) < 1e-14 * max(1.0, np.linalg.norm(h))
    assert np.abs(tangent_project(y, p) - p).max() < 1e-14 * max(1.0, np.linalg.norm(h))


def test_project_idempotent_composed_maps():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        y = random_unit(rng)
        P = np.eye(3) - np.outer(y, y)
        assert np.abs(P @ P - P).max() < 1e-14


# -- projection derivative -----------------------------------------------------


def test_project_deriv_radial_case():
    assert np.allclose(tangent_project_deriv(E3, E1, E1), -E3)


def test_project_deriv_orthogonal_tangents():
    rng = np.random.default_rng(1)
    y = random_unit(rng)
    V = tangent_basis(y)
    out = tangent_project_deriv(y, V[:, 0], V[:, 1])
    assert np.abs(out).max() < 1e-14


def test_project_deriv_matches_fd():
    rng = np.random.default_rng(2)
    step = 1e-5
    for _ in range(10):
        y = random_unit(rng)
        v = random_tangent(rng, y)
        u = rng.standard_normal(3)
        plus = tangent_project(retract_sphere(y, step * v), u)
        minus = tangent_project(retract_sphere(y, -step * v), u)
        fd = (plus - minus) / (2 * step)
        exact = tangent_project_deriv(y, v, u)
        assert np.abs(fd - exact).max() < 1e-6 * (1.0 + np.abs(exact).max())


# -- retraction ----------------------------------------------------------------


def test_retract_at_zero_is_identity():
    rng = np.random.default_rng(3)
    y = random_unit(rng)
    assert np.array_equal(retract_sphere(y, np.zeros(3)), y)


def test_retract_normalizes():
    out = retract_sphere(E1, E2)
    assert np.allclose(out, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))


def test_retract_antipodal_collapse():
    with pytest.raises(DegenerateUpdate):
        retract_sphere(E1, -E1)


@settings(max_examples=50)
@given(unit_vectors, st.integers(0, 2**31))
def test_retract_stays_on_sphere(y, seed):
    d = np.random.default_rng(seed).standard_normal(3)
    if np.linalg.norm(y + d) <= 1e-12:
        return
    assert abs(np.linalg.norm(retract_sphere(y, d)) - 1.0) < 1e-14


def test_retract_first_order_identity():
    rng = np.random.default_rng(4)
    step = 1e-6
    for _ in range(10):
        y = random_unit(rng)
        d = random_tangent(rng, y)
        fd = (retract_sphere(y, step * d) - y) / step
        assert np.abs(fd - tangent_project(y, d)).max() < 1e-5 * (1 + np.linalg.norm(d))


# -- vector transport: projection onto the target tangent plane ---------------


def test_transport_identity_at_coincident_points():
    rng = np.random.default_rng(5)
    y = random_unit(rng)
    u = random_tangent(rng, y)
    assert np.abs(tangent_project(y, u) - u).max() < 1e-15


def test_transport_fixed_vector():
    assert np.allclose(tangent_project(E3, E2), E2)


def test_transport_projects():
    u = np.array([0.0, 0.6, 0.8])  # tangent at e1
    assert np.allclose(tangent_project(E3, u), [0.0, 0.6, 0.0])


def test_transport_rank_loss_allowed():
    # u parallel to the target point: the projection transport returns zero
    out = tangent_project(E2, E2)
    assert np.allclose(out, 0.0)


# -- tangent bases -------------------------------------------------------------


def test_basis_at_pole_spans_equator():
    V = tangent_basis(E3)
    assert np.abs(V[2]).max() < 1e-15
    assert abs(V[:, 0] @ V[:, 1]) < 1e-15


@settings(max_examples=100)
@given(unit_vectors)
def test_basis_gram_matrix_is_identity(y):
    frame = np.column_stack((y, tangent_basis(y)))
    assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12


def test_basis_deterministic():
    y = unit_vector(np.array([0.48, -0.6, 0.64]) / np.linalg.norm([0.48, -0.6, 0.64]))
    assert np.array_equal(tangent_basis(y), tangent_basis(y))


EPS = np.finfo(float).eps


def _frame_errors(y, V):
    """Worst orthonormality, tangency and right-handedness (``v1 x v2 = y``)
    deviations of the stacked frames ``V`` at the points ``y``."""
    gram = np.swapaxes(V, -1, -2) @ V
    return (np.abs(gram - np.eye(2)).max(),
            np.abs(np.einsum("...ij,...i->...j", V, y)).max(),
            np.abs(np.cross(V[..., 0], V[..., 1]) - y).max())


def _edge_points():
    t = np.linspace(0.0, 2.0 * np.pi, 13)
    z = -1.0 + 1e-16  # rounds to the float just above -1
    equator = np.column_stack((np.cos(t), np.sin(t), np.zeros_like(t)))
    return np.vstack([
        E3, -E3, [-0.0, -0.0, 1.0], [-0.0, -0.0, -1.0],
        equator, equator * [1.0, 1.0, -1.0],  # y3 = +0.0, then y3 = -0.0
        [np.sqrt(1.0 - z * z), 0.0, z], [0.0, np.sqrt(1.0 - z * z), z],
        [np.sqrt(1.0 - z * z), 0.0, -z],
    ])


def test_closed_form_frames_at_edge_points():
    y = _edge_points()
    V = tangent_basis(y)
    assert max(_frame_errors(y, V)) <= 4 * EPS
    # the branch is s = copysign(1, y3), which shows as v2's y2 entry s + a y2^2
    # wherever y2 = 0: +0.0 takes s = +1, -0.0 takes s = -1
    flat = y[:, 1] == 0.0
    assert np.array_equal(V[flat, 1, 1], np.copysign(1.0, y[flat, 2]))
    assert np.array_equal(tangent_basis(E3), np.eye(3)[:, :2])
    assert np.array_equal(tangent_basis(-E3), [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    for k in range(len(y)):
        assert np.array_equal(V[k], tangent_basis(y[k])), y[k]


def test_closed_form_frame_bytes_match_the_formulas_as_written():
    # each entry is computed into its place, -s y1 as -(s y1): the bytes are
    # those of the formulas assigned entry by entry, signed zeros included
    rng = np.random.default_rng(38)
    y = rng.standard_normal((200, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    for points in (_edge_points(), y, y[0], -y[:7], E3, -E3):
        assert tangent_basis(points).tobytes() == oracles.tangent_basis(points).tobytes()


def test_closed_form_frames_are_orthonormal_and_right_handed():
    rng = np.random.default_rng(25)
    y = rng.standard_normal((100_000, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    assert max(_frame_errors(y, tangent_basis(y))) <= 4 * EPS


def test_stacked_points_match_one_node_calls():
    # a (3,) point is the one-node case of the same code: stacking nodes
    # must not change a single bit, zero steps included
    rng = np.random.default_rng(11)
    y = np.array([random_unit(rng) for _ in range(50)])
    d = np.array([random_tangent(rng, p) for p in y])
    d[::7] = 0.0
    frames = tangent_basis(y)
    moved = retract_sphere(y, d)
    for k in range(len(y)):
        assert np.array_equal(frames[k], tangent_basis(y[k]))
        assert np.array_equal(moved[k], retract_sphere(y[k], d[k]))
        assert np.array_equal(tangent_project(y, d)[k], tangent_project(y[k], d[k]))
    assert np.array_equal(moved[::7], y[::7])


def test_retract_bytes_match_the_masked_quotient():
    # the quotient is taken in place, and np.where runs only when a row has
    # a zero step: every row moved, some rows moved (a -0.0 step is no
    # move), and one point
    rng = np.random.default_rng(42)
    for n in (1, 2, 7, 1000):
        y = np.array([random_unit(rng) for _ in range(n)])
        d = rng.standard_normal((n, 3))
        assert retract_sphere(y, d).tobytes() == oracles.retract_sphere(y, d).tobytes()
        d[::3] = 0.0
        d[1::5] = -0.0
        assert retract_sphere(y, d).tobytes() == oracles.retract_sphere(y, d).tobytes()
        assert np.array_equal(retract_sphere(y, d)[::3], y[::3])
    y, d = random_unit(rng), rng.standard_normal(3)
    for step in (d, np.zeros(3)):
        assert retract_sphere(y, step).tobytes() == oracles.retract_sphere(y, step).tobytes()


def test_stacked_retract_rejects_one_collapsing_row():
    y = np.array([E1, E2, E3])
    d = np.array([E2, -E2, np.zeros(3)])
    with pytest.raises(DegenerateUpdate):
        retract_sphere(y, d)


def test_degenerate_update_names_the_row_of_smallest_norm():
    # rows 1 and 3 collapse; row 3 (norm 0) is smaller than row 1 (about 1e-13)
    y = np.array([E1, E2, E3, E1])
    d = np.array([E2, -(1.0 - 1e-13) * E2, np.zeros(3), -E1])
    with pytest.raises(DegenerateUpdate, match=r"norm 0\.00e\+00 at row 3$"):
        retract_sphere(y, d)
    vec = np.array([E1, 1e-13 * E1, np.zeros(3), 2.0 * E2])
    with pytest.raises(DegenerateUpdate, match=r"norm 0\.00e\+00 at row 2$"):
        normalized(vec)
    with pytest.raises(DegenerateUpdate, match=r"at row 0$"):
        normalized(np.zeros(3))


def test_degenerate_update_names_the_collapsing_row_not_a_nan_one():
    # a NaN row fails no norm test, so only row 0 collapses
    y = np.array([E1, E2])
    d = np.array([-E1, [np.nan, 0.0, 0.0]])
    with pytest.raises(DegenerateUpdate, match=r"norm 0\.00e\+00 at row 0$"):
        retract_sphere(y, d)


# -- product rule of the projection transport ----------------------------------


def test_transported_covector_product_rule():
    # central difference of s -> a . P(R_y(s d)) [P(R_y(s d)) e] against the
    # split into the derivative of the covector field plus the connection term
    rng = np.random.default_rng(6)
    step = 1e-5
    for _ in range(20):
        y = random_unit(rng)
        d = random_tangent(rng, y)
        e = random_tangent(rng, y)
        a = rng.standard_normal(3)

        def pairing(s):
            ys = retract_sphere(y, s * d)
            return a @ tangent_project(ys, tangent_project(ys, e))

        fd = (pairing(step) - pairing(-step)) / (2 * step)
        term_field = a @ tangent_project_deriv(y, d, tangent_project(y, e))
        term_connection = a @ tangent_project(y, tangent_project_deriv(y, d, e))
        exact = term_field + term_connection
        assert abs(fd - exact) < 1e-6 * (1.0 + abs(exact))


# -- constrained covariant Hessian ----------------------------------------------


def test_oracles_do_not_import_the_package():
    # the reference formulas must stay independent of the code they check
    path = Path(__file__).with_name("oracles.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"numpy"}


def test_constrained_hessian_sphere_linear_objective():
    rng = np.random.default_rng(7)
    for _ in range(10):
        y = random_unit(rng)
        a = rng.standard_normal(3)
        dx = random_tangent(rng, y)
        # c(x) = (|x|^2 - 1) / 2, f(x) = <a, x>
        lam = normal_multiplier(a, y[None, :])
        assert abs(lam[0] + a @ y) < 1e-12 * (1 + abs(a @ y))
        out = constrained_hessian_apply(
            np.zeros((3, 3)), y[None, :], np.eye(3)[None, :, :], lam, dx
        )
        e = random_tangent(rng, y)
        assert abs(out @ e - (-(a @ y) * (dx @ e))) < 1e-12 * (1 + abs(dx @ e))


def test_constrained_hessian_affine_constraint():
    # c'' = 0: the multiplier term vanishes and the output is f''(y) dx
    rng = np.random.default_rng(8)
    n, l = 5, 2
    fpp = rng.standard_normal((n, n))
    fpp = fpp + fpp.T
    cp = rng.standard_normal((l, n))
    cpp = np.zeros((l, n, n))
    lam = rng.standard_normal(l)
    dx = rng.standard_normal(n)
    dx -= np.linalg.lstsq(cp, cp @ dx, rcond=None)[0]
    out = constrained_hessian_apply(fpp, cp, cpp, lam, dx)
    assert np.abs(out - fpp @ dx).max() < 1e-12 * (1 + np.abs(fpp @ dx).max())


def _projector_derivative(cp, cpp, dy):
    """Analytic derivative of P = I - cp^T (cp cp^T)^{-1} cp along dy."""
    K = np.linalg.inv(cp @ cp.T)
    dC = np.einsum("kij,j->ki", cpp, dy)
    dK = -K @ (dC @ cp.T + cp @ dC.T) @ K
    dG = dC.T @ K @ cp + cp.T @ dK @ cp + cp.T @ K @ dC
    return -dG


def random_constrained_instance(rng, n=5, l=2):
    """Random smooth objective/constraints with quadratic-plus-cubic terms."""
    y = rng.standard_normal(n)
    fp = rng.standard_normal(n)
    fpp = rng.standard_normal((n, n))
    fpp = fpp + fpp.T
    cp = rng.standard_normal((l, n))
    cpp = rng.standard_normal((l, n, n))
    cpp = 0.5 * (cpp + np.transpose(cpp, (0, 2, 1)))
    return y, fp, fpp, cp, cpp


def test_constrained_hessian_matches_projector_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        y, fp, fpp, cp, cpp = random_constrained_instance(rng)
        lam = normal_multiplier(fp, cp)
        # tangent test and trial vectors
        null = np.linalg.svd(cp)[2][cp.shape[0] :]
        dx = null.T @ rng.standard_normal(null.shape[0])
        e = null.T @ rng.standard_normal(null.shape[0])
        out = constrained_hessian_apply(fpp, cp, cpp, lam, dx)
        dP = _projector_derivative(cp, cpp, dx)
        oracle = fpp @ dx + dP.T @ fp
        got, want = out @ e, oracle @ e
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_constrained_hessian_rank_deficient():
    cp = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(SingularConstraint):
        constrained_hessian_apply(
            np.eye(3), cp, np.zeros((2, 3, 3)), np.zeros(2), np.array([0.0, 1.0, 0.0])
        )


def test_unit_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        unit_vector([1.0, 1.0, 0.0])
