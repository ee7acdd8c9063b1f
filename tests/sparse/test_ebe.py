"""EBE matrix-free operator vs assembled representations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.assembly import assemble_bsr
from repro.sparse.ebe import EBEOperator
from repro.util.counters import tally_scope


@pytest.fixture(scope="module")
def ops(small_problem):
    A_ebe = small_problem.ebe_operator()
    A_crs = small_problem.crs_operator()
    return A_ebe, A_crs


def test_matvec_matches_bsr(ops, rng):
    A_ebe, A_crs = ops
    x = rng.standard_normal(A_ebe.n)
    y1, y2 = A_ebe @ x, A_crs @ x
    np.testing.assert_allclose(y1, y2, rtol=1e-12, atol=1e-12 * np.abs(y2).max())


def test_multi_rhs_matches_single(ops, rng):
    A_ebe, _ = ops
    X = rng.standard_normal((A_ebe.n, 4))
    Y = A_ebe.matvec(X)
    for k in range(4):
        np.testing.assert_allclose(Y[:, k], A_ebe @ X[:, k], rtol=1e-12)


def test_diagonal_blocks_match(ops):
    A_ebe, A_crs = ops
    d1, d2 = A_ebe.diagonal_blocks(), A_crs.diagonal_blocks()
    np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-10 * np.abs(d2).max())


def test_to_dense_matches(small_problem):
    # a tiny sub-problem keeps the dense assembly cheap
    from repro.fem.mesh import structured_box
    from repro.fem.elements import element_mass_stiffness
    from repro.fem.material import lame_parameters

    mesh = structured_box(1, 1, 1)
    ne = mesh.n_elems
    lam, mu = lame_parameters(np.full(ne, 1.0), np.full(ne, 2.0), np.full(ne, 1.0))
    _, Ke = element_mass_stiffness(mesh, np.full(ne, 1.0), lam, mu)
    op = EBEOperator(Ke, mesh.elems, mesh.n_nodes)
    dense = op.to_dense()
    ref = assemble_bsr(Ke, mesh.elems, mesh.n_nodes).toarray()
    np.testing.assert_allclose(dense, ref, atol=1e-10 * np.abs(ref).max())


def _reference_sweep(op, X):
    """The same gather and element apply as the sweep, then the
    sequential element-order scatter ``np.add.at`` performs."""
    r = X.shape[1]
    xe = op.precision.quantize(X[op._dof])
    ye = np.matmul(op.Ae, xe)
    Y = np.zeros((op.n, r))
    np.add.at(Y, op._dof_flat, ye.reshape(-1, r))
    return Y


@pytest.mark.parametrize("precision", ["fp64", "fp21"])
@pytest.mark.parametrize("r", [1, 4, 8])
def test_scatter_order_contract(small_problem, precision, r):
    """The CSR scatter plan accumulates each dof's contributions in
    element order: bit-equal to ``np.add.at`` from zeros, and close to
    the independently assembled dense operator."""
    op = small_problem.ebe_operator(precision=precision, backend="numpy")
    X = np.random.default_rng(100 + r).standard_normal((op.n, r))
    Y = op.matvec(X)
    np.testing.assert_array_equal(Y, _reference_sweep(op, X))

    D = op.to_dense()
    Xq = op.precision.quantize(X)
    # componentwise bound: rounding of |D| |X| over <= 24 * 30 terms
    bound = 1e3 * np.finfo(float).eps * (np.abs(D) @ np.abs(Xq))
    assert np.all(np.abs(Y - D @ Xq) <= bound)


def test_matvec_into_noncontiguous_column_slice(ops, rng):
    A_ebe, _ = ops
    r = 3
    X = rng.standard_normal((A_ebe.n, r))
    buf = np.full((A_ebe.n, r + 2), 7.0)
    view = buf[:, 1:1 + r]
    assert not view.flags.c_contiguous
    assert A_ebe.matvec(X, out=view) is view
    np.testing.assert_array_equal(view, A_ebe.matvec(X))
    np.testing.assert_array_equal(buf[:, [0, r + 1]], 7.0)


def test_tags_distinguish_fused_width(ops):
    A_ebe, _ = ops
    with tally_scope() as t:
        A_ebe @ np.zeros(A_ebe.n)
        A_ebe.matvec(np.zeros((A_ebe.n, 4)))
    assert t.calls("spmv.ebe1") == 1
    assert t.calls("spmv.ebe4") == 1


def test_fused_bytes_amortized(ops):
    """Per-case traffic must drop with fusion (Eq. 9's 1/r random
    access)."""
    A_ebe, _ = ops
    with tally_scope() as t1:
        A_ebe @ np.zeros(A_ebe.n)
    with tally_scope() as t4:
        A_ebe.matvec(np.zeros((A_ebe.n, 4)))
    per_case_1 = t1.total_bytes("spmv.ebe1")
    per_case_4 = t4.total_bytes("spmv.ebe4") / 4
    assert per_case_4 < per_case_1


def test_memory_smaller_than_crs(ops):
    """The paper's point: matrix-free needs far less device memory."""
    A_ebe, A_crs = ops
    assert A_ebe.memory_bytes() < 0.2 * A_crs.memory_bytes()


def test_operand_validation(ops):
    A_ebe, _ = ops
    with pytest.raises(ValueError):
        A_ebe @ np.zeros(A_ebe.n + 3)


def test_connectivity_validation(small_mesh):
    bad = np.zeros((1, 30, 30))
    elems = np.array([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]])
    with pytest.raises(ValueError):
        EBEOperator(bad, elems, n_nodes=5)  # nodes beyond n_nodes


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_linearity(ops, seed):
    """A(ax + by) == a Ax + b Ay for the matrix-free operator."""
    A_ebe, _ = ops
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, A_ebe.n))
    a, b = rng.standard_normal(2)
    lhs = A_ebe @ (a * x + b * y)
    rhs = a * (A_ebe @ x) + b * (A_ebe @ y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_symmetry(ops, seed):
    """x' A y == y' A x (element matrices are symmetric)."""
    A_ebe, _ = ops
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, A_ebe.n))
    assert np.dot(x, A_ebe @ y) == pytest.approx(np.dot(y, A_ebe @ x), rel=1e-9)
