import numpy as np
import pytest

from _oracles import cofactor_det, cofactor_inverse
from oamix.errors import SingularMatrix
from oamix.linalg import det_xtx, factor, lstsq


def test_det_inv_diagonal():
    f = factor(np.diag([2.0, 4.0]))
    assert det_xtx(f) == pytest.approx(64.0)
    assert np.allclose(f.inv, np.diag([0.25, 0.0625]))


def test_det_inv_identity():
    f = factor(np.eye(5))
    assert det_xtx(f) == pytest.approx(1.0)
    assert np.allclose(f.inv, np.eye(5))


def test_det_matches_cofactor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        M = rng.uniform(-1, 1, (n, n))
        assert det_xtx(factor(M)) == pytest.approx(cofactor_det(M.T @ M),
                                                   rel=1e-10, abs=1e-12)


def test_inverse_matches_cofactor_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = rng.uniform(-1, 1, (9, 5))
        inv_oracle = cofactor_inverse(M.T @ M)
        scale = max(1.0, float(np.abs(inv_oracle).max()))
        assert np.max(np.abs(factor(M).inv - inv_oracle)) <= 1e-9 * scale


def test_inverse_residual_small():
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        inv = factor(M).inv
        assert np.max(np.abs(M.T @ M @ inv - np.eye(8))) <= 1e-8


def test_lstsq_trivial_and_round_trip():
    assert np.allclose(lstsq(factor(np.eye(3)), [1, 2, 3]), [1, 2, 3])
    assert np.allclose(lstsq(factor(np.diag([2.0, 4.0])), [2, 8]), [1, 2])
    rng = np.random.default_rng(17)
    X = rng.normal(size=(20, 6))
    beta = rng.normal(size=6)
    assert np.max(np.abs(lstsq(factor(X), X @ beta) - beta)) <= 1e-12
    y = rng.normal(size=20)
    b = lstsq(factor(X), y)
    assert np.max(np.abs(X.T @ (y - X @ b))) <= 1e-12
    assert np.allclose(b, np.linalg.lstsq(X, y, rcond=None)[0], atol=1e-12)


def test_det_properties():
    rng = np.random.default_rng(19)
    for _ in range(10):
        A = rng.uniform(-1, 1, (4, 4))
        B = rng.uniform(-1, 1, (4, 4))
        assert det_xtx(factor(A.T)) == pytest.approx(det_xtx(factor(A)),
                                                     rel=1e-9, abs=1e-12)
        assert det_xtx(factor(A @ B)) == pytest.approx(
            det_xtx(factor(A)) * det_xtx(factor(B)), rel=1e-9, abs=1e-12)


def test_row_and_column_order_leave_det_unchanged():
    rng = np.random.default_rng(23)
    A = rng.uniform(-1, 1, (5, 5))
    d = det_xtx(factor(A))
    assert det_xtx(factor(A[[1, 0, 2, 3, 4]])) == pytest.approx(d, rel=1e-9)
    assert det_xtx(factor(A[:, [1, 0, 2, 3, 4]])) == pytest.approx(d,
                                                                   rel=1e-9)


def test_column_units_do_not_change_the_answer():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(12, 4))
    units = np.array([1e-6, 1.0, 1e3, 1e8])
    f, fu = factor(X), factor(X * units)
    assert det_xtx(fu) == pytest.approx(det_xtx(f) * np.prod(units) ** 2,
                                        rel=1e-12)
    assert np.allclose(fu.inv * np.outer(units, units), f.inv,
                       rtol=1e-12, atol=0)
    y = rng.normal(size=12)
    assert np.allclose(lstsq(fu, y) * units, lstsq(f, y), rtol=1e-12,
                       atol=0)


def test_symmetric_inverse_is_symmetric():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(7, 7)) + 7 * np.eye(7)
    inv = factor(A).inv
    assert np.max(np.abs(inv - inv.T)) <= 1e-10


def test_singular_matrix_reports_offending_columns():
    col = np.array([1.0, 2.0, 3.0])
    M = np.column_stack([col, 2 * col, np.array([0.0, 1.0, 0.0])])
    with pytest.raises(SingularMatrix) as exc:
        factor(M)
    assert exc.value.offending == (1,)
    assert "rank 2 of 3" in str(exc.value)


def test_more_columns_than_rows_is_singular():
    with pytest.raises(SingularMatrix) as exc:
        factor(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert exc.value.offending == (2,)


def test_dependent_columns_and_rank():
    col = np.array([1.0, 0.0, 2.0, 1.0])
    X = np.column_stack([col, np.array([0.0, 1.0, 1.0, 0.0]),
                         col + 0.0, np.array([1.0, 1.0, 3.0, 1.0])])
    # column 2 duplicates column 0; column 3 = col0 + col1
    with pytest.raises(SingularMatrix) as exc:
        factor(X)
    assert exc.value.offending == (2, 3)
    assert "rank 2 of 4" in str(exc.value)
    with pytest.raises(SingularMatrix) as exc:
        factor(np.zeros((3, 2)))
    assert exc.value.offending == (0, 1)
    assert factor(np.eye(4)).s.size == 4
