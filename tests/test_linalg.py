import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import cofactor_det, cofactor_inverse, direct_factor
from oamix.errors import SingularMatrix
from oamix.linalg import _CHOLQR_ROWS, _inverse, det_xtx, factor, lstsq


def test_det_inv_diagonal():
    f = factor(np.diag([2.0, 4.0]))
    assert det_xtx(f) == pytest.approx(64.0)
    assert np.allclose(_inverse(f), np.diag([0.25, 0.0625]))


def test_det_inv_identity():
    f = factor(np.eye(5))
    assert det_xtx(f) == pytest.approx(1.0)
    assert np.allclose(_inverse(f), np.eye(5))


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
        f = factor(M)
        assert np.max(np.abs(_inverse(f) - inv_oracle)) <= 1e-9 * scale
        np.testing.assert_allclose(f.se, np.sqrt(np.diag(inv_oracle)),
                                   rtol=1e-9)


def test_inverse_residual_small():
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        inv = _inverse(factor(M))
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
    assert np.allclose(_inverse(fu) * np.outer(units, units), _inverse(f),
                       rtol=1e-12, atol=0)
    np.testing.assert_allclose(fu.se * units, f.se, rtol=1e-12)
    y = rng.normal(size=12)
    assert np.allclose(lstsq(fu, y) * units, lstsq(f, y), rtol=1e-12,
                       atol=0)


def test_column_norms_hold_where_squares_leave_the_float_range():
    # units whose squares overflow or underflow; RuntimeWarning is an
    # error here
    rng = np.random.default_rng(37)
    X = rng.normal(size=(600, 5))
    units = 2.0 ** np.array([-1000, -520, 0, 520, 1000])
    f, fu = factor(X), factor(X * units)
    np.testing.assert_allclose(fu.norms, f.norms * units, rtol=1e-14)
    np.testing.assert_allclose(fu.s, f.s, rtol=1e-13)
    np.testing.assert_allclose(fu.se * units, f.se, rtol=1e-13)


def test_symmetric_inverse_is_symmetric():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(7, 7)) + 7 * np.eye(7)
    inv = _inverse(factor(A))
    assert np.max(np.abs(inv - inv.T)) <= 1e-10


def test_singular_matrix_reports_offending_columns():
    col = np.array([1.0, 2.0, 3.0])
    M = np.column_stack([col, 2 * col, np.array([0.0, 1.0, 0.0])])
    with pytest.raises(SingularMatrix) as exc:
        factor(M)
    assert exc.value.offending == (1,)
    # given no names, factor names each column by its index
    assert exc.value.names == ("1",)
    assert str(exc.value).endswith("(columns: 1)")
    assert "rank 2 of 3" in str(exc.value)


def test_singular_matrix_message_without_columns_is_the_message():
    assert str(SingularMatrix("m")) == "m"


def test_factor_refuses_a_vector():
    with pytest.raises(ValueError, match="^expected a 2-D matrix$"):
        factor(np.ones(3))


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


@st.composite
def tall_matrices(draw):
    """n x p, p up to 44 and n from p to 1700, on both sides of the
    _CHOLQR_ROWS rows above which factor tries CholeskyQR2: seeded normal
    or {-1, 0, 1} entries, up to two columns zeroed or copied (scaled),
    and column scales spread over six decades."""
    p = draw(st.integers(1, 44))
    n = draw(st.one_of(st.integers(p, _CHOLQR_ROWS),
                       st.integers(_CHOLQR_ROWS + 1, 1700)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = (rng.normal(size=(n, p)) if draw(st.booleans())
         else rng.integers(-1, 2, size=(n, p)).astype(float))
    for _ in range(draw(st.integers(0, 2))):
        j, k = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        X[:, j] = draw(st.sampled_from([0.0, 1.0, -2.0])) * X[:, k]
    return X * 10.0 ** rng.uniform(-3, 3, p)


@settings(max_examples=80, deadline=None)
@given(tall_matrices())
def test_tall_factor_matches_one_direct_qr(X):
    try:
        s, inv = direct_factor(X)
    except SingularMatrix as e:
        with pytest.raises(SingularMatrix) as got:
            factor(X)
        assert got.value.offending == e.offending
        return
    f = factor(X)
    if s[0] / s[-1] > 100:
        return  # agreement to 1e-10 is promised on well-conditioned X only
    np.testing.assert_allclose(f.s, s, rtol=1e-10)
    d = np.sqrt(np.diag(inv))
    assert np.abs((_inverse(f) - inv) / np.outer(d, d)).max() <= 1e-10


def _tall(kind):
    """A tall matrix of 5 columns: well conditioned just past and at twice
    _CHOLQR_ROWS rows, or, past them, singular or with cond(Xs) ~ 1e7."""
    rng = np.random.default_rng(31)
    n = 2 * _CHOLQR_ROWS if kind == "twice" else _CHOLQR_ROWS + 1
    X = rng.normal(size=(n, 5))
    if kind == "singular":
        X[:, 3] = X[:, 0] - 2.0 * X[:, 1]
    elif kind == "ill":
        X[:, 4] = X[:, 0] + 1e-7 * X[:, 4]
    return X


@pytest.mark.parametrize("kind, calls", [("past", 0), ("twice", 0),
                                         ("singular", 1), ("ill", 1)])
def test_only_ill_conditioned_tall_matrices_take_a_householder_qr(
        qr_calls, kind, calls):
    X = _tall(kind)
    try:
        s, inv = direct_factor(X)
    except SingularMatrix as e:
        del qr_calls[:]
        with pytest.raises(SingularMatrix) as got:
            factor(X)
        assert got.value.offending == e.offending == (3,)
    else:
        del qr_calls[:]
        f = factor(X)
        assert (s[0] / s[-1] > 1e6) == (kind == "ill")
        np.testing.assert_allclose(f.s, s, rtol=1e-12)
        np.testing.assert_allclose(_inverse(f), inv, rtol=1e-12)
    assert len(qr_calls) == calls
