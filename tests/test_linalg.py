import numpy as np
import pytest

from pursuitlab.linalg import DegenerateColumnError, factor_init
from pursuitlab.pursuit import _ranked


def correlate_oracle(a, r):
    # Independent double loop, no matmul.
    m, n = a.shape
    out = np.zeros(n)
    for j in range(n):
        s = 0.0
        for i in range(m):
            s += a[i, j] * r[i]
        out[j] = abs(s)
    return out


def dense_ls_oracle(a, y, sel):
    # Re-solve the subproblem from scratch via the normal equations.
    sub = a[:, list(sel)]
    coef = np.linalg.solve(sub.T @ sub, sub.T @ y)
    resid = y - sub @ coef
    return coef, resid


def random_instance(rng, rows, cols):
    a = rng.standard_normal((rows, cols))
    y = rng.standard_normal(rows)
    return a, y


# Column correlations are computed where the searches rank candidates.

def test_correlate_identity_example():
    a = np.eye(3)
    r = np.array([3.0, -4.0, 0.0])
    f = factor_init(a, r)
    assert _ranked(a, f).tolist() == [1, 0, 2]
    f.append(a, 1)
    assert _ranked(a, f).tolist() == [0, 2]


def test_correlate_matches_double_loop_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a, y = random_instance(rng, int(rng.integers(2, 12)), int(rng.integers(2, 20)))
        a = np.asfortranarray(a)
        order = _ranked(a, factor_init(a, y))
        assert sorted(order.tolist()) == list(range(a.shape[1]))
        # Oracle correlations along the ranking never increase.
        corr = correlate_oracle(a, y)[order]
        assert np.all(np.diff(corr) <= 1e-12)


def test_factor_init_is_empty():
    a = np.eye(4)
    y = np.array([1.0, 2.0, 0.0, -1.0])
    f = factor_init(a, y)
    assert f.indices == []
    assert f.k == 0
    np.testing.assert_array_equal(f.residual, y)
    assert f.residual_norm == pytest.approx(np.linalg.norm(y))


def test_factor_append_identity_example():
    a = np.eye(3)
    y = np.array([2.0, 5.0, 0.0])
    f = factor_init(a, y)
    f.append(a, 1)
    assert f.indices == [1]
    np.testing.assert_allclose(f.residual, [2.0, 0.0, 0.0], atol=1e-15)
    assert f.residual_norm == pytest.approx(2.0)
    np.testing.assert_allclose(f.coefficients(), [5.0], atol=1e-15)


def test_factor_append_rejects_duplicate_and_bad_index():
    a = np.asfortranarray(np.random.default_rng(3).standard_normal((5, 7)))
    y = np.arange(5.0)
    f = factor_init(a, y)
    f.append(a, 2)
    with pytest.raises(ValueError):
        f.append(a, 2)
    with pytest.raises(ValueError):
        f.append(a, 7)
    with pytest.raises(ValueError):
        f.append(a, -1)
    with pytest.raises(ValueError):
        f.append(a[:4], 3)  # row mismatch


def test_degenerate_column_raises_and_leaves_state_intact():
    # Two copies of e1: the second append adds no new direction.
    a = np.asfortranarray(np.array([[1.0, 1.0], [0.0, 0.0]]))
    y = np.array([1.0, 1.0])
    f = factor_init(a, y)
    f.append(a, 0)
    before = (list(f.indices), f.residual_norm, f.residual.copy())
    with pytest.raises(DegenerateColumnError):
        f.append(a, 1)
    assert f.indices == before[0]
    assert f.residual_norm == before[1]
    np.testing.assert_array_equal(f.residual, before[2])


def test_zero_column_is_degenerate():
    a = np.asfortranarray(np.array([[0.0, 1.0], [0.0, 1.0]]))
    f = factor_init(a, np.ones(2))
    with pytest.raises(DegenerateColumnError):
        f.append(a, 0)


def test_capacity_exhaustion():
    a = np.asfortranarray(np.eye(3))
    f = factor_init(a, np.ones(3), capacity=1)
    f.append(a, 0)
    with pytest.raises(ValueError):
        f.append(a, 1)


def test_oracle_equivalence_200_instances():
    # Spec-scale sweep: rows <= 12, cols <= 24, support <= 6, 1e-8 relative.
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(3, 13))
        cols = int(rng.integers(4, 25))
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        size = int(rng.integers(1, min(6, rows, cols) + 1))
        sel = rng.choice(cols, size=size, replace=False).tolist()

        f = factor_init(a, y)
        for j in sel:
            f.append(a, j)
        coef = f.coefficients()
        oracle_coef, oracle_resid = dense_ls_oracle(a, y, sel)

        scale = max(1.0, float(np.max(np.abs(oracle_coef))))
        np.testing.assert_allclose(coef, oracle_coef, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(f.residual, oracle_resid, rtol=0,
                                   atol=1e-8 * max(1.0, np.linalg.norm(y)))
        assert f.residual_norm == pytest.approx(np.linalg.norm(oracle_resid), abs=1e-8)


def test_residual_norms_monotone_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = int(rng.integers(4, 13))
        cols = int(rng.integers(6, 20))
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        ynorm = np.linalg.norm(y)
        f = factor_init(a, y)
        size = int(rng.integers(2, min(6, rows) + 1))
        norms = [f.residual_norm]
        for j in rng.choice(cols, size=size, replace=False):
            f.append(a, int(j))
            norms.append(f.residual_norm)
        # Non-increasing residual norms.
        assert all(b <= a_ for a_, b in zip(norms, norms[1:]))
        # Basis orthonormality and residual orthogonal to the selected span.
        q = f.q[:, :f.k]
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(f.k))) <= 1e-10
        assert np.max(np.abs(q.T @ f.residual)) <= 1e-10 * max(1.0, ynorm)
        assert np.max(np.abs(a[:, f.indices].T @ f.residual)) <= 1e-10 * max(1.0, ynorm)


def test_permutation_consistency():
    rng = np.random.default_rng(23)
    for _ in range(30):
        rows, cols = 10, 16
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        sel = rng.choice(cols, size=5, replace=False).tolist()

        f1 = factor_init(a, y)
        for j in sel:
            f1.append(a, j)
        perm = list(sel)
        rng.shuffle(perm)
        f2 = factor_init(a, y)
        for j in perm:
            f2.append(a, j)

        assert abs(f1.residual_norm - f2.residual_norm) <= 1e-10
        # Coefficients agree once keyed by column index.
        c1 = dict(zip(f1.indices, f1.coefficients()))
        c2 = dict(zip(f2.indices, f2.coefficients()))
        for j in sel:
            assert c1[j] == pytest.approx(c2[j], abs=1e-8)


def test_full_rank_square_append_all():
    rng = np.random.default_rng(31)
    a = np.asfortranarray(rng.standard_normal((6, 6)) + 6 * np.eye(6))
    y = rng.standard_normal(6)
    f = factor_init(a, y)
    for j in range(6):
        f.append(a, j)
    assert f.residual_norm <= 1e-10
    np.testing.assert_allclose(a @ f.coefficients(), y, atol=1e-9)


def test_copy_is_independent():
    a = np.asfortranarray(np.random.default_rng(5).standard_normal((8, 10)))
    y = np.random.default_rng(6).standard_normal(8)
    f = factor_init(a, y)
    f.append(a, 3)
    g = f.copy()
    g.append(a, 5)
    assert f.indices == [3] and g.indices == [3, 5]
    assert g.residual_norm <= f.residual_norm


def test_solve_rejects_singular_factor():
    a = np.asfortranarray(np.eye(2))
    f = factor_init(a, np.ones(2))
    f.append(a, 0)
    f.r[0, 0] = 0.0
    with pytest.raises(ValueError):
        f.coefficients()


def test_init_validates_inputs():
    with pytest.raises(ValueError):
        factor_init(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        factor_init(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        factor_init(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        factor_init(np.ones((2, 2)), np.array([1.0, np.nan]))
