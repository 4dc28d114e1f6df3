"""Kernel tests: the matrix exponential."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fourwave.errors import DimensionError, NumericError
from fourwave.numkernel import expm


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _ode_expm(m):
    """Independent oracle: integrate dX/dz = m X, X(0) = I, column by column."""
    n = m.shape[0]
    cols = []
    for k in range(n):
        y0 = np.zeros(n, dtype=complex)
        y0[k] = 1.0
        sol = solve_ivp(lambda _, y: m @ y, (0.0, 1.0), y0,
                        rtol=1e-12, atol=1e-14, method="DOP853")
        cols.append(sol.y[:, -1])
    return np.array(cols).T


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal_phase(self):
        theta = np.pi / 2
        m = np.diag([1j * theta, -1j * theta])
        assert np.allclose(expm(m), np.diag([1j, -1j]), atol=1e-14)

    def test_matches_ode_integration(self):
        rng = np.random.default_rng(7)
        m = _random_complex(rng, (4, 4))
        m /= np.max(np.abs(m))      # entries bounded by 1
        assert np.max(np.abs(expm(m) - _ode_expm(m))) < 1e-8

    def test_det_equals_exp_trace(self):
        # moderate norms: the determinant of a 5x5 exponential loses all
        # double-precision digits once eigenvalues spread past ~ +/- 15
        rng = np.random.default_rng(11)
        for scale in (0.3, 1.0, 2.0):
            m = _random_complex(rng, (5, 5), scale)
            det = np.linalg.det(expm(m))
            expected = np.exp(np.trace(m))
            assert abs(det - expected) <= 1e-10 * abs(expected)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_overflow_and_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            expm(1e21 * np.eye(2))
        with pytest.raises(NumericError):
            expm(np.array([[np.nan, 0], [0, 0]]))

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_identity(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, (3, 3), scale)
        norm = np.linalg.norm(m, 1)
        if norm > 10:
            m *= 10 / norm
        prod = expm(m) @ expm(-m)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_similarity_covariance(self, seed):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, (3, 3))
        p = _random_complex(rng, (3, 3)) + 3 * np.eye(3)
        if abs(np.linalg.det(p)) < 1e-3:
            return
        pinv = np.linalg.inv(p)
        left = expm(p @ m @ pinv)
        right = p @ expm(m) @ pinv
        assert np.max(np.abs(left - right)) < 1e-8 * max(1.0, np.max(np.abs(right)))

    def test_agrees_with_scipy(self):
        import scipy.linalg
        rng = np.random.default_rng(3)
        m = _random_complex(rng, (6, 6), 2.0)
        assert np.allclose(expm(m), scipy.linalg.expm(m), rtol=1e-11, atol=1e-11)


class TestStackedExpm:
    @staticmethod
    def _mixed_norm_stack(rng, n):
        # 1-norms from 1e-4 to 20 straddle the Pade threshold (about 5.4),
        # so members need 0, 1 or 2 squarings; member 5 is zero
        norms = np.geomspace(1e-4, 20.0, 12)
        stack = _random_complex(rng, (12, n, n))
        stack *= (norms / np.linalg.norm(stack, 1, axis=(-2, -1)))[:, None, None]
        stack[5] = 0.0
        return stack

    @pytest.mark.parametrize("n", (2, 4))
    def test_each_member_equals_its_own_exponential(self, n):
        stack = self._mixed_norm_stack(np.random.default_rng(n), n)
        out = expm(stack)
        assert out.shape == stack.shape
        for member, value in zip(stack, out):
            assert np.array_equal(value, expm(member))
        assert np.array_equal(out[5], np.eye(n))

    def test_leading_axes_are_kept(self):
        stack = self._mixed_norm_stack(np.random.default_rng(9), 2).reshape(3, 4, 2, 2)
        out = expm(stack)
        assert out.shape == (3, 4, 2, 2)
        assert all(np.array_equal(out[i, j], expm(stack[i, j]))
                   for i in range(3) for j in range(4))

    def test_nan_in_one_member_raises(self):
        stack = self._mixed_norm_stack(np.random.default_rng(1), 2)
        stack[7, 1, 0] = np.nan
        with pytest.raises(NumericError):
            expm(stack)

    def test_one_dimensional_input_raises(self):
        with pytest.raises(DimensionError):
            expm(np.zeros(4))


def test_import_loads_no_scipy():
    # scipy is a test dependency only: importing scipy.linalg would add
    # 0.3 to 0.6 s to the start-up of every run
    import fourwave
    src = os.path.dirname(os.path.dirname(fourwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, fourwave; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
