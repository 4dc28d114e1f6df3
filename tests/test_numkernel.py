"""Kernel tests: the matrix exponential, Pade-13 and the 2x2 closed form."""

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

    @pytest.mark.parametrize("n", (2, 4))     # the closed form; Pade beyond 64 squarings
    def test_overflow_and_nonfinite_rejected(self, n):
        with pytest.raises(NumericError):
            expm(1e21 * np.eye(n))
        with pytest.raises(NumericError):
            expm(np.diag([np.nan] + [0.0] * (n - 1)))

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
        # so members need 0, 1 or 2 squarings, and, for n = 2, |s| = 1, where
        # the closed form changes branch; member 5 is zero
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


class TestClosedForm2x2:
    """expm of a 2x2 stack is c I + sigma (M - mu I) (numkernel._expm2)."""

    # relative 1-norm error against scipy's complex expm; the worst of 3000
    # real and 20000 complex random draws with 1-norms from 1e-8 to 200 was
    # 2.9e-13.  scipy takes the matrix as complex: on real matrices its real
    # path is off by up to 5.3e-12, the closed form by 1.8e-14 (both against
    # 40-digit mpmath)
    SCIPY_RTOL = 1e-12

    @given(seed=st.integers(0, 2**32 - 1), log10_norm=st.floats(-8.0, np.log10(200.0)),
           real=st.booleans())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_agrees_with_scipy(self, seed, log10_norm, real):
        import scipy.linalg
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((8, 2, 2)) if real else _random_complex(rng, (8, 2, 2))
        # the 1-norms spread over a decade below the drawn one
        norms = 10.0**log10_norm * np.geomspace(0.1, 1.0, 8)
        stack *= (norms / np.linalg.norm(stack, 1, axis=(-2, -1)))[:, None, None]
        for member, value in zip(stack, expm(stack)):
            exact = scipy.linalg.expm(member.astype(complex))
            assert (np.linalg.norm(value - exact, 1)
                    <= self.SCIPY_RTOL * np.linalg.norm(exact, 1)), member

    @pytest.mark.parametrize("mu", (0.0, -2.5, 0.3 + 2.0j, 40.0))
    def test_jordan_block(self, mu):
        # s = 0: e^mu [[1, x], [0, 1]]
        x = 3.0 - 7.0j
        got = expm(np.array([[mu, x], [0.0, mu]]))
        np.testing.assert_allclose(got, np.exp(mu) * np.array([[1.0, x], [0.0, 1.0]]),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mu", (0.0, 0.7, -3.0 + 1.0j))
    def test_half_turn(self, mu):
        # s = i pi: e^M = -e^mu I
        got = expm(np.array([[mu, np.pi], [-np.pi, mu]]))
        np.testing.assert_allclose(got, -np.exp(mu) * np.eye(2), rtol=0.0,
                                   atol=1e-15 * abs(np.exp(mu)))

    def test_no_intermediate_overflow(self):
        # mu = -800, s = 760: e^mu underflows and cosh s overflows, while
        # e^M = e^-800 [[cosh 760, sinh 760], [sinh 760, cosh 760]] is e^-40 / 2
        # in every entry
        got = expm(np.array([[-800.0, 760.0], [760.0, -800.0]]))
        np.testing.assert_allclose(got, np.full((2, 2), np.exp(-40.0) / 2.0), rtol=1e-14)

    def test_zero_stack_is_the_exact_identity(self):
        assert np.array_equal(expm(np.zeros((5, 2, 2))), np.broadcast_to(np.eye(2), (5, 2, 2)))

    @pytest.mark.parametrize("member", (
        [[800.0, 0.0], [0.0, 0.0]],          # e^800 overflows
        [[0.0, 1e300], [1e300, 0.0]],        # s^2 overflows
        [[700.0, 1e3], [1e3, 700.0]],        # e^(mu + s) overflows
        [[np.nan, 0.0], [0.0, 0.0]],
        [[0.0, np.inf], [0.0, 0.0]]))
    def test_overflow_and_nan_raise(self, member):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1] = member
        with pytest.raises(NumericError):
            expm(stack)


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
