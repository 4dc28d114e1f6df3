"""Kernel tests: the closed-form 2x2 exponential and the closed-form noise
integral, each against scipy and exact special cases."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fourwave import numkernel
from fourwave.errors import DimensionError, NumericError
from fourwave.numkernel import expm, noise_integral


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
        m = _random_complex(rng, (2, 2))
        m /= np.max(np.abs(m))      # entries bounded by 1
        assert np.max(np.abs(expm(m) - _ode_expm(m))) < 1e-8

    def test_det_equals_exp_trace(self):
        rng = np.random.default_rng(11)
        for scale in (0.3, 1.0, 2.0):
            m = _random_complex(rng, (2, 2), scale)
            det = np.linalg.det(expm(m))
            expected = np.exp(np.trace(m))
            assert abs(det - expected) <= 1e-10 * abs(expected)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", (1, 3, 4))
    def test_other_sizes_raise(self, n):
        with pytest.raises(DimensionError, match="2x2"):
            expm(np.zeros((5, n, n)))

    def test_overflow_and_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            expm(1e21 * np.eye(2))
        with pytest.raises(NumericError):
            expm(np.diag([np.nan, 0.0]))

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_identity(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, (2, 2), scale)
        norm = np.linalg.norm(m, 1)
        if norm > 10:
            m *= 10 / norm
        prod = expm(m) @ expm(-m)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_similarity_covariance(self, seed):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, (2, 2))
        p = _random_complex(rng, (2, 2)) + 3 * np.eye(2)
        if abs(np.linalg.det(p)) < 1e-3:
            return
        pinv = np.linalg.inv(p)
        left = expm(p @ m @ pinv)
        right = p @ expm(m) @ pinv
        assert np.max(np.abs(left - right)) < 1e-8 * max(1.0, np.max(np.abs(right)))

    def test_agrees_with_scipy(self):
        import scipy.linalg
        rng = np.random.default_rng(3)
        for m in _random_complex(rng, (6, 2, 2), 2.0):
            assert np.allclose(expm(m), scipy.linalg.expm(m), rtol=1e-11, atol=1e-11)


class TestStackedExpm:
    @staticmethod
    def _mixed_norm_stack(rng):
        # 1-norms from 1e-4 to 20 straddle |s| = 1, where the closed form
        # changes branch; member 5 is zero
        norms = np.geomspace(1e-4, 20.0, 12)
        stack = _random_complex(rng, (12, 2, 2))
        stack *= (norms / np.linalg.norm(stack, 1, axis=(-2, -1)))[:, None, None]
        stack[5] = 0.0
        return stack

    def test_each_member_equals_its_own_exponential(self):
        stack = self._mixed_norm_stack(np.random.default_rng(2))
        out = expm(stack)
        assert out.shape == stack.shape
        for member, value in zip(stack, out):
            assert np.array_equal(value, expm(member))
        assert np.array_equal(out[5], np.eye(2))

    def test_leading_axes_are_kept(self):
        stack = self._mixed_norm_stack(np.random.default_rng(9)).reshape(3, 4, 2, 2)
        out = expm(stack)
        assert out.shape == (3, 4, 2, 2)
        assert all(np.array_equal(out[i, j], expm(stack[i, j]))
                   for i in range(3) for j in range(4))

    def test_nan_in_one_member_raises(self):
        stack = self._mixed_norm_stack(np.random.default_rng(1))
        stack[7, 1, 0] = np.nan
        with pytest.raises(NumericError):
            expm(stack)

    def test_one_dimensional_input_raises(self):
        with pytest.raises(DimensionError):
            expm(np.zeros(4))


class TestClosedForm2x2:
    """expm of a 2x2 stack is c I + sigma (M - mu I)."""

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


def _van_loan(b, q):
    """Independent oracle: X = int_0^1 e^{Bu} Q e^{B^+ u} du from scipy's
    exponential of [[-B, Q], [0, B^+]] = [[e^-B, F12], [0, e^B^+]], with
    F12 = int_0^1 e^{-B(1-u)} Q e^{B^+ u} du, so X = (e^B^+)^+ F12."""
    import scipy.linalg
    f = scipy.linalg.expm(np.block([[-b, q], [np.zeros((2, 2)), b.conj().T]]))
    return f[2:, 2:].conj().T @ f[:2, 2:]


def _with_root(mu, s, h, x):
    """B = mu I + N, N = [[h, x], [(s^2 - h^2)/x, -h]], so N^2 = s^2 I."""
    return np.array([[mu + h, x], [(s * s - h * h) / x, mu - h]])


def _moments_upto_2(a):
    """M_0, M_1, M_2 of int_0^1 u^n e^{au} du for |a| >> 1 (forward recurrence)."""
    m0 = math.expm1(a) / a
    m1 = (math.exp(a) - m0) / a
    return m0, m1, (math.exp(a) - 2.0 * m1) / a


class TestNoiseIntegral:
    """noise_integral(B, Q) is the diagonal of int_0^1 e^{Bu} Q e^{B^+ u} du."""

    # the closed form against the Van Loan oracle, normwise: max |error| over
    # the diagonal <= SCIPY_RTOL max |X|.  The worst of 10000 draws was 4.5e-15
    # for random B (1-norms up to 10^0.5) and 3.8e-14 across the Taylor
    # threshold (1-norms up to about 10).  The oracle sets that: at 1-norms
    # near 10, scipy was off by up to 1.3e-12 where 50-digit mpmath put the
    # closed form within 6.3e-16
    SCIPY_RTOL = 2e-13

    @staticmethod
    def _hermitian(rng):
        k = _random_complex(rng, (2, 2))
        return k @ k.conj().T + np.diag(rng.standard_normal(2))     # indefinite at times

    def _assert_matches_van_loan(self, b, q):
        exact = _van_loan(b, q)
        got = noise_integral(b, q)
        assert got.dtype == float and got.shape == (2,)
        assert abs(got - exact.diagonal().real).max() <= self.SCIPY_RTOL * abs(exact).max(), b

    @given(seed=st.integers(0, 2**32 - 1), log10_norm=st.floats(-6.0, 0.5))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_agrees_with_van_loan(self, seed, log10_norm):
        rng = np.random.default_rng(seed)
        b = _random_complex(rng, (2, 2))
        b *= 10.0**log10_norm / np.linalg.norm(b, 1)
        self._assert_matches_van_loan(b, self._hermitian(rng))

    @given(seed=st.integers(0, 2**32 - 1), above=st.booleans(), real_part=st.booleans(),
           offset=st.floats(1e-9, 0.05))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_agrees_with_van_loan_across_the_taylor_threshold(self, seed, above, real_part,
                                                              offset):
        # |b| = 2|Re s| or 2|Im s| just above or below numkernel._SMALL_B
        rng = np.random.default_rng(seed)
        edge = 0.5 * numkernel._SMALL_B * (1.0 + offset if above else 1.0 - offset)
        other = rng.uniform(-1.5, 1.5)
        s = complex(edge, other) if real_part else complex(other, edge)
        h = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        mu = complex(*rng.uniform(-2, 2, 2))
        self._assert_matches_van_loan(_with_root(mu, s, h, x), self._hermitian(rng))

    def test_continuous_across_the_taylor_threshold(self):
        # N = [[h, 64], [0, -h]] is far from normal and s = h (exact: Re mu = 0) sits 2^-50
        # relative below and above _SMALL_B / 2 (q = 0), so X is mostly
        # I3 (N Q N^+): the Taylor series and the differences must agree there
        q = np.array([[2.0, 0.5 - 1.5j], [0.5 + 1.5j, 3.0]])
        sides = [noise_integral(0.2j * np.eye(2) + np.array([[h, 64.0], [0.0, -h]]), q)
                 for h in numkernel._SMALL_B / 2 * (1.0 + np.array([-2.0**-50, 2.0**-50]))]
        np.testing.assert_allclose(sides[0], sides[1], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mu", (0.0, 0.3 - 2.0j, -4.0, 9.0))
    def test_scalar_b(self, mu):
        # s = 0 and N = 0: X = phi(2 Re mu) Q
        q = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        a = 2.0 * mu.real if isinstance(mu, complex) else 2.0 * mu
        phi = math.expm1(a) / a if a else 1.0
        np.testing.assert_allclose(noise_integral(mu * np.eye(2), q), phi * np.array([2.0, 3.0]),
                                   rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("x", (1.0, 3.0 - 7.0j))
    def test_jordan_block(self, x):
        # s = 0, N = [[0, x], [0, 0]], a = 0: e^{Bu} = e^{i u Im mu} (I + u N), so
        # X_00 = Q00 + 2 Re(x Q10)/2 + |x|^2 Q11/3 and X_11 = Q11
        q = np.array([[2.0, 0.5 - 1.5j], [0.5 + 1.5j, 3.0]])
        got = noise_integral(np.array([[0.7j, x], [0.0, 0.7j]]), q)
        exact = [2.0 + (x * q[1, 0]).real + abs(x)**2 * 3.0 / 3.0, 3.0]
        np.testing.assert_allclose(got, exact, rtol=1e-15, atol=0.0)
        self._assert_matches_van_loan(np.array([[-1.3 + 0.7j, x], [0.0, -1.3 + 0.7j]]), q)

    @pytest.mark.parametrize("m10, part", ((-2.125, 0), (-0.13, 0), (1.875, 1), (-0.12, 1)),
                             ids=("p=0", "p=0-small", "q=0", "q=0-small"))
    def test_real_or_imaginary_root(self, m10, part):
        # h = 0.5 and m01 = 2 are real: s^2 = 0.25 + 2 m10 is real, so s is
        # exactly imaginary (p = 0) or exactly real (q = 0)
        b = (-0.4 + 0.9j) * np.eye(2) + np.array([[0.5, 2.0], [m10, -0.5]])
        s = np.sqrt(((b[0, 0] - b[1, 1]) / 2)**2 + b[0, 1] * b[1, 0])
        assert (s.real, s.imag)[part] == 0.0
        self._assert_matches_van_loan(b, self._hermitian(np.random.default_rng(4)))

    @pytest.mark.parametrize("a", (700.0, -700.0))
    @pytest.mark.parametrize("split", (2.6, 0.02), ids=("difference", "taylor"))
    def test_extreme_decay_or_growth_of_a_diagonal_b(self, a, split):
        # B = diag(l1, l2): X_kk = Q_kk phi(2 Re l_k)
        b = np.diag([(a + split) / 2 + 2.0j, (a - split) / 2 + 0.5j])
        q = np.array([[2.0, 1.0j], [-1.0j, 5.0]])
        exact = [2.0 * math.expm1(a + split) / (a + split),
                 5.0 * math.expm1(a - split) / (a - split)]
        np.testing.assert_allclose(noise_integral(b, q), exact, rtol=2e-14, atol=0.0)

    @pytest.mark.parametrize("a", (700.0, -700.0))
    def test_extreme_jordan_block(self, a):
        # s = 0 and |a| > N_MAX: I1, I2, I3 are M_0, M_1, M_2 of the forward recurrence
        x = 2.0 + 1.0j
        q = np.array([[2.0, 0.5 - 1.5j], [0.5 + 1.5j, 3.0]])
        m0, m1, m2 = _moments_upto_2(a)
        exact = [2.0 * m0 + 2.0 * m1 * (x * q[1, 0]).real + m2 * abs(x)**2 * 3.0, 3.0 * m0]
        got = noise_integral(np.array([[a / 2, x], [0.0, a / 2]]), q)
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0.0)

    def test_zero_q_gives_exact_zeros(self):
        b = _random_complex(np.random.default_rng(6), (5, 2, 2))
        assert np.array_equal(noise_integral(b, np.zeros((5, 2, 2))), np.zeros((5, 2)))

    def test_each_member_equals_its_own_integral(self):
        # every path side by side: both b large, one or both below the
        # threshold with a of either sign inside the series range and beyond
        # it, s = 0, a Jordan block and a zero B; the series term counts differ
        rng = np.random.default_rng(8)
        members = [_random_complex(rng, (2, 2), 3.0), np.zeros((2, 2)),
                   np.array([[0.2, 1.0], [0.0, 0.2]]), 1.5j * np.eye(2)]
        for mu in (-30.0, -9.0, -0.4, 0.0, 0.01, 3.3, 13.9, 14.1, 60.0):
            for s in (0.1, 0.1j, 0.03 + 0.2j, 3.0 + 0.2j, 0.2 + 3.0j, 2.0 + 3.0j):
                members.append(_with_root(mu / 2 + 1.0j, s, 0.4 - 0.1j, 0.8 + 0.3j))
        b = np.array(members)
        q = np.array([self._hermitian(rng) for _ in members])
        out = noise_integral(b, q)
        assert out.shape == (len(members), 2)
        for i in range(len(members)):
            assert np.array_equal(out[i], noise_integral(b[i], q[i])), i
        grid = noise_integral(b[:56].reshape(7, 8, 2, 2), q[:56].reshape(7, 8, 2, 2))
        assert np.array_equal(grid, out[:56].reshape(7, 8, 2))

    def test_q_broadcasts_against_the_stack(self):
        b = _random_complex(np.random.default_rng(2), (4, 2, 2))
        q = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        assert np.array_equal(noise_integral(b, q), noise_integral(b, np.broadcast_to(q, b.shape)))

    @pytest.mark.parametrize("b, q", (
        (np.diag([800.0, 0.0]), np.eye(2)),                   # phi(800) overflows
        (np.array([[0.0, 1e200], [1e200, 0.0]]), np.eye(2)),  # s^2 overflows
        (np.diag([np.nan, 0.0]), np.eye(2)),
        (np.zeros((2, 2)), np.diag([np.inf, 1.0]))))
    def test_overflow_and_nan_raise(self, b, q):
        stack, qs = np.zeros((3, 2, 2), dtype=complex), np.zeros((3, 2, 2), dtype=complex)
        stack[1], qs[1] = b, q
        with pytest.raises(NumericError, match="noise_integral"):
            noise_integral(stack, qs)

    @pytest.mark.parametrize("shape", ((2,), (3, 3), (4, 4), (2, 3)))
    def test_other_shapes_raise(self, shape):
        with pytest.raises(DimensionError, match="2x2"):
            noise_integral(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("q_shape", ((3, 3), (5, 2, 2), (2,)))
    def test_q_that_does_not_broadcast_to_b_raises(self, q_shape):
        # neither (3, 3) nor (5, 2, 2) broadcasts to (4, 2, 2); (2,) does, but
        # is no stack of 2x2 matrices
        with pytest.raises(DimensionError, match="2x2"):
            noise_integral(np.zeros((4, 2, 2)), np.zeros(q_shape))


def _moments_oracle(a):
    """numkernel._moments with its series summed as one (terms, N_MAX, members)
    product over the leading axis, which numpy adds in order."""
    out, far = np.empty((numkernel._N_MAX, a.size)), abs(a) > numkernel._N_MAX
    out[:, far] = numkernel._moments(a[far])
    for sign, members in enumerate((~far & (a >= 0), ~far & (a < 0))):
        if members.any():
            x = abs(a[members])
            terms = 22 + (3.0 * x).astype(int)
            k = np.arange(terms.max())[:, None]
            powers = np.where(k < terms, np.cumprod(np.where(k > 0, x, 1.0), axis=0), 0.0)
            w = numkernel._weights()[0][sign, :len(k)]
            sums = (powers[:, None] * w[..., None]).sum(0)
            out[:, members] = sums * np.exp(np.minimum(a[members], 0.0))
    return out


class TestMoments:
    """_moments adds its series in order, as the whole product summed over its
    leading axis does, for every stack size: one member too, where a sum over
    a (terms, 1) block would be pairwise."""

    # both signs, inside the series range and beyond it (|a| > N_MAX = 14)
    VALUES = (0.0, 1e-300, -1e-300, 0.3, -0.3, 1.0, -2.5, 7.7, -9.99, 13.9, -13.9, 14.0, -14.0,
              14.1, -14.1, 40.0, -60.0)

    @pytest.mark.parametrize("a", VALUES)
    def test_one_member_equals_the_oracle(self, a):
        a = np.array([a])
        assert numkernel._moments(a).tobytes() == _moments_oracle(a).tobytes()

    @pytest.mark.parametrize("members", (2, 300, 700))
    def test_stack_equals_the_oracle_and_each_member_alone(self, members):
        rng = np.random.default_rng(members)
        a = np.concatenate([self.VALUES, rng.uniform(-20.0, 20.0, members)])
        a = rng.permutation(a)[:members]
        got = numkernel._moments(a)
        assert got.tobytes() == _moments_oracle(a).tobytes()
        for i in range(members):
            assert got[:, i].tobytes() == numkernel._moments(a[i:i + 1])[:, 0].tobytes(), i

    def test_one_sign_stacks_equal_the_oracle(self):
        # a stack whose members all take the same series, as in a cold noise pass
        a = np.linspace(-0.33, 0.0, 153)
        for stack in (a, -a, a[:1], -a[-1:]):
            assert numkernel._moments(stack).tobytes() == _moments_oracle(stack).tobytes()


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
