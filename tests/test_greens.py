"""Tests for the vacuum commutator and field-energy kernels."""

import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import integrate_alone, quad_record
from qcc import greens
from qcc.greens import (
    KernelDomainError,
    KernelValue,
    commutator_continued,
    commutator_kernel,
    commutator_timelike,
    continued_root,
    field_energy_continued,
    field_energy_kernel,
    field_energy_timelike,
    regularized_momentum_integral,
)
from qcc.quadrature import DEFAULT_TOL, QuadratureError
from qcc.scenario import Dimension

D1, D2, D3 = Dimension.D1p1, Dimension.D2p1, Dimension.D3p1


class TestCommutatorKernel:
    @pytest.mark.parametrize("dim,dt,L,expected", [
        (D2, math.sqrt(2.0), 1.0, 1.0 / (2.0 * math.pi)),
        (D1, 7.3, 0.5, 0.5),
        (D1, -7.3, 0.5, -0.5),
        (D3, 2.0, 1.0, 0.0),
        (D1, 0.5, 1.0, 0.0),
        (D2, 0.5, 1.0, 0.0),
        (D3, 0.5, 1.0, 0.0),
        (D2, 2.0, 1.0, 1.0 / (2.0 * math.pi * math.sqrt(3.0))),
    ])
    def test_values(self, dim, dt, L, expected):
        kv = commutator_kernel(dim, dt, L)
        assert kv.value == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("dim", [D1, D2])
    def test_antisymmetry_random(self, dim, rng):
        for _ in range(50):
            L = float(rng.uniform(0.1, 4.0))
            dt = L * float(rng.uniform(1.01, 10.0))
            assert (commutator_kernel(dim, -dt, L).value
                    == -commutator_kernel(dim, dt, L).value)

    def test_spacelike_zero_random(self, rng):
        for _ in range(50):
            L = float(rng.uniform(0.2, 5.0))
            dt = L * float(rng.uniform(-0.99, 0.99))
            for dim in Dimension:
                kv = commutator_kernel(dim, dt, L)
                assert kv.value == 0.0
                assert kv.on_lightcone_delta == 0.0
                assert field_energy_kernel(dim, dt, L) == KernelValue(0.0)

    def test_2p1_decay_in_dt(self):
        L = 1.0
        vals = [commutator_kernel(D2, dt, L).value
                for dt in np.linspace(1.01, 20.0, 400)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_1p1_boundary_uses_inside_value(self):
        # the jump at |dt| = L is assigned the interior constant
        assert commutator_kernel(D1, 1.0, 1.0).value == 0.5
        assert commutator_kernel(D1, -1.0, 1.0).value == -0.5

    def test_2p1_on_cone_raises(self):
        with pytest.raises(KernelDomainError):
            commutator_kernel(D2, 1.0, 1.0)

    def test_3p1_lightcone_delta(self):
        L = 2.0
        kv = commutator_kernel(D3, L, L)
        assert kv.value == 0.0
        assert kv.on_lightcone_delta == pytest.approx(-1.0 / (4.0 * math.pi * L))
        kv_past = commutator_kernel(D3, -L, L)
        assert kv_past.on_lightcone_delta == pytest.approx(
            1.0 / (4.0 * math.pi * L))

    def test_3p1_coincident_points_rejected(self):
        with pytest.raises(KernelDomainError):
            commutator_kernel(D3, 0.0, 0.0)


@pytest.mark.parametrize("kernel", [commutator_kernel, field_energy_kernel])
@pytest.mark.parametrize("dim", list(Dimension), ids=str)
def test_negative_separation_rejected(kernel, dim):
    with pytest.raises(ValueError, match="separation must be >= 0"):
        kernel(dim, 2.0, -1.0)


class TestFieldEnergyKernel:
    def test_2p1_closed_form_value(self):
        kv = field_energy_kernel(D2, 2.0, 1.0)
        assert kv.value == pytest.approx(-2.0 / (2.0 * math.pi * 3.0 ** 1.5),
                                         rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dim,tau,L", [
        (D1, 5.0, 1.0),
        (D3, 5.0, 1.0),
        (D2, 0.3, 1.0),
        (D1, 0.3, 1.0),
        (D3, 0.3, 1.0),
    ])
    def test_zero_cases(self, dim, tau, L):
        assert field_energy_kernel(dim, tau, L).value == 0.0

    def test_parity_in_tau(self, rng):
        for _ in range(30):
            L = float(rng.uniform(0.3, 3.0))
            tau = L * float(rng.uniform(1.05, 8.0))
            assert (field_energy_kernel(D2, tau, L).value
                    == field_energy_kernel(D2, -tau, L).value)

    def test_on_cone_raises(self):
        for dim in Dimension:
            with pytest.raises(KernelDomainError):
                field_energy_kernel(dim, 1.5, 1.5)

    def test_strictly_negative_inside_cone(self, rng):
        for _ in range(30):
            L = float(rng.uniform(0.3, 3.0))
            tau = L * float(rng.uniform(1.05, 8.0))
            assert field_energy_kernel(D2, tau, L).value < 0.0


class TestFieldKernelIsLagDerivative:
    """F = dD/dtau pointwise inside the cone: central differences of the
    commutator kernel against the field-energy kernel."""

    @staticmethod
    def d_dtau(dim, tau, L):
        # a step well inside the distance |tau| - L to the cone
        h = 1e-4 * (abs(tau) - L)
        return (commutator_kernel(dim, tau + h, L).value
                - commutator_kernel(dim, tau - h, L).value) / (2.0 * h)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_2p1_central_difference(self, L, sign):
        for ratio in np.linspace(1.05, 10.0, 25):
            tau = sign * L * ratio
            f = field_energy_kernel(D2, tau, L).value
            assert abs(self.d_dtau(D2, tau, L) - f) <= 1e-6 * abs(f)

    @pytest.mark.parametrize("dim", [D1, D3])
    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    def test_cone_supported_dimensions_vanish(self, dim, L):
        for ratio in np.linspace(1.05, 10.0, 25):
            for tau in (L * ratio, -L * ratio):
                assert self.d_dtau(dim, tau, L) == 0.0
                assert field_energy_kernel(dim, tau, L).value == 0.0


class TestNearCone:
    """Beyond the cone both kernels are written in x = |tau| - L, which
    keeps every digit there; sqrt(tau^2 - L^2) loses them to cancellation
    (2.3e-10 relative for D at x = 2^-30, L = 1)."""

    # pi to 40 digits; math.pi is within 4e-17 of it
    PI = Decimal("3.141592653589793238462643383279502884197")

    @pytest.mark.parametrize("k", [30, 40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_2p1_exact_to_rounding(self, k, sign):
        L = 1.0
        tau = sign * (1.0 + 2.0 ** -k)
        # tau^2 - L^2, exact as a fraction, then its root to 40 digits
        q = Fraction(tau) ** 2 - Fraction(L) ** 2
        with localcontext() as ctx:
            ctx.prec = 40
            r = (Decimal(q.numerator) / Decimal(q.denominator)).sqrt()
            exact_d = Decimal(sign) / (2 * self.PI * r)
            exact_f = -Decimal(abs(tau)) / (2 * self.PI * r ** 3)
            taus = np.array([tau])
            xs = np.abs(taus) - L
            for value, exact in (
                    (commutator_kernel(D2, tau, L).value, exact_d),
                    (commutator_timelike(D2, taus, xs, L)[0], exact_d),
                    (field_energy_kernel(D2, tau, L).value, exact_f),
                    (field_energy_timelike(D2, taus, xs, L)[0], exact_f)):
                assert abs(Decimal(float(value)) - exact) \
                    <= Decimal("1e-15") * abs(exact)


def _bits(v):
    return float(v).hex()


class TestOneKernelEverywhere:
    """The scalar kernels are the 0-d case of the vectorized ones, and
    the continued 2+1D kernels continue them."""

    @given(L=st.floats(1e-3, 10.0), x=st.floats(1e-12, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_agreement(self, L, x):
        assume(L + x > L)
        taus = np.array([L + x, -(L + x)])
        xs = np.abs(taus) - L
        eps = np.finfo(float).eps
        for dim in Dimension:
            d = commutator_timelike(dim, taus, xs, L)
            f = field_energy_timelike(dim, taus, xs, L)
            for i, tau in enumerate(taus.tolist()):
                x_i = abs(tau) - L
                dv = commutator_kernel(dim, tau, L).value
                fv = field_energy_kernel(dim, tau, L).value
                assert _bits(dv) == _bits(
                    commutator_timelike(dim, tau, x_i, L))
                assert _bits(fv) == _bits(
                    field_energy_timelike(dim, tau, x_i, L))
                # the roots of D and F round correctly on floats and
                # arrays alike
                assert _bits(dv) == _bits(d[i])
                assert _bits(fv) == _bits(f[i])
            if dim is not D2:
                # 1+1D and 3+1D: F is supported on the cone only, and
                # only the 2+1D kernels are continued
                assert np.all(f == 0.0)
                assert field_energy_kernel(dim, taus[0], L).value == 0.0
                continue
            z = taus[:1] + 0j
            r = continued_root(z, L)
            for cont, real in ((commutator_continued(z, r), d[:1]),
                               (field_energy_continued(z, r), f[:1])):
                assert np.all(np.imag(cont) == 0.0)
                assert np.all(np.abs(np.real(cont) - real)
                              <= 8.0 * eps * np.abs(real))

    def test_seeded_array_agrees_bit_for_bit(self):
        # 1,000 lags on one array, as the lag quadrature evaluates them: a
        # vectorized power that rounds apart from libm's shows up here
        rng = np.random.default_rng(2014)
        L = 1.5
        taus = (L + rng.uniform(1e-3, 60.0, 1000)) * rng.choice([-1.0, 1.0],
                                                               1000)
        xs = np.abs(taus) - L
        d = commutator_timelike(D2, taus, xs, L)
        f = field_energy_timelike(D2, taus, xs, L)
        for i, tau in enumerate(taus.tolist()):
            assert _bits(d[i]) == _bits(commutator_kernel(D2, tau, L).value)
            assert _bits(f[i]) == _bits(field_energy_kernel(D2, tau, L).value)


class TestLargeLags:
    """Far from the cone D -> sgn(tau) / (2 pi |tau|) and F -> -1 / (2 pi
    tau^2).  Formed as written, 2 pi (x (|tau| + L))^{3/2} overflows past
    |tau| ~ 3.1e102 and x (|tau| + L) past ~1.3e154 (the continued F's
    r^3 past ~5.6e102, where it read nan); every finite value here must
    stay finite, without a warning, and near its far field."""

    @pytest.mark.parametrize("m", [1e8, 1e102, 1e103, 1e150, 1e300])
    def test_continued_F(self, m):
        z = m * np.exp(1j * np.linspace(0.0, 0.5 * math.pi, 5))
        f = field_energy_continued(z, continued_root(z, 1.0))
        far = -(1.0 / z) / z / (2.0 * math.pi)
        assert np.all(np.isfinite(f))
        assert np.all(np.abs(f - far) <= 1e-12 * np.abs(far) + 1e-300)

    @pytest.mark.parametrize("tau", [1e8, 1e101, 1e103, 1e153, 1e155,
                                     1e300])
    @pytest.mark.parametrize("L", [0.0, 1.0])
    def test_real_axis_kernels(self, tau, L):
        for taus in (tau, np.array([tau, -2.0 * tau])):
            xs = np.abs(taus) - L
            d = commutator_timelike(D2, taus, xs, L)
            f = field_energy_timelike(D2, taus, xs, L)
            far_d = np.sign(taus) / np.abs(taus) / (2.0 * math.pi)
            far_f = -(1.0 / taus) / taus / (2.0 * math.pi)
            assert np.all(np.isfinite(d)) and np.all(np.isfinite(f))
            assert np.all(np.abs(d - far_d) <= 1e-12 * np.abs(far_d))
            assert np.all(np.abs(f - far_f)
                          <= 1e-12 * np.abs(far_f) + 1e-300)
        # a lag of 2 on the same array takes the overflow-free form with
        # it, a few ulps from its own value
        taus = np.array([2.0, tau])
        xs = np.abs(taus) - L
        for kernel, scalar in ((commutator_timelike, commutator_kernel),
                               (field_energy_timelike, field_energy_kernel)):
            assert kernel(D2, taus, xs, L)[0] == pytest.approx(
                scalar(D2, 2.0, L).value, rel=1e-14, abs=0.0)


def _levels_alone(dim, tau, L, eps):
    """The damped levels on the per-call route: each level's direction
    pieces integrated alone by integrate_1d, each a QuadResult or the
    QuadratureError raised (1+1D: the shared route's exact levels)."""
    if dim is D1:
        return greens._damped_levels(dim, tau, L, eps)
    cuts = [0.0, math.acos(tau / L), math.pi] if abs(tau) < L else [0.0, math.pi]
    tol = DEFAULT_TOL * 1e-2 / (len(cuts) - 1)
    return [[integrate_alone(
        lambda theta, e=e: greens._directions(dim.spatial, tau, L, e, theta),
        lo, hi, tol) for lo, hi in zip(cuts, cuts[1:])] for e in eps]


def _records(levels, roundoff_best=False):
    """Levels of pieces as quad_records; with ``roundoff_best`` a roundoff
    failure is recorded as its best estimate."""
    return [[quad_record(r.best if roundoff_best and getattr(
        r, "reason", None) == "roundoff" else r) for r in level]
        for level in levels]


class TestRegularizedMomentumIntegral:
    """The damped-and-extrapolated oracle that certifies the 2+1D
    closed form above; slow-ish, so the full certification grid lives in
    the acceptance tests and only spot checks run here."""

    def test_matches_2p1_closed_form(self):
        res = regularized_momentum_integral(D2, 2.0, 1.0)
        closed = field_energy_kernel(D2, 2.0, 1.0).value
        assert abs(res.value - closed) / abs(closed) < 1e-6
        assert abs(res.value - closed) <= 10 * max(res.abs_error_estimate,
                                                   1e-12)

    @pytest.mark.parametrize("dim,tau,L", [
        (D2, 0.3, 1.0),   # spacelike
        (D1, 5.0, 1.0),   # no off-cone support on a line
        (D3, 5.0, 1.0),   # strong Huygens: no support inside the cone
        (D3, 0.3, 1.0),   # spacelike
    ])
    def test_zero_cases_within_tolerance(self, dim, tau, L):
        res = regularized_momentum_integral(dim, tau, L)
        assert abs(res.value) < 1e-6

    def test_3p1_coincident_detectors_rejected(self):
        with pytest.raises(ValueError, match="needs L > 0"):
            regularized_momentum_integral(D3, 1.0, 0.0)

    def test_roundoff_floor_keeps_the_best_estimate(self):
        # just outside a short 3+1D cone the direction integrals' shares of
        # the tolerance sit below their roundoff floor, so each level keeps
        # the best estimate its roundoff failure carries; F is 0 there
        tau, L = 0.03, 0.1
        eps = [0.3 * abs(abs(tau) - L) * 0.5 ** j for j in range(7)]
        alone = _levels_alone(D3, tau, L, eps)
        reasons = [r.reason for level in alone for r in level
                   if isinstance(r, QuadratureError)]
        assert reasons and set(reasons) == {"roundoff"}
        assert _records(greens._damped_levels(D3, tau, L, eps)) \
            == _records(alone, roundoff_best=True)
        res = regularized_momentum_integral(D3, tau, L)
        assert abs(res.value) <= res.abs_error_estimate

    @pytest.mark.parametrize("dim,tau,L", [
        (D2, 2.0, 1.0), (D2, 0.3, 1.0), (D2, -0.5, 1.0), (D2, 1.5, 0.0),
        (D2, 9.99, 10.0), (D2, -10.001, 10.0), (D2, 1.0, 1.0),
        (D3, 5.0, 1.0), (D3, 0.3, 1.0), (D3, -0.3, 1.0), (D3, 9.99, 10.0),
        (D3, -10.001, 10.0), (D1, 5.0, 1.0),
    ])
    def test_levels_equal_one_integral_per_piece(self, dim, tau, L):
        # the seven levels' pieces, one shared pass, against integrate_1d
        # on each level's pieces alone, bit for bit; a roundoff failure
        # there stands in its best estimate (the roundoff test above
        # checks one point where they do fail)
        scale = abs(abs(tau) - L) or max(abs(tau), L, 1.0)
        eps = [0.3 * scale * 0.5 ** j for j in range(7)]
        assert _records(greens._damped_levels(dim, tau, L, eps)) \
            == _records(_levels_alone(dim, tau, L, eps), roundoff_best=True)

    def test_other_failures_are_raised(self, monkeypatch):
        # a budget below one GK15 panel: the first direction integral
        # fails on it, and the oracle raises that failure instead of
        # taking a best estimate from it
        shared = greens._integrate_shared
        monkeypatch.setattr(greens, "_integrate_shared",
                            lambda *args: shared(*args, budget=14))
        with pytest.raises(QuadratureError) as excinfo:
            regularized_momentum_integral(D2, 2.0, 1.0)
        assert excinfo.value.reason == "budget"

    def test_certification_grid_is_cheap_and_bounded(self):
        # the acceptance grid: only the directions are integrated, so each
        # point costs a few GK15 panels per level, and the reported error
        # covers the true one
        for ratio in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            for L in (0.5, 1.0, 2.0):
                tau = ratio * L
                res = regularized_momentum_integral(D2, tau, L)
                closed = field_energy_kernel(D2, tau, L).value
                assert res.evaluations <= 2000
                assert abs(res.value - closed) <= res.abs_error_estimate

    @pytest.mark.parametrize("weights,levels", [
        (greens._WEIGHTS, range(7)), (greens._WEIGHTS_LAST, range(1, 7))])
    def test_extrapolation_weights_are_exact_at_zero(self, weights, levels):
        # the polynomial through the levels at eps = 0: 1 is kept, and
        # every eps^k up to the fit's degree vanishes, eps^6 with seven
        assert len(weights) == len(levels)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
        for k in range(1, len(levels)):
            assert abs(math.fsum(w * 0.5 ** (j * k)
                                 for w, j in zip(weights, levels))) <= 1e-12

    @pytest.mark.parametrize("ratio", [1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_weights_give_the_neville_extrapolation(self, ratio, L):
        # the grid, which holds validate's three points: the weighted sum
        # is the value of a Neville tableau over the same levels at eps = 0
        tau = ratio * L
        eps = [0.3 * abs(tau - L) * 0.5 ** j for j in range(7)]
        p = [math.fsum(r.value for r in level)
             for level in greens._damped_levels(D2, tau, L, eps)]
        for j in range(1, 7):
            p = [(eps[i + j] * p[i] - eps[i] * p[i + 1])
                 / (eps[i + j] - eps[i]) for i in range(7 - j)]
        value = regularized_momentum_integral(D2, tau, L).value
        assert abs(value - p[0]) <= 1e-13 * abs(p[0])

    @pytest.mark.parametrize("dim", [D2, D3])
    @pytest.mark.parametrize("tau", [9.99, -9.99, 10.001, -10.001])
    def test_finishes_next_to_a_long_cone(self, dim, tau):
        # a = tau - L cos(theta) is formed without cancelling near a = 0,
        # where subtracting L cos(theta) would lose ~eps L: the direction
        # integrals converge instead of bisecting until the budget
        res = regularized_momentum_integral(dim, tau, 10.0)
        closed = field_energy_kernel(dim, tau, 10.0).value
        assert res.evaluations <= 20_000
        assert abs(res.value - closed) <= res.abs_error_estimate


def test_validation_suite_needs_no_scipy():
    code = ("import sys; from qcc.validation import run_all_checks; "
            "assert all(r.passed for r in run_all_checks()); "
            "assert 'scipy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_kernel_value_defaults():
    kv = KernelValue(0.25)
    assert kv.on_lightcone_delta == 0.0
