"""Tests for the adaptive quadrature layer."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import demo_scenario, integrate_alone, quad_record
from qcc import quadrature, signalling, validation
from qcc.greens import commutator_kernel
from qcc.quadrature import (
    QuadResult,
    QuadratureError,
    default_tolerance,
    integrate_1d,
    integrate_2d_rect,
)
from qcc.scenario import Dimension
from qcc.validation import _poly_cos_integral

# (f, a, b, exact) with exact from elementary antiderivatives
KNOWN_INTEGRALS = [
    (lambda t: np.sin(3.0 * t), 0.0, 3.0, (1.0 - math.cos(9.0)) / 3.0),
    (lambda t: np.ones_like(t), 0.0, 1.0, 1.0),
    (lambda t: t ** 3, -1.0, 2.0, 15.0 / 4.0),
    (lambda t: np.exp(-t), 0.0, 5.0, 1.0 - math.exp(-5.0)),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
]


class TestIntegrate1d:
    @pytest.mark.parametrize("f,a,b,exact", KNOWN_INTEGRALS)
    def test_known_integrals(self, f, a, b, exact):
        res = integrate_1d(f, a, b, 1e-10)
        assert abs(res.value - exact) <= max(1e-10, 10 * res.abs_error_estimate)
        assert res.evaluations > 0

    @pytest.mark.parametrize("f,a,b,exact", KNOWN_INTEGRALS)
    def test_error_estimate_honest(self, f, a, b, exact):
        res = integrate_1d(f, a, b, 1e-8)
        true_err = abs(res.value - exact)
        assert true_err <= max(10 * res.abs_error_estimate, 5e-14)

    def test_oscillatory_with_panel_cap(self):
        omega = 40.0
        res = integrate_1d(lambda t: np.cos(omega * t), 0.0, 10.0, 1e-11,
                           max_panel_width=(2 * math.pi / omega) / 4)
        assert abs(res.value - math.sin(400.0) / 40.0) < 1e-10

    def test_tighter_tolerance_costs_more(self):
        f = lambda t: np.sin(7.0 * t) * np.exp(t)
        loose = integrate_1d(f, 0.0, 3.0, 1e-4)
        tight = integrate_1d(f, 0.0, 3.0, 1e-12)
        assert tight.evaluations >= loose.evaluations
        assert tight.abs_error_estimate <= 1e-12

    def test_degenerate_interval_rejected(self):
        # an infinite limit used to spend the whole evaluation budget
        for a, b in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0),
                     (-math.inf, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite a < b"):
                integrate_1d(np.ones_like, a, b, 1e-8)

    def test_bad_tolerance_rejected(self):
        for tol in (-1e-8, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                integrate_1d(np.ones_like, 0.0, 1.0, tol)
            with pytest.raises(ValueError, match="finite and positive"):
                integrate_2d_rect(lambda x, y: 1.0, (0.0, 1.0), (0.0, 1.0),
                                  tol)

    def test_budget_failure_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(lambda t: np.cos(200.0 * t), 0.0, 10.0, 1e-14,
                         budget=300)
        assert excinfo.value.reason == "budget"
        best = excinfo.value.best
        assert isinstance(best, QuadResult)
        assert best.evaluations <= 300
        assert best.abs_error_estimate > 1e-14

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError, match="non-finite") as excinfo:
            integrate_1d(lambda t: np.full_like(t, math.nan), 0.0, 1.0, 1e-8)
        assert excinfo.value.reason == "non-finite"
        assert excinfo.value.best is None

    def test_unsplittable_panels_reported(self):
        # two ulps wide: bisection runs out of floats while the noise-like
        # integrand keeps the Kronrod-Gauss difference above the floor
        b = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(lambda t: np.sin(1e18 * t), 1.0, b, 1e-25)
        assert excinfo.value.reason == "unsplittable"
        assert excinfo.value.best is not None

    def test_scalar_integrand_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            integrate_1d(lambda t: 1.0, 0.0, 1.0, 1e-8)

    def test_uncountable_initial_panelling_fails_on_budget(self):
        # 1e310 panels: the count is inf, too large for an int
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(np.cos, 0.0, 1e300, 1e-8, max_panel_width=1e-10)
        assert excinfo.value.reason == "budget"
        assert "needs inf evaluations" in str(excinfo.value)
        assert len(str(excinfo.value)) < 200

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="reason"):
            QuadratureError("boom", "tired")

    def test_quadresult_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, 10)
        with pytest.raises(ValueError):
            QuadResult(1.0, 1e-3, 0)


class TestConvergedInitialPanelling:
    """An initial panelling that already meets tol is summed at once."""

    @staticmethod
    def f(t):
        return t * np.cos(5.0 * t)

    def test_returns_fsum_of_initial_panels(self):
        a, b, width = 0.0, 6.0, 0.3
        n0 = math.ceil((b - a) / width)
        flat, halves = quadrature._panel_nodes(np.linspace(a, b, n0 + 1))
        k15, err, _ = quadrature._panel_rules(self.f(flat), flat, halves,
                                              flat.size)
        res = integrate_1d(self.f, a, b, 1e-8, max_panel_width=width)
        assert res.evaluations == 15 * n0
        assert res.value == math.fsum(k15)
        assert res.abs_error_estimate == math.fsum(err)

    def test_unconverged_panelling_still_refines(self):
        # one panel cannot resolve a sqrt endpoint left unsubstituted
        res = integrate_1d(np.sqrt, 0.0, 1.0, 1e-10)
        assert res.evaluations > 15
        assert res.abs_error_estimate <= 1e-10
        assert abs(res.value - 2.0 / 3.0) <= 1e-10

    def test_drifted_running_error_keeps_refining(self):
        # the refinement loop keeps a running sum of its panels' errors
        # and takes their exact sum only once the running one meets tol;
        # a running sum that drifted below tol while the exact one has
        # not settles nothing: the loop goes on from the exact sum
        edges = np.linspace(0.0, 6.0, 3)
        flat, halves = quadrature._panel_nodes(edges)
        initial = quadrature._panel_rules(self.f(flat), flat, halves,
                                          flat.size)
        exact, tol = math.fsum(initial[1].tolist()), 1e-10
        assert exact > tol
        drifted, kept = (quadrature._adaptive(self.f, edges, initial, err,
                                              tol, 10 ** 6)
                         for err in (0.0, exact))
        assert drifted == kept
        assert drifted.evaluations > flat.size
        assert drifted.abs_error_estimate <= tol

    # integrand k of a shared pass at scale s: smooth, some oscillatory
    _SHARED = (lambda t, s: np.cos(s * t),
               lambda t, s: np.exp(-t) * np.sin(s * t),
               lambda t, s: t * t / (1.0 + s),
               lambda t, s: 1.0 / (1.0 + s * t * t))

    @staticmethod
    def _alone(g, a, b, width):
        """(k15, err) of the initial panelling of [a, b] for ``g`` alone."""
        edges = quadrature._initial_edges(a, b, width, 10 ** 6)
        flat, halves = quadrature._panel_nodes(edges)
        k15, err, _ = quadrature._panel_rules(g(flat), flat, halves,
                                              flat.size)
        return k15.tolist(), err.tolist()

    @given(data=st.data(), scales=st.lists(st.floats(0.5, 40.0),
                                           min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_settled_intervals_are_their_panels_exact_sums(self, data,
                                                            scales):
        # an interval settles on its initial panels exactly when their
        # errors' exact sum meets its integrand's tol, and then gives
        # those panels' exact sums, whatever else shares the pass
        gs = [functools.partial(self._SHARED[k % 4], s=s)
              for k, s in enumerate(scales)]
        n = len(gs)
        intervals = []
        for _ in range(data.draw(st.integers(1, 3))):
            a = data.draw(st.floats(-5.0, 5.0))
            b = a + data.draw(st.floats(0.1, 8.0))
            width = data.draw(st.floats(0.05, 2.0))
            picks = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
            intervals.append((a, b, width, tuple(sorted(picks))))
        tols = [10.0 ** data.draw(st.floats(-13.0, -6.0)) for _ in gs]
        streams = quadrature._integrate_shared(
            lambda t, j: [g(t) for g in gs], intervals, tols)
        for i, (stream, tol) in enumerate(zip(streams, tols)):
            taken = [iv for iv in intervals if i in iv[3]]
            for (a, b, width, _), res in zip(taken, stream):
                if isinstance(res, QuadratureError):
                    continue
                k15, err = self._alone(gs[i], a, b, width)
                settled = res.evaluations == 15 * len(k15)
                assert settled == (math.fsum(err) <= tol)
                if settled:
                    assert res == QuadResult(math.fsum(k15), math.fsum(err),
                                             15 * len(k15))

    def test_exact_error_sum_settles_above_the_pairwise_sum(self):
        # numpy's pairwise sum of these panels' errors rounds above their
        # exact sum; at that exact sum as tol the panels settle unrefined
        candidates = (
            (g, width, self._alone(g, 0.0, 6.0, width))
            for g in (lambda t: np.exp(-t) * np.sin(3.0 * t),
                      lambda t: np.cos(40.0 * t))
            for width in (0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0))
        g, width, (k15, err) = next(
            c for c in candidates
            if float(np.sum(c[2][1])) > math.fsum(c[2][1]))
        tol = math.fsum(err)
        res = integrate_1d(g, 0.0, 6.0, tol, max_panel_width=width)
        assert res == QuadResult(math.fsum(k15), tol, 15 * len(k15))


# Integrals that refine past their initial panels, with the record each
# gives: value and estimate bits, evaluations, and a failure's reason,
# message and best.  Each takes one path out of the refinement loop.
_REFINED = [
    pytest.param(lambda t: np.cos(200.0 * t), 0.0, 10.0, 1e-14, {}, (
        "roundoff", "tolerance is below roundoff floor: panels at their "
        "floor carry error 1.000e-14 (error estimate 4.849e-11 > tol "
        "1.000e-14)", 18885,
        ("0x1.30c15e46fb3d9p-8", "0x1.aa8e6ef2129ecp-35", 18885)),
        id="roundoff"),
    # about 450 ulps wide: bisection runs out of floats between the ends
    pytest.param(lambda t: np.sin(1e18 * t), 1.0, 1.0 + 1e-13, 1e-25, {}, (
        "unsplittable", "no panel can be refined further (error estimate "
        "1.617e-17 > tol 1.000e-25)", 13485,
        ("0x1.13f9de0304f0fp-50", "0x1.2a4eed0ed9a04p-56", 13485)),
        id="unsplittable"),
    pytest.param(np.sqrt, 0.0, 1.0, 1e-10, {},
                 ("0x1.555555555a52ap-1", "0x1.5a5b7e8a80000p-35", 465),
                 id="sqrt-endpoint"),
    pytest.param(lambda t: np.sqrt(np.abs(t - 0.3)), 0.0, 1.0, 1e-12, {},
                 ("0x1.fffc4ae4d6124p-2", "0x1.fd42fc1e756f8p-41", 1005),
                 id="interior-kink"),
    pytest.param(
        lambda t: np.exp(-t) * np.sin(50.0 * t), 0.0, 20.0, 1e-13,
        {"budget": 3000}, (
            "budget", "quadrature budget of 3000 evaluations exhausted "
            "(error estimate 5.577e-08 > tol 1.000e-13)", 2985,
            ("0x1.478c8ee44cf5fp-6", "0x1.df04be585ff44p-25", 2985)),
        id="budget"),
    pytest.param(lambda t: 1.0 / (1e-3 + (t - 0.5) ** 2), 0.0, 1.0, 1e-12,
                 {}, (
        "roundoff", "tolerance is below roundoff floor: panels at their "
        "floor carry error 1.059e-12 (error estimate 1.059e-12 > tol "
        "1.000e-12)", 765,
        ("0x1.7d67a1d1a5c8cp+6", "0x1.29f8f66bc984dp-40", 765)),
        id="peak-roundoff"),
    # mirror panels about 0 carry equal errors: the refinement takes
    # the earlier one first, and the budget stops it between the two
    pytest.param(lambda t: np.abs(t) ** 0.3, -1.0, 1.0, 1e-9,
                 {"budget": 500}, (
        "budget", "quadrature budget of 500 evaluations exhausted (error "
        "estimate 1.285e-06 > tol 1.000e-09)", 495,
        ("0x1.89d89f7a864bap+0", "0x1.58ff374e32e00p-20", 495)),
        id="tied-errors"),
]


@pytest.mark.parametrize("f,a,b,tol,kwargs,want", _REFINED)
def test_refined_records_are_pinned(f, a, b, tol, kwargs, want):
    # the refinement order, the panels it keeps and their sums, bit for bit
    assert quad_record(integrate_alone(f, a, b, tol, **kwargs)) == want


_LAGUERRE_RULES = ((quadrature._LAGUERRE_X16, quadrature._LAGUERRE_W16),
                   (quadrature._LAGUERRE_X24, quadrature._LAGUERRE_W24))


def _three_sums(vals, halves):
    """GK15 on the panels, one weighted sum per rule and one for resabs:
    what _panel_rules computes, the plain way."""
    vals = vals.reshape(-1, 15)
    k15 = halves * (vals * quadrature._WK).sum(axis=1)
    g7 = halves * (vals * quadrature._WGAUSS).sum(axis=1)
    resabs = halves * (np.abs(vals) * quadrature._WK).sum(axis=1)
    diff = np.abs(k15 - g7)
    floor = 50.0 * quadrature._EPS * resabs
    return k15, np.maximum(diff, floor), diff <= floor


def _steepest_descent_per_slice(g, n, omega, a, b):
    """_steepest_descent, one weighted slice per integrand, end and
    order."""
    rules = _LAGUERRE_RULES
    p = np.concatenate([nodes for nodes, _ in rules]) / omega
    vals = g(np.concatenate([a + 1j * p, b + 1j * p]))
    ends = [(0, 1j * cmath.exp(1j * omega * a) / omega),
            (p.size, -1j * cmath.exp(1j * omega * b) / omega)]
    out = [[0j] * n for _ in rules]
    resabs = [0.0] * n
    for i in range(n):
        for start, scale in ends:
            for q, (nodes, weights) in zip(out, rules):
                wv = weights * vals[i][start:start + nodes.size]
                q[i] += scale * complex(math.fsum(wv.real),
                                        math.fsum(wv.imag))
                start += nodes.size
            resabs[i] += math.fsum(np.abs(wv)) / omega
    low, high = out
    return (high, [max(abs(h - l), 50.0 * float(quadrature._EPS) * r)
                   for h, l, r in zip(high, low, resabs)], 2 * p.size)


def _same_bytes(got, want):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for x, y in zip(got, want, strict=True))


# limits whose n steps of (b - a) / n stay finite, as linspace needs
_LIMIT = st.floats(-1e300, 1e300)


class TestLeanPasses:
    """The passes of one GK15 panelling compute what the plain numpy
    formulations compute, to the bit."""

    @given(a=_LIMIT, b=_LIMIT, n=st.integers(1, 1000))
    @example(a=0.0, b=7 * 5e-324, n=7)  # a subnormal step
    @example(a=-1.0, b=2.0, n=1)
    @settings(max_examples=200, deadline=None)
    def test_initial_edges_are_linspace(self, a, b, n):
        assume(a < b)
        edges = quadrature._initial_edges(a, b, (b - a) / n, 10 ** 9)
        assert _same_bytes([edges], [np.linspace(a, b, edges.size)])

    def test_one_initial_panel(self):
        edges = quadrature._initial_edges(-1.0, 2.0, None, 15)
        assert _same_bytes([edges], [np.linspace(-1.0, 2.0, 2)])

    @given(n=st.integers(1, 8), data=st.data(),
           lo=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_panel_rules_are_the_three_sums(self, n, data, lo, width):
        flat, halves = quadrature._panel_nodes(
            np.linspace(lo, lo + width, n + 1))
        vals = np.array(data.draw(st.lists(
            st.floats(-1e300, 1e300), min_size=flat.size,
            max_size=flat.size)))
        assert _same_bytes(
            quadrature._panel_rules(vals, flat, halves, flat.size),
            _three_sums(vals, halves))

    @given(n=st.integers(1, 4), data=st.data(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=100, deadline=None)
    def test_panel_rules_name_the_first_non_finite_node(self, n, data, bad):
        flat, halves = quadrature._panel_nodes(np.linspace(0.0, 3.0, n + 1))
        vals = np.cos(flat)
        first = data.draw(st.integers(0, flat.size - 1))
        later = data.draw(st.integers(first, flat.size - 1))
        vals[later] = data.draw(st.sampled_from([math.nan, math.inf,
                                                 -math.inf]))
        vals[first] = bad
        with pytest.raises(QuadratureError) as excinfo:
            quadrature._panel_rules(vals, flat, halves, 45)
        assert excinfo.value.reason == "non-finite"
        assert f"near t={float(flat[first])!r};" in str(excinfo.value)
        assert "np.float64" not in str(excinfo.value)
        assert excinfo.value.evaluations == 45
        assert excinfo.value.best is None

    def test_opposite_infinities_in_one_panel(self):
        # their weighted sum alone would be inf - inf
        flat, halves = quadrature._panel_nodes(np.array([0.0, 1.0, 2.0]))
        vals = np.ones(flat.size)
        vals[17], vals[20] = math.inf, -math.inf
        with pytest.raises(QuadratureError) as excinfo:
            quadrature._panel_rules(vals, flat, halves, 30)
        assert f"near t={float(flat[17])!r};" in str(excinfo.value)
        assert "np.float64" not in str(excinfo.value)

    def test_overflowing_resabs_is_no_failure(self):
        # finite values of 1.5e308 whose |sum| overflows while their
        # signed sums cancel: only a value that is not finite fails.  The
        # overflow of resabs warns in any formulation, so it is let pass
        flat, halves = quadrature._panel_nodes(np.array([-1.0, 1.0]))
        vals = 1.5e308 * np.sign(flat)
        with np.errstate(over="ignore"):
            got = quadrature._panel_rules(vals, flat, halves, 15)
            assert _same_bytes(got, _three_sums(vals, halves))
        k15, err, at_floor = got
        assert math.isfinite(k15[0]) and err[0] == math.inf and at_floor[0]

    @given(omega=st.floats(1e-3, 1e6), a=st.floats(-1e3, 1e3),
           width=st.floats(1e-3, 1e3), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_steepest_descent_is_the_per_slice_sums(self, omega, a, width,
                                                    data):
        coefs = data.draw(st.lists(st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=3))
        b = a + width

        def g(z):
            return [c / (z - a + 1j) ** k for k, c in enumerate(coefs)]

        got = quadrature._steepest_descent(g, omega, a, b)
        want = _steepest_descent_per_slice(g, len(coefs), omega, a, b)
        assert got == want

    @given(omega=st.floats(1e-3, 1e6), a=st.floats(-1e3, 1e3),
           width=st.floats(1e-3, 1e3), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_steepest_descent_integrands_are_independent(self, omega, a,
                                                         width, data):
        # a stack of exponential sums c_k e^{i nu_k z}, each analytic and
        # bounded above the real axis, gives each integrand's value,
        # error and evaluations bit for bit as it gives alone
        sums = data.draw(st.lists(st.lists(st.tuples(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                               allow_infinity=False),
            st.floats(0.0, 1e3)), min_size=1, max_size=3),
            min_size=1, max_size=4))
        b = a + width

        def stack(terms):
            return lambda z: [sum(c * np.exp(1j * nu * z) for c, nu in t)
                              for t in terms]

        def bits(value, error, evaluations):
            return (value.real.hex(), value.imag.hex(), error.hex(),
                    evaluations)

        values, errors, n = quadrature._steepest_descent(stack(sums), omega,
                                                         a, b)
        for terms, value, error in zip(sums, values, errors, strict=True):
            (alone,), (alone_error,), m = quadrature._steepest_descent(
                stack([terms]), omega, a, b)
            assert bits(value, error, n) == bits(alone, alone_error, m)


class TestRoundoffFloor:
    """A tolerance below the roundoff floor 50*eps*resabs fails fast with
    reason "roundoff", carrying an honest best estimate."""

    def test_below_floor_fails_fast_with_honest_best(self):
        f = lambda t: t * np.cos(3.0 * t)
        # antiderivative t sin(3t)/3 + cos(3t)/9
        exact = 4.0 * math.sin(12.0) / 3.0 + (math.cos(12.0) - 1.0) / 9.0
        with pytest.raises(QuadratureError, match="below roundoff floor") \
                as excinfo:
            integrate_1d(f, 0.0, 4.0, 1e-17)
        err = excinfo.value
        assert err.reason == "roundoff"
        assert err.best.evaluations <= 1000
        assert abs(err.best.value - exact) <= 10 * err.best.abs_error_estimate

    def test_reachable_tolerance_unaffected(self):
        f = lambda t: t * np.cos(3.0 * t)
        exact = 4.0 * math.sin(12.0) / 3.0 + (math.cos(12.0) - 1.0) / 9.0
        res = integrate_1d(f, 0.0, 4.0, 1e-13)
        assert res.abs_error_estimate <= 1e-13
        assert abs(res.value - exact) <= 1e-13

    @pytest.mark.parametrize("observable", [
        signalling.s2_observable, signalling.field_energy_observable,
    ])
    def test_demo_2p1_observable_fails_fast(self, observable, monkeypatch):
        # the nodes at which the lag pass evaluates its weight: every
        # integrand evaluation the observable makes, in any of its pieces
        nodes = []
        window = signalling._window_correlation

        def counted(*args):
            weight, *rest = window(*args)

            def spied(tau):
                nodes.append(tau.size)
                return weight(tau)
            return (spied, *rest)

        monkeypatch.setattr(signalling, "_window_correlation", counted)
        s = demo_scenario("2+1")
        with pytest.raises(QuadratureError) as excinfo:
            observable(s, s.bob.window.t_off, 1e-16)
        assert excinfo.value.reason == "roundoff"
        # the failure counts what was spent up to it, within those nodes
        assert 0 < excinfo.value.evaluations <= sum(nodes) <= 1000

    def test_2d_keeps_inner_reason(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_2d_rect(lambda x, y: math.sin(x) * math.cos(y),
                              (0.0, 1.0), (0.0, 1.0), 1e-18)
        assert excinfo.value.reason == "roundoff"
        assert "inner integral" in str(excinfo.value)
        # an inner estimate at one x is no estimate of the 2D integral
        assert excinfo.value.best is None


class TestPolyCosOracle:
    """The exact integral behind the validate honesty check."""

    @pytest.mark.parametrize("coeffs,omega,a,b,exact", [
        ([0.0, 1.0], 1.0, 0.0, math.pi, -2.0),
        ([1.0], 2.0, 0.0, math.pi / 4, 0.5),
        ([0.0, 0.0, 1.0], 1.0, 0.0, math.pi / 2, math.pi ** 2 / 4 - 2.0),
        ([2.0, -1.0], 3.0, -1.0, 1.0,
         # odd part integrates to zero: 2 * 2 sin(3)/3
         4.0 * math.sin(3.0) / 3.0),
    ])
    def test_hand_values(self, coeffs, omega, a, b, exact):
        poly = np.polynomial.Polynomial(coeffs)
        assert _poly_cos_integral(poly, omega, a, b) == pytest.approx(
            exact, abs=1e-14)


class TestHonestyFamily:
    """The validate honesty check's case family, and the quadrature work
    it does: the tight tolerance keeps it on the roundoff failure path."""

    def test_cases_and_quadrature_work_are_pinned(self, monkeypatch):
        # what the check takes from its passes, one result per case and
        # tolerance, failures included
        assert len(list(validation._honesty_cases())) == 120
        spent = {1e-9: 0, 1e-13: 0}
        failures = []
        honesty_pass = validation._honesty_pass

        def recorded(cases, tol, per_period):
            for res in honesty_pass(cases, tol, per_period):
                spent[tol] += res.evaluations
                if isinstance(res, QuadratureError):
                    failures.append((tol, res.reason))
                yield res

        monkeypatch.setattr(validation, "_honesty_pass", recorded)
        assert validation._check_quad_error_honesty().passed
        assert spent == {1e-9: 17700, 1e-13: 34515}
        assert failures == [(1e-13, "roundoff")] * 7

    @pytest.mark.parametrize("tol,per_period", [(1e-9, 4), (1e-13, 8)])
    def test_pass_equals_one_integral_per_case(self, tol, per_period):
        # the check's two passes, case by case, against integrate_1d on
        # each case alone with the family's plain integrand: bit for bit,
        # the seven roundoff failures at tol 1e-13 included
        cases = list(validation._honesty_cases())
        shared = validation._honesty_pass(cases, tol, per_period)
        for (coeffs, omega, a, b), res in zip(cases, shared):
            alone = integrate_alone(
                lambda t: validation._horner(coeffs, t) * np.cos(omega * t),
                a, b, tol, max_panel_width=(2 * math.pi / omega) / per_period)
            assert quad_record(res) == quad_record(alone)

    def test_other_failures_are_raised(self, monkeypatch):
        # only a roundoff failure may stand in its best estimate: a case
        # whose integrand is not finite fails the check by raising
        cases = list(validation._honesty_cases())
        cases[5] = ([math.nan, 1.0], *cases[5][1:])
        monkeypatch.setattr(validation, "_honesty_cases", lambda: iter(cases))
        result = validation._check_quad_error_honesty()
        assert not result.passed
        assert result.detail.startswith("raised QuadratureError: integrand "
                                        "returned a non-finite value")


poly_coeffs = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=4)


class TestAlgebraicProperties:
    @given(c1=poly_coeffs, c2=poly_coeffs,
           s1=st.floats(-2.0, 2.0), s2=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, c1, c2, s1, s2):
        p1 = np.polynomial.Polynomial(c1)
        p2 = np.polynomial.Polynomial(c2)
        a, b = -1.0, 2.0
        combined = integrate_1d(lambda t: s1 * p1(t) + s2 * p2(t), a, b, 1e-11)
        parts = (s1 * integrate_1d(p1, a, b, 1e-11).value
                 + s2 * integrate_1d(p2, a, b, 1e-11).value)
        assert abs(combined.value - parts) < 1e-9

    @given(coeffs=poly_coeffs, frac=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_domain_additivity(self, coeffs, frac):
        p = np.polynomial.Polynomial(coeffs)
        a, b = 0.0, 3.0
        mid = a + frac * (b - a)
        whole = integrate_1d(p, a, b, 1e-11).value
        split = (integrate_1d(p, a, mid, 1e-11).value
                 + integrate_1d(p, mid, b, 1e-11).value)
        assert abs(whole - split) < 1e-9


class TestSharedPassIterators:
    """quadrature._integrate_shared gives each integrand an iterator of
    its results, one per interval it is taken over; each refines its
    interval only when taken, and does not stop at a failure."""

    @given(cases=st.lists(st.tuples(
               poly_coeffs, st.floats(0.5, 12.0), st.floats(-2.0, 0.0),
               st.floats(0.5, 4.0), st.sampled_from([(0,), (1,), (0, 1)])),
               min_size=1, max_size=8),
           tols=st.tuples(*[st.sampled_from([1e-9, 1e-13, 1e-14, 1e-15])] * 2),
           per_period=st.sampled_from([1, 4, 8]),
           poison=st.integers(-1, 7))
    @example(cases=[([1.0, -2.0, 0.5, 3.0], 11.0, -2.0, 4.0, (0, 1))] * 3,
             tols=(1e-15, 1e-9), per_period=8, poison=1)
    @settings(max_examples=40, deadline=None)
    def test_each_interval_is_what_integrate_1d_gives_alone(
            self, cases, tols, per_period, poison):
        # p(t) cos(omega t) and p(t) sin(omega t), each over the intervals
        # that pick it and to its own tolerance; at the tighter ones many
        # fail on roundoff, and the ``poison``-th interval's p has a nan,
        # so it fails as non-finite there alone
        polys = [list(c) for c, *_ in cases]
        if poison < len(cases):
            polys[poison][0] = math.nan
        degree = max(map(len, polys))
        coeffs = [np.array([p[k] if k < len(p) else 0.0 for p in polys])
                  for k in range(degree)]
        omegas = np.array([omega for _, omega, *_ in cases])

        def f(t, j):
            p = 0.0
            for c in reversed(coeffs):
                p = p * t + c[j]
            return [p * np.cos(omegas[j] * t), p * np.sin(omegas[j] * t)]

        intervals = [(a, a + w, (2 * math.pi / omega) / per_period, picks)
                     for _, omega, a, w, picks in cases]
        shared = quadrature._integrate_shared(f, intervals, tols)
        for i, wave in enumerate((np.cos, np.sin)):
            alone = [quad_record(integrate_alone(
                lambda t, p=p, omega=omega: (
                    validation._horner(p, t) * wave(omega * t)),
                a, b, tols[i], max_panel_width=width))
                for p, (_, omega, *_), (a, b, width, picks)
                in zip(polys, cases, intervals) if i in picks]
            assert list(map(quad_record, shared[i])) == alone

    def test_nothing_is_refined_until_taken(self):
        # t^2 sin(40 t) on three intervals needs refining at 1e-13; the
        # pass evaluates the initial nodes, and each result taken adds
        # only that interval's refinement
        calls = []

        def f(t, j):
            calls.append(t.size)
            return [t * t * np.sin(40.0 * t)]

        intervals = [(a, a + 1.0, None, (0,)) for a in (0.0, 1.0, 2.0)]
        (results,) = quadrature._integrate_shared(f, intervals, [1e-13])
        assert calls == [45]
        first = next(results)
        assert first.evaluations > 15
        assert sum(calls) == 45 - 15 + first.evaluations
        del calls[1:]
        rest = list(results)
        assert sum(calls) == 45 + sum(r.evaluations - 15 for r in rest)


def test_env_var_overrides_default_tolerance(monkeypatch):
    monkeypatch.delenv("QCC_QUAD_TOL", raising=False)
    assert default_tolerance() == 1e-8
    monkeypatch.setenv("QCC_QUAD_TOL", "1e-4")
    assert default_tolerance() == 1e-4
    monkeypatch.setenv("QCC_QUAD_TOL", "not-a-number")
    with pytest.raises(ValueError):
        default_tolerance()
    for bad in ("-1e-8", "0", "nan", "inf"):
        monkeypatch.setenv("QCC_QUAD_TOL", bad)
        with pytest.raises(ValueError, match="QCC_QUAD_TOL"):
            default_tolerance()


@pytest.mark.parametrize("rule", _LAGUERRE_RULES,
                         ids=["16", "24"])
def test_laguerre_tables_are_laggauss(rule):
    # the literal tables are laggauss's output; another LAPACK may move a
    # node by an ulp, and laggauss's weight formula turns that into
    # hundreds of ulps on the tiny weights, so those get a relative bound
    from numpy.polynomial.laguerre import laggauss

    nodes, weights = rule
    x, w = laggauss(nodes.size)
    np.testing.assert_array_max_ulp(nodes, x, maxulp=4)
    np.testing.assert_allclose(weights, w, rtol=1e-12, atol=0.0)
    # and with no LAPACK at all: the rule integrates p^k e^{-p} to k!
    # for every k < 2m (positive terms, so the sums are well conditioned)
    for k in range(2 * nodes.size):
        assert math.fsum(weights * nodes ** k) == pytest.approx(
            math.factorial(k), rel=1e-12, abs=0.0)


# Frozen oracle for the singular-line rectangle below: midpoint-rule
# refinement of the same double integral on n x n grids per axis shows a
# 1/sqrt(n) error from the lightcone edge whose coefficient depends on
# the grid's alignment with the line, so plain doubling cannot be
# extrapolated.  Within the same alignment family (n and 4n) the
# coefficient is shared, and Richardson over n=2500 -> n=10000 gives
#   2*v(10000) - v(2500) = 0.5482916537091797
# (raw v(10000) = 0.5481769062282146).  The extrapolant is good to a few
# 1e-7, far inside the 1e-4 gate used here.
MIDPOINT_ORACLE_2D = 0.5482916537091797


class TestIntegrate2dRect:
    def test_unit_square(self):
        res = integrate_2d_rect(lambda x, y: 1.0, (0.0, 1.0), (0.0, 1.0), 1e-10)
        assert abs(res.value - 1.0) < 1e-9

    def test_separable_product(self):
        res = integrate_2d_rect(
            lambda x, y: math.sin(3.0 * x) * math.sin(3.0 * y),
            (0.0, 3.0), (5.0, 8.0), 1e-10,
            max_panel_width=(2 * math.pi / 3.0) / 4,
        )
        exact = ((1.0 - math.cos(9.0)) / 3.0) * ((math.cos(15.0)
                                                  - math.cos(24.0)) / 3.0)
        assert abs(res.value - exact) <= max(1e-9, 10 * res.abs_error_estimate)

    def test_singular_line_against_midpoint_oracle(self):
        def f(t1, t2):
            return commutator_kernel(Dimension.D2p1, t2 - t1, 1.0).value

        res = integrate_2d_rect(f, (0.0, 3.0), (3.5, 6.5), 1e-8,
                                singular_line=1.0)
        assert abs(res.value - MIDPOINT_ORACLE_2D) < 1e-4
        assert res.abs_error_estimate < 1e-5

    def test_undeclared_singular_line_fails_loudly(self):
        """Integrating across the 1/sqrt edge without declaring it must
        fail (budget exhaustion, or a kernel domain error when a node
        lands exactly on the cone) rather than return a silently wrong
        value."""
        from qcc.greens import KernelDomainError

        def f(t1, t2):
            return commutator_kernel(Dimension.D2p1, t2 - t1, 1.0).value

        with pytest.raises((QuadratureError, KernelDomainError)):
            integrate_2d_rect(f, (0.0, 3.0), (3.5, 6.5), 1e-8, budget=20000)

    def test_timelike_side_rounded_to_nothing_is_skipped(self):
        # past 2^53 doubles are 2 apart, so for x <= -2^53 the lags y - x
        # of y in [0, 0.75] round to -x, and the side beyond the line
        # y = x + 1 maps to an empty u range: it is skipped, where
        # integrate_1d would reject it.  Inside 2^53 they round to -x + 1,
        # and the side is integrated: at 7 of the outer rule's 15 nodes
        edge, seen = -2.0 ** 53, []
        res = integrate_2d_rect(lambda x, y: seen.append(x) or 0.0,
                                (edge - 8.0, edge + 8.0), (0.0, 0.75), 1e-8,
                                singular_line=1.0)
        assert res == QuadResult(0.0, 0.0, 7 * 15)
        assert min(seen) > edge

    def test_every_inner_range_rounded_to_nothing_fails_on_roundoff(self):
        # past 2^53 every inner range is a timelike side rounded to an
        # empty u range, so nothing is integrated where the truth is 4
        with pytest.raises(QuadratureError) as err:
            integrate_2d_rect(lambda x, y: 1.0, (-1e16 - 8, -1e16),
                              (0.0, 0.5), 1e-8, singular_line=1.0)
        assert (err.value.reason, err.value.evaluations,
                err.value.best) == ("roundoff", 0, None)

    def test_non_positive_singular_line_rejected(self):
        with pytest.raises(ValueError, match="singular_line must be"):
            integrate_2d_rect(lambda x, y: 1.0, (0.0, 1.0), (0.0, 1.0),
                              1e-8, singular_line=0.0)

    def test_degenerate_rectangle_rejected(self):
        for x_range, y_range in (((0.0, 0.0), (0.0, 1.0)),
                                 ((0.0, math.inf), (0.0, 1.0)),
                                 ((0.0, 1.0), (-math.inf, 1.0))):
            with pytest.raises(ValueError, match="degenerate or unbounded"):
                integrate_2d_rect(lambda x, y: 1.0, x_range, y_range, 1e-8)
