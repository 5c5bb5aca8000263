"""Tests for the induced binary asymmetric channel.

The closed-form capacity, the concave-maximization oracle and the
small-signal expansion are three independent routes to the same number;
they are played against each other here and in the acceptance suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import demo_scenario, make_scenario
from qcc import channel
from qcc.channel import (
    binary_entropy,
    capacity_bruteforce,
    capacity_bruteforce_grid,
    capacity_closed,
    capacity_expansion,
    channel_stats,
    guess_success,
)

# classic reference channels: (p, q, capacity, optimal prior on input 1)
REFERENCE_CHANNELS = [
    # binary symmetric, crossover eps: C = 1 - h(eps), prior 1/2
    (0.89, 0.11, 1.0 - binary_entropy(0.11), 0.5),
    (0.75, 0.25, 1.0 - binary_entropy(0.25), 0.5),
    (0.55, 0.45, 1.0 - binary_entropy(0.45), 0.5),
    # Z-channel, P(1|0) = 0: C = log2(5/4) at prior 2/5
    (0.5, 0.0, math.log2(1.25), 0.4),
    # noiseless bit
    (1.0, 0.0, 1.0, 0.5),
]

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBinaryEntropy:
    @pytest.mark.parametrize("x,expected", [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, 1.0),
        # h(1/4) = 2 - (3/4) log2 3 by expanding the logs
        (0.25, 2.0 - 0.75 * math.log2(3.0)),
        # h(1/5) = log2 5 - (4/5) log2 4 = log2 5 - 8/5
        (0.2, math.log2(5.0) - 1.6),
    ])
    def test_known_values(self, x, expected):
        assert binary_entropy(x) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.37, 0.62, 0.93])
    def test_symmetric(self, x):
        assert binary_entropy(x) == pytest.approx(
            binary_entropy(1.0 - x), abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 1.0000001, 2.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    @pytest.mark.parametrize("q,p,reference", [
        (0.5673687177777303, 0.4447573375238413, "0.0043118866126256732315"),
        (0.1501420425789949, 0.15857732827694745, "0.020699530782540353359"),
        (0.24471877636281614, 0.2867583658866412, "0.061697147309285090778"),
        (0.01021726571609221, 0.00748780563438654,
         "-0.018594775581290998801"),
    ])
    def test_difference_near_q_does_not_cancel(self, q, p, reference):
        # h(p) - h(q) in mpmath at 50 digits, from these very floats; p - q
        # is 6% to 28% of the distance to the nearer edge, where the
        # difference of the two entropies loses up to 1.6e-14 relative and
        # the O(p - q) series keeps 4e-17
        assert channel._entropy_diff(p, q) == pytest.approx(
            float(reference), rel=5e-16, abs=0.0)


class TestCapacityClosed:
    @pytest.mark.parametrize("p,q,expected,_", REFERENCE_CHANNELS)
    def test_reference_channels(self, p, q, expected, _):
        assert capacity_closed(p, q) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_is_exact_zero(self):
        assert capacity_closed(0.3, 0.3) == 0.0
        assert capacity_closed(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("p,q", [(0.7, 0.2), (0.9, 0.85), (0.5, 0.0)])
    def test_input_relabelling_symmetry(self, p, q):
        assert capacity_closed(p, q) == pytest.approx(
            capacity_closed(q, p), abs=1e-13)

    def test_quadratic_limit_joins_full_formula(self):
        # at d = 1e-5 the full formula is still ~6 digits clean and the
        # quadratic model is good to O(d): both must agree there, which
        # pins the limit's branch (taken here at d = 1e-10, to second
        # order) onto the same curve
        q = 0.37
        d = 1e-5
        quadratic = d * d / (8.0 * math.log(2.0) * q * (1.0 - q))
        assert capacity_closed(q + d, q) == pytest.approx(
            quadratic, rel=2e-4, abs=0.0)
        p_small = q + 1e-10
        d_small, v = p_small - q, q * (1.0 - q)
        assert capacity_closed(p_small, q) \
            == d_small * d_small / (8.0 * math.log(2.0) * v) \
            * (1.0 - d_small * (1.0 - 2.0 * q) / (2.0 * v))

    @pytest.mark.parametrize("q,p,reference,rel", [
        # the limit's side of the crossover |d| = 2.5e-4 v^(3/4), with
        # d = p - q and v = q(1-q)
        (0.5, 0.50000001, "7.2134752769367709423e-17", 1e-12),
        (0.3, 0.30000004999999996, "2.1468675158786706385e-15", 1e-7),
        (0.5, 0.500001, "7.2134752048680893038e-13", 1e-10),
        (0.3, 0.300002, "3.4349816497989570475e-12", 1e-5),
        (0.001, 0.00100006, "6.4984315536706323273e-13", 5e-5),
        (0.3, 0.300004, "1.3739900428264843099e-11", 1e-6),
        (0.01, 0.0100015, "4.0982611968869022588e-11", 5e-6),
        # qcc capacity configs/demo_2p1.cfg --lambda-product 1e-6
        (0.5000000000000001, 0.500000010224735,
         "7.5413422582193400979e-17", 1e-6),
        # either side of the crossover, at 80 digits; it sits at
        # d = 2.5e-10 (q = 1e-8), 7.9e-9 (q = 1e-6 and 1 - 1e-6), 2.5e-7
        # (q = 1e-4) and 8.8e-5 (q = 0.5); doubling its exponent or its
        # factor 2.5e-4, or halving either, fails one of these
        (1e-08, 1.0015e-08, "4.0545393817033602667e-15", 2e-6),
        (1e-08, 1.0450000000000001e-08, "3.5718002537351683759e-12", 5e-5),
        (1e-08, 1.4e-08, "2.4176330855760290314e-10", 2e-6),
        # qcc capacity on demo_2p1.cfg with bob.alpha_re = 0.0001,
        # bob.beta_re = 0.9999999949999999 and --lambda-product 1e-6
        (1e-08, 1.0002044946967934e-08, "7.5405713500940480406e-17", 1e-6),
        (1e-06, 1.015e-06, "4.027421948413089682e-11", 2e-5),
        (0.0001, 0.00010012500000000001, "2.8162857675853100131e-11", 1e-6),
        (0.0001, 0.00010035, "2.2054898065409414408e-10", 1e-6),
        (0.5, 0.500045, "1.46072873234856302e-9", 1e-8),
        (0.5, 0.50017, "2.0846944043735852702e-8", 2e-8),
        (0.999999, 0.999999004, "2.8911775666091899945e-12", 2e-5),
        (0.999999, 0.999998996, "2.8796359332038132692e-12", 2e-5),
        # just above the crossover next to q = 1, where the full formula
        # is taken at (1 - p, 1 - q); at (p, q) itself it read 1.0e-3,
        # 2.3e-4 and 4.2e-6 relative
        (0.99999999, 0.99999999031, "1.7604075698403030843e-12", 5e-5),
        (0.999999, 0.999998992, "1.1495625024064345739e-11", 1e-5),
        (0.9999, 0.99990031, "1.7359019303952782302e-10", 1e-6),
    ])
    def test_relative_accuracy_across_the_quadratic_crossover(
            self, q, p, reference, rel):
        # references: the capacity formula in mpmath at 50 or 80 digits,
        # from these very floats; below d ~ 1e-6 the full formula loses
        # every digit to cancellation.  Near q = 0 or 1 the limit's
        # first-order error d(1 - 2q)/(2v) is large, so the limit is
        # taken to second order: at (1e-8, 1.0015e-8) the first order
        # alone is 7.5e-4 off, and the full formula 0.021
        assert capacity_closed(p, q) == pytest.approx(float(reference),
                                                      rel=rel, abs=0.0)

    def test_noise_floor_clamped_to_zero(self):
        # both probabilities at the bottom corner: the true capacity is
        # ~1e-15, far below the formula's cancellation noise; the result
        # must at least stay nonnegative
        assert capacity_closed(2.220446049250313e-16, 3.06e-28) >= 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            capacity_closed(1.2, 0.5)
        with pytest.raises(ValueError):
            capacity_closed(0.5, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(p=probs, q=probs)
    def test_range_and_symmetry(self, p, q):
        c = capacity_closed(p, q)
        assert 0.0 <= c <= 1.0 + 1e-12
        assert c == pytest.approx(capacity_closed(q, p), abs=1e-10)


class TestCapacityBruteforce:
    @pytest.mark.parametrize("p,q,expected,_", REFERENCE_CHANNELS)
    def test_reference_channels(self, p, q, expected, _):
        assert capacity_bruteforce(p, q) == pytest.approx(expected, abs=1e-9)

    def test_matches_closed_on_subgrid(self):
        vals = [0.03, 0.2, 0.41, 0.58, 0.77, 0.96]
        for p in vals:
            for q in vals:
                if abs(p - q) < 1e-6:
                    continue
                assert capacity_bruteforce(p, q) == pytest.approx(
                    capacity_closed(p, q), abs=1e-9)

    def test_degenerate_is_exact_zero(self):
        assert capacity_bruteforce(0.42, 0.42) == 0.0

    def test_probability_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="p must be in"):
            capacity_bruteforce(1.2, 0.3)

    def test_grid_matches_scalar(self):
        p = np.array([0.1, 0.6, 0.6, 0.92])
        q = np.array([0.4, 0.2, 0.61, 0.9])
        grid = capacity_bruteforce_grid(p, q)
        scalars = [capacity_bruteforce(float(a), float(b))
                   for a, b in zip(p, q)]
        np.testing.assert_allclose(grid, scalars, atol=1e-10)

    @pytest.mark.parametrize("p,q,entropies,capacity", [
        (0.6, 0.4, 28, "0.029049405544471607"),
        (0.5, 0.0, 72, "0.3219280948873623"),
        (0.9, 0.1, 32, "0.5310044064103473"),
    ])
    def test_entropy_evaluations_pinned(self, monkeypatch, p, q, entropies,
                                        capacity):
        # h(p) and h(q) once, one stacked h per ternary step (25, 69 and
        # 29 steps) and one for the final I(pi)
        calls = []
        entropy = channel._entropy_arr

        def counting(x):
            calls.append(x)
            return entropy(x)

        monkeypatch.setattr(channel, "_entropy_arr", counting)
        assert repr(capacity_bruteforce(p, q)) == capacity
        assert len(calls) == entropies


class TestGuessSuccess:
    @pytest.mark.parametrize("p,q,expected", [
        (0.53, 0.51, 0.51),
        (1.0, 0.0, 1.0),
        (0.8, 0.8, 0.5),
    ])
    def test_values(self, p, q, expected):
        assert guess_success(p, q) == pytest.approx(expected, abs=1e-14)

    def test_orientation_enforced(self):
        with pytest.raises(ValueError, match="orientation"):
            guess_success(0.4, 0.6)


class TestCapacityExpansion:
    def test_balanced_state_reduces_to_quadratic(self):
        # |alpha| = |beta| = 1/sqrt2: expansion is s2^2 / (2 ln2)
        isq = 1.0 / math.sqrt(2.0)
        for s2v in (1e-3, 2.5e-4):
            assert capacity_expansion(s2v, isq, isq) == pytest.approx(
                s2v * s2v / (2.0 * math.log(2.0)), rel=1e-14, abs=0.0)

    def test_coupling_scaling(self):
        isq = 1.0 / math.sqrt(2.0)
        base = capacity_expansion(1e-3, isq, isq)
        assert capacity_expansion(1e-3, isq, isq, 0.3) \
            == pytest.approx(0.09 * base, rel=1e-14, abs=0.0)

    def test_eigenstate_rejected(self):
        with pytest.raises(ValueError, match="eigenstate"):
            capacity_expansion(1e-3, 1.0, 0.0)

    def test_huge_coupling_without_signal_is_zero(self):
        # lambda ** 2 overflows past 1e154; with S2 = 0, p = q passes p <= 1
        isq = 1.0 / math.sqrt(2.0)
        assert capacity_expansion(0.0, isq, isq, 1e200) == 0.0

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_agrees_with_closed_form_for_small_signal(self, q):
        # map delta = p - q onto s2 with unit couplings:
        # |alpha_B|^2 = q so |alpha||beta| = sqrt(q(1-q))
        delta = 1e-5
        closed = capacity_closed(q + delta, q)
        expansion = capacity_expansion(
            delta, math.sqrt(q), math.sqrt(1.0 - q))
        assert expansion / closed == pytest.approx(1.0, abs=1e-3)


class TestChannelProbs:
    def test_reference_curve_point(self):
        s = demo_scenario("2+1", t1=5.0)
        stats = channel_stats(s, 0.1, 0.0, tol=1e-9)
        p, q = stats.p, stats.q
        assert q == pytest.approx(0.5, abs=1e-15)
        assert p - q == pytest.approx(0.1 * 0.0102247348907952, abs=1e-12)

    def test_noise_shifts_baseline(self):
        s = demo_scenario("2+1")
        s0 = channel_stats(s, 0.1, 0.0, tol=1e-8)
        s1 = channel_stats(s, 0.1, 0.2, tol=1e-8)
        p0, q0, p1, q1 = s0.p, s0.q, s1.p, s1.q
        assert q1 == pytest.approx(q0 + 0.2, abs=1e-15)
        assert p1 - q1 == pytest.approx(p0 - q0, abs=1e-15)

    def test_spacelike_channel_is_useless(self):
        stats = channel_stats(make_scenario("2+1", L=30.0), 0.1, 0.0)
        assert stats.p == stats.q

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            channel_stats(demo_scenario("2+1"), 0.1, -0.01)

    def test_probability_overflow_is_an_error_not_a_clamp(self):
        s = demo_scenario("2+1")
        with pytest.raises(ValueError, match="noise_R too large"):
            channel_stats(s, 0.1, 0.6)
        with pytest.raises(ValueError, match="breaks down"):
            channel_stats(s, 100.0, 0.0, tol=1e-8)


class TestChannelStats:
    def test_fields_are_mutually_consistent(self):
        stats = channel_stats(demo_scenario("2+1"), 0.1, tol=1e-9)
        assert stats.success == pytest.approx(
            0.5 + 0.5 * (stats.p - stats.q), abs=1e-15)
        assert stats.capacity_closed == pytest.approx(
            stats.capacity_bruteforce, abs=1e-9)
        assert stats.capacity_expansion == pytest.approx(
            stats.capacity_closed, rel=2e-2, abs=0.0)
        assert stats.p > stats.q

    def test_spacelike_stats_all_trivial(self):
        stats = channel_stats(make_scenario("2+1", L=30.0), 0.1)
        assert stats.p == stats.q
        assert stats.success == 0.5
        assert stats.capacity_closed == 0.0
        assert stats.capacity_bruteforce == 0.0
