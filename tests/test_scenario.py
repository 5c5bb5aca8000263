"""Tests for scenario construction, validation, and the detector bias."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ISQ, make_scenario, random_state
from qcc.scenario import (
    CausalClass,
    ComplexAmplitudePair,
    DetectorSpec,
    Dimension,
    InvalidScenarioError,
    Scenario,
    SwitchingWindow,
    detector_bias,
    require_valid,
    validate,
)


class TestDimension:
    @pytest.mark.parametrize("text,spatial", [
        ("1+1", 1), ("2+1", 2), ("3+1", 3),
    ])
    def test_parse_and_spatial(self, text, spatial):
        dim = Dimension.parse(text)
        assert dim.spatial == spatial
        assert str(dim) == text

    @pytest.mark.parametrize("bad", ["4+1", "2", "", "2+2", "1+1D", "D2p1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Dimension.parse(bad)


class TestComplexAmplitudePair:
    def test_norm_defect(self):
        assert ComplexAmplitudePair(1.0, 0.0).norm_defect() == 0.0
        assert ComplexAmplitudePair(0.8, 0.7).norm_defect() > 0.1

    def test_orthogonal_state(self):
        pair = ComplexAmplitudePair(0.3 + 0.4j, math.sqrt(0.75))
        orth = pair.orthogonal()
        inner = (pair.alpha.conjugate() * orth.alpha
                 + pair.beta.conjugate() * orth.beta)
        assert abs(inner) < 1e-15
        assert orth.norm_defect() < 1e-15

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_orthogonal_is_involution_up_to_phase(self, seed):
        alpha, beta = random_state(np.random.default_rng(seed))
        pair = ComplexAmplitudePair(alpha, beta)
        twice = pair.orthogonal().orthogonal()
        # (beta*, -alpha*) applied twice gives (-alpha, -beta)
        assert abs(twice.alpha + pair.alpha) < 1e-15
        assert abs(twice.beta + pair.beta) < 1e-15


class TestSwitchingWindow:
    def test_duration_and_contains(self):
        w = SwitchingWindow(2.0, 5.5)
        assert w.duration == 3.5


class TestValidate:
    @pytest.mark.parametrize("L,expected", [
        (1.0, CausalClass.TIMELIKE),       # min dt = 2 > 1
        (10.0, CausalClass.SPACELIKE),     # max dt = 8 < 10
        (6.0, CausalClass.LIGHTCONE_CROSSING),  # dt spans [2, 8], crosses 6
    ])
    def test_causal_classification(self, L, expected):
        report = validate(make_scenario("1+1", L=L))
        assert report.ok
        assert report.causal_class is expected
        assert report.separation == L

    def test_crossing_window_start(self):
        # Bob [3.5, 6.5]: dt spans [0.5, 6.5], contains L = 1
        report = validate(make_scenario("2+1", L=1.0, b_win=(3.5, 6.5)))
        assert report.causal_class is CausalClass.LIGHTCONE_CROSSING

    def test_report_is_cached_and_replace_starts_afresh(self):
        s = make_scenario("2+1", L=1.0)
        assert validate(s) is validate(s)
        moved = replace(s, bob=replace(s.bob, position=(10.0, 0.0)))
        assert validate(moved).separation == 10.0
        assert validate(moved).causal_class is CausalClass.SPACELIKE

    def test_valid_scenario_has_no_violations(self):
        report = validate(make_scenario("2+1"))
        assert report.ok
        assert report.violations == ()

    @pytest.mark.parametrize("mutation,fragment", [
        (dict(a_state=(0.8, 0.7)), "norm"),
        (dict(gap_a=-3.0), "gap"),
        (dict(gap_b=0.0), "gap"),
        (dict(a_win=(3.0, 1.0)), "t_on"),
        (dict(b_win=(1.0, 4.0)), "before"),   # Bob on before Alice off
        (dict(gap_b=math.inf), "bob: gap must be finite"),
        (dict(L=math.nan), "bob: position components must be finite"),
    ])
    def test_violations_reported(self, mutation, fragment):
        report = validate(make_scenario("2+1", **mutation))
        assert not report.ok
        assert any(fragment in v for v in report.violations)

    def test_position_length_mismatch(self):
        s = Scenario(
            Dimension.D2p1,
            DetectorSpec(3.0, ComplexAmplitudePair(ISQ, ISQ), (0.0,),
                         SwitchingWindow(0.0, 3.0)),
            DetectorSpec(3.0, ComplexAmplitudePair(ISQ, ISQ), (1.0, 0.0),
                         SwitchingWindow(5.0, 8.0)),
        )
        report = validate(s)
        assert not report.ok
        assert any("position" in v for v in report.violations)

    def test_require_valid_raises(self):
        with pytest.raises(InvalidScenarioError):
            require_valid(make_scenario("2+1", gap_b=-1.0))
        # and passes through silently on a good scenario
        require_valid(make_scenario("2+1"))


class TestDetectorBias:
    @pytest.mark.parametrize("alpha,beta,gap,t,expected", [
        (1.0, 0.0, 2.0, 1.234, 0.0),           # energy eigenstate
        (ISQ, ISQ, 2.0, 0.0, 0.5),             # Re(e^0)/2
        (ISQ, -1j * ISQ, 3.0, math.pi / 6, 0.5),  # (1/2) sin(pi/2)
    ])
    def test_values(self, alpha, beta, gap, t, expected):
        det = DetectorSpec(gap, ComplexAmplitudePair(alpha, beta), (0.0,),
                           SwitchingWindow(0.0, 1.0))
        assert detector_bias(det, t) == pytest.approx(expected, abs=1e-15)

    def test_matches_definition_directly(self, rng):
        for _ in range(20):
            alpha, beta = random_state(rng)
            gap = float(rng.uniform(0.2, 9.0))
            t = float(rng.uniform(-10.0, 10.0))
            det = DetectorSpec(gap, ComplexAmplitudePair(alpha, beta), (0.0,),
                               SwitchingWindow(0.0, 1.0))
            expected = (alpha.conjugate() * beta
                        * np.exp(1j * gap * t)).real
            assert detector_bias(det, t) == pytest.approx(expected, abs=1e-15)

    def test_array_input(self):
        det = DetectorSpec(3.0, ComplexAmplitudePair(ISQ, -1j * ISQ), (0.0,),
                           SwitchingWindow(0.0, 1.0))
        ts = np.linspace(0.0, 2.0, 17)
        out = detector_bias(det, ts)
        assert out.shape == ts.shape
        np.testing.assert_allclose(out, 0.5 * np.sin(3.0 * ts), atol=1e-15)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_amplitude_bound(self, seed, t):
        alpha, beta = random_state(np.random.default_rng(seed))
        det = DetectorSpec(1.7, ComplexAmplitudePair(alpha, beta), (0.0,),
                           SwitchingWindow(0.0, 1.0))
        assert abs(detector_bias(det, t)) <= abs(alpha) * abs(beta) + 1e-12
        assert abs(alpha) * abs(beta) <= 0.5 + 1e-12

    def test_periodicity(self):
        det = DetectorSpec(2.6, ComplexAmplitudePair(0.6, 0.8j), (0.0,),
                           SwitchingWindow(0.0, 1.0))
        ts = np.linspace(-3.0, 3.0, 31)
        period = 2.0 * math.pi / det.gap
        np.testing.assert_allclose(detector_bias(det, ts + period),
                                   detector_bias(det, ts), atol=1e-13)

    def test_orthogonal_state_negates(self):
        pair = ComplexAmplitudePair(0.28 - 0.45j, 0.7 + 0.48j)
        # not normalized exactly; rescale to keep norm within tolerance
        norm = math.sqrt(abs(pair.alpha) ** 2 + abs(pair.beta) ** 2)
        pair = ComplexAmplitudePair(pair.alpha / norm, pair.beta / norm)
        det = DetectorSpec(4.2, pair, (0.0,), SwitchingWindow(0.0, 1.0))
        flip = DetectorSpec(4.2, pair.orthogonal(), (0.0,),
                            SwitchingWindow(0.0, 1.0))
        ts = np.linspace(0.0, 5.0, 23)
        np.testing.assert_array_equal(detector_bias(det, ts),
                                      -detector_bias(flip, ts))
