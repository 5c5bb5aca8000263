"""Tests for the leading-order signalling observables.

The closed forms, the generic quadrature path, and an independently
assembled 2D-quadrature route are cross-checked against each other
throughout; no expected value below is taken on faith from a single
code path.
"""

import cmath
import math
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    demo_scenario,
    lag_pass_by_hand,
    make_scenario,
    random_scenario,
    random_timelike_scenario,
    route_by_hand,
    s2_via_2d_quadrature,
)
from record_digests import crossing_3p1
from qcc import greens, signalling
from qcc.channel import channel_stats
from qcc.cli import SweepSpec, apply_sweep_parameter, compute_row
from qcc.config import load_config
from qcc.greens import commutator_kernel
from qcc.quadrature import QuadratureError, QuadResult, integrate_1d
from qcc.scenario import (
    CausalClass,
    DetectorSpec,
    InvalidScenarioError,
    Scenario,
    detector_bias,
)
from qcc.signalling import (
    energy_balance,
    field_energy_observable,
    interaction_energy_observable,
    s2_observable,
)
from qcc.validation import _hI_by_quadrature, _s2_by_quadrature


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The lightcone-crossing row the benchmark probes (perfbench/run.py).
CROSSING_GAP_A = 5.098864354543416
CROSSING_A_STATE = (complex(-0.4286528486472649, 0.5623670823817706),
                    complex(-0.6372079371881985, -0.3065388144825399))
CROSSING_B_STATE = (complex(-0.42659147733752584, -0.5639323642627608),
                    complex(-0.26905291044913937, 0.653919361526211))


def _s2_lag(s, t):
    """[s2 up to t] on the lag quadrature, the 1+1D closed form's oracle;
    _bob_upper checks t."""
    picks = [signalling._S2]
    lag_pass = signalling._window_correlation(
        s, signalling._bob_upper(s, t), picks)
    return signalling._lag_integrals(s, [(picks, lag_pass)], 1e-8)


def _s2_and_hf(s, t, tol):
    """s2 and hf_sig from their shared pass, without the row's hI."""
    return signalling._records(s, [signalling._correlations(
        s, t, [signalling._S2, signalling._HF], tol)], tol)[0]


class TestS2ClosedForm1p1:
    def test_reference_value_from_antiderivatives(self):
        # Alice bias integrates to (1-cos9)/6 on [0,3]; Bob's rotated
        # factor to -(cos15-cos24)/12 on [5,8]; s2 is 4x their product.
        s = make_scenario("1+1", L=0.5)
        expected = 4.0 * ((1.0 - math.cos(9.0)) / 6.0) * (
            -(math.cos(15.0) - math.cos(24.0)) / 12.0)
        assert s2_observable(s).value == pytest.approx(expected, rel=1e-14,
                                                       abs=0.0)
        assert expected == pytest.approx(0.1257, abs=5e-5)

    def test_full_period_alice_window_gives_zero(self):
        # real states and Omega_A * T_A = 2 pi: the Alice integral of
        # cos(Omega t) over a full period vanishes
        s = make_scenario("1+1", L=0.5, a_win=(0.0, 2.0 * math.pi / 3.0),
                          a_state=(0.6, 0.8))
        assert abs(s2_observable(s).value) < 1e-15

    def test_orthogonal_bob_negates(self):
        s = make_scenario("1+1", L=0.5)
        flipped = Scenario(
            s.dimension, s.alice,
            DetectorSpec(s.bob.gap, s.bob.state.orthogonal(),
                         s.bob.position, s.bob.window),
        )
        assert s2_observable(flipped).value == -s2_observable(s).value

    def test_quadrature_agrees(self, rng):
        for _ in range(8):
            s = random_timelike_scenario(rng, "1+1")
            closed = s2_observable(s).value
            quad = _s2_by_quadrature(s, 1e-11).value
            assert quad == pytest.approx(closed, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("gap_b", [3.0, 3.0 + 1e-9],
                             ids=["equal-gaps", "nearly-equal-gaps"])
    def test_crossing_difference_term_stays_exact(self, gap_b):
        # Bob's window crosses the cone at T_on,A + L = 6, so s2 has the
        # product of sinusoids between 6 and 8, whose difference
        # frequency Om_B - Om_A is 0 or 1e-9 here
        s = make_scenario("1+1", L=6.0, gap_b=gap_b)
        closed, quad = s2_observable(s), _s2_by_quadrature(s, 1e-11)
        assert abs(closed.value - quad.value) \
            <= closed.quad_error + quad.quad_error


class TestS2GenericRoutes:
    def test_2p1_profile_route_vs_2d_quadrature(self):
        s = demo_scenario("2+1", t1=5.0)
        via_profiles = s2_observable(s, tol=1e-10).value
        via_2d = s2_via_2d_quadrature(s, tol=1e-9)
        assert via_profiles == pytest.approx(via_2d.value, rel=1e-6, abs=0.0)

    def test_2p1_lightcone_crossing_supported(self):
        s = make_scenario("2+1", b_win=(3.5, 6.5))
        via_profiles = s2_observable(s, tol=1e-10).value
        via_2d = s2_via_2d_quadrature(s, tol=1e-9)
        assert via_profiles == pytest.approx(via_2d.value, rel=1e-6, abs=0.0)
        assert via_profiles != 0.0

    def test_1p1_auto_dispatches_to_closed_form(self):
        # no evaluations, and a rounding bound as the error
        obs = s2_observable(make_scenario("1+1", L=0.5))
        assert obs.evaluations == 0
        assert 0.0 < obs.quad_error < 1e-13

    def test_intermediate_time_truncates_bob_integral(self):
        s = demo_scenario("2+1")
        partial = s2_observable(s, t=6.0, tol=1e-10).value
        full = s2_observable(s, t=8.0, tol=1e-10).value
        beyond = s2_observable(s, t=50.0, tol=1e-10).value
        assert partial != pytest.approx(full, rel=1e-3)
        assert beyond == full  # window clamps at T2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # every entry, in every dimension, whatever route the row takes:
        # 1+1D and 3+1D need no quadrature, and at t = T_on Bob's 2+1D
        # window is empty
        missed = []
        for dim in ("1+1", "2+1", "3+1"):
            s = demo_scenario(dim)
            t_on = s.bob.window.t_on
            routes = {
                "s2": lambda: s2_observable(s, tol=tol),
                "hf": lambda: field_energy_observable(s, tol=tol),
                "hI": lambda: interaction_energy_observable(s, 6.0, tol),
                "row": lambda: signalling.row_observables(s, tol=tol),
                "balance": lambda: energy_balance(s, tol),
                "s2 at T_on": lambda: s2_observable(s, t_on, tol),
                "hf at T_on": lambda: field_energy_observable(s, t_on, tol),
            }
            for name, route in routes.items():
                try:
                    route()
                except ValueError as exc:
                    if "finite and positive" in str(exc):
                        continue
                missed.append(f"{dim} {name}")
        assert missed == []

    def test_time_before_window_rejected(self):
        with pytest.raises(ValueError):
            s2_observable(demo_scenario("2+1"), t=4.0)

    @pytest.mark.parametrize("route", [s2_observable, _s2_lag],
                             ids=["observable", "quadrature"])
    def test_1p1_time_before_switch_on_rejected_by_both_routes(self, route):
        s = make_scenario("1+1", L=0.5)
        with pytest.raises(ValueError, match="precedes bob's switch-on"):
            route(s, s.bob.window.t_on - 0.1)

    @pytest.mark.parametrize("dim,route", [
        ("2+1", s2_observable),
        ("1+1", s2_observable),
        ("1+1", _s2_lag),
        ("2+1", field_energy_observable),
    ], ids=["s2-2p1", "s2-1p1", "s2-quadrature-1p1", "hf-2p1"])
    def test_nan_time_rejected(self, dim, route):
        # nan compares false with every switch-on time
        with pytest.raises(ValueError, match="precedes bob's switch-on"):
            route(make_scenario(dim, L=0.5), math.nan)

    def test_spacelike_is_exactly_zero(self):
        for dim in ("1+1", "2+1", "3+1"):
            obs = s2_observable(make_scenario(dim, L=30.0))
            assert obs.value == 0.0
            assert obs.evaluations == 0

    def test_strong_huygens_3p1_timelike(self):
        obs = s2_observable(demo_scenario("3+1", t1=5.0))
        assert obs.value == 0.0
        assert obs.evaluations == 0

    def test_3p1_crossing_takes_the_on_cone_delta(self):
        # demo_3p1.cfg with Bob on [3.5, 6.5]: the lags run from 0.5 to
        # 6.5 and cross L = 1 inside, so s2 is 4 c C(1), one evaluation
        # of the window correlation; the value is the one the null-ray
        # closed form gave before the row path took it
        base = load_config(str(CONFIGS / "demo_3p1.cfg")).scenario
        obs = s2_observable(apply_sweep_parameter(base, "bob_t_on", 3.5))
        assert (obs.value, obs.evaluations) == (-0.030223658809789455, 1)
        assert 0.0 < obs.quad_error <= 1e-13

    def test_eigenstate_alice_nulls_signal(self):
        s = make_scenario("2+1", a_state=(1.0, 0.0))
        assert _s2_by_quadrature(s, 1e-8).value == 0.0

    @pytest.mark.parametrize("gap_b", [
        1.9573782686485903,         # the benchmark's crossing probe row
        CROSSING_GAP_A,             # equal gaps: difference frequency 0
        CROSSING_GAP_A + 1e-9,      # nearly equal gaps
    ])
    def test_2p1_crossing_error_is_bounded(self, gap_b):
        # Bob's window contains t2 = alice.t_off + L, where the lag
        # correlation has a kink; at tol 1e-8 the value must be within
        # 10 tol of the 2D oracle and the reported error must cover it
        s = make_scenario(
            "2+1", L=2.4229047106555965, a_win=(0.0, 3.0), b_win=(5.0, 8.0),
            a_state=CROSSING_A_STATE, b_state=CROSSING_B_STATE,
            gap_a=CROSSING_GAP_A, gap_b=gap_b,
        )
        tol = 1e-8
        obs = s2_observable(s, tol=tol)
        oracle = s2_via_2d_quadrature(s, tol=1e-10)
        err = abs(obs.value - oracle.value)
        assert err <= 10.0 * tol
        assert err <= obs.quad_error + oracle.abs_error_estimate

    # Rows whose windows cross the cone, against references computed by
    # hand with mpmath 1.3.0 at 40 digits in two ways that agree to all
    # 32 digits printed here: the double integral over both windows with
    # no lag reduction (inner over t1 = t2 - L - v^2 by Gauss-Legendre,
    # outer by tanh-sinh, split where the inner range changes form), and
    # 4 int D(tau) C(tau) dtau with C in closed form (tau = L + u^2 next
    # to the cone, Gauss-Legendre).  The second and third rows are
    # random_timelike_scenario(np.random.default_rng(seed), "2+1") for
    # seeds 6 and 4, with L then drawn uniformly between the ends of the
    # lag range by the same generator.  s2_via_2d_quadrature cannot judge
    # them: at tol 1e-10 it raises KernelDomainError on the second (at
    # nodes where sqrt(u^2 + L^2) rounds to L) and misses the third by
    # 4.0 times its own estimate.
    @pytest.mark.parametrize("s,reference", [
        (make_scenario(
            "2+1", L=2.4229047106555965, a_win=(0.0, 3.0), b_win=(5.0, 8.0),
            a_state=CROSSING_A_STATE, b_state=CROSSING_B_STATE,
            gap_a=CROSSING_GAP_A, gap_b=1.9573782686485903),
         "0.0080324547449686569980125709160897"),
        (make_scenario(
            "2+1", L=5.529944303106367, a_win=(0.0, 2.9217395816237444),
            b_win=(4.34440768111219, 6.389126595272213),
            a_state=(complex(-0.5983976065346513, -0.0651920456619992),
                     complex(0.4790085355175202, 0.6389218454375816)),
            b_state=(complex(0.37394323354493036, 0.8562970896071209),
                     complex(0.16584522131461737, 0.31530479695596353)),
            gap_a=0.5845101525866294, gap_b=9.798291840760319),
         "-0.0023657838392278225583692389335035"),
        (make_scenario(
            "2+1", L=10.365774446234827, a_win=(0.0, 4.743752475075654),
            b_win=(7.684361739344915, 10.485335727009542),
            a_state=(complex(-0.9314985332615403, -0.002952870070102951),
                     complex(-0.353817788166515, 0.0843488936910461)),
            b_state=(complex(-0.7064114880886625, 0.10620055257351141),
                     complex(0.1033932645851578, 0.6921084344001781)),
            gap_a=4.589714638429425, gap_b=7.99499381667113),
         "-0.00024516805629313392723048250243897"),
    ], ids=["crossing-probe", "seed6", "seed4"])
    def test_2p1_crossing_rows_against_references(self, s, reference):
        assert s.report.causal_class is CausalClass.LIGHTCONE_CROSSING
        obs = s2_observable(s, None, 1e-8)
        # Decimal(float) is exact, so the float rounding of the reference
        # does not enter
        assert abs(Decimal(obs.value) - Decimal(reference)) \
            <= Decimal(obs.quad_error)

    def test_demo_2p1_evaluation_budget(self):
        # one lag integral: a few GK15 panels per quarter period
        assert s2_observable(demo_scenario("2+1")).evaluations <= 400


# Exact evaluation counts at tol 1e-8 of the rows `qcc point` computes:
# the demo and a long Bob window at a high gap, whose 57-long middle lag
# piece (272 periods) takes the steepest-descent route.  Counts are
# deterministic, so any change to how panels far above their roundoff
# floor are refined, or to which pieces take which route, shows here.
@pytest.mark.parametrize("s,expected", [
    (demo_scenario("2+1"),
     {"s2": 180, "hI_on": 90, "hI_off": 90, "hf_sig": 180}),
    (make_scenario("2+1", b_win=(5.0, 65.0), gap_b=30.0),
     {"s2": 1820, "hI_on": 90, "hI_off": 90, "hf_sig": 1820}),
], ids=["demo", "gapB30-window60"])
def test_production_evaluation_counts_pinned(s, expected):
    t_on, t_off = s.bob.window.t_on, s.bob.window.t_off
    counts = {
        "s2": s2_observable(s, t_off, 1e-8).evaluations,
        "hI_on": interaction_energy_observable(s, t_on, 1e-8).evaluations,
        "hI_off": interaction_energy_observable(s, t_off, 1e-8).evaluations,
        "hf_sig": field_energy_observable(s, t_off, 1e-8).evaluations,
    }
    assert counts == expected


_LABELS = ("s2", "hI_on", "hI_off", "hf_sig")


@pytest.mark.parametrize("s,tol,f_factor,expected", [
    (demo_scenario("2+1"), 1e-16, None,
     {"s2": ("roundoff", 90), "hI_on": ("roundoff", 90),
      "hI_off": ("roundoff", 90), "hf_sig": ("roundoff", 90)}),
    (demo_scenario("2+1"), 1e-8, lambda tau: np.where(tau > 5.0, 1e12, 1.0),
     {"hf_sig": ("roundoff", 180)}),
    (demo_scenario("2+1"), 1e-8, lambda tau: math.nan,
     {"hf_sig": ("non-finite", 90)}),
], ids=["demo-tol1e-16", "demo-late-piece", "demo-non-finite-F"])
def test_failed_observables_keep_their_evaluations(s, tol, f_factor,
                                                   expected, monkeypatch):
    # each demo observable fails on its first lag piece after the 90
    # evaluations of its attempt there.  F scaled by
    # 1e12 beyond lag 5 leaves hf_sig's first piece, [2, 5], as it is and
    # puts its second, [5, 8], below the roundoff floor: 90 evaluations
    # on each.  A nan F fails hf_sig on the first piece's 90 initial
    # nodes, which count although no estimate came of them
    field = greens.field_energy_timelike
    if f_factor is not None:
        monkeypatch.setattr(signalling, "_TIMELIKE", (
            greens.commutator_timelike,
            lambda dim, tau, x, L: f_factor(tau) * field(dim, tau, x, L)))
    records = dict(zip(_LABELS, signalling.row_observables(s, None, tol)))
    assert {label: (records[label].failure.reason,
                    records[label].evaluations)
            for label in expected} == expected
    for label in expected:
        assert math.isnan(records[label].value)
        assert records[label].failure.evaluations \
            == records[label].evaluations


def _row_from_public_routes(s, t, tol):
    """(outcomes, status, failures) of a row assembled from one public
    call per observable, the way a row reads them: each outcome is the
    Observable the call returns or the exception it raises."""
    out, tags, failures = {}, [], []
    for label, call in (
        ("s2", lambda: s2_observable(s, t, tol)),
        ("hI_on", lambda: interaction_energy_observable(
            s, s.bob.window.t_on, tol)),
        ("hI_off", lambda: interaction_energy_observable(s, t, tol)),
        ("hf_sig", lambda: field_energy_observable(s, t, tol)),
    ):
        try:
            out[label] = call()
        except QuadratureError as err:
            out[label] = err
            tags.append(f"numerical:{label}")
            failures.append(f"{label}: {err.reason}: {err}")
        except ValueError as err:
            out[label] = err
            tags.append(f"rejected:{label}")
    return out, ";".join(tags) or "ok", tuple(failures)


def _raised(exc):
    return type(exc), str(exc), getattr(exc, "reason", None)


def _bits(obs):
    """An Observable's fields, floats by their bits and the failure by
    what it says."""
    return (obs.value.hex(), obs.quad_error.hex(), obs.evaluations,
            obs.failure and _raised(obs.failure))


class TestSharedPass:
    """A row takes its observables from row_observables, whose lag
    passes, s2/hf_sig and hI at both ends of Bob's window, are one call
    of the lag quadrature; each must equal its own public route bit for
    bit: value, quad_error and evaluations, and on failure a record
    holding what the route raises, the same status and the same
    message."""

    @staticmethod
    def assert_parity(s, t=None, tol=1e-8):
        t = s.bob.window.t_off if t is None else t
        out, status, failures = _row_from_public_routes(s, t, tol)
        for label, record in zip(_LABELS,
                                 signalling.row_observables(s, t, tol)):
            if isinstance(out[label], Exception):
                assert _raised(record.failure) == _raised(out[label])
                assert math.isnan(record.value)
            else:
                assert record == out[label]
        row = compute_row(s, 0.0, t, tol)
        if s.report.ok:
            assert (row.status, row.failures) == (status, failures)
        if status == "ok":
            assert row.s2 == out["s2"].value
            assert row.hf_sig == out["hf_sig"].value
            assert row.quad_error == (
                out["s2"].quad_error + out["hI_on"].quad_error
                + out["hI_off"].quad_error + out["hf_sig"].quad_error)
        return row

    @pytest.mark.parametrize("s", [
        demo_scenario("2+1"),
        make_scenario("2+1", b_win=(5.0, 65.0), gap_b=30.0),
    ], ids=["demo", "gapB30-window60"])
    def test_pinned_scenarios(self, s):
        self.assert_parity(s)

    @given(seed=st.integers(0, 2 ** 32 - 1), equal_gaps=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_random_timelike_2p1(self, seed, equal_gaps):
        s = random_timelike_scenario(np.random.default_rng(seed), "2+1")
        if equal_gaps:
            s = replace(s, bob=replace(s.bob, gap=s.alice.gap))
        self.assert_parity(s)

    def test_one_weight_evaluation_per_pass(self, monkeypatch):
        # the demo's s2/hf_sig pass has two lag pieces, [2, 5] and [5, 8],
        # of 90 initial nodes each: one call of the window correlation
        # evaluates both, and neither needs refining at tol 1e-8
        sizes = []
        window = signalling._window_correlation

        def counted(*args):
            corr, *rest = window(*args)

            def spied(tau):
                sizes.append(tau.size)
                return corr(tau)
            return (spied, *rest)

        monkeypatch.setattr(signalling, "_window_correlation", counted)
        s2, hf = _s2_and_hf(demo_scenario("2+1"), None, 1e-8)
        assert sizes == [180]
        assert (s2.evaluations, hf.evaluations) == (180, 180)

    @pytest.mark.parametrize("gap_b,tol,calls_made,counts", [
        (3.0, 1e-8, [("D", 180), ("F", 180)], [180, 90, 90, 180]),
        (4.0, 1e-8, [("D", 240), ("F", 240), ("D", 180)],
         [240, 90, 90, 240]),
        (1e4, 1e-8, [("D", 180), ("F", 180)], [340, 90, 90, 340]),
        (1e4, 1e-22, [("D", 180), ("F", 180), ("D", 572970),
                      ("F", 572970)], [286655, 90, 90, 286655]),
    ], ids=["demo", "demo-gapB4", "demo-gapB1e4", "demo-gapB1e4-tol1e-22"])
    def test_one_kernel_evaluation_per_row(self, monkeypatch, gap_b, tol,
                                           calls_made, counts):
        # at equal gaps the demo row's three lag passes are one batch:
        # hI_on and hI_off ride s2's panels on [2, 5] and [5, 8], and D
        # and F are each evaluated once, on those 180 nodes.  At Bob's gap
        # 4 the s2/hf_sig pass's panels are narrower; the two hI passes,
        # at Alice's gap, are a batch of their own, with D evaluated once
        # on their 180 nodes.  At Bob's gap 1e4 both pieces of s2/hf_sig
        # take the steepest-descent route, and the rests, at Alice's gap,
        # share the hI passes' batch and its 180 nodes.  At tol 1e-22 the
        # rests fail, both picks are handed back on both pieces, and the
        # second round's batch lays both out on GK panels
        calls = []

        def counted(name, kernel):
            def spied(dim, tau, x, L):
                calls.append((name, tau.size))
                return kernel(dim, tau, x, L)
            return spied

        monkeypatch.setattr(signalling, "_TIMELIKE", (
            counted("D", greens.commutator_timelike),
            counted("F", greens.field_energy_timelike)))
        s = _with_gap(demo_scenario("2+1"), "bob", gap_b)
        records = signalling.row_observables(s, None, tol)
        assert calls == calls_made
        assert [r.evaluations for r in records] == counts

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=170)
    @example(seed=1)
    @settings(max_examples=20, deadline=None)
    def test_batch_equals_one_interval_per_call(self, seed):
        # random rows of every causal class, so crossing rows bring the
        # u = sqrt(x) piece on the cone, and gaps up to 60 on pieces up
        # to 6 long send some pieces to the steepest-descent route.  Seed
        # 170's route keeps s2 on the lag piece [3.44, 9.19] but hands
        # hf_sig back, so the second round's batch holds an interval of
        # hf_sig alone.  Seed 1's batch holds two pieces on the cone,
        # s2's [L, 6.2737] and hI_on's [L, 6.2844]
        s = random_scenario(np.random.default_rng(seed), "2+1")
        shared = signalling._integrate_shared

        def one_at_a_time(f, intervals, tol):
            results = [[] for _ in tol]
            for j, (a, b, width, picks) in enumerate(intervals):
                live = [i for i in picks if not (
                    results[i] and isinstance(results[i][-1],
                                              QuadratureError))]
                per = shared(lambda t, _, j=j: f(t, j),
                             [(a, b, width, live)], tol)
                for i in live:
                    results[i] += per[i]
            return [iter(r) for r in results]

        batched = signalling.row_observables(s, None, 1e-8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signalling, "_integrate_shared", one_at_a_time)
            alone = signalling.row_observables(s, None, 1e-8)
        assert list(map(_bits, batched)) == list(map(_bits, alone))
        if seed == 170:
            # the row's s2 and hf_sig are what the route and GK give one
            # integral at a time, and the route hands hf_sig back on the
            # first of its three pieces
            picks = [signalling._S2, signalling._HF]
            corr = signalling._window_correlation(s, s.bob.window.t_off,
                                                  picks)
            assert [(o.value, o.quad_error, o.evaluations)
                    for o in (batched[0], batched[3])] == lag_pass_by_hand(
                s, picks, corr, 1e-8, signalling._STEEPEST_DESCENT_PERIODS)
            a, b = corr[3], min(corr[5])
            s2, hf = route_by_hand(s, picks, corr[1](a, b), a, b,
                                   1e-8 / 3 / 4.0)
            assert isinstance(s2, QuadResult) and type(hf) is int

    @pytest.mark.parametrize("s,t,tol,status,reason", [
        (make_scenario("2+1", gap_b=1e5), 8.0, 1e-8,
         "numerical:s2;numerical:hf_sig", "budget"),
        (demo_scenario("2+1"), 8.0, 1e-16,
         "numerical:s2;numerical:hI_on;numerical:hI_off;numerical:hf_sig",
         "roundoff"),
        (make_scenario("3+1", L=6.0), 8.0, 1e-8, "rejected:hf_sig", None),
        (make_scenario("2+1", L=6.0), 8.0, 1e-8, "rejected:hf_sig", None),
        (make_scenario("2+1", L=6.0, gap_b=1e5), 8.0, 1e-8,
         "numerical:s2;rejected:hf_sig", "budget"),
        (demo_scenario("2+1"), 4.0, 1e-8,
         "rejected:s2;rejected:hI_off;rejected:hf_sig", None),
        (make_scenario("2+1", gap_b=-1.0), 8.0, 1e-8, "invalid-scenario",
         None),
    ], ids=["100000.0-1e-08-budget", "3.0-1e-16-roundoff",
            "3p1-crossing-hf_sig", "2p1-crossing-hf_sig",
            "2p1-crossing-bob-gap1e5",
            "before-bob-switch-on", "invalid-scenario"])
    def test_failing_rows(self, s, t, tol, status, reason, monkeypatch):
        # on GK panels alone the gap-1e5 rows run out of budget.  On the
        # crossing one, hI_off shares s2's cone piece [6, 8], where s2's
        # panelling is refused; hI_off, at Alice's gap, lays out its own
        monkeypatch.setattr(signalling, "_STEEPEST_DESCENT_PERIODS", math.inf)
        row = self.assert_parity(s, t, tol)
        assert row.status == status
        assert {line.split(": ")[1] for line in row.failures} \
            == ({reason} if reason else set())


def test_failing_integrand_leaves_its_partner(monkeypatch):
    # a non-finite field kernel fails hf_sig on the first lag piece of the
    # demo row; s2, in the same shared pass, must not notice
    monkeypatch.setattr(signalling, "_TIMELIKE", (
        greens.commutator_timelike,
        lambda dim, tau, x, L: np.full_like(tau, np.nan)))
    s = demo_scenario("2+1")
    t = s.bob.window.t_off
    s2, _, _, hf = signalling.row_observables(s, t, 1e-8)
    assert isinstance(hf.failure, QuadratureError)
    assert hf.failure.reason == "non-finite"
    assert "on the lag piece [2.0, 5.0]:" in str(hf.failure)
    assert s2 == s2_observable(s, t, 1e-8)
    row = compute_row(s, 0.0, None, 1e-8)
    assert row.status == "numerical:hf_sig"
    assert row.s2 == s2.value


def test_failed_pick_is_not_integrated_on_later_pieces(monkeypatch):
    # a nan F on the demo's first lag piece, [2, 5], fails hf_sig there.
    # On the second, [5, 8], F has a kink that GK would refine, but F is
    # called there at most once, for the initial nodes: hf_sig is not
    # refined there, and s2 converges on them
    field = greens.field_energy_timelike
    calls = []

    def kinked(dim, tau, x, L):
        calls.append(tau)
        return np.where(tau < 5.0, np.nan, field(dim, tau, x, L)
                        * (1.0 + np.sqrt(np.abs(tau - 6.3))))

    monkeypatch.setattr(signalling, "_TIMELIKE",
                        (greens.commutator_timelike, kinked))
    s = demo_scenario("2+1")
    s2, hf = _s2_and_hf(s, None, 1e-8)
    assert hf.failure.reason == "non-finite"
    assert "on the lag piece [2.0, 5.0]:" in str(hf.failure)
    assert hf.evaluations == 90
    assert s2 == s2_observable(s, None, 1e-8)
    assert len([tau for tau in calls if (tau > 5.0).any()]) <= 1
    # alone on [5, 8], the kink is refined
    calls.clear()
    lag_pass = (lambda tau: [np.ones_like(tau)], None, 3.0, 5.0, 8.0, (),
                1.0, None)
    (alone,) = signalling._lag_integrals(
        s, [([signalling._HF], lag_pass)], 1e-8)
    assert alone.evaluations > 90 and len(calls) > 1


def test_failed_lag_integral_carries_no_best():
    # s2 fails on its first lag piece, [2, 5]; that piece's estimate is
    # not an estimate of s2
    with pytest.raises(QuadratureError) as excinfo:
        s2_observable(demo_scenario("2+1"), 8.0, 1e-16)
    assert excinfo.value.reason == "roundoff"
    assert "on the lag piece [2.0, 5.0]:" in str(excinfo.value)
    assert excinfo.value.best is None


def _with_periods(periods, route, *args):
    """``route(*args)`` with the steepest-descent threshold at
    ``periods``: at 0 every lag piece that does not end on the 2+1D
    cone is offered to that route, at inf none is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signalling, "_STEEPEST_DESCENT_PERIODS", periods)
        return route(*args)


def _with_gap(s, who, gap):
    return replace(s, **{who: replace(getattr(s, who), gap=gap)})


def _interaction_energies(s, tol=1e-8):
    w = s.bob.window
    return [interaction_energy_observable(s, t, tol)
            for t in (w.t_on, w.t_off)]


def _demo_with_bob(**changes):
    s = demo_scenario("2+1")
    if "t_off" in changes:
        changes["window"] = replace(s.bob.window, t_off=changes.pop("t_off"))
    return replace(s, bob=replace(s.bob, **changes))


class TestSteepestDescentRoute:
    """Lag pieces on the steepest-descent route against the GK panels
    they replace; every bound is the sum of the two reported error
    estimates."""

    @staticmethod
    def assert_agrees(s, tol=1e-8, route=None, kappa=0.0):
        """``route(s)``, by default the row's s2/hf_sig pass, with every
        lag piece off the cone offered to the route, against GK.

        GK's estimate covers its rule and its sums, not the rounding of
        its nodes: a node off by eps |tau| turns the integrand's phase by
        eps Om |tau|.  Each GK panel's error is at least 50 eps times
        its int |f|, so where Om |tau| is at most ``kappa`` GK may miss
        by a further kappa / 50 times its estimate."""
        if route is None:
            def route(s):
                return _s2_and_hf(s, s.bob.window.t_off, tol)
        forced = _with_periods(0.0, route, s)
        gk = _with_periods(math.inf, route, s)
        for new, old in zip(forced, gk):
            assert abs(new.value - old.value) <= new.quad_error \
                + (1.0 + kappa / 50.0) * old.quad_error + 1e-15
        return forced, gk

    @given(seed=st.integers(0, 2 ** 32 - 1), equal_gaps=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_forced_route_matches_gk(self, seed, equal_gaps):
        s = random_timelike_scenario(np.random.default_rng(seed), "2+1",
                                     gap_range=(50.0, 500.0))
        if equal_gaps:
            s = replace(s, bob=replace(s.bob, gap=s.alice.gap))
        self.assert_agrees(s)

    def test_nearly_equal_gaps(self):
        # the difference term's sin(kappa w / 2) / kappa stays whole;
        # split into two exponentials it would cancel to 1e-12 or worse
        s = random_timelike_scenario(np.random.default_rng(2), "2+1",
                                     gap_range=(50.0, 500.0))
        self.assert_agrees(
            replace(s, bob=replace(s.bob, gap=s.alice.gap + 1e-9)))

    def test_gap_1e4_matches_gk(self):
        forced, gk = self.assert_agrees(_demo_with_bob(gap=1e4))
        assert [o.evaluations for o in forced] == [340, 340]
        assert [o.evaluations for o in gk] == [572_970, 572_970]

    @pytest.mark.parametrize("gap_b", [40.0, 300.0],
                             ids=["validate-gap40", "long-window-gap300"])
    def test_rest_is_gk_of_kernel_times_rest(self, gap_b):
        # both lag pieces of the demo's s2/hf_sig pass, [2, 5] and
        # [5, 8], offered to the route, as the validation suite offers
        # [5, 8] at gap 40 and the long window's gap-300 row takes both.
        # The slowly varying rest of each is integrate_1d of each kernel
        # times the rest's weight at half of the piece's tol, on panels a
        # quarter period of the rest's top frequency, and each group's
        # steepest-descent moment is the pick's alone: the records are
        # those of helpers.lag_pass_by_hand, bit for bit
        s, tol = _demo_with_bob(gap=gap_b), 1e-10
        picks = [signalling._S2, signalling._HF]
        corr = signalling._window_correlation(s, 8.0, picks)
        for a, b in ((2.0, 5.0), (5.0, 8.0)):
            terms = corr[1](a, b)
            low = [om for om, _, _ in terms if om * (b - a) < 2.0 * math.pi
                   * signalling._OSCILLATORY_TERM_PERIODS]
            assert low and len(low) < len(terms)
            assert all(isinstance(res, QuadResult) for res in route_by_hand(
                s, picks, terms, a, b, tol / 2 / 4.0))
        got = _with_periods(0.0, _s2_and_hf, s, 8.0, tol)
        assert [(o.value, o.quad_error, o.evaluations) for o in got] \
            == lag_pass_by_hand(s, picks, corr, tol, 0.0)

    def test_remainder_failure_hands_the_piece_to_gk(self):
        # at tol 1e-22 the slowly varying remainder of each piece, [2, 5]
        # and [5, 8], fails on its roundoff floor, and the route hands
        # both picks back to GK panels there; each fails on the first of
        # them in turn, counting both attempts, and is not taken on to
        # the second
        s, tol = _demo_with_bob(gap=1e4), 1e-22
        picks = [signalling._S2, signalling._HF]
        corr = signalling._window_correlation(s, 8.0, picks)
        for a, b in ((2.0, 5.0), (5.0, 8.0)):
            assert all(type(k) is int for k in route_by_hand(
                s, picks, corr[1](a, b), a, b, tol / 2 / 4.0))
        for obs, (reason, spent, message) in zip(
                _s2_and_hf(s, None, tol),
                lag_pass_by_hand(s, picks, corr, tol, 20.0)):
            assert (obs.failure.reason, obs.evaluations) == (reason, spent)
            assert str(obs.failure) == ("tol 1.000e-22 not reached on the "
                                        f"lag piece [2.0, 5.0]: {message}")
        with pytest.raises(QuadratureError) as excinfo:
            s2_observable(s, None, tol)
        assert excinfo.value.reason == "roundoff"
        assert "on the lag piece [2.0, 5.0]:" in str(excinfo.value)

    @pytest.mark.parametrize("changes", [
        {"gap": 1e5}, {"gap": 1e6}, {"t_off": 1e4},
    ], ids=["gap1e5", "gap1e6", "t_off1e4"])
    def test_extreme_rows_finish(self, changes):
        s = _demo_with_bob(**changes)
        pair = _s2_and_hf(s, s.bob.window.t_off, 1e-8)
        assert all(o.evaluations <= 10_000 for o in pair)
        # hI, at Alice's gap 3, stays on GK panels here, so the balance
        # checks the route against GK
        bal = energy_balance(s)
        assert abs(bal.residual) <= bal.quad_error

    @pytest.mark.parametrize("dim", ["2+1"])
    @given(seed=st.integers(0, 2 ** 32 - 1), periods=st.floats(20.0, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_forced_route_matches_gk_for_hI(self, dim, seed, periods):
        # at either end of Bob's window hI's lag range is Alice's window,
        # one piece off the cone; her gap makes it span ``periods``.  At
        # 100 periods GK's node rounding alone can exceed its estimate,
        # hence kappa.
        s = random_timelike_scenario(np.random.default_rng(seed), dim)
        gap = 2.0 * math.pi * periods / s.alice.window.duration
        self.assert_agrees(_with_gap(s, "alice", gap),
                           route=_interaction_energies,
                           kappa=gap * s.bob.window.t_off)

    @given(seed=st.integers(0, 2 ** 32 - 1), periods=st.floats(2.0, 19.0),
           ratio=st.floats(0.2, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_forced_route_matches_gk_for_1p1_crossing_s2(self, seed,
                                                         periods, ratio):
        # 1+1D rows take the closed form, which is checked here against
        # GK panels on the lag quadrature.  L past both kinks of the
        # window correlation (T_on,B - T_on,A and T_off,B - T_off,A) and
        # before T_off,B - T_on,A: Bob's window crosses the cone, and the
        # one lag piece beyond it, [L, T_off,B - T_on,A], spans
        # ``periods`` of Bob's gap; Alice's is ``ratio`` of it
        rng = np.random.default_rng(seed)
        s = random_timelike_scenario(rng, "1+1")
        a, b = s.alice.window, s.bob.window
        first = max(b.t_on - a.t_on, b.t_off - a.t_off)
        last = b.t_off - a.t_on
        L = first + float(rng.uniform(0.1, 0.9)) * (last - first)
        gap_b = 2.0 * math.pi * periods / (last - L)
        s = replace(s, alice=replace(s.alice, gap=ratio * gap_b),
                    bob=replace(s.bob, gap=gap_b, position=(L,)))
        assert s.report.causal_class is CausalClass.LIGHTCONE_CROSSING
        closed, gk = s2_observable(s), _s2_by_quadrature(s, 1e-8)
        assert closed.evaluations == 0
        kappa = gap_b * b.t_off
        assert abs(closed.value - gk.value) <= closed.quad_error \
            + (1.0 + kappa / 50.0) * gk.quad_error + 1e-15

    @pytest.mark.parametrize("s", [
        _with_gap(demo_scenario("2+1"), "alice", 1e4),
        _with_gap(demo_scenario("2+1"), "alice", 1e5),
    ], ids=["2p1-alice-gap1e4", "2p1-alice-gap1e5"])
    def test_fixed_cost_rows(self, s):
        # on GK panels hI at Alice's gap 1e4 costs 286,485 evaluations;
        # at 1e5 it runs out of budget
        obs, status, failures = _row_from_public_routes(
            s, s.bob.window.t_off, 1e-8)
        assert (status, failures) == ("ok", ())
        assert all(o.evaluations <= 10_000 for o in obs.values())
        assert compute_row(s, 0.0, None, 1e-8).status == status
        bal = energy_balance(s)
        assert abs(bal.residual) <= bal.quad_error

    @pytest.mark.parametrize("who,gap,counts", [
        ("bob", 1e3, [395, 0, 120]), ("bob", 1e4, [485, 0, 120]),
        ("bob", 1e5, [455, 0, 120]), ("bob", 1e6, [380, 0, 120]),
        ("alice", 1e3, [455, 0, 335]), ("alice", 1e4, [515, 0, 335]),
        ("alice", 1e5, [515, 0, 335]), ("alice", 1e6, [380, 0, 320]),
    ], ids=lambda v: f"{v:.0e}" if isinstance(v, float) else None)
    def test_cone_head_rows(self, who, gap, counts):
        # Bob 6 away: the lag piece [6, 8] of s2, and of hI_off, starts on
        # the cone.  On the cone route alone it cost 38,205 evaluations
        # at gap 1e3 and 381,975 at 1e4, and ran out of budget from 1e5
        # on; its head, two periods, stays there, and the rest takes the
        # steepest-descent route at a cost independent of the gap.  hI_on
        # is short of the cone, hf_sig rejected
        s = _with_gap(make_scenario("2+1", L=6.0), who, gap)
        obs, status, failures = _row_from_public_routes(s, 8.0, 1e-8)
        assert (status, failures) == ("rejected:hf_sig", ())
        assert [obs[k].evaluations for k in _LABELS[:3]] == counts
        assert max(counts) <= 1500
        assert compute_row(s, 0.0, None, 1e-8).status == status
        if gap <= 1e4:
            gk = _with_periods(math.inf, signalling.row_observables, s)
            for label, old in zip(_LABELS[:3], gk):
                new = obs[label]
                assert abs(new.value - old.value) \
                    <= new.quad_error + old.quad_error

    @given(seed=st.integers(0, 2 ** 32 - 1), periods=st.floats(20.0, 100.0),
           ratio=st.floats(0.2, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_cut_cone_piece_matches_gk(self, seed, periods, ratio):
        # L past both kinks of the window correlation puts one lag piece
        # past the cone, [L, T_off,B - T_on,A], for s2 and for hI at
        # T_off,B alike.  It spans ``periods`` periods of Bob's gap in the
        # first row (Alice's is ``ratio`` of it) and of Alice's in the
        # second; past 22 of them its head, two periods, stays on the
        # cone route and the rest is offered to the steepest-descent
        # route.  On 300 such pieces the worst miss was 0.25 of the
        # summed estimates
        rng = np.random.default_rng(seed)
        s = random_timelike_scenario(rng, "2+1")
        a, b = s.alice.window, s.bob.window
        first = max(b.t_on - a.t_on, b.t_off - a.t_off)
        last = b.t_off - a.t_on
        L = first + float(rng.uniform(0.1, 0.9)) * (last - first)
        gap = 2.0 * math.pi * periods / (last - L)
        s = replace(s, bob=replace(s.bob, position=(L, 0.0)))
        for row, i in ((_with_gap(_with_gap(s, "bob", gap), "alice",
                                  ratio * gap), 0),
                       (_with_gap(s, "alice", gap), 2)):
            assert row.report.causal_class is CausalClass.LIGHTCONE_CROSSING
            cut = signalling.row_observables(row, None, 1e-8)[i]
            gk = _with_periods(math.inf, signalling.row_observables,
                               row)[i]
            assert abs(cut.value - gk.value) \
                <= cut.quad_error + gk.quad_error

    @pytest.mark.parametrize("name", ["demo_1p1", "demo_2p1", "demo_3p1",
                                      "spacelike_2p1"])
    def test_shipped_gap_sweeps_stay_on_gk(self, name):
        # the reference gap_B 0.5:40:0.5 sweeps reach the most periods of
        # any shipped sweep: 19.1 on the demo 2+1 top row's 3-long lag
        # pieces.  Lowering _STEEPEST_DESCENT_PERIODS to that would move
        # their rows off GK, and so their bytes; it fails here instead,
        # where every row must be its records on GK panels alone
        def row(s, periods=signalling._STEEPEST_DESCENT_PERIODS):
            return list(map(_bits, _with_periods(
                periods, signalling.row_observables, s, None, 1e-8)))

        s = load_config(str(CONFIGS / f"{name}.cfg")).scenario
        for v in SweepSpec("gap_B", 0.5, 40.0, 0.5).grid():
            swept = apply_sweep_parameter(s, "gap_B", v)
            assert row(swept) == row(swept, math.inf)
        if name == "demo_2p1":
            # the guard is tight: at 19 periods the top row leaves GK
            top = apply_sweep_parameter(s, "gap_B", 40.0)
            assert row(top, 19.0) != row(top, math.inf)

    def test_piece_near_cone_falls_back_to_gk(self):
        # the first lag piece, [L + 1e-3, L + 3 + 1e-3], spans 143
        # periods of Om_B = 300 but starts 0.3 / Om_B from the kernels'
        # branch point: its estimate misses tol, and both picks are
        # redone on GK panels there, counting the abandoned attempt's
        # evaluations too.  The second piece stays on the route
        s = make_scenario("2+1", b_win=(4.001, 7.001), gap_b=300.0)
        t, picks = s.bob.window.t_off, [signalling._S2, signalling._HF]
        corr = signalling._window_correlation(s, t, picks)
        cuts = sorted({corr[3], corr[4], *corr[5]})
        first, second = [
            route_by_hand(s, picks, corr[1](a, b), a, b, 1e-8 / 2 / 4.0)
            for a, b in zip(cuts[:-1], cuts[1:])]
        # two steepest-descent groups of 80 abscissae at least
        assert all(type(k) is int and k >= 160 for k in first)
        assert all(isinstance(res, QuadResult) for res in second)
        assert [(o.value, o.quad_error, o.evaluations)
                for o in _s2_and_hf(s, t, 1e-8)] \
            == lag_pass_by_hand(s, picks, corr, 1e-8, 20.0)


def _record(obs):
    """An Observable by its bits, evaluations, and failure's reason (None
    for a rejection) and message."""
    failure = obs.failure and (getattr(obs.failure, "reason", None),
                               str(obs.failure))
    return (obs.value.hex(), obs.quad_error.hex(), obs.evaluations, failure)


def _roundoff(piece, floor, estimate, tol):
    return ("roundoff", f"tol 1.000e-22 not reached on the lag piece {piece}:"
            f" tolerance is below roundoff floor: panels at their floor carry"
            f" error {floor} (error estimate {estimate} > tol {tol})")


_ON_CONE_F = ("field energy for windows touching the lightcone depends on "
              "the kernel's unspecified on-cone part; rejected")


# Rows whose lag pieces take the steepest-descent route, each record
# (s2, hI_on, hI_off, hf_sig) by _record: value and quad_error bits,
# evaluations, failure reason and message.
_ROUTE_ROWS = [
    # Bob windows 60, 140 and 300 long at gap 3: route pieces with no rest
    pytest.param(make_scenario("2+1", b_win=(5.0, 65.0)), 1e-8, [
        ("0x1.1ca357d39b186p-7", "0x1.04c124b5f468fp-50", 260, None),
        ("0x1.e3ebd597e6c9cp-6", "0x1.f95efc808e97ap-51", 90, None),
        ("-0x1.98a58f889cbd4p-10", "0x1.edf6777c95c19p-55", 90, None),
        ("0x1.4a04ab4c1fcb9p-8", "0x1.908bec297d183p-52", 260, None),
    ], id="window60"),
    pytest.param(make_scenario("2+1", b_win=(5.0, 145.0)), 1e-8, [
        ("0x1.0c762691b1ce8p-7", "0x1.fa09eef84a52cp-51", 260, None),
        ("0x1.e3ebd597e6c9cp-6", "0x1.f95efc808e97ap-51", 90, None),
        ("-0x1.47162054c1bafp-14", "0x1.8b54a49f44797p-59", 90, None),
        ("0x1.4a06c776c35ddp-8", "0x1.8fa6cf638e744p-52", 260, None),
    ], id="window140"),
    pytest.param(make_scenario("2+1", b_win=(5.0, 305.0)), 1e-8, [
        ("0x1.0909a8739f927p-7", "0x1.f1b12c117d2bap-51", 260, None),
        ("0x1.e3ebd597e6c9cp-6", "0x1.f95efc808e97ap-51", 90, None),
        ("0x1.e9db5a9285887p-13", "0x1.27ff3ed7239cap-57", 90, None),
        ("0x1.4a2688d54992bp-8", "0x1.8f7d9831ba1c0p-52", 260, None),
    ], id="window300"),
    # Bob's gap 100 and 300 on [5, 8]: a slowly varying rest on each piece
    pytest.param(make_scenario("2+1", gap_b=100.0), 1e-8, [
        ("0x1.1ae7f5902e05ep-12", "0x1.d752c6951b4a7p-57", 340, None),
        ("0x1.198189d7798abp-5", "0x1.25fbd812ab018p-50", 90, None),
        ("0x1.eb8706238e580p-8", "0x1.1ff258c188139p-52", 90, None),
        ("-0x1.e91d8b3869c8bp-14", "0x1.dd0e7b4035de4p-58", 340, None),
    ], id="bob-gap100"),
    pytest.param(make_scenario("2+1", gap_b=300.0), 1e-8, [
        ("0x1.232c78aed48d1p-14", "0x1.4dc35af9c7e24p-59", 340, None),
        ("0x1.18f61b86fe79dp-8", "0x1.256a3b9b9651ap-53", 90, None),
        ("-0x1.0df019845a5c6p-6", "0x1.3c45252a43bb3p-51", 90, None),
        ("-0x1.0a7d06c71a753p-14", "0x1.3989dec6c446fp-58", 340, None),
    ], id="bob-gap300"),
    # the first piece starts 0.3 / Om_B from the branch point: the route
    # hands both picks back to GK there
    pytest.param(make_scenario("2+1", b_win=(4.001, 7.001), gap_b=300.0),
                 1e-8, [
        ("-0x1.93bd153c6640ap-12", "0x1.4f9ccab00ae55p-42", 9115, None),
        ("-0x1.cfef8d5399e30p-4", "0x1.e364aae7a9cb0p-31", 300, None),
        ("0x1.8304a9d95ebdfp-9", "0x1.be8dcd3381fcep-54", 90, None),
        ("-0x1.730edfce75e6dp-11", "0x1.58f4fe3fd8914p-32", 9205, None),
    ], id="near-cone"),
    # the rest fails on its roundoff floor, and GK fails in turn
    pytest.param(make_scenario("2+1", gap_b=1e4), 1e-22, [
        ("nan", "nan", 286655, _roundoff(
            "[2.0, 5.0]", "1.365e-23", "4.064e-18", "1.250e-23")),
        ("nan", "nan", 90, _roundoff(
            "[2.0, 5.0]", "5.770e-16", "5.770e-16", "2.797e-21")),
        ("nan", "nan", 90, _roundoff(
            "[5.0, 8.0]", "2.787e-16", "2.787e-16", "6.314e-23")),
        ("nan", "nan", 286655, _roundoff(
            "[2.0, 5.0]", "1.161e-22", "1.141e-18", "1.250e-23")),
    ], id="bob-gap1e4-tol1e-22"),
    # hI on the route
    pytest.param(make_scenario("2+1", gap_a=1e4), 1e-8, [
        ("0x1.39678cb341db6p-19", "0x1.0e30da22d911bp-63", 340, None),
        ("0x1.bd018e2b1cdcdp-18", "0x1.ef61bc368129ep-64", 80, None),
        ("-0x1.c0f0b1c8b3892p-20", "0x1.d35ebead017bep-66", 80, None),
        ("0x1.5c899e419bd78p-20", "0x1.01cca97b0cb21p-63", 340, None),
    ], id="alice-gap1e4"),
    # Bob 6 away: s2's cone piece [6, 8] keeps two periods on the cone
    # route, and the rest takes the steepest-descent route; hI_off, at
    # Alice's gap 3, stays on the cone route, and hf_sig is rejected
    *[pytest.param(make_scenario("2+1", L=6.0, gap_b=gap), 1e-8, [
        s2, ("0x0.0p+0", "0x0.0p+0", 0, None), hi_off,
        ("nan", "nan", 0, (None, _ON_CONE_F))], id=f"L6-bob-gap{gap:.0e}")
      for gap, s2, hi_off in [
        (1e3, ("-0x1.1b88a76f8807ap-19", "0x1.19426c4169defp-29", 395, None),
         ("0x1.0c94e637e1a68p-9", "0x1.0a6c3aa7c86c5p-54", 120, None)),
        (1e4, ("0x1.4bb673d2ebd8dp-19", "0x1.4e7b6cf75f391p-30", 485, None),
         ("-0x1.94fc7a7543dc0p-6", "0x1.91bb1f9cb4b7ep-51", 120, None)),
        (1e5, ("-0x1.41286bbc9f7ebp-22", "0x1.4c9dcb5e6dc56p-29", 455, None),
         ("0x1.eaa548ccd0720p-6", "0x1.e6b3aa41645cfp-51", 120, None)),
        (1e6, ("0x1.fdc8d8971a055p-26", "0x1.49f3512493617p-31", 380, None),
         ("-0x1.eb5b692fabda0p-6", "0x1.e76853df8f75cp-51", 120, None)),
    ]],
]


@pytest.mark.parametrize("s,tol,want", _ROUTE_ROWS)
def test_route_records_are_pinned(s, tol, want):
    # how the route's pieces, rests and handed-back picks are laid out
    # and summed, bit for bit
    assert list(map(_record, signalling.row_observables(s, None, tol))) \
        == want


# 1+1D rows against references computed by hand with mpmath 1.3.0 at 40
# digits, each in two ways that agree to all 32 digits printed here: the
# closed form evaluated in mp arithmetic from the float inputs, and a
# quadrature by Gauss-Legendre on panels a period wide (for s2 over t2 of
# Bob's factor times Alice's bias antiderivative, for hI over t1 of
# Alice's bias).  The last row is random_timelike_scenario(
# np.random.default_rng(9), "1+1"): its s2 misses the reference by
# 2.5e-16, over 500 eps |ref|, so a quad_error of 0 does not cover it.
@pytest.mark.parametrize("s,refs", [
    (_with_gap(demo_scenario("1+1"), "alice", 1e4),
     ("0.000031499335252251844023018578765046",
      "0.000060639411016566105587988775566806",
      "-0.000033858594740189426481066960728333")),
    (_with_gap(demo_scenario("1+1"), "alice", 1e5),
     ("0.0000039348819550974461845447250175295",
      "0.0000075750463387879092260309559472748",
      "-0.0000042295995265044293276032191053137")),
    (_with_gap(demo_scenario("1+1", L=6.0), "bob", 1e4),
     ("-5.2481512097055043750230627192585e-7", "0",
      "0.0052566900114754571638975163790629")),
    (_with_gap(demo_scenario("1+1", L=6.0), "bob", 1e5),
     ("6.3681481568839304546951102859132e-8", "0",
      "-0.0063685423565713611483702177014332")),
    (random_timelike_scenario(np.random.default_rng(9), "1+1"),
     ("0.0021544282200750676006350707350517",
      "-0.13046855028523030704909211496500",
      "-0.14854614990336455432483091792203")),
], ids=["1p1-alice-gap1e4", "1p1-alice-gap1e5", "1p1-crossing-bob-gap1e4",
        "1p1-crossing-bob-gap1e5", "1p1-seed9-timelike"])
def test_1p1_rows_against_references(s, refs):
    s2, hi_on, hi_off, hf = signalling.row_observables(s, None, 1e-8)
    eps = Decimal(2.0 ** -52)
    for obs, ref in zip((s2, hi_on, hi_off), map(Decimal, refs)):
        assert obs.evaluations == 0
        # Decimal(float) is exact, so the float rounding of the
        # reference does not enter
        assert abs(Decimal(obs.value) - ref) \
            <= Decimal(obs.quad_error) + 4 * eps * abs(ref)
    if s.report.causal_class is CausalClass.TIMELIKE:
        assert hf == signalling.Observable(0.0, 0.0, 0)
        bal = energy_balance(s)
        assert abs(bal.residual) <= bal.quad_error
    else:
        assert isinstance(hf.failure, InvalidScenarioError)


# (s2, hI_on, hI_off) of each crossing_3p1(37, 20) row, computed by hand
# with mpmath 1.3.0 at 50 digits from the float inputs: s2 = 4 c C(L),
# with c = -1/(4 pi L) and the window correlation C(L) integrated in
# closed form and by tanh-sinh, which agree to 35 digits, and hI(t) =
# -4 bias_B(t) c bias_A(t - L) where t - L lies inside Alice's window,
# else 0.  Printed to 30 digits.
_CROSSING_3P1_REFS = [
    ("-0.000205671364452049459239183534163", "0", "0"),
    ("-0.000136909531601780339504998852547", "0", "0.00217719170045500604419645480721"),
    ("-0.000290517419898109909012758750838", "0", "-0.00218200457602157906902098228376"),
    ("-7.4997341717783105731755520751e-5", "0.00473076986719850135606711772956", "0"),
    ("-0.00278747955900524114347605577491", "0", "0"),
    ("0.000378060738972679544405248847365", "0.0111948541506644445497105409991", "0"),
    ("7.51981905103558114211203224542e-6", "0.000299033796661528648494573630337", "0"),
    ("-0.000120416940923541751578565449175", "0", "0"),
    ("-0.0146113074202761237370429114776", "0.0103564186379032294499073805521", "0"),
    ("-7.6495742377402196278481383763e-5", "-0.00926840145690770356207366764348", "0"),
    ("0.00381067045152265764244237623242", "0", "0.00112831939343236907129143840493"),
    ("0.000923090822526032713502645977053", "-0.0065484083188637852246351457379", "-0.00510626200985305930875950560812"),
    ("-6.63057514788805301583641997927e-5", "0", "0.000636720894843566631048136834493"),
    ("0.00133834974542037758496747091031", "0", "0"),
    ("-0.000331100228891816140329685297647", "0", "-0.000726447813466369234099762996714"),
    ("-0.00474100591328044769853572992333", "-0.0310772241920804729300633252569", "0"),
    ("0.00480003807799092380697324500079", "0", "0.00288168243708489880035891509226"),
    ("-5.90931039152178150710476860554e-5", "0", "-0.00533455614166367932935751885246"),
    ("-1.3471806128402210763182481001e-5", "0", "-0.00357058136709173947308892011213"),
    ("0.000914560449255172201224295184007", "0", "0.000640218782651965763393600768822"),
]


@pytest.mark.parametrize("s,refs", zip(crossing_3p1(37, 20),
                                       _CROSSING_3P1_REFS))
def test_3p1_crossing_rows_against_references(s, refs):
    # the on-cone delta's rounding bound covers its error, with windows
    # up to 1e5 from the origin
    assert s.report.causal_class is CausalClass.LIGHTCONE_CROSSING
    eps = Decimal(2.0 ** -52)
    for obs, ref in zip(signalling.row_observables(s, None, 1e-8),
                        map(Decimal, refs)):
        assert obs.failure is None
        assert abs(Decimal(obs.value) - ref) \
            <= Decimal(obs.quad_error) + 4 * eps * abs(ref)


def test_3p1_rows_never_reach_gk_panels(monkeypatch):
    # the delta is settled where its piece is planned
    def gk(*args):
        raise AssertionError("a 3+1D row reached GK panels")

    monkeypatch.setattr(signalling, "_integrate_shared", gk)
    for s in crossing_3p1(37, 20):
        for t in (None, 0.5 * (s.bob.window.t_on + s.bob.window.t_off)):
            assert all(obs.failure is None for obs in
                       signalling.row_observables(s, t, 1e-8)[:3])


def test_1p1_rows_never_reach_the_lag_quadrature(monkeypatch):
    def lag(*args):
        raise AssertionError("a 1+1D row reached the lag quadrature")

    monkeypatch.setattr(signalling, "_lag_integrals", lag)
    for s in (demo_scenario("1+1"), make_scenario("1+1", L=6.0),
              make_scenario("1+1", L=30.0),
              _with_gap(demo_scenario("1+1"), "alice", 1e5)):
        for t in (None, 6.5, 4.0):
            for obs in signalling.row_observables(s, t, 1e-8):
                assert obs.evaluations == 0


@pytest.mark.parametrize("cfg", ["demo_1p1", "demo_2p1", "demo_3p1"])
def test_rows_with_no_lag_past_the_cone_reach_no_computation(monkeypatch,
                                                             cfg):
    # the route rule alone makes these zeros: no closed form, no lag pass
    def fail(*args):
        raise AssertionError("a row with no lag past L was computed")

    for name in ("_lag_integrals", "_s2_1p1", "_hI_1p1"):
        monkeypatch.setattr(signalling, name, fail)
    base = load_config(str(CONFIGS / f"{cfg}.cfg")).scenario
    # spacelike_2p1.cfg in this dimension: lags 2 to 8, L = 30
    rows = [(apply_sweep_parameter(base, "separation_L", 30.0), None)]
    # up to t = 6 the lags run from 2 to 6, short of every L in (6, 8)
    rows += [(apply_sweep_parameter(base, "separation_L", L), 6.0)
             for L in SweepSpec("separation_L", 6.05, 7.95, 0.05).grid()]
    for s, t in rows:
        assert signalling.row_observables(s, t, 1e-8) \
            == (signalling.Observable(0.0, 0.0, 0),) * 4


class TestInteractionEnergy:
    def test_closed_form_reference(self):
        # closed form written out independently here, then compared with
        # the route and with the lag quadrature
        s = make_scenario("1+1", L=0.5)
        t = 5.0
        a, b = s.alice.state, s.bob.state
        om_a, om_b = s.alice.gap, s.bob.gap
        t_a = s.alice.window.t_off
        expected = (2.0 / om_a) * (
            b.alpha * b.beta.conjugate() * cmath.exp(-1j * om_b * t)
        ).real * (
            a.alpha * a.beta.conjugate() * (cmath.exp(-1j * om_a * t_a) - 1.0)
        ).imag
        assert interaction_energy_observable(s, t).value == pytest.approx(
            expected, rel=1e-14, abs=0.0)
        assert _hI_by_quadrature(s, t, 1e-12).value == pytest.approx(
            expected, abs=1e-10)

    def test_quadrature_matches_closed_random(self, rng):
        # L up to past Bob's window: t's past cone may cover all, part or
        # none of Alice's window
        for _ in range(8):
            s = random_timelike_scenario(rng, "1+1")
            w = s.bob.window
            s = replace(s, bob=replace(s.bob, position=(
                float(rng.uniform(0.0, w.t_off)),)))
            t = float(rng.uniform(w.t_on, w.t_off))
            assert _hI_by_quadrature(s, t, 1e-12).value == pytest.approx(
                interaction_energy_observable(s, t).value, abs=1e-10)

    def test_alice_eigenstate_zero(self):
        s = make_scenario("1+1", a_state=(0.0, 1.0))
        assert interaction_energy_observable(s, 6.0).value == 0.0

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            interaction_energy_observable(demo_scenario("2+1"), 4.0)
        with pytest.raises(ValueError):
            interaction_energy_observable(demo_scenario("2+1"), 8.5)

    def test_closed_form_alice_window_off_zero(self):
        # the closed form holds for any Alice window inside the past cone
        s = make_scenario("1+1", L=0.5, a_win=(1.0, 3.0))
        assert interaction_energy_observable(s, 6.0).value == pytest.approx(
            _hI_by_quadrature(s, 6.0, 1e-12).value, abs=1e-10)

    def test_2p1_time_on_alice_past_cone_vs_direct_quadrature(self):
        # at t = 3.5 the past cone t1 = t - L ends inside Alice's window,
        # on the kernel's 1/sqrt edge; the oracle integrates with the
        # scalar kernel over u, t1 = (t - L) - u^2, which absorbs the edge
        s = make_scenario("2+1", b_win=(3.5, 6.5))
        t, L = 3.5, 1.0

        def g(u):
            t1 = (t - L) - u * u
            return 2.0 * u * detector_bias(s.alice, t1) * commutator_kernel(
                s.dimension, t - t1, L).value

        inner = integrate_1d(np.vectorize(g, otypes=[float]), 0.0,
                             math.sqrt((t - L) - s.alice.window.t_on), 1e-13)
        bob = detector_bias(s.bob, t)
        obs = interaction_energy_observable(s, t, tol=1e-10)
        assert abs(obs.value + 4.0 * bob * inner.value) <= (
            obs.quad_error + 4.0 * abs(bob) * inner.abs_error_estimate)

    def test_3p1_ray_inside_alice_window_takes_the_delta(self):
        # t - L falling inside Alice's window puts the evaluation point
        # on the lightcone delta: hI(t) = -4 bias_B(t) c bias_A(t - L)
        s = make_scenario("3+1", b_win=(3.2, 6.2))
        obs = interaction_energy_observable(s, 3.5)
        c = -1.0 / (4.0 * math.pi)
        want = -4.0 * detector_bias(s.bob, 3.5) * c \
            * detector_bias(s.alice, 2.5)
        assert abs(obs.value - want) <= obs.quad_error
        assert obs.evaluations == 1 and want != 0.0
        # but away from the ray the 3+1D interaction term is exactly 0
        assert interaction_energy_observable(s, 5.0).value == 0.0


class TestRouteRule:
    """One rule picks every route but the lag pass, for s2, hf_sig and
    hI alike."""

    def test_3p1_rejections_share_the_switching_edge_message(self):
        # Bob switches on at T_off,A + L, so s2's lags start on the cone,
        # and hI at 4 = T_off,A + L sees it at Alice's switch-off
        s = make_scenario("3+1", b_win=(4.0, 7.0))
        messages = []
        for route in (lambda: s2_observable(s),
                      lambda: interaction_energy_observable(s, 4.0)):
            with pytest.raises(InvalidScenarioError,
                               match="switching edge") as excinfo:
                route()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "s2_null" not in messages[0]

    # Alice's window is [0, 3]; s2's lags run over [T_on,B - 3, t] and
    # hI's at t over [t - 3, t]
    @pytest.mark.parametrize("L,b_win,t,label", [
        (1.0, (4.0, 7.0), 7.0, "s2"),   # L = lo: T_on,B = T_off,A + L
        (7.0, (5.0, 8.0), 7.0, "s2"),   # L = hi: t = T_on,A + L
        (1.0, (3.5, 6.5), 4.0, "hI"),   # t - L = T_off,A
        (4.0, (3.0, 6.0), 4.0, "hI"),   # t - L = T_on,A
    ], ids=["s2-L-at-lo", "s2-L-at-hi", "hI-at-alice-off", "hI-at-alice-on"])
    def test_3p1_delta_on_a_switching_edge_is_rejected(self, L, b_win, t,
                                                       label):
        # the delta lands on an end of the lags, where its value depends
        # on the edge convention: rejected unspent, as hf_sig is
        s = make_scenario("3+1", L=L, b_win=b_win)
        s2, _, hi_off, hf = signalling.row_observables(s, t, 1e-8)
        obs = s2 if label == "s2" else hi_off
        lo = (b_win[0] if label == "s2" else t) - 3.0
        assert L in (lo, t) and lo < t
        assert isinstance(obs.failure, InvalidScenarioError)
        assert "switching edge" in str(obs.failure)
        assert obs.evaluations == 0
        assert isinstance(hf.failure, InvalidScenarioError)

    def test_1p1_bound_past_tol_is_roundoff(self):
        s = demo_scenario("1+1")
        for route in (lambda tol: s2_observable(s, None, tol),
                      lambda tol: interaction_energy_observable(s, 8.0, tol)):
            obs = route(1e-8)
            assert 1e-16 < obs.quad_error <= 1e-8
            with pytest.raises(QuadratureError) as excinfo:
                route(1e-16)
            assert excinfo.value.reason == "roundoff"
            assert f"bound {obs.quad_error:.3e} exceeds tol" \
                in str(excinfo.value)

    def test_3p1_delta_bound_past_tol_is_roundoff(self):
        # the on-cone delta reports a rounding bound, as the 1+1D closed
        # forms do, and fails before its weight is evaluated
        s = make_scenario("3+1", b_win=(3.5, 6.5))
        for route in (lambda tol: s2_observable(s, None, tol),
                      lambda tol: interaction_energy_observable(s, 3.5, tol)):
            obs = route(1e-8)
            assert 1e-16 < obs.quad_error <= 1e-8
            with pytest.raises(QuadratureError) as excinfo:
                route(1e-16)
            assert excinfo.value.reason == "roundoff"
            assert excinfo.value.evaluations == 0
            assert "on the lag piece [1.0, 1.0]: the on-cone delta's " \
                "rounding bound" in str(excinfo.value)

    def test_3p1_delta_of_a_non_finite_weight_fails(self, monkeypatch):
        window = signalling._window_correlation

        def nan_weight(*args):
            _, *rest = window(*args)
            return (lambda tau: [math.nan], *rest)

        monkeypatch.setattr(signalling, "_window_correlation", nan_weight)
        s2 = signalling.row_observables(
            make_scenario("3+1", b_win=(3.5, 6.5)), None, 1e-8)[0]
        assert (s2.failure.reason, s2.evaluations) == ("non-finite", 1)

    @pytest.mark.parametrize("dim,reason", [("1+1", "roundoff"),
                                            ("2+1", "budget")])
    def test_overflowing_phases_fail_numerically(self, dim, reason):
        # Alice's gap 1e300 at times near 1e16: every phase overflows
        s = make_scenario(dim, a_win=(1e16, 1e16 + 4), b_win=(1e16 + 6,
                                                             1e16 + 8),
                          gap_a=1e300)
        s2, hi_on, hi_off, hf = signalling.row_observables(s, None, 1e-8)
        for obs in (s2, hi_on, hi_off):
            assert isinstance(obs.failure, QuadratureError)
            assert obs.failure.reason == reason
        if dim == "1+1":
            assert hf == signalling.Observable(0.0, 0.0, 0)
        else:
            assert isinstance(hf.failure, QuadratureError)

    @pytest.mark.parametrize("dim", ["1+1", "2+1", "3+1"])
    @pytest.mark.parametrize("t", [5.5, 5.0])
    def test_region_short_of_the_cone_is_an_exact_zero(self, dim, t):
        # at L = 6 the whole windows' lags 2 to 8 cross the cone, but up
        # to t = 5.5 they run only to t - T_on,A = 5.5; at t = T_on,B = 5
        # Bob's window is empty
        s = make_scenario(dim, L=6.0)
        assert s.report.causal_class is CausalClass.LIGHTCONE_CROSSING
        assert signalling.row_observables(s, t, 1e-8) \
            == (signalling.Observable(0.0, 0.0, 0),) * 4

    @pytest.mark.parametrize("dim", ["1+1", "2+1"])
    def test_region_ending_on_the_cone_is_an_exact_zero(self, dim):
        # up to t = 6 at L = 6 the lags end at t - T_on,A = 6 = L exactly:
        # none passes the cone, which hf_sig's region touches
        s2, hi_on, hi_off, hf = signalling.row_observables(
            make_scenario(dim, L=6.0), 6.0, 1e-8)
        assert (s2, hi_on, hi_off) == (signalling.Observable(0.0, 0.0, 0),) * 3
        assert isinstance(hf.failure, InvalidScenarioError)

    @pytest.mark.parametrize("dim", ["1+1", "2+1"])
    def test_lags_rounded_onto_the_cone_fail_unspent(self, dim):
        # Bob up to 1e16 + 2 and Alice from 1.5 at L = 1e16: the lags of
        # s2 and hI_off end at 1e16 + 0.5, which rounds onto L, so the
        # region past the cone is lost to rounding in every route
        s = make_scenario(dim, L=1e16, a_win=(1.5, 3.0),
                          b_win=(5.0, 1e16 + 2))
        s2, hi_on, hi_off, hf = signalling.row_observables(s, None, 1e-8)
        for obs in (s2, hi_off):
            assert obs.failure.reason == "roundoff"
            assert (obs.evaluations, obs.failure.evaluations) == (0, 0)
            assert "round onto it" in str(obs.failure)
        assert hi_on == signalling.Observable(0.0, 0.0, 0)
        assert isinstance(hf.failure, InvalidScenarioError)

    def test_2p1_hI_at_L0_as_alice_switches_off_is_rejected(self):
        # at L = 0 the 2+1D D is 1/(2 pi tau), and hI_on at T_on,B =
        # T_off,A weighs it with Alice's bias at the lag 0, which does not
        # vanish: the integral diverges, and is rejected unspent.  s2's
        # window correlation vanishes at its lowest lag, and hI_off's lags
        # start at 3, so both keep their values
        s = make_scenario("2+1", L=0.0, b_win=(3.0, 6.0))
        s2, hi_on, hi_off, hf = signalling.row_observables(s, None, 1e-8)
        assert isinstance(hi_on.failure, InvalidScenarioError)
        assert "L = 0" in str(hi_on.failure)
        assert hi_on.evaluations == 0
        assert isinstance(hf.failure, InvalidScenarioError)
        for obs in (s2, hi_off):
            assert obs.failure is None and math.isfinite(obs.value)
        with pytest.raises(InvalidScenarioError, match="L = 0"):
            interaction_energy_observable(s, 3.0)
        # a moment later the lags start past 0, where D is finite
        assert interaction_energy_observable(s, 3.5).failure is None

    @pytest.mark.parametrize("L", [5e-324, 1e-300, 1e-157, 1.4e-154])
    def test_2p1_hI_at_a_subnormal_L_squared_is_rejected(self, L):
        # the integral is finite, about ln(1/L), but next to the cone the
        # kernel's radicand u^2 (u^2 + 2L) underflows to 0 and D to inf:
        # at 1e-158 that was two RuntimeWarnings and a non-finite failure
        s = make_scenario("2+1", L=L, b_win=(3.0, 6.0))
        assert L * L < sys.float_info.min
        _, hi_on, hi_off, _ = signalling.row_observables(s, None, 1e-8)
        assert isinstance(hi_on.failure, InvalidScenarioError)
        assert "square is subnormal" in str(hi_on.failure)
        assert hi_on.evaluations == 0
        assert hi_off.failure is None

    def test_2p1_hI_at_a_normal_L_squared_is_computed(self):
        # just past the smallest L whose square is normal, and at 1e-150:
        # hI_on grows like ln(1/L) as L -> 0
        for L in (1.5e-154, 1e-150):
            s = make_scenario("2+1", L=L, b_win=(3.0, 6.0))
            obs = interaction_energy_observable(s, 3.0)
            assert obs.failure is None and 20.0 < obs.value < 22.0

    @pytest.mark.parametrize("dim", ["1+1", "2+1", "3+1"])
    def test_region_reaching_the_cone_still_rejects(self, dim):
        s2, _, _, hf = signalling.row_observables(
            make_scenario(dim, L=6.0), 8.0, 1e-8)
        assert isinstance(hf.failure, InvalidScenarioError)
        assert s2.failure is None


class TestFieldEnergy:
    @pytest.mark.parametrize("dim", ["1+1", "3+1"])
    def test_identically_zero_off_2p1(self, dim):
        obs = field_energy_observable(demo_scenario(dim))
        assert obs.value == 0.0
        assert obs.evaluations == 0

    def test_spacelike_zero(self):
        # the lag quadrature finds no lag beyond the cone
        for dim in ("1+1", "2+1", "3+1"):
            obs = field_energy_observable(make_scenario(dim, L=30.0))
            assert (obs.value, obs.evaluations) == (0.0, 0)

    def test_2p1_crossing_rejected(self):
        s = make_scenario("2+1", b_win=(3.5, 6.5))
        with pytest.raises(InvalidScenarioError):
            field_energy_observable(s)

    def test_2p1_value_is_small_but_nonzero(self):
        s = demo_scenario("2+1", t1=5.0)
        hf = field_energy_observable(s, tol=1e-10).value
        hb = s.bob.gap * s2_observable(s, tol=1e-10).value
        assert hf != 0.0
        assert abs(hf) < abs(hb)


class TestSignFlips:
    @pytest.mark.parametrize("dim", ["1+1", "2+1"])
    @pytest.mark.parametrize("who", ["alice", "bob"])
    def test_orthogonal_replacement_negates_everything(self, dim, who):
        s = demo_scenario(dim)
        det = getattr(s, who)
        flipped_det = DetectorSpec(det.gap, det.state.orthogonal(),
                                   det.position, det.window)
        flipped = Scenario(
            s.dimension,
            flipped_det if who == "alice" else s.alice,
            flipped_det if who == "bob" else s.bob,
        )
        for op in (lambda x: s2_observable(x, tol=1e-9),
                   lambda x: interaction_energy_observable(x, 6.0, tol=1e-9),
                   lambda x: field_energy_observable(x, tol=1e-9)):
            assert op(flipped).value == pytest.approx(-op(s).value, abs=1e-15)


class TestEnergyBalance:
    def test_1p1_randomized(self, rng):
        for _ in range(5):
            s = random_timelike_scenario(rng, "1+1")
            assert abs(energy_balance(s, tol=1e-10).residual) < 1e-8

    def test_2p1_reference_curve_point(self):
        bal = energy_balance(demo_scenario("2+1", t1=5.0), tol=1e-9)
        assert abs(bal.residual) <= max(1e-6, 10.0 * bal.quad_error)

    def test_alice_eigenstate_balances_exactly(self):
        s = make_scenario("2+1", a_state=(1.0, 0.0))
        assert energy_balance(s).residual == 0.0

    def test_crossing_rejected(self):
        with pytest.raises(InvalidScenarioError):
            energy_balance(make_scenario("2+1", b_win=(3.5, 6.5)))

    def test_raises_the_first_failure(self, monkeypatch):
        # the row's records are checked in the order s2, hf_sig, hI_on,
        # hI_off: with that one and every later one failed, its failure
        # is raised
        s = demo_scenario("2+1")
        row = dict(zip(_LABELS, signalling.row_observables(s, None, 1e-8)))
        order = ["s2", "hf_sig", "hI_on", "hI_off"]
        for k, first in enumerate(order):
            records = dict(row, **{label: signalling._failed(
                QuadratureError(label, "budget")) for label in order[k:]})
            monkeypatch.setattr(
                signalling, "row_observables",
                lambda *args: tuple(records[label] for label in _LABELS))
            with pytest.raises(QuadratureError, match=f"^{first}$"):
                energy_balance(s, 1e-8)


class TestRandomScenarioProperties:
    """Production routes against the oracles on seeded random timelike
    scenarios; every bound is the sum of the reported error estimates."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_2p1_s2_matches_2d_oracle(self, seed):
        s = random_timelike_scenario(np.random.default_rng(seed), "2+1")
        obs = s2_observable(s, tol=1e-10)
        oracle = s2_via_2d_quadrature(s, tol=1e-9)
        assert abs(obs.value - oracle.value) <= (
            obs.quad_error + oracle.abs_error_estimate
            + 1e-15 * (1.0 + abs(obs.value)))

    @pytest.mark.parametrize("dim", ["1+1", "2+1"])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_energy_balance_residual_within_quad_error(self, dim, seed):
        s = random_timelike_scenario(np.random.default_rng(seed), dim)
        bal = energy_balance(s, tol=1e-9)
        # every 1+1D term is a closed form, so the residual is rounding
        # alone, and the terms' reported bounds must cover it
        slack = 0.0 if dim == "1+1" else 1e-14
        assert abs(bal.residual) <= bal.quad_error + slack

    # at 3e-15 a lag piece's error sits on its roundoff floor, about 50
    # eps times its integral of |f|: where tol is split across the
    # pieces such a piece fails, while given all of tol each piece passes
    # and their sum exceeds tol, as s2's does at seed 307 a quarter into
    # Bob's window (1.007 tol) and hf_sig's at seed 378 (1.026 tol)
    @pytest.mark.parametrize("dim", ["1+1", "2+1"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-8, 1e-11, 1e-13, 3e-15]),
           frac=st.none() | st.floats(0.0, 1.0))
    @example(seed=307, tol=3e-15, frac=0.25)
    @example(seed=378, tol=3e-15, frac=None)
    @settings(max_examples=60, deadline=None)
    def test_ok_records_meet_their_tolerance(self, dim, seed, tol, frac):
        # the tolerance contract: every record a row reads as ok, at T_off
        # or at the fraction ``frac`` of Bob's window, is within tol
        s = random_scenario(np.random.default_rng(seed), dim)
        w = s.bob.window
        t = None if frac is None else w.t_on + frac * w.duration
        for obs in signalling.row_observables(s, t, tol):
            if obs.failure is None:
                assert obs.quad_error <= tol

    # s2 and hf_sig are linear in Alice's bias and integrate over Bob's
    # time, so splitting either detector's window adds up

    @staticmethod
    def _assert_adds_up(whole, parts):
        # s2 and hf_sig, where every side is ok
        for i in (0, 3):
            records = [whole[i]] + [row[i] for row in parts]
            if any(r.failure is not None for r in records):
                continue
            bound = (math.fsum(r.quad_error for r in records)
                     + 4.0 * math.ulp(1.0) * math.fsum(abs(r.value)
                                                       for r in records))
            rhs = math.fsum(r.value for r in records[1:])
            assert abs(whole[i].value - rhs) <= bound, _LABELS[i]

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_alice_split_adds_up(self, seed):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, "1+1")
        w = s.alice.window
        m = float(rng.uniform(w.t_on, w.t_off))
        halves = [replace(s, alice=replace(s.alice, window=replace(w, **kw)))
                  for kw in ({"t_off": m}, {"t_on": m})]
        self._assert_adds_up(
            signalling.row_observables(s),
            [signalling.row_observables(h) for h in halves])

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bob_split_adds_up(self, seed):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, "1+1")
        w = s.bob.window
        m = float(rng.uniform(w.t_on, w.t_off))
        late = replace(s, bob=replace(s.bob, window=replace(w, t_on=m)))
        self._assert_adds_up(
            signalling.row_observables(s),
            [signalling.row_observables(s, m),
             signalling.row_observables(late)])


class TestNull3p1:
    """The 3+1D signal rides the null ray: the row path's on-cone delta
    against values derived by hand."""

    def test_crossing_value_matches_antiderivative(self):
        # Alice [0,3], Bob [3,6.5], L=1: the null ray t1 + L meets Bob's
        # window for t1 in [2,3].  With the standard detector states the
        # integrand is (1/(4 pi L)) * 4 * (sin 3t)/2 * (sin(3t+3))/2;
        # product-to-sum gives the closed value below.
        s = make_scenario("3+1", b_win=(3.0, 6.5))
        lo, hi = 2.0, 3.0
        coeff = 0.25 / math.pi
        exact = coeff * 0.5 * (
            math.cos(3.0) * (hi - lo)
            - (math.sin(6.0 * hi + 3.0) - math.sin(6.0 * lo + 3.0)) / 6.0
        )
        obs = s2_observable(s)
        assert obs.value == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert abs(obs.value - exact) <= obs.quad_error + 1e-16

    def test_eigenstate_zero(self):
        s = make_scenario("3+1", b_win=(3.0, 6.5), a_state=(1.0, 0.0))
        s2, hi_on, hi_off, _ = signalling.row_observables(s)
        assert (s2.value, hi_on.value) == (0.0, 0.0)
        assert hi_off == signalling.Observable(0.0, 0.0, 0)

    def test_coincident_detectors_rejected(self):
        # at L = 0 the lags start on the cone, Alice's switch-off
        with pytest.raises(InvalidScenarioError, match="switching edge"):
            s2_observable(make_scenario("3+1", L=0.0, b_win=(3.0, 6.5)))


def _row(s, tol=1e-8):
    return compute_row(s, s.bob.window.t_on, None, tol)


class TestSignallingReport:
    def test_hb_is_gap_times_s2(self):
        rep = _row(demo_scenario("2+1"), tol=1e-9)
        assert rep.hB_sig == pytest.approx(3.0 * rep.s2, abs=1e-12)
        assert rep.quad_error >= 0.0

    def test_report_zero_for_spacelike(self):
        rep = _row(make_scenario("2+1", L=30.0))
        assert (rep.s2, rep.hB_sig, rep.hI_on, rep.hI_off, rep.hf_sig) \
            == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert rep.quad_error == 0.0

    @pytest.mark.parametrize("dim", ["1+1", "2+1", "3+1"])
    def test_empty_bob_window_at_switch_on(self, dim):
        # at T_on Bob's window is empty: s2 and hf_sig are exact zeros and
        # hI is taken twice at the same time
        s = demo_scenario(dim)
        t = s.bob.window.t_on
        s2, hi_on, hi_off, hf = signalling.row_observables(s, t, 1e-8)
        assert s2 == hf == signalling.Observable(0.0, 0.0, 0)
        assert hi_on == hi_off
        if dim == "3+1":
            assert hi_on.value == 0.0
        assert compute_row(s, 0.0, t, 1e-8).status == "ok"

    def test_1p1_report_has_zero_field_term(self):
        rep = _row(demo_scenario("1+1"))
        assert rep.hf_sig == 0.0
        assert rep.s2 != 0.0


def test_library_defaults_ignore_the_tolerance_variable(monkeypatch):
    # QCC_QUAD_TOL is the CLI's: at 1e-16 every quadrature here would fail
    # on the roundoff floor
    monkeypatch.setenv("QCC_QUAD_TOL", "1e-16")
    s = demo_scenario("2+1")
    assert s2_observable(s) == s2_observable(s, tol=1e-8)
    assert signalling.row_observables(s) == signalling.row_observables(
        s, tol=1e-8)
    assert energy_balance(s) == energy_balance(s, tol=1e-8)
    assert channel_stats(s, 0.1) == channel_stats(s, 0.1, tol=1e-8)
