"""Acceptance gate: ten end-to-end criteria, one test (= one verdict
line under ``pytest -v``) per criterion.

Each criterion pits an implementation route against an independent
oracle -- a closed form, a direct 2D quadrature, a concave-maximization
search, a regularized momentum integral -- or pins a contract property
(exact zeros, byte determinism, runtime budgets).  Tolerances are stated
inline next to each assertion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    demo_scenario,
    make_scenario,
    random_timelike_scenario,
    s2_via_2d_quadrature,
)
from qcc.channel import (
    binary_entropy,
    capacity_bruteforce_grid,
    capacity_closed,
    capacity_expansion,
)
from qcc.cli import apply_sweep_parameter, compute_row, main
from qcc.greens import (
    field_energy_kernel,
    regularized_momentum_integral,
)
from qcc.scenario import (ComplexAmplitudePair, DetectorSpec, Dimension,
                          Scenario)
from qcc.signalling import (
    energy_balance,
    field_energy_observable,
    interaction_energy_observable,
    s2_observable,
)
from qcc.validation import _hI_by_quadrature

PERIOD = 2.0 * math.pi / 3.0  # gap-3 detector period


def rms(x):
    return math.sqrt(float(np.mean(np.square(x))))


def flipped(s, who):
    det = getattr(s, who)
    new = DetectorSpec(det.gap, det.state.orthogonal(), det.position,
                       det.window)
    return Scenario(s.dimension, new if who == "alice" else s.alice,
                    new if who == "bob" else s.bob)


def spacelike_variant(s, rng):
    """Move Bob out beyond every instant of causal contact."""
    reach = s.bob.window.t_off - s.alice.window.t_on
    L = reach * float(rng.uniform(1.05, 2.5))
    position = (L,) + (0.0,) * (len(s.bob.position) - 1)
    return replace(s, bob=replace(s.bob, position=position))


def test_01_s2_2d_quadrature_matches_1p1_closed_form():
    """50 random strictly timelike 1+1D scenarios: S2 assembled from the
    generic 2D integrator agrees with the closed form that s2_observable
    takes in 1+1D, with no evaluations, to relative 1e-8.  The 2D
    integrator's work is pinned by its evaluation count, which, unlike
    its wall time, does not depend on the host."""
    rng = np.random.default_rng(122)
    worst = 0.0
    evaluations = 0
    for _ in range(50):
        s = random_timelike_scenario(rng, "1+1")
        obs = s2_observable(s)
        assert obs.evaluations == 0
        closed = obs.value
        tol = max(1e-12, abs(closed) * 1e-9)
        quad = s2_via_2d_quadrature(s, tol=tol)
        evaluations += quad.evaluations
        worst = max(worst, abs(quad.value - closed) / abs(closed))
        assert quad.value == pytest.approx(closed, rel=1e-8, abs=0.0)
    assert worst <= 1e-8
    assert evaluations == 856_710


def test_02_interaction_energy_quadrature_matches_closed_form():
    """50 random 1+1D scenarios, evaluation times past T_A + L: the lag
    quadrature equals the antiderivative closed form that
    interaction_energy_observable takes in 1+1D to 1e-10 absolute."""
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(50):
        s = random_timelike_scenario(rng, "1+1")
        w = s.bob.window
        t = float(rng.uniform(w.t_on, w.t_off))
        assert t > s.alice.window.t_off + math.dist(
            s.alice.position, s.bob.position)
        diff = abs(_hI_by_quadrature(s, t, 1e-12).value
                   - interaction_energy_observable(s, t).value)
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_03_huygens_and_spacelike_exact_zeros():
    """3+1D strictly timelike S2 is exactly 0.0 with zero integrand
    evaluations; strictly spacelike S2 is exactly 0.0 in every
    dimension, also without quadrature."""
    rng = np.random.default_rng(303)
    for _ in range(12):
        obs = s2_observable(random_timelike_scenario(rng, "3+1"))
        assert obs.value == 0.0
        assert obs.evaluations == 0
    for dim in ("1+1", "2+1", "3+1"):
        for _ in range(8):
            s = spacelike_variant(random_timelike_scenario(rng, dim), rng)
            obs = s2_observable(s)
            assert obs.value == 0.0
            assert obs.evaluations == 0


def test_04_field_energy_kernel_matches_momentum_integral():
    """The 2+1D field-energy kernel closed form agrees with the Abel-
    regularized momentum integral to relative 1e-4 on the grid
    tau/L in {1.1, 1.5, 2, 3, 5, 10}, L in {0.5, 1, 2}."""
    dim = Dimension.D2p1
    worst = 0.0
    for ratio in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for L in (0.5, 1.0, 2.0):
            tau = ratio * L
            closed = field_energy_kernel(dim, tau, L).value
            res = regularized_momentum_integral(dim, tau, L)
            assert res.abs_error_estimate <= 1e-6
            rel = abs(res.value - closed) / abs(closed)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"tau={tau} L={L}: rel {rel:.2e}"
    assert worst <= 1e-4


def test_05_energy_balance_reference_scenarios():
    """Detector-plus-field energy gain balances the interaction-energy
    drop: |residual| <= max(1e-6, 10x quadrature error) in 2+1D and
    <= 1e-8 in 1+1D, at T1 in {4.5, 5, 6, 8, 10}."""
    for t1 in (4.5, 5.0, 6.0, 8.0, 10.0):
        bal = energy_balance(demo_scenario("2+1", t1=t1), tol=1e-9)
        assert abs(bal.residual) <= max(1e-6, 10.0 * bal.quad_error), \
            f"2+1D T1={t1}: residual {bal.residual:.3e}"
        bal = energy_balance(demo_scenario("1+1", t1=t1), tol=1e-11)
        assert abs(bal.residual) <= 1e-8, \
            f"1+1D T1={t1}: residual {bal.residual:.3e}"


def test_06_demo_curve_structure_rms_and_decay():
    """The 2+1D demo sweep over T1 in [4.5, 12] at tolerance 1e-6:
    both detector-energy and field-energy curves are nonzero, the
    field-energy curve is RMS-smaller than the detector curve on every
    full period window, both decay from T1 ~ 5 to T1 ~ 11, and the whole
    run stays under 5 minutes."""
    t0 = time.monotonic()
    base = demo_scenario("2+1")
    t1s = np.array([4.5 + 0.05 * i for i in range(151)])
    rows = [compute_row(apply_sweep_parameter(base, "bob_t_on", float(v)),
                        float(v), None, 1e-6) for v in t1s]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    assert all(r.status == "ok" for r in rows)

    hb = np.array([r.hB_sig for r in rows])
    hf = np.array([r.hf_sig for r in rows])
    assert np.any(hb != 0.0) and np.any(hf != 0.0)

    start = 4.5
    windows = 0
    while start + PERIOD <= 12.0 + 1e-9:
        m = (t1s >= start - 1e-12) & (t1s < start + PERIOD)
        assert rms(hf[m]) < rms(hb[m]), \
            f"window at T1={start:.2f}: field RMS not below detector RMS"
        start += PERIOD
        windows += 1
    assert windows >= 3

    early = np.abs(t1s - 5.0) <= PERIOD / 2
    late = np.abs(t1s - 11.0) <= PERIOD / 2
    assert rms(hb[late]) < rms(hb[early])
    assert rms(hf[late]) < rms(hf[early])


def test_07_capacity_closed_matches_bruteforce_and_references():
    """Closed-form capacity vs concave maximization: <= 1e-9 on a 97x97
    grid over [0.01, 0.99]^2 (|p-q| >= 1e-6); symmetric-channel
    reduction 1 - h(p) and the 0.5-crossover one-sided channel
    log2(5/4), both to 1e-12."""
    vals = np.linspace(0.01, 0.99, 97)
    P, Q = np.meshgrid(vals, vals, indexing="ij")
    p, q = P.ravel(), Q.ravel()
    brute = capacity_bruteforce_grid(p, q, tol=1e-10)
    closed = np.array([capacity_closed(a, b) for a, b in zip(p, q)])
    mask = np.abs(p - q) >= 1e-6
    assert float(np.max(np.abs(closed - brute)[mask])) <= 1e-9

    for eps in np.linspace(0.05, 0.95, 19):
        assert capacity_closed(eps, 1.0 - eps) == pytest.approx(
            1.0 - binary_entropy(eps), abs=1e-12)
    assert capacity_closed(0.5, 0.0) == pytest.approx(
        math.log2(1.25), abs=1e-12)


def test_08_capacity_expansion_converges_to_closed_form():
    """Small-signal expansion vs closed form: the ratio sits in
    [0.99, 1.01] for q in {0.2, 0.5, 0.8} and delta in {1e-3, 1e-4,
    1e-5}, and |ratio - 1| shrinks with delta (down to the ~1e-6
    cancellation floor of the closed form at these tiny capacities)."""
    for q in (0.2, 0.5, 0.8):
        deviations = []
        for delta in (1e-3, 1e-4, 1e-5):
            closed = capacity_closed(q + delta, q)
            expansion = capacity_expansion(
                delta, math.sqrt(q), math.sqrt(1.0 - q))
            ratio = closed / expansion
            assert 0.99 <= ratio <= 1.01, f"q={q} delta={delta}: {ratio}"
            deviations.append(abs(ratio - 1.0))
        assert deviations[1] <= max(deviations[0], 1e-6)
        assert deviations[2] <= max(deviations[1], 1e-6)


def test_09_orthogonal_state_flip_negates_observables():
    """Swapping either detector state for its orthogonal complement
    negates S2, the interaction energy, and the field energy to within
    the summed quadrature errors, on 20 random scenarios per
    dimension; in 3+1D also on a lightcone-crossing variant of each,
    where an eigenstate Alice zeroes S2 and the interaction energy."""
    rng = np.random.default_rng(909)

    def check_pair(orig, flip):
        assert abs(flip.value + orig.value) <= (
            orig.quad_error + flip.quad_error
            + 1e-15 * (1.0 + abs(orig.value))
        )

    for dim in ("1+1", "2+1", "3+1"):
        for _ in range(20):
            s = random_timelike_scenario(rng, dim)
            t_probe = float(rng.uniform(s.bob.window.t_on,
                                        s.bob.window.t_off))
            for who in ("alice", "bob"):
                f = flipped(s, who)
                check_pair(s2_observable(s, tol=1e-7),
                           s2_observable(f, tol=1e-7))
                check_pair(
                    interaction_energy_observable(s, t_probe, tol=1e-7),
                    interaction_energy_observable(f, t_probe, tol=1e-7))
                check_pair(field_energy_observable(s, tol=1e-7),
                           field_energy_observable(f, tol=1e-7))
            if dim == "3+1":
                # the only nonzero 3+1D signal lives on the null ray:
                # flip-check it on a lightcone-crossing variant too, with
                # hI at a time whose lags cross L strictly inside
                a_len = s.alice.window.duration
                b_len = s.bob.window.duration
                L = 0.5 * min(a_len, b_len)
                cross = make_scenario(
                    "3+1", L=L, a_win=(0.0, a_len),
                    b_win=(a_len, a_len + b_len),
                    a_state=(s.alice.state.alpha, s.alice.state.beta),
                    b_state=(s.bob.state.alpha, s.bob.state.beta),
                    gap_a=s.alice.gap, gap_b=s.bob.gap)
                t_cross = a_len + 0.5 * L
                ops = (lambda x: s2_observable(x, tol=1e-7),
                       lambda x: interaction_energy_observable(
                           x, t_cross, tol=1e-7))
                for op in ops:
                    assert op(cross).value != 0.0
                    for who in ("alice", "bob"):
                        check_pair(op(cross), op(flipped(cross, who)))
                    eigen = replace(cross, alice=replace(
                        cross.alice, state=ComplexAmplitudePair(1.0, 0.0)))
                    assert op(eigen).value == 0.0


def test_10_sweep_byte_determinism(tmp_path, monkeypatch, capsys):
    """Two consecutive runs of the demo sweep write byte-identical
    CSV."""
    monkeypatch.setenv("QCC_QUAD_TOL", "1e-6")
    cfg = str(__import__("pathlib").Path(__file__).resolve().parent.parent
              / "configs" / "demo_2p1.cfg")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        rc = main(["sweep", cfg, "--param", "bob_t_on",
                   "--range", "4.5:12:0.05", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 152  # header + 151 rows
