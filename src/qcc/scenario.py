"""Experiment definition: two switched two-level detectors in flat spacetime.

Alice's detector couples to the field during an early window, Bob's during
a later one; everything downstream (kernels, signalling integrals, channel
statistics) consumes the immutable value objects defined here.

Conventions: natural units (c = hbar = 1), sharp switching (the window is a
set indicator), and couplings carried symbolically -- leading-order outputs
are always reported divided by lambda_A*lambda_B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

__all__ = [
    "Dimension",
    "CausalClass",
    "ComplexAmplitudePair",
    "SwitchingWindow",
    "DetectorSpec",
    "Scenario",
    "ValidationReport",
    "InvalidScenarioError",
    "validate",
    "require_valid",
    "separation",
    "detector_bias",
]

NORMALIZATION_TOL = 1e-12


class Dimension(Enum):
    """Spacetime dimension of the model (spatial + 1 time)."""

    D1p1 = "1+1"
    D2p1 = "2+1"
    D3p1 = "3+1"

    @property
    def spatial(self) -> int:
        return int(self.value[0])

    @classmethod
    def parse(cls, text: str) -> "Dimension":
        text = text.strip()
        for member in cls:
            if text == member.value:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown dimension {text!r} (expected one of {valid})")

    def __str__(self) -> str:
        return self.value


class CausalClass(Enum):
    """Relation of every (t1 in Alice's window, t2 in Bob's window) pair
    to the lightcone at separation L."""

    SPACELIKE = "SPACELIKE"
    TIMELIKE = "TIMELIKE"
    LIGHTCONE_CROSSING = "LIGHTCONE_CROSSING"


@dataclass(frozen=True)
class ComplexAmplitudePair:
    """Pure detector state alpha|e> + beta|g>."""

    alpha: complex
    beta: complex

    def norm_defect(self) -> float:
        """|alpha|^2 + |beta|^2 - 1 (should vanish for a physical state);
        inf for a modulus whose square overflows, where a float ``** 2``
        would raise OverflowError."""
        a, b = abs(self.alpha), abs(self.beta)
        return a * a + b * b - 1.0

    def orthogonal(self) -> "ComplexAmplitudePair":
        """The orthogonal pure state (beta*, -alpha*)."""
        return ComplexAmplitudePair(
            self.beta.conjugate(), -self.alpha.conjugate()
        )


@dataclass(frozen=True)
class SwitchingWindow:
    """Sharp switching interval [t_on, t_off]."""

    t_on: float
    t_off: float

    @property
    def duration(self) -> float:
        return self.t_off - self.t_on


@dataclass(frozen=True)
class DetectorSpec:
    """One pointlike two-level detector.

    ``gap`` is the energy splitting Omega, ``position`` a spatial
    n-vector in natural length units.
    """

    gap: float
    state: ComplexAmplitudePair
    position: Tuple[float, ...]
    window: SwitchingWindow

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))


@dataclass(frozen=True)
class Scenario:
    """Full two-detector experiment: Alice switches first, Bob later."""

    dimension: Dimension
    alice: DetectorSpec
    bob: DetectorSpec

    @functools.cached_property
    def report(self) -> "ValidationReport":
        """The :func:`validate` report, computed once: scenarios are frozen."""
        violations = []
        for name, det in (("alice", self.alice), ("bob", self.bob)):
            defect = det.state.norm_defect()
            if not abs(defect) <= NORMALIZATION_TOL:
                violations.append(
                    f"{name}: state norm defect {defect:.3e} exceeds "
                    f"{NORMALIZATION_TOL:g}"
                )
            if not det.gap > 0:
                violations.append(f"{name}: gap must be positive, got {det.gap!r}")
            if not det.window.t_on < det.window.t_off:
                violations.append(
                    f"{name}: switching window requires t_on < t_off, got "
                    f"[{det.window.t_on!r}, {det.window.t_off!r}]"
                )
            if len(det.position) != self.dimension.spatial:
                violations.append(
                    f"{name}: position has {len(det.position)} components, "
                    f"dimension {self.dimension} needs {self.dimension.spatial}"
                )
            if not all(math.isfinite(x) for x in det.position):
                violations.append(f"{name}: position components must be finite")
            if not (math.isfinite(det.window.t_on)
                    and math.isfinite(det.window.t_off)):
                violations.append(
                    f"{name}: switching window times must be finite")
            if not math.isfinite(det.gap):
                violations.append(f"{name}: gap must be finite")
        if not self.alice.window.t_off <= self.bob.window.t_on:
            violations.append(
                "alice must switch off before bob switches on "
                f"(alice.t_off={self.alice.window.t_off!r} > "
                f"bob.t_on={self.bob.window.t_on!r})"
            )
        try:
            L = separation(self)
        except ValueError:
            # mismatched position lengths already reported above
            L = float("nan")
        lags = (self.bob.window.t_on - self.alice.window.t_off,
                self.bob.window.t_off - self.alice.window.t_on)
        return ValidationReport(tuple(violations), _classify(*lags, L), L)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]
    causal_class: CausalClass
    separation: float

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidScenarioError(ValueError):
    """Raised by operations that require a scenario passing validation."""


def separation(s: Scenario) -> float:
    """Euclidean distance L between the two detectors."""
    return math.dist(s.alice.position, s.bob.position)


def _classify(lo: float, hi: float, L: float) -> CausalClass:
    """Where the cone at separation L stands against a range [lo, hi]
    of lags t2 - t1: the one cone test, for the whole windows and for an
    integral's own region alike.  It meets the range when
    lo <= L <= hi, also when it only touches an end."""
    if lo > L:
        return CausalClass.TIMELIKE
    if hi < L:
        return CausalClass.SPACELIKE
    return CausalClass.LIGHTCONE_CROSSING


def validate(s: Scenario) -> ValidationReport:
    """Collect every violated invariant; never raises.

    The report also carries the detector separation and the causal
    classification of the window pair: TIMELIKE when every (t1, t2) pair
    is strictly inside the cone, SPACELIKE when strictly outside, and
    LIGHTCONE_CROSSING when the cone |t2 - t1| = L meets the windows.
    """
    return s.report


def require_valid(s: Scenario) -> ValidationReport:
    """validate(), but raising InvalidScenarioError on any violation."""
    report = validate(s)
    if not report.ok:
        raise InvalidScenarioError("; ".join(report.violations))
    return report


ArrayOrFloat = Union[float, np.ndarray]


def _bias_coeff(d: DetectorSpec) -> complex:
    """alpha* beta: the detector's bias is Re(alpha* beta e^{i Omega t})."""
    return d.state.alpha.conjugate() * d.state.beta


def detector_bias(d: DetectorSpec, t: ArrayOrFloat) -> ArrayOrFloat:
    """Free-evolution bias Re(alpha* beta e^{i Omega t}) of a detector.

    This is the state-dependent factor multiplying the commutator in the
    leading-order signalling integrand; it is bounded by |alpha||beta| and
    periodic in t with period 2 pi / Omega.  Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    out = (_bias_coeff(d) * np.exp(1j * d.gap * t_arr)).real
    return float(out) if t_arr.ndim == 0 else out
