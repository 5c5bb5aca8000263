"""sha256 digests of the records ``row_observables`` returns, per family
of rows, so a bit that moves in any record shows.

A record is hashed by its value and quad_error as ``float.hex``, its
evaluations, and its failure's type, reason and message.  The families:

- ``random-1p1``, ``random-2p1``: rows of every causal class drawn from
  ``random.Random`` (whose stream Python keeps fixed), each at tol 1e-8,
  1e-11, 1e-13 and 3e-15, at Bob's switch-off time and mid-window;
- ``demo-gaps``: the demo at Alice's or Bob's gap from 3 to 1e5, at
  L = 1 and 6;
- ``bob-windows``: the demo with Bob's window 10 to 1e3 long;
- ``high-gap-low-tol``: the demo at Bob's gap 300 to 1e4, at tol 1e-16
  and 1e-22, where rests fail on their roundoff floor and picks are
  handed back;
- ``crossing-L3``: the demo at L = 3 and Bob's gap 1e3, one call whose
  lag pieces take the cone substitution, the steepest-descent route with
  a rest, and plain GK panels;
- ``hand-back-L1.99``: the demo at L = 1.99 and Bob's gap 100, where the
  route hands hf_sig back on the piece next to the cone;
- ``3p1-crossing``: random 3+1D rows whose lags cross the cone, with
  windows starting anywhere from 1 to 1e5 (``crossing_3p1``), each at
  every tol of TOLS and at Bob's switch-off time and mid-window: s2 and
  hI on the on-cone delta.

``data/record_digests.sha256`` holds one ``<digest>  <family>`` line per
family; ``test_record_digests.py`` recomputes them in process.  A change
that moves records on purpose regenerates the file from the root of the
repository:

    PYTHONPATH=src python tests/record_digests.py

which names on stderr each family whose digest it changed, added or
dropped.
"""

import hashlib
import math
import random
import sys
from pathlib import Path

import output_digests
from helpers import make_scenario
from qcc.signalling import row_observables

DIGESTS = Path(__file__).resolve().parent / "data" / "record_digests.sha256"
TOLS = (1e-8, 1e-11, 1e-13, 3e-15)


def _state(rng):
    z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in "ab"]
    norm = math.hypot(abs(z[0]), abs(z[1]))
    return z[0] / norm, z[1] / norm


def _at_tols_and_times(scenarios):
    """Each of ``scenarios`` at every tol of TOLS, at Bob's switch-off
    time and mid-window."""
    for s in scenarios:
        w = s.bob.window
        for tol in TOLS:
            for t in (w.t_off, 0.5 * (w.t_on + w.t_off)):
                yield s, t, tol


def _random_rows(dim, seed, n):
    """n random scenarios of every causal class, as helpers.
    random_scenario draws them."""
    rng = random.Random(seed)
    for _ in range(n):
        a_on = rng.uniform(0.0, 5.0)
        a_off = a_on + rng.uniform(0.1, 6.0)
        b_on = a_off + rng.uniform(0.0, 4.0)
        b_off = b_on + rng.uniform(0.1, 6.0)
        yield make_scenario(
            dim, L=rng.uniform(0.0, b_off - a_on + 1.0),
            a_win=(a_on, a_off), b_win=(b_on, b_off), a_state=_state(rng),
            b_state=_state(rng), gap_a=rng.uniform(0.2, 60.0),
            gap_b=rng.uniform(0.2, 60.0))


def crossing_3p1(seed, n):
    """n random 3+1D scenarios whose lags cross the cone, drawn from
    random.Random: Alice's window starts anywhere from 1 to 1e5, and L
    is uniform between the ends of s2's lags."""
    rng = random.Random(seed)
    for _ in range(n):
        a_on = 10.0 ** rng.uniform(0.0, 5.0)
        a_off = a_on + rng.uniform(0.5, 6.0)
        b_on = a_off + rng.uniform(0.0, 4.0)
        b_off = b_on + rng.uniform(0.5, 6.0)
        a_state, b_state = _state(rng), _state(rng)
        yield make_scenario(
            "3+1", L=rng.uniform(b_on - a_off, b_off - a_on),
            a_win=(a_on, a_off), b_win=(b_on, b_off), a_state=a_state,
            b_state=b_state, gap_a=rng.uniform(0.2, 20.0),
            gap_b=rng.uniform(0.2, 20.0))


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _demo_gaps():
    for L in (1.0, 6.0):
        for gap in _log_grid(3.0, 1e5, 10):
            yield make_scenario("2+1", L=L, gap_a=gap), None, 1e-8
            yield make_scenario("2+1", L=L, gap_b=gap), None, 1e-8


def _bob_windows():
    for length in _log_grid(10.0, 1e3, 16):
        yield make_scenario("2+1", b_win=(5.0, 5.0 + length)), None, 1e-8


def _high_gap_low_tol():
    for gap in _log_grid(300.0, 1e4, 4):
        for tol in (1e-16, 1e-22):
            yield make_scenario("2+1", gap_b=gap), None, tol


FAMILIES = {
    "random-1p1": lambda: _at_tols_and_times(_random_rows("1+1", 1, 200)),
    "random-2p1": lambda: _at_tols_and_times(_random_rows("2+1", 2, 200)),
    "demo-gaps": _demo_gaps,
    "bob-windows": _bob_windows,
    "high-gap-low-tol": _high_gap_low_tol,
    "crossing-L3": lambda: [(make_scenario("2+1", L=3.0, gap_b=1e3),
                             None, 1e-8)],
    "hand-back-L1.99": lambda: [(make_scenario("2+1", L=1.99, gap_b=100.0),
                                 None, 1e-8)],
    "3p1-crossing": lambda: _at_tols_and_times(crossing_3p1(3, 100)),
}


def record_line(obs):
    """One record as hashed: value and quad_error bits, evaluations, and
    the failure's type, reason and message."""
    failure = obs.failure and (type(obs.failure).__name__,
                               getattr(obs.failure, "reason", None),
                               str(obs.failure))
    return repr((obs.value.hex(), obs.quad_error.hex(), obs.evaluations,
                 failure))


def digests():
    """{family: sha256 hex digest of its rows' records}."""
    out = {}
    for name, rows in FAMILIES.items():
        h = hashlib.sha256()
        for s, t, tol in rows():
            for obs in row_observables(s, t, tol):
                h.update(record_line(obs).encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def committed():
    """The digests in ``data/record_digests.sha256``."""
    return output_digests.committed(DIGESTS)


if __name__ == "__main__":
    before = committed() if DIGESTS.exists() else {}
    found = digests()
    DIGESTS.write_text("".join(f"{digest}  {name}\n"
                               for name, digest in found.items()),
                       encoding="ascii")
    for line in output_digests.moved(before, found):
        print(line, file=sys.stderr)
    print(f"wrote {len(found)} digests to {DIGESTS}", file=sys.stderr)
