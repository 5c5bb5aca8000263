"""Host-speed calibration of the timed runs.

The benchmark runs on a shared host whose speed moves by up to 1.6x
over seconds to tens of seconds, so a whole run can land in a fast or a
slow spell.  While ops are timed, a SIGALRM handler runs one fixed unit
of work every PERIOD_S seconds on the measuring thread and records how
long it took; ``clock()`` leaves that time out, so it never counts
towards an op.  Where the ops run in child processes, ``sample()`` is
called between them instead.  ``scale()`` is the median unit time over
REF_UNIT_S, and each op time is reported as measured divided by it:
the time the op would take on a host where one unit takes REF_UNIT_S.

The unit has the shape of qcc's inner loops (numpy calls on arrays of a
few hundred points between Python-level bookkeeping) and shares no code
with qcc, so a change to qcc never moves it.
"""

import math
import signal
import statistics
import time

import numpy as np

REF_UNIT_S = 0.005
PERIOD_S = 0.25

_X = np.linspace(0.0, 1.0, 150)
_samples = []
_spent = 0.0


def unit():
    acc = 0.0
    for i in range(400):
        acc += float((np.cos(3.0 * _X + i) * np.exp(-_X)).sum())
        acc += sum({k: k * 1.5 + math.sin(k) for k in range(20)}.values())
    return acc


def sample():
    """Time one unit and record it."""
    global _spent
    t0 = time.perf_counter()
    unit()
    seconds = time.perf_counter() - t0
    _samples.append(seconds)
    _spent += seconds


def clock():
    """perf_counter() less the time spent in sample()."""
    return time.perf_counter() - _spent


def start():
    signal.signal(signal.SIGALRM, lambda *_: sample())
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def samples():
    return list(_samples)


def scale(unit_seconds):
    """Median unit time over REF_UNIT_S: above 1 on a slow spell."""
    return statistics.median(unit_seconds) / REF_UNIT_S
