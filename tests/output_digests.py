"""sha256 digests of what qcc prints, so a byte that moves shows.

The digested outputs are the CSV of the 12 reference sweeps (the four
shipped configs, each swept over ``bob_t_on``, ``separation_L`` and
``gap_B``), the CSV of the ``bob_t_on`` sweeps of ``demo_2p1`` and
``demo_1p1`` at the fixed evaluation times 6.5 and 4, the CSV of the
``gap_B`` sweep of ``demo_2p1`` from 1e4 to 1e6 (the one whose lag
pieces take the steepest-descent route), ``point`` and ``capacity``
stdout on the four shipped configs, and ``validate``'s lines without
their `` [x ms]`` timings, all at the default tolerance.
``data/output_digests.sha256`` holds them in the format of
``sha256sum``, under the file names the CI workflow writes from the
console script, so ``sha256sum -c`` checks them there;
``test_output_digests.py`` recomputes them in process.

A change that moves printed bytes on purpose regenerates the file from
the root of the repository:

    PYTHONPATH=src python tests/output_digests.py

which names on stderr each output whose digest it changed, added or
dropped, for the change's notes.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

from qcc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.sha256"
CONFIGS = ("demo_1p1", "demo_2p1", "demo_3p1", "spacelike_2p1")
SWEEPS = (("bob_t_on", "4.05:12:0.05"), ("separation_L", "0.1:6:0.05"),
          ("gap_B", "0.5:40:0.5"))
# the bob_t_on sweeps at a fixed --eval-time, written as serial_<cfg>_t<T>.csv
EVAL_TIME_CONFIGS = ("demo_2p1", "demo_1p1")
EVAL_TIMES = ("6.5", "4")
# the high-gap sweep, written as serial_gap.csv
HIGH_GAP = ("demo_2p1", "gap_B", "1e4:1e6:1.98e5")
_MS = re.compile(r" \[[0-9.]* ms\]$", re.MULTILINE)


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"qcc {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def digests(workdir):
    """{file name: sha256 hex digest} of every digested output, run in
    process; the sweeps write their CSVs into ``workdir``."""
    files = {}

    def sweep(cfg, name, *args):
        out = Path(workdir) / f"serial_{name}.csv"
        _stdout(["sweep", str(ROOT / "configs" / f"{cfg}.cfg"), *args,
                 "--out", str(out)])
        files[out.name] = out.read_bytes()

    for cfg in CONFIGS:
        for param, spec in SWEEPS:
            sweep(cfg, f"{cfg}_{param}", "--param", param, "--range", spec)
        for verb in ("point", "capacity"):
            path = str(ROOT / "configs" / f"{cfg}.cfg")
            files[f"{verb}_{cfg}.txt"] = _stdout([verb, path]).encode()
    for cfg in EVAL_TIME_CONFIGS:
        for t in EVAL_TIMES:
            sweep(cfg, f"{cfg}_t{t}", "--param", "bob_t_on", "--range",
                  SWEEPS[0][1], "--eval-time", t)
    cfg, param, spec = HIGH_GAP
    sweep(cfg, "gap", "--param", param, "--range", spec)
    files["validate.txt"] = _MS.sub("", _stdout(["validate"])).encode()
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()}


def committed(path=DIGESTS):
    """The {name: digest} pairs of the ``sha256sum``-format file ``path``,
    by default ``data/output_digests.sha256``."""
    pairs = (line.split("  ", 1)
             for line in path.read_text(encoding="ascii").splitlines())
    return {name: digest for digest, name in pairs}


def moved(old, new):
    """Lines naming each output whose digest differs between the
    {name: digest} maps ``old`` and ``new``, in ``new``'s order, then
    those ``new`` drops."""
    lines = [f"{'changed' if name in old else 'added'}: {name}"
             for name, digest in new.items() if old.get(name) != digest]
    return lines + [f"dropped: {name}" for name in old if name not in new]


if __name__ == "__main__":
    os.environ.pop("QCC_QUAD_TOL", None)
    before = committed() if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(tmp)
    DIGESTS.write_text("".join(f"{digest}  {name}\n"
                               for name, digest in found.items()),
                       encoding="ascii")
    for line in moved(before, found):
        print(line, file=sys.stderr)
    print(f"wrote {len(found)} digests to {DIGESTS}", file=sys.stderr)
