"""Printed output against the committed digests: the 12 reference sweeps'
CSV bytes, ``point`` and ``capacity`` stdout on the shipped configs and
``validate``'s lines.  A failure names each output whose bytes moved;
``output_digests.py`` says how to regenerate them after a deliberate
change."""

import output_digests


def test_printed_output_matches_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_QUAD_TOL", raising=False)
    assert output_digests.digests(tmp_path) == output_digests.committed()
