"""Printed output against the committed digests: the 12 reference sweeps'
CSV bytes, those of the four sweeps at a fixed evaluation time and of
the high-gap sweep, ``point`` and ``capacity`` stdout on the shipped
configs and ``validate``'s lines.  A failure names each output whose bytes moved;
``output_digests.py`` says how to regenerate them after a deliberate
change."""

import output_digests


def test_printed_output_matches_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_QUAD_TOL", raising=False)
    assert output_digests.digests(tmp_path) == output_digests.committed()


def test_regeneration_names_the_moved_outputs():
    old = {"a.csv": "1", "b.txt": "2", "c.txt": "3"}
    new = {"a.csv": "1", "b.txt": "9", "d.csv": "4"}
    assert output_digests.moved(old, new) == [
        "changed: b.txt", "added: d.csv", "dropped: c.txt"]
    assert output_digests.moved(new, new) == []
