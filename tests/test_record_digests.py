"""The records of ``row_observables`` against the committed digests, per
family of rows; ``record_digests.py`` says how to regenerate them after
a deliberate change."""

import record_digests


def test_records_match_the_committed_digests():
    assert record_digests.digests() == record_digests.committed()
