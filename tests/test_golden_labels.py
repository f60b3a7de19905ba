"""Committed label hashes: a changed partition is a red build.

``tests/golden/partition_labels.json`` was generated on the commit
before the V-cycle moved onto typed views (PR 23) and must keep
passing; regenerate it (``tests/golden/regen.py``) only for a change
that is meant to move labels.
"""

from __future__ import annotations

import json

from tests.golden import regen


def test_partition_label_hashes_are_unchanged():
    assert regen.compute() == json.loads(regen.PATH.read_text())
