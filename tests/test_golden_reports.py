"""Golden-regression tests for the analysis: rendered report digests.

``tests/test_golden.py`` pins the campaign CSVs; this module pins what the
analysis suite makes of them.  Each committed fixture CSV is read back,
analyzed by :class:`~repro.core.suite.VariabilitySuite`, rendered, and its
SHA-256 compared with ``tests/golden/report_digests.json``.  Reading the
committed CSV (instead of re-simulating) keeps the test fast and isolates
the analysis from the simulator.

Intentional analysis changes must regenerate the digests::

    PYTHONPATH=src python tools/regen_golden.py
"""

from __future__ import annotations

import pytest

from tests.golden import (
    GOLDEN_CAMPAIGNS,
    golden_report_digest,
    read_report_digests,
)

ALL_NAMES = sorted(GOLDEN_CAMPAIGNS)


def test_every_fixture_has_a_report_digest():
    assert sorted(read_report_digests()) == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_report_matches_golden_digest(name):
    assert golden_report_digest(name) == read_report_digests()[name], (
        f"{name}: rendered report differs from the committed digest"
    )
