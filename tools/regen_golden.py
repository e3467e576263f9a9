#!/usr/bin/env python
"""Regenerate the golden campaign fixtures under tests/golden/.

Each fixture is a gzipped campaign CSV plus, in
``tests/golden/report_digests.json``, the digest of the report the
analysis suite renders from that CSV.

Run from the repository root::

    PYTHONPATH=src python tools/regen_golden.py [name ...]

With no arguments every fixture in ``tests.golden.GOLDEN_CAMPAIGNS`` is
rebuilt; pass fixture names to rebuild a subset.  Output is written with a
zeroed gzip mtime, so an unchanged simulation produces byte-identical
files and a clean ``git status``.

Only regenerate when a change is *intended* to alter the simulated
streams — the whole point of the fixtures is to make unintended stream
changes fail ``tests/test_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from tests.golden import (  # noqa: E402
    GOLDEN_CAMPAIGNS,
    write_golden,
    write_report_digests,
)


def main(argv: list[str]) -> int:
    names = argv or sorted(GOLDEN_CAMPAIGNS)
    unknown = [n for n in names if n not in GOLDEN_CAMPAIGNS]
    if unknown:
        known = ", ".join(sorted(GOLDEN_CAMPAIGNS))
        print(f"unknown fixture(s): {', '.join(unknown)} (known: {known})",
              file=sys.stderr)
        return 2
    for name in names:
        path = write_golden(name)
        size = path.stat().st_size
        print(f"wrote {path.relative_to(REPO_ROOT)} ({size} bytes)")
    path = write_report_digests(names)
    print(f"wrote {path.relative_to(REPO_ROOT)} ({len(names)} report digests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
