"""The documentation budget is enforced, not stated (ROADMAP, "One of
everything"): ceilings a PR has to fit under by rewriting, not appending."""

import re

from tests.util import ROOT

#: DESIGN.md's size when the ceiling was introduced; lower it when you can.
DESIGN_CEILING = 70_280
#: From PR 23 on an entry says what changed and where the numbers are.
CHANGES_ENTRY_CEILING = 2_500
FIRST_BUDGETED_PR = 23


def test_design_md_fits_its_ceiling():
    assert len((ROOT / "DESIGN.md").read_bytes()) <= DESIGN_CEILING


def test_changes_entries_fit_their_ceiling():
    for line in (ROOT / "CHANGES.md").read_text().splitlines():
        entry = re.match(r"-? ?PR (\d+)", line)
        if entry and int(entry.group(1)) >= FIRST_BUDGETED_PR:
            assert len(line.encode()) <= CHANGES_ENTRY_CEILING, line[:60]
