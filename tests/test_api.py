"""The public names of the `pppm` package."""

from __future__ import annotations

import pppm


def test_every_exported_name_resolves():
    assert len(set(pppm.__all__)) == len(pppm.__all__)
    missing = [name for name in pppm.__all__ if not hasattr(pppm, name)]
    assert missing == []
