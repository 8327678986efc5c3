from __future__ import annotations

import pytest

from braidmono import LoopSpec, fixture_by_id, motion_to_braid, track_loop


@pytest.fixture(scope="session")
def tracked_braid():
    """Memoized full-loop monodromy of a fixture on the unit circle."""
    memo = {}

    def get(fixture_id: str):
        if fixture_id not in memo:
            f = fixture_by_id(fixture_id)
            memo[fixture_id] = motion_to_braid(track_loop(f.curve, LoopSpec()))
        return memo[fixture_id]

    return get
