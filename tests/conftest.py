from __future__ import annotations

import pytest
from hypothesis import settings

from braidmono import LoopSpec, fixture_by_id, motion_to_braid, track_loop

# A failing property prints its @reproduce_failure line, so a CI log is enough
# to replay it; every other setting keeps Hypothesis's default.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


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
