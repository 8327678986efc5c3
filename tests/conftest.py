from __future__ import annotations

import pytest

from braidmono import LoopSpec, fixture_by_id, local_braid_monodromy


@pytest.fixture(scope="session")
def tracked_braid():
    """Memoized full-loop monodromy of a fixture on the unit circle."""
    memo = {}

    def get(fixture_id: str):
        if fixture_id not in memo:
            f = fixture_by_id(fixture_id)
            memo[fixture_id] = local_braid_monodromy(f.curve, LoopSpec())
        return memo[fixture_id]

    return get
