"""Shared fixtures."""

import pytest


@pytest.fixture
def fresh_pool(monkeypatch):
    """Set this process's worker pool aside for one test, and terminate the
    pool the test starts when it ends.

    Pool workers fork when the pool starts, so they see only the patches
    made before that; the fixture's value terminates the test's pool, so
    the next dispatch starts one that sees the patches made so far.
    """
    from promotion_sorting import enumeration

    def drop():
        if enumeration._pool:
            enumeration._pool[1].terminate()
        enumeration._pool = None

    monkeypatch.setattr(enumeration, "_pool", None)
    yield drop
    drop()
