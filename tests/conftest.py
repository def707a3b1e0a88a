"""Fixtures shared by the test modules."""

import pytest

import chaosmodem.harness as H


@pytest.fixture
def own_pool(monkeypatch):
    """No worker pool at the start of the test; the one it leaves is shut
    down after it, and the process's pool, if any, put back."""
    monkeypatch.setattr(H, "_POOL", None)
    yield
    H._drop_pool()
