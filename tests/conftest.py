"""Guards shared by every test: worker processes stay few and never outlive a test."""

from __future__ import annotations

import multiprocessing
import os

import pytest

HOST_CPUS = os.cpu_count() or 1


@pytest.fixture(autouse=True)
def at_most_four_workers(monkeypatch):
    """A suite's default worker count is ``os.cpu_count()``; tests see at most
    4 CPUs, so no suite forks more than 3 worker processes on a large host."""
    monkeypatch.setattr(os, "cpu_count", lambda: min(HOST_CPUS, 4))
    yield
    assert multiprocessing.active_children() == []
