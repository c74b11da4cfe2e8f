"""Shared fixtures for the observability tests."""

import pytest

from repro.obs.catalog import COUNTER_CATALOG


@pytest.fixture
def bytes_counter(monkeypatch):
    """A bytes-unit counter name, cataloged for the test's duration.

    No live emitter counts bytes, but the tracer, the trace schema and
    the OpenMetrics export all support the unit.
    """
    monkeypatch.setitem(
        COUNTER_CATALOG, "payload_bytes", ("bytes", "test payload footprint")
    )
    return "payload_bytes"
