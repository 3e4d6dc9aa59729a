"""Shared fixtures: libraries and small flow runs are expensive, cache them."""

from __future__ import annotations

import pytest

from repro.flow.design_flow import library_for
from repro.session import Session, scope
from repro.tech.node import NODE_45NM, NODE_7NM


@pytest.fixture(autouse=True)
def _fresh_session():
    """Every test runs in a fresh run session: no store, empty memos,
    keep-going off, no tracer/faults/collectors — and whatever the test
    scopes is gone after it."""
    with scope(Session()) as session:
        yield session


@pytest.fixture(scope="session")
def lib45_2d():
    return library_for("45nm", False)


@pytest.fixture(scope="session")
def lib45_3d():
    return library_for("45nm", True)


@pytest.fixture(scope="session")
def lib45_quad():
    """4-tier interleaved fold of the 45 nm library (scenario space)."""
    from repro.cells.folding import FoldSpec

    return library_for("45nm", True,
                       fold=FoldSpec(tiers=4, style="interleave"))


@pytest.fixture(scope="session")
def lib7_2d():
    return library_for("7nm", False)


@pytest.fixture(scope="session")
def lib7_3d():
    return library_for("7nm", True)


@pytest.fixture(scope="session")
def node45():
    return NODE_45NM


@pytest.fixture(scope="session")
def node7():
    return NODE_7NM


@pytest.fixture(scope="session")
def aes_capture_small():
    """One shared tiny iso-performance run, with flow artifacts captured.

    Returns ``(comparison, [artifacts_2d, artifacts_3d])`` — the audit
    tests need the mid-flow state (module, floorplan, routing, reports)
    that the comparison result itself does not carry.
    """
    from repro.check import capture_artifacts
    from repro.flow.compare import run_iso_performance_comparison

    with capture_artifacts() as bucket:
        comparison = run_iso_performance_comparison("aes", scale=0.05)
    return comparison, bucket


@pytest.fixture(scope="session")
def aes_comparison_small(aes_capture_small):
    """One shared tiny iso-performance run for flow-level tests."""
    return aes_capture_small[0]


# -- service fixtures ------------------------------------------------------

@pytest.fixture()
def service_factory():
    """Build throwaway repro services on ephemeral ports.

    Function-scoped: each test that needs special service wiring (fault
    injection, process backends, private data dirs) gets its own
    instance, and every instance started through the factory is stopped
    at teardown even when the test fails — no orphaned coordinators or
    bound sockets leaking across tests.
    """
    from repro.service import ReproService, ServiceConfig

    started = []

    def _factory(**kwargs):
        kwargs.setdefault("port", 0)
        service = ReproService(ServiceConfig(**kwargs))
        started.append(service)
        return service.start()

    yield _factory
    for service in reversed(started):
        service.stop()


@pytest.fixture(scope="session")
def service_session(tmp_path_factory):
    """One shared service for the read-mostly black-box API tests.

    Boots on an ephemeral port with a session-lifetime data dir; the
    teardown is guaranteed (stop() is idempotent) so the suite never
    leaves an HTTP thread or coordinator behind.
    """
    from repro.service import ReproService, ServiceConfig

    data_dir = tmp_path_factory.mktemp("repro-service")
    service = ReproService(ServiceConfig(port=0, data_dir=data_dir))
    service.start()
    yield service
    service.stop()


@pytest.fixture(scope="session")
def service_client(service_session):
    from repro.service import ServiceClient

    return ServiceClient(service_session.url)
