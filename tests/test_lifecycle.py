"""Lifetimes: what a stopped server or a finished run leaves behind.

Reference counting frees an object the moment its last reference goes,
unless it sits in a reference cycle, which waits for the cycle
collector. These tests run with the collector off, so anything on the
serving path caught in a cycle shows up as garbage that only
``gc.collect()`` could find.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import types
import weakref

import pytest

from dataloa.assurance import AssuranceService
from dataloa.connector import (
    ConsumerConnector,
    FileProviderStore,
    ProviderConnector,
    default_policy,
)
from dataloa.errors import Unreachable
from dataloa.scenario import MODES, bundled_scenarios, run_scenario
from dataloa.wire import (
    AssuranceHTTPServer,
    HttpAssuranceTransport,
    HttpProviderTransport,
    ProviderHTTPServer,
)

from conftest import ASSURER_ID, CONSUMER_ID, NOW, PAYLOAD, PROVIDER_ID


def _dataloa_name(obj) -> str | None:
    """The qualified name of obj's dataloa class, or of obj itself when it
    is a class or function defined in dataloa; None for anything else."""
    owner = obj if isinstance(obj, (type, types.FunctionType)) else type(obj)
    module = getattr(owner, "__module__", None) or ""
    if module == "dataloa" or module.startswith("dataloa."):
        return f"{module}.{owner.__qualname__}"
    return None


def _wait_until(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _cyclic_garbage(action) -> list[str]:
    """Run action with the cycle collector off, then name every dataloa
    object that only the collector could free. Threads the action
    started get a moment to end first, so none still holds an object."""
    gc.collect()
    baseline = threading.active_count()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        _wait_until(lambda: threading.active_count() <= baseline, 1)
        gc.collect()
        return sorted({_dataloa_name(obj) for obj in gc.garbage} - {None})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _published_provider(keys, make_claim) -> ProviderConnector:
    provider = ProviderConnector(keys.signer_for(PROVIDER_ID), keys, clock=lambda: NOW)
    provider.publish(PAYLOAD, "well data", default_policy(), make_claim())
    return provider


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_scenario_run_leaves_no_cycle(name, mode):
    assert _cyclic_garbage(lambda: run_scenario(name, mode=mode)) == []


def test_provider_server_leaves_no_cycle(keys, make_claim):
    def serve():
        provider = _published_provider(keys, make_claim)
        consumer = ConsumerConnector(CONSUMER_ID, keys, clock=lambda: NOW)
        with ProviderHTTPServer(provider) as server, \
                HttpProviderTransport(server.base_url) as http:
            vasset = consumer.fetch_catalog(http).assets[0]
            outcome = consumer.negotiate(http, vasset)
            assert consumer.transfer(
                http, outcome.agreement_id, vasset.asset.claim.content_hash
            ) == PAYLOAD

    assert _cyclic_garbage(serve) == []


def test_assurance_server_leaves_no_cycle(keys, make_claim, make_manifest):
    def serve():
        service = AssuranceService(keys.signer_for(ASSURER_ID), keys, clock=lambda: NOW)
        claim = make_claim()
        with AssuranceHTTPServer(service) as server, \
                HttpAssuranceTransport(server.base_url) as http:
            outcome = http.request_audit(claim.to_dict(), make_manifest(claim).to_dict(), 2)
            assert outcome["passed"]
            http.revoke(outcome["attestation"]["attestation_id"], "test")
            assert len(http.get_revocations()) == 1

    assert _cyclic_garbage(serve) == []


def test_store_save_and_load_leave_no_cycle(keys, make_claim, tmp_path):
    def round_trip():
        provider = _published_provider(keys, make_claim)
        FileProviderStore(tmp_path / "store").save(provider)
        reloaded = FileProviderStore(tmp_path / "store").load(keys, clock=lambda: NOW)
        assert reloaded.catalog().to_dict() == provider.catalog().to_dict()

    assert _cyclic_garbage(round_trip) == []


def test_stopped_server_frees_its_provider_at_once(keys, make_claim):
    provider = _published_provider(keys, make_claim)
    freed = weakref.ref(provider)
    gc.disable()
    try:
        server = ProviderHTTPServer(provider).start()
        del provider
        with HttpProviderTransport(server.base_url) as http:
            http.get_catalog()
        server.stop()
        assert freed() is None
    finally:
        gc.enable()


def test_stop_ends_idle_and_stalled_connections(published, capfd):
    """Five idle keep-alive clients and one stalled mid-body: stop()
    ends all six, their handler threads finish, and nothing is printed."""
    provider, _, _ = published
    baseline = threading.active_count()
    server = ProviderHTTPServer(provider).start()
    clients = [HttpProviderTransport(server.base_url) for _ in range(5)]
    stalled = socket.create_connection(server._server.server_address[:2])
    try:
        for http in clients:
            http.get_catalog()  # leaves its connection open and idle
        stalled.sendall(
            b"POST /negotiations HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
            b'{"ass'
        )
        # the accept loop plus one handler per connection
        assert _wait_until(lambda: threading.active_count() >= baseline + 7, 2)
        server.stop()
        assert _wait_until(lambda: threading.active_count() <= baseline, 1)
        with pytest.raises(Unreachable):
            clients[0].get_catalog()
    finally:
        stalled.close()
        for http in clients:
            http.close()
    assert capfd.readouterr().err == ""
