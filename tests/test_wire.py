"""Transport equivalence: in-process calls and live HTTP servers."""

from __future__ import annotations

import json
import socket
import time

import pytest
import requests

from dataloa.connector import NegotiationState
from dataloa.errors import (
    IllegalTransition,
    NoSuchAgreement,
    NotFinalized,
    UnknownSession,
    Unreachable,
)
from dataloa.wire import (
    CONTENT_HASH_HEADER,
    AssuranceHTTPServer,
    HttpAssuranceTransport,
    HttpProviderTransport,
    LocalAssuranceTransport,
    LocalProviderTransport,
    ProviderHTTPServer,
)

from conftest import CONSUMER_ID, PAYLOAD


@pytest.fixture
def provider_http(published):
    provider, asset, claim = published
    with ProviderHTTPServer(provider) as server:
        yield HttpProviderTransport(server.base_url), provider, asset, claim


@pytest.fixture
def assurance_http(assurance):
    with AssuranceHTTPServer(assurance) as server:
        yield HttpAssuranceTransport(server.base_url), assurance


def _hashes(asset):
    return asset.usage_policy.canonical_hash(), asset.claim.canonical_hash()


# -- catalog ----------------------------------------------------------------


def test_catalogs_identical_across_transports(provider_http):
    http, provider, _, _ = provider_http
    assert http.get_catalog() == LocalProviderTransport(provider).get_catalog()


def test_http_catalog_has_no_payload_locator(provider_http):
    http, _, _, _ = provider_http
    for asset in http.get_catalog()["assets"]:
        assert "payload_locator" not in asset


# -- negotiation over HTTP --------------------------------------------------


def test_http_negotiation_created_with_201(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    response = requests.post(
        f"{http.base_url}/negotiations",
        json={
            "asset_id": asset.asset_id,
            "consumer_id": CONSUMER_ID,
            "policy_hash": policy_hash,
            "claim_hash": claim_hash,
        },
        timeout=5,
    )
    assert response.status_code == 201
    assert response.json()["state"] == "AGREED"


def test_http_full_negotiation_and_transfer(provider_http):
    http, _, asset, claim = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session = http.request_negotiation(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    assert session["state"] == "AGREED"
    fetched = http.get_negotiation(session["session_id"])
    assert fetched == session
    final = http.finalize_negotiation(session["session_id"])
    assert final["state"] == "FINALIZED"
    payload, declared = http.get_transfer(session["agreement"]["agreement_id"])
    assert payload == PAYLOAD
    assert declared == claim.content_hash


def test_http_transfer_sets_content_hash_header(provider_http):
    http, _, asset, claim = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session = http.request_negotiation(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    http.finalize_negotiation(session["session_id"])
    response = requests.get(
        f"{http.base_url}/transfers/{session['agreement']['agreement_id']}",
        timeout=5,
    )
    assert response.status_code == 200
    assert response.headers[CONTENT_HASH_HEADER] == claim.content_hash


def test_http_unknown_session_maps_to_404(provider_http):
    http, _, _, _ = provider_http
    with pytest.raises(UnknownSession):
        http.get_negotiation("no-such-session")
    response = requests.get(f"{http.base_url}/negotiations/no-such-session", timeout=5)
    assert response.status_code == 404


def test_http_double_finalize_maps_to_409(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session = http.request_negotiation(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    http.finalize_negotiation(session["session_id"])
    with pytest.raises(IllegalTransition):
        http.finalize_negotiation(session["session_id"])
    response = requests.post(
        f"{http.base_url}/negotiations/{session['session_id']}/finalize", timeout=5
    )
    assert response.status_code == 409


def test_http_transfer_before_finalize_maps_to_409(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session = http.request_negotiation(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    with pytest.raises(NotFinalized):
        http.get_transfer(session["agreement"]["agreement_id"])


def test_http_unknown_agreement_maps_to_404(provider_http):
    http, _, _, _ = provider_http
    with pytest.raises(NoSuchAgreement):
        http.get_transfer("no-such-agreement")


def test_http_unknown_path_is_404(provider_http):
    http, _, _, _ = provider_http
    response = requests.get(f"{http.base_url}/nonsense", timeout=5)
    assert response.status_code == 404


def test_consumer_is_transport_agnostic(provider_http, consumer):
    """The consumer happy path runs unchanged on either transport."""
    http, provider, asset, claim = provider_http
    local = LocalProviderTransport(provider)
    via_local = consumer.fetch_catalog(local)
    via_http = consumer.fetch_catalog(http)
    assert via_http.provider_id == via_local.provider_id
    assert [a.asset.to_dict() for a in via_http.assets] == \
        [a.asset.to_dict() for a in via_local.assets]
    outcome = consumer.negotiate(http, via_http.get(asset.asset_id))
    assert outcome.finalized
    assert consumer.transfer(http, outcome.agreement_id, claim.content_hash) == PAYLOAD


# -- assurance over HTTP ----------------------------------------------------


def test_http_audit_pass_returns_attestation(assurance_http, make_claim,
                                             make_manifest):
    http, assurance = assurance_http
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    result = http.request_audit(claim.to_dict(), manifest.to_dict(), 2)
    local = LocalAssuranceTransport(assurance).request_audit(
        claim.to_dict(), manifest.to_dict(), 2
    )
    assert result == local
    assert result["passed"]
    assert result["attestation"]["level_assured"] == 2


def test_http_audit_fail_is_422_with_details(assurance_http, make_claim,
                                             make_manifest):
    http, _ = assurance_http
    claim = make_claim(level=3)
    manifest = make_manifest(claim, kinds=("quality-report",))
    response = requests.post(
        f"{http.base_url}/audits",
        json={"claim": claim.to_dict(), "manifest": manifest.to_dict(),
              "requested_level": 3},
        timeout=5,
    )
    assert response.status_code == 422
    body = response.json()
    assert body["missing_kinds"] == [
        "integrity-monitoring", "provenance-record", "security-assessment"
    ]
    result = http.request_audit(claim.to_dict(), manifest.to_dict(), 3)
    assert not result["passed"]
    assert result["missing_kinds"] == body["missing_kinds"]


def test_http_audit_rejects_garbage_with_400(assurance_http):
    http, _ = assurance_http
    response = requests.post(f"{http.base_url}/audits", json={"claim": {}}, timeout=5)
    assert response.status_code == 400


def test_http_revocations_round_trip(assurance_http):
    http, assurance = assurance_http
    assert http.get_revocations() == []
    response = requests.post(
        f"{http.base_url}/revocations",
        json={"attestation_id": "att-9", "reason": "compromised"},
        timeout=5,
    )
    assert response.status_code == 204
    listed = http.get_revocations()
    assert [e["attestation_id"] for e in listed] == ["att-9"]
    assert assurance.revocations.is_revoked("att-9")
    # idempotent: a second revocation changes nothing
    http.revoke("att-9", "again")
    assert len(http.get_revocations()) == 1


def test_non_string_revocation_id_is_refused(assurance_http):
    """An integer id would sort against string ids and break every later
    listing."""
    http, _ = assurance_http
    response = requests.post(
        f"{http.base_url}/revocations", json={"attestation_id": 5}, timeout=5
    )
    assert response.status_code == 400
    http.revoke("att-9", "compromised")
    assert [e["attestation_id"] for e in http.get_revocations()] == ["att-9"]


def test_unreachable_server(published):
    provider, _, _ = published
    server = ProviderHTTPServer(provider)
    server.start()
    url = server.base_url
    server.stop()
    with pytest.raises(Unreachable):
        HttpProviderTransport(url, timeout=1).get_catalog()


# -- malformed requests -----------------------------------------------------


def _raw_post(base_url: str, path: str, headers: str, body: bytes) -> tuple[int, dict]:
    """Send one hand-built POST; return the status and the JSON body.

    The 2 s socket timeout turns a dropped connection or a handler
    blocked on its read into a test failure instead of a hang.
    """
    host, port = base_url.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=2) as conn:
        conn.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n{headers}\r\n".encode("latin-1")
            + body
        )
        reply = conn.makefile("rb")
        status = int(reply.readline().split()[1])
        length = 0
        while (line := reply.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return status, json.loads(reply.read(length))


def _sized(body: bytes) -> str:
    return f"Content-Length: {len(body)}\r\n"


MALFORMED = {
    "json-list": (_sized(b"[1, 2]"), b"[1, 2]"),
    "non-utf8": (_sized(b'{"a": "\xff"}'), b'{"a": "\xff"}'),
    "length-abc": ("Content-Length: abc\r\n", b"{}"),
    "length-minus-5": ("Content-Length: -5\r\n", b"{}"),
    "length-minus-1": ("Content-Length: -1\r\n", b"{}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("path", ["/negotiations", "/audits"])
def test_malformed_post_gets_400_json(case, path, published, assurance):
    headers, body = MALFORMED[case]
    provider, _, _ = published
    server_cls, actor = (
        (ProviderHTTPServer, provider) if path == "/negotiations"
        else (AssuranceHTTPServer, assurance)
    )
    with server_cls(actor) as server:
        status, reply = _raw_post(server.base_url, path, headers, body)
    assert status == 400
    assert reply["error"] == "bad_request"


WRONG_TYPED = {
    "/negotiations": {"asset_id": [1], "consumer_id": CONSUMER_ID,
                      "policy_hash": "0" * 64, "claim_hash": "0" * 64},
    "/audits": {"claim": 5, "manifest": {}, "requested_level": 2},
    "/revocations": {"attestation_id": [1]},
}


@pytest.mark.parametrize("path", sorted(WRONG_TYPED))
def test_wrong_typed_field_gets_400_json(path, published, assurance):
    body = json.dumps(WRONG_TYPED[path]).encode("utf-8")
    provider, _, _ = published
    server_cls, actor = (
        (ProviderHTTPServer, provider) if path == "/negotiations"
        else (AssuranceHTTPServer, assurance)
    )
    with server_cls(actor) as server:
        status, reply = _raw_post(server.base_url, path, _sized(body), body)
    assert status == 400
    assert reply["error"] == "bad_request"


# -- transport stalls -------------------------------------------------------


def test_server_stop_returns_at_once(published):
    """stop() does not wait out serve_forever's 0.5 s poll."""
    provider, _, _ = published
    for _ in range(10):
        server = ProviderHTTPServer(provider).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.1


def test_small_responses_skip_the_delayed_ack(provider_http):
    """A response body sent after its headers goes out without waiting
    for the client's delayed ACK (about 40 ms per round trip)."""
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    started = time.perf_counter()
    for _ in range(20):
        session = http.request_negotiation(
            asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
        )
        assert http.finalize_negotiation(session["session_id"])["state"] == "FINALIZED"
    assert time.perf_counter() - started < 0.5
