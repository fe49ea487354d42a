"""Transport equivalence: in-process calls and live HTTP servers."""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from types import SimpleNamespace

import pytest

from dataloa.assurance import AssuranceService
from dataloa.connector import NegotiationState, ProviderConnector, default_policy
from dataloa.errors import (
    DataLoaError,
    IllegalTransition,
    MalformedCatalog,
    MalformedInput,
    NoSuchAgreement,
    NotFinalized,
    UnknownSession,
    Unreachable,
)
from dataloa.wire import (
    ASSURANCE_ROUTES,
    CATALOG_CONTENT_TYPE,
    CONTENT_HASH_HEADER,
    PROVIDER_ROUTES,
    AssuranceHTTPServer,
    HttpAssuranceTransport,
    HttpProviderTransport,
    LocalAssuranceTransport,
    LocalProviderTransport,
    ProviderHTTPServer,
)

from conftest import CONSUMER_ID, NOW, PAYLOAD


@pytest.fixture
def provider_http(published):
    provider, asset, claim = published
    with ProviderHTTPServer(provider) as server, \
            HttpProviderTransport(server.base_url) as http:
        yield http, provider, asset, claim


@pytest.fixture
def assurance_http(assurance):
    with AssuranceHTTPServer(assurance) as server, \
            HttpAssuranceTransport(server.base_url) as http:
        yield http, assurance


def _hashes(asset):
    return asset.usage_policy.canonical_hash(), asset.claim.canonical_hash()


def _call(base_url: str, method: str, path: str, body=None):
    """One request on a connection of its own: (status, headers, body bytes)."""
    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        if body is None:
            conn.request(method, path)
        else:
            conn.request(method, path, json.dumps(body).encode("utf-8"),
                         {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


# -- catalog ----------------------------------------------------------------


def test_catalogs_identical_across_transports(provider_http):
    http, provider, _, _ = provider_http
    assert http.get_catalog() == LocalProviderTransport(provider).get_catalog()


def test_http_catalog_has_no_payload_locator(provider_http):
    http, _, _, _ = provider_http
    for line in http.get_catalog().splitlines()[1:]:
        assert "payload_locator" not in json.loads(line)


def test_http_catalog_is_sent_as_json_lines(provider_http):
    http, provider, _, _ = provider_http
    status, headers, body = _call(http.base_url, "GET", "/catalog")
    assert (status, headers["Content-Type"]) == (200, CATALOG_CONTENT_TYPE)
    assert body == provider.catalog().public_lines()


# -- negotiation over HTTP --------------------------------------------------


def test_http_negotiation_created_with_201(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    status, _, body = _call(
        http.base_url, "POST", "/negotiations",
        {
            "asset_id": asset.asset_id,
            "consumer_id": CONSUMER_ID,
            "policy_hash": policy_hash,
            "claim_hash": claim_hash,
        },
    )
    assert status == 201
    assert json.loads(body)["state"] == "AGREED"


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
    status, headers, _ = _call(
        http.base_url, "GET", f"/transfers/{session['agreement']['agreement_id']}"
    )
    assert status == 200
    assert headers[CONTENT_HASH_HEADER] == claim.content_hash


def test_http_unknown_session_maps_to_404(provider_http):
    http, _, _, _ = provider_http
    with pytest.raises(UnknownSession):
        http.get_negotiation("no-such-session")
    status, _, _ = _call(http.base_url, "GET", "/negotiations/no-such-session")
    assert status == 404


def test_http_double_finalize_maps_to_409(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session = http.request_negotiation(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    http.finalize_negotiation(session["session_id"])
    with pytest.raises(IllegalTransition):
        http.finalize_negotiation(session["session_id"])
    status, _, _ = _call(
        http.base_url, "POST", f"/negotiations/{session['session_id']}/finalize"
    )
    assert status == 409


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
    status, _, _ = _call(http.base_url, "GET", "/nonsense")
    assert status == 404


@pytest.mark.parametrize("method, path", [
    ("POST", "/negotiations/{sid}/x/finalize"),
    ("POST", "/negotiations/{sid}//finalize"),
    ("GET", "/negotiations/{sid}/x"),
    ("GET", "/transfers/{aid}/x"),
])
def test_route_matches_whole_segments(method, path, provider_http):
    """An id is exactly one path segment: a path with more segments than
    a route's reaches no route, and leaves the session as it was."""
    http, _, asset, _ = provider_http
    session = http.request_negotiation(asset.asset_id, CONSUMER_ID, *_hashes(asset))
    target = path.format(sid=session["session_id"], aid=session["agreement"]["agreement_id"])
    status, _, body = _call(http.base_url, method, target)
    assert (status, json.loads(body)["error"]) == (404, "not_found")
    assert http.get_negotiation(session["session_id"])["state"] == NegotiationState.AGREED.value


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


# -- mode parity, over every route ------------------------------------------


@pytest.fixture
def twin_worlds(keys, provider_key, assurer_key, make_claim, make_manifest):
    """Two worlds built alike, one reached in process and one over HTTP:
    {mode: namespace of its transports and the requests' inputs}."""
    claim = make_claim()
    worlds = {}
    with contextlib.ExitStack() as stack:
        for mode in ("local", "http"):
            provider = ProviderConnector(provider_key=provider_key, keys=keys, clock=lambda: NOW)
            asset = provider.publish(payload=PAYLOAD, description="well data",
                                     policy=default_policy(), claim=claim)
            assurance = AssuranceService(assurer_key=assurer_key, key_directory=keys,
                                         clock=lambda: NOW)
            if mode == "local":
                p, a = LocalProviderTransport(provider), LocalAssuranceTransport(assurance)
            else:
                p = stack.enter_context(HttpProviderTransport(
                    stack.enter_context(ProviderHTTPServer(provider)).base_url))
                a = stack.enter_context(HttpAssuranceTransport(
                    stack.enter_context(AssuranceHTTPServer(assurance)).base_url))
            worlds[mode] = SimpleNamespace(
                p=p, a=a, asset=asset, claim=claim.to_dict(),
                passing=make_manifest(claim).to_dict(),
                failing=make_manifest(claim, kinds=("quality-report",)).to_dict())
        yield worlds


def _negotiated(w) -> dict:
    return w.p.request_negotiation(w.asset.asset_id, CONSUMER_ID, *_hashes(w.asset))


def _finalized(w) -> dict:
    return w.p.finalize_negotiation(_negotiated(w)["session_id"])


# One successful call per route name, each after the calls it needs.
SUCCESSES = {
    "get_catalog": lambda w: w.p.get_catalog(),
    "request_negotiation": _negotiated,
    "get_negotiation": lambda w: w.p.get_negotiation(_negotiated(w)["session_id"]),
    "finalize_negotiation": _finalized,
    "get_transfer": lambda w: w.p.get_transfer(_finalized(w)["agreement"]["agreement_id"]),
    "request_audit": lambda w: w.a.request_audit(w.claim, w.passing, 2),
    "get_revocations": lambda w: [w.a.revoke("att-9", "compromised"), w.a.get_revocations()],
    "revoke": lambda w: w.a.revoke("att-9", "compromised"),
}

FAILURES = {
    "unknown-session": (UnknownSession, lambda w: w.p.get_negotiation("no-such-session")),
    "unknown-session-with-a-slash-and-a-space": (
        UnknownSession, lambda w: w.p.finalize_negotiation("no/such session")),
    "unknown-agreement": (NoSuchAgreement, lambda w: w.p.get_transfer("no-such-agreement")),
    "second-finalize": (IllegalTransition,
                        lambda w: w.p.finalize_negotiation(_finalized(w)["session_id"])),
    "transfer-before-finalize": (
        NotFinalized, lambda w: w.p.get_transfer(_negotiated(w)["agreement"]["agreement_id"])),
    # An empty id reaches its route over HTTP too.
    "empty-session-get": (UnknownSession, lambda w: w.p.get_negotiation("")),
    "empty-session-finalize": (UnknownSession, lambda w: w.p.finalize_negotiation("")),
    "empty-agreement": (NoSuchAgreement, lambda w: w.p.get_transfer("")),
    # A malformed argument is MalformedInput, read by the route's spec or
    # raised by the call.
    "revoke-int-id": (MalformedInput, lambda w: w.a.revoke(5, "x")),
    "audit-empty-records": (MalformedInput, lambda w: w.a.request_audit({}, {}, 2)),
    "audit-level-5": (MalformedInput, lambda w: w.a.request_audit(w.claim, w.passing, 5)),
    "negotiate-int-asset": (
        MalformedInput, lambda w: w.p.request_negotiation(5, CONSUMER_ID, *_hashes(w.asset))),
}


def _outcome(call, world):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(world)
    except DataLoaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted({**PROVIDER_ROUTES, **ASSURANCE_ROUTES}))
def test_modes_return_equal_values_on_every_route(name, twin_worlds):
    outcomes = [_outcome(SUCCESSES[name], world) for world in twin_worlds.values()]
    assert outcomes[0][0] == "returned"
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_modes_raise_equal_errors(case, twin_worlds):
    expected, call = FAILURES[case]
    outcomes = [_outcome(call, world) for world in twin_worlds.values()]
    assert outcomes[0][0] is expected
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("call", [
    lambda w: w.a.revoke({"att-9"}, "compromised"),
    lambda w: w.p.request_negotiation(b"wells-1", CONSUMER_ID, "0" * 64, "0" * 64),
], ids=["set-id", "bytes-id"])
def test_argument_with_no_json_form_is_malformed_input_in_both_modes(call, twin_worlds):
    """Over HTTP the client cannot encode it; in process the route's
    spec refuses it."""
    for world in twin_worlds.values():
        with pytest.raises(MalformedInput):
            call(world)


def test_modes_return_equal_failed_audits(twin_worlds):
    outcomes = [world.a.request_audit(world.claim, world.failing, 2)
                for world in twin_worlds.values()]
    assert outcomes[0]["passed"] is False
    assert outcomes[0] == outcomes[1]


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
    status, _, raw = _call(
        http.base_url, "POST", "/audits",
        {"claim": claim.to_dict(), "manifest": manifest.to_dict(),
         "requested_level": 3},
    )
    assert status == 422
    body = json.loads(raw)
    assert body["missing_kinds"] == [
        "integrity-monitoring", "provenance-record", "security-assessment"
    ]
    result = http.request_audit(claim.to_dict(), manifest.to_dict(), 3)
    assert not result["passed"]
    assert result["missing_kinds"] == body["missing_kinds"]


def test_http_audit_rejects_garbage_with_400(assurance_http):
    http, _ = assurance_http
    status, _, _ = _call(http.base_url, "POST", "/audits", {"claim": {}})
    assert status == 400


def test_http_revocations_round_trip(assurance_http):
    http, assurance = assurance_http
    assert http.get_revocations() == []
    status, _, _ = _call(
        http.base_url, "POST", "/revocations",
        {"attestation_id": "att-9", "reason": "compromised"},
    )
    assert status == 204
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
    status, _, _ = _call(http.base_url, "POST", "/revocations", {"attestation_id": 5})
    assert status == 400
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
        return status, json.loads(reply.read(_content_length(reply)))


def _content_length(stream) -> int:
    """Read header lines through the blank one; return Content-Length or 0."""
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return length


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


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("path", sorted(WRONG_TYPED))
def test_body_nested_too_deep_gets_400_json(path, published, assurance):
    """JSON nested deeper than the decoder can recurse is a bad request,
    not a traceback and a dropped connection; the server serves on."""
    provider, _, _ = published
    server_cls, actor, probe = (
        (ProviderHTTPServer, provider, "/catalog") if path == "/negotiations"
        else (AssuranceHTTPServer, assurance, "/revocations")
    )
    with server_cls(actor) as server:
        status, reply = _raw_post(server.base_url, path, _sized(DEEP_JSON), DEEP_JSON)
        assert status == 400
        assert reply["error"] == "bad_request"
        assert _call(server.base_url, "GET", probe)[0] == 200


def _exchange(base_url: str, request: bytes) -> tuple[list[int], bool]:
    """Send hand-built request bytes on one connection; return the status
    of each response read within 2 s (0 for bytes that start no
    response), and whether the server then closed the connection."""
    host, port = base_url.rsplit("/", 1)[1].split(":")
    statuses: list[int] = []
    with socket.create_connection((host, int(port)), timeout=2) as conn, \
            conn.makefile("rb") as reply:
        conn.sendall(request)
        try:
            while line := reply.readline():
                if not line.startswith(b"HTTP/"):
                    return statuses + [0], False
                statuses.append(int(line.split()[1]))
                reply.read(_content_length(reply))
        except TimeoutError:
            return statuses, False
    return statuses, True


SMUGGLED = b"GET /catalog HTTP/1.1\r\nHost: x\r\n\r\n"


BODYLESS_ROUTES = [
    ("provider", "POST", "/negotiations/x/finalize"),
    ("provider", "GET", "/catalog"),
    ("provider", "GET", "/transfers/x"),
    ("provider", "POST", "/nowhere"),
    ("assurance", "GET", "/revocations"),
    ("assurance", "POST", "/nowhere"),
]


# Ways to frame SMUGGLED as a request body.
FRAMINGS = {
    "content-length": _sized(SMUGGLED).encode("latin-1") + b"\r\n" + SMUGGLED,
    "zero-then-length": b"Content-Length: 0\r\n" + _sized(SMUGGLED).encode("latin-1")
                        + b"\r\n" + SMUGGLED,
    "chunked": b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n",
}


@pytest.mark.parametrize("framing", sorted(FRAMINGS))
@pytest.mark.parametrize("role, method, path", BODYLESS_ROUTES)
def test_route_without_a_body_refuses_one(role, method, path, framing, published,
                                          assurance):
    """A request whose body is a whole second request, on a route that
    reads no body, gets one 400 and a closed connection; the body is
    never answered as a request of its own."""
    server_cls, actor = ((ProviderHTTPServer, published[0]) if role == "provider"
                         else (AssuranceHTTPServer, assurance))
    with server_cls(actor) as server:
        statuses, closed = _exchange(
            server.base_url,
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n".encode() + FRAMINGS[framing])
    assert statuses == [400]
    assert closed


def test_zero_content_length_keeps_the_connection(published):
    """http.client sends Content-Length: 0 on a bodiless POST; that is no
    body, and each further request on the connection is answered."""
    provider, _, _ = published
    with ProviderHTTPServer(provider) as server:
        statuses, closed = _exchange(
            server.base_url,
            b"POST /negotiations/x/finalize HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
            + SMUGGLED + b"GET /catalog HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
    assert statuses == [404, 200, 200]
    assert closed


def _one_reply(base_url: str, request: bytes) -> tuple[int, dict, bytes]:
    """Send hand-built request bytes on one connection; return the status,
    the headers (names lowercased) and the body of the one reply, having
    read to the end of the stream. The 2 s timeout turns a reply that
    never comes into a test failure instead of a hang."""
    host, port = base_url.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=2) as conn, \
            conn.makefile("rb") as reply:
        conn.sendall(request)
        status_line = reply.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while (line := reply.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(status_line.split()[1]), headers, reply.read()


# Requests the stdlib would answer with no status line, with an HTML
# page, or not at all; each takes exactly the bytes the server reads, so
# that it closes a connection with nothing left unread.
REFUSED_REQUESTS = {
    "one-word-line": (b"22\r\n", 400, "bad_request"),
    "no-version": (b"GET /catalog\r\n", 400, "bad_request"),
    "http-2": (b"GET /catalog HTTP/2.0\r\nHost: x\r\n\r\n", 400, "bad_request"),
    "unknown-method": (b"DELETE /catalog HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not_implemented"),
    "line-too-long": (b"GET /" + b"a" * 65532, 414, "request_uri_too_long"),
    "header-too-long": (b"GET /catalog HTTP/1.1\r\nX: " + b"a" * 65534, 431,
                        "request_header_fields_too_large"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_REQUESTS))
def test_refused_request_gets_json_and_a_closed_connection(case, published):
    request, status, error = REFUSED_REQUESTS[case]
    with ProviderHTTPServer(published[0]) as server:
        got_status, headers, body = _one_reply(server.base_url, request)
        assert _call(server.base_url, "GET", "/catalog")[0] == 200
    assert (got_status, headers["connection"]) == (status, "close")
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"] == error


def test_refused_head_request_gets_no_body(published):
    with ProviderHTTPServer(published[0]) as server:
        status, headers, body = _one_reply(server.base_url,
                                           b"HEAD /catalog HTTP/1.1\r\nHost: x\r\n\r\n")
    assert (status, headers["connection"], body) == (501, "close", b"")


# -- transport stalls -------------------------------------------------------


def test_server_stop_returns_at_once(published):
    """stop() does not wait out serve_forever's 0.5 s poll."""
    provider, _, _ = published
    for _ in range(10):
        server = ProviderHTTPServer(provider).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.1


def test_stop_of_a_server_never_started_returns_and_closes(published, assurance):
    """stop() without start() neither waits for an accept loop that
    never ran nor leaves the listening socket open."""
    provider, _, _ = published
    for server in (ProviderHTTPServer(provider), AssuranceHTTPServer(assurance)):
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive()
        assert server._server.socket.fileno() == -1


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


# -- client connection ------------------------------------------------------


def _count_connections(monkeypatch, server) -> list:
    """The peer address of every connection the server accepts from now on."""
    accepted = []
    get_request = server._server.get_request

    def counting():
        conn = get_request()
        accepted.append(conn[1])
        return conn

    monkeypatch.setattr(server._server, "get_request", counting)
    return accepted


def test_one_connection_carries_every_request(published, monkeypatch):
    provider, asset, _ = published
    policy_hash, claim_hash = _hashes(asset)
    with ProviderHTTPServer(provider) as server:
        accepted = _count_connections(monkeypatch, server)
        with HttpProviderTransport(server.base_url) as http:
            for _ in range(10):
                session = http.request_negotiation(
                    asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
                )
                assert http.get_negotiation(session["session_id"]) == session
    assert len(accepted) == 1


def test_request_after_a_closing_400_reconnects(published, monkeypatch):
    """The server closes the connection after a 400; the next request
    opens a new one instead of failing on the closed one."""
    provider, _, _ = published
    with ProviderHTTPServer(provider) as server:
        accepted = _count_connections(monkeypatch, server)
        with HttpProviderTransport(server.base_url) as http:
            with pytest.raises(DataLoaError):
                http.request_negotiation([1], CONSUMER_ID, "0" * 64, "0" * 64)
            assert http.get_catalog() == LocalProviderTransport(provider).get_catalog()
    assert len(accepted) == 2


def _read_request(stream) -> bytes:
    """Read one whole request; return its request line (b"" at end of stream)."""
    line = stream.readline()
    stream.read(_content_length(stream))
    return line


class _StubServer:
    """Accepts one connection at a time on localhost and hands it to
    ``serve(stream)``; ``done`` is released each time a connection closes."""

    def __init__(self, serve):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self.done = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._loop, args=(serve,), daemon=True)
        self._thread.start()

    def _loop(self, serve) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # the listener was shut down
                return
            with conn, conn.makefile("rwb") as stream:
                serve(stream)
            self.done.release()

    def __enter__(self) -> "_StubServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def test_dropped_post_is_unreachable_and_sent_once():
    """A server that reads a POST and hangs up without answering: the
    request may have taken effect, so it is not sent again."""
    seen = []
    with _StubServer(lambda stream: seen.append(_read_request(stream))) as stub:
        with pytest.raises(Unreachable), HttpAssuranceTransport(stub.url) as http:
            http.revoke("att-9", "compromised")
    assert seen == [b"POST /revocations HTTP/1.1\r\n"]


def test_idle_connection_closed_by_server_is_replaced():
    """A server may close a keep-alive connection while it is idle
    (RFC 9112 section 9.3); the next request goes out on a new one."""
    seen = []

    def answer_once(stream):
        seen.append(_read_request(stream))
        stream.write(b'HTTP/1.1 200 OK\r\nContent-Length: 19\r\n\r\n{"revocations": []}')
        stream.flush()

    with _StubServer(answer_once) as stub, HttpAssuranceTransport(stub.url) as http:
        assert http.get_revocations() == []
        assert stub.done.acquire(timeout=5)
        assert http.get_revocations() == []
    assert seen == [b"GET /revocations HTTP/1.1\r\n"] * 2


def _answer(status: str, body: bytes):
    """A stub server's serve function: one fixed response per request."""

    def serve(stream):
        while _read_request(stream):
            stream.write(f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body)
            stream.flush()

    return serve


@pytest.mark.parametrize("body", [b"[1]", b'"busy"', b'{"error": [1]}', b'{"error": {}}', b"<html>"])
def test_error_response_without_an_error_object_is_plain(body):
    with _StubServer(_answer("500 Internal Server Error", body)) as stub:
        with HttpAssuranceTransport(stub.url) as http, pytest.raises(DataLoaError) as caught:
            http.revoke("att-9", "compromised")
    assert type(caught.value) is DataLoaError
    assert str(caught.value) == f"HTTP 500 from {stub.url}/revocations"


@pytest.mark.parametrize("body", [
    b"[1]", b"{}", b'{"revocations": 5}', b'{"revocations": {}}',
    # entries that are not objects with a string attestation_id
    b'{"revocations": [1]}', b'{"revocations": [{}]}',
    b'{"revocations": [{"attestation_id": 5}]}', b'{"revocations": [{"attestation_id": "a"}, null]}',
])
def test_revocations_without_a_list_are_malformed(body):
    with _StubServer(_answer("200 OK", body)) as stub, HttpAssuranceTransport(stub.url) as http:
        with pytest.raises(MalformedCatalog):
            http.get_revocations()


@pytest.mark.parametrize("status", ["200 OK", "404 Not Found"])
def test_reply_nested_too_deep_is_a_typed_error(status):
    """A reply body, or an error body, nested deeper than the decoder can
    recurse gives a DataLoaError, MalformedCatalog for a 200."""
    expected = MalformedCatalog if status == "200 OK" else DataLoaError
    calls = (
        (HttpProviderTransport, lambda http: http.request_negotiation("a", CONSUMER_ID, "0" * 64, "0" * 64)),
        (HttpAssuranceTransport, lambda http: http.get_revocations()),
    )
    with _StubServer(_answer(status, DEEP_JSON)) as stub:
        for transport_cls, call in calls:  # the stub serves one connection at a time
            with transport_cls(stub.url) as http, pytest.raises(expected) as caught:
                call(http)
            assert type(caught.value) is expected


@pytest.mark.parametrize("status,body", [
    ("200 OK", b"{}"),
    ("200 OK", b"[1]"),
    ("200 OK", b'{"passed": "yes"}'),
    ("422 Unprocessable Entity", b"{}"),
    ("422 Unprocessable Entity", b"<html>"),
])
def test_audit_response_without_a_boolean_passed_is_malformed(status, body):
    with _StubServer(_answer(status, body)) as stub, HttpAssuranceTransport(stub.url) as http:
        with pytest.raises(MalformedCatalog):
            http.request_audit({}, {}, 2)


def test_audit_response_body_is_the_outcome(assurance_http, make_claim, make_manifest):
    """Both statuses carry the whole outcome, the dict the in-process
    transport returns."""
    http, assurance = assurance_http
    claim = make_claim(level=2)
    for kinds, status in (("quality-report", "provenance-record"), 200), (("quality-report",), 422):
        request = {"claim": claim.to_dict(), "manifest": make_manifest(claim, kinds=kinds).to_dict(),
                   "requested_level": 2}
        got_status, _, raw = _call(http.base_url, "POST", "/audits", request)
        local = LocalAssuranceTransport(assurance).request_audit(*request.values())
        assert (got_status, json.loads(raw)) == (status, local)


def test_threads_sharing_a_transport_get_their_own_responses(provider_http):
    http, _, asset, _ = provider_http
    policy_hash, claim_hash = _hashes(asset)
    session_ids = [
        http.request_negotiation(asset.asset_id, CONSUMER_ID, policy_hash, claim_hash)[
            "session_id"
        ]
        for _ in range(4)
    ]
    answers: dict[str, list] = {sid: [] for sid in session_ids}

    def worker(sid: str) -> None:
        for _ in range(25):
            answers[sid].append(http.get_negotiation(sid)["session_id"])

    threads = [threading.Thread(target=worker, args=(sid,)) for sid in session_ids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == {sid: [sid] * 25 for sid in session_ids}


def test_silent_server_is_unreachable_within_timeout():
    """The kernel completes the handshake on the listen backlog, so the
    request is sent, but nothing ever accepts or answers it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        started = time.perf_counter()
        with pytest.raises(Unreachable):
            HttpProviderTransport(url, timeout=0.3).get_catalog()
        elapsed = time.perf_counter() - started
    assert 0.25 < elapsed < 2


def test_importing_dataloa_leaves_requests_out():
    code = (
        "import sys, dataloa, dataloa.wire, dataloa.cli; "
        "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
