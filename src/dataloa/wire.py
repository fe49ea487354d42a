"""Transports connecting consumers to providers and assurers.

Each endpoint is written once, as an entry in its actor's route table,
PROVIDER_ROUTES or ASSURANCE_ROUTES, keyed by the transport method that
calls it. Everything else reads the tables:

* the servers: one dispatcher matches a request's method and path
  against the table, reads or refuses its body, makes the entry's call
  (_serve) and encodes the result, or the domain error with its
  errors.WIRE_CODES code and status;
* local (in-process) transports: make the entry's call (_serve) too, so
  they get the same dicts, catalog bytes and errors that the server
  sends, and the consumer code path is the same in both modes;
* HTTP clients: one keep-alive connection per transport, one round trip
  per call, the reply decoded to what the in-process call returns, or
  the error it names raised again.

A consumer holding either kind of transport cannot tell which it has.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import socket
import ssl
import threading
import urllib.parse
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from .assurance import AssuranceService
from .connector import ProviderConnector
from .errors import (
    DataLoaError,
    MalformedCatalog,
    MalformedInput,
    Unreachable,
    decode,
    error_for_wire_code,
    wire_code_for,
)
from .model import Attestation, TrustClaim

CONTENT_HASH_HEADER = "X-Content-Hash"
JSON_CONTENT_TYPE = "application/json"
CATALOG_CONTENT_TYPE = "application/jsonl"  # JSON Lines, one asset per line
PAYLOAD_CONTENT_TYPE = "application/octet-stream"
AUDIT_FAILED = 422  # the status of an audit outcome that did not pass
# The largest request body a server reads. The largest a client sends is
# an audit of a claim and its evidence manifest, about 1.2 KB in the
# bundled scenarios and the benchmark.
MAX_BODY_BYTES = 1 << 20


class _Route(NamedTuple):
    """One endpoint. ``call(actor, ident, body)`` gets the path's ``{}``
    segment and the request's JSON object as ``body`` decodes it, and
    returns a dict (sent as JSON), bytes, a ``(payload, declared hash)``
    pair or None (no body)."""

    method: str
    path: str  # "{}" stands for one id segment
    body: Optional[dict]  # the body's errors.decode spec; None: the route reads no body
    status: int
    content_type: Optional[str]
    call: Callable[[Any, Optional[str], Optional[dict]], Any]


# Each call looks its service method up on the actor when it runs, so a
# method patched on the class after import (a tracer's, say) is the one
# called.
PROVIDER_ROUTES: dict[str, _Route] = {
    "get_catalog": _Route(
        "GET", "/catalog", None, 200, CATALOG_CONTENT_TYPE,
        lambda provider, _, __: provider.catalog().public_lines()),
    "request_negotiation": _Route(
        "POST", "/negotiations",
        {"asset_id": str, "consumer_id": str, "policy_hash": str, "claim_hash": str},
        201, JSON_CONTENT_TYPE,
        lambda provider, _, body: provider.handle_negotiation_request(
            body["asset_id"], body["consumer_id"], body["policy_hash"], body["claim_hash"]
        ).to_dict()),
    "get_negotiation": _Route(
        "GET", "/negotiations/{}", None, 200, JSON_CONTENT_TYPE,
        lambda provider, session_id, _: provider.get_session(session_id).to_dict()),
    "finalize_negotiation": _Route(
        "POST", "/negotiations/{}/finalize", None, 200, JSON_CONTENT_TYPE,
        lambda provider, session_id, _: provider.finalize(session_id).to_dict()),
    "get_transfer": _Route(
        "GET", "/transfers/{}", None, 200, PAYLOAD_CONTENT_TYPE,
        lambda provider, agreement_id, _: provider.transfer(agreement_id)),
}

ASSURANCE_ROUTES: dict[str, _Route] = {
    "request_audit": _Route(
        "POST", "/audits", {"claim": dict, "manifest": dict, "requested_level": int},
        200, JSON_CONTENT_TYPE,
        lambda service, _, body: service.handle_audit(
            body["claim"], body["manifest"], body["requested_level"]
        ).to_dict()),
    "get_revocations": _Route(
        "GET", "/revocations", None, 200, JSON_CONTENT_TYPE,
        lambda service, _, __: {"revocations": service.revocations.to_list()}),
    "revoke": _Route(
        "POST", "/revocations", {"attestation_id": str, "reason": (str, "")}, 204, None,
        lambda service, _, body: service.revoke(body["attestation_id"], body["reason"])),
}


def _serve(route: _Route, actor, ident: Optional[str], body: Optional[dict]):
    """Make ``route``'s call on ``actor``, the one call path of both
    modes: the body read by the route's spec, and a KeyError, TypeError
    or ValueError from the call raised as MalformedInput, so a malformed
    argument gives the same error in process and over HTTP."""
    try:
        if route.body is not None:
            body = decode(body, route.body, "body")
        return route.call(actor, ident, body)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from exc


# ---------------------------------------------------------------------------
# Transports: each method written once, over the mode's _call
# ---------------------------------------------------------------------------


class _ProviderCalls:
    _routes = PROVIDER_ROUTES

    def get_catalog(self) -> bytes:
        return self._call("get_catalog")

    def request_negotiation(
        self, asset_id: str, consumer_id: str, policy_hash: str, claim_hash: str
    ) -> dict:
        return self._call("request_negotiation", body={
            "asset_id": asset_id, "consumer_id": consumer_id,
            "policy_hash": policy_hash, "claim_hash": claim_hash,
        })

    def get_negotiation(self, session_id: str) -> dict:
        return self._call("get_negotiation", session_id)

    def finalize_negotiation(self, session_id: str) -> dict:
        return self._call("finalize_negotiation", session_id)

    def get_transfer(self, agreement_id: str) -> tuple[bytes, str]:
        return self._call("get_transfer", agreement_id)


class _AssuranceCalls:
    """A garbled answer is MalformedCatalog, never read as an outcome or
    as "nothing revoked". A passed audit's attestation must parse, bind
    the claim sent and carry the level asked for; its signature is left
    to the caller, which holds the assurer's key. A failed audit must say
    why: a list of string missing_kinds, a bool claim_cap_violation and a
    string reason."""

    _routes = ASSURANCE_ROUTES

    def request_audit(self, claim: dict, manifest: dict, requested_level: int) -> dict:
        outcome = self._call("request_audit", body={
            "claim": claim, "manifest": manifest, "requested_level": requested_level,
        })
        if not isinstance(outcome, dict) or not isinstance(outcome.get("passed"), bool):
            raise MalformedCatalog(f"no audit outcome from {self._origin}")
        if outcome["passed"]:
            try:
                attestation = Attestation.from_dict(outcome["attestation"])
                claim_hash = TrustClaim.from_dict(claim).canonical_hash()
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedCatalog(f"no attestation from {self._origin}: {exc!r}") from exc
            if (attestation.claim_hash, attestation.level_assured) != (claim_hash, requested_level):
                raise MalformedCatalog(
                    f"attestation from {self._origin} is not for the claim and level sent")
        elif not (isinstance(kinds := outcome.get("missing_kinds"), list)
                  and all(isinstance(kind, str) for kind in kinds)
                  and isinstance(outcome.get("claim_cap_violation"), bool)
                  and isinstance(outcome.get("reason"), str)):
            raise MalformedCatalog(f"failed audit from {self._origin} does not say why")
        return outcome

    def get_revocations(self) -> list[dict]:
        body = self._call("get_revocations")
        entries = body.get("revocations") if isinstance(body, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("attestation_id"), str) for e in entries
        ):
            raise MalformedCatalog(f"no revocation list from {self._origin}")
        return entries

    def revoke(self, attestation_id: str, reason: str) -> None:
        self._call("revoke", body={"attestation_id": attestation_id, "reason": reason})


class LocalProviderTransport(_ProviderCalls):
    """Direct calls into a provider connector, shaped like HTTP: dicts,
    and the catalog as the body bytes the server sends."""

    def __init__(self, provider: ProviderConnector):
        self.provider = provider

    def _call(self, name: str, ident: Optional[str] = None, body: Optional[dict] = None):
        return _serve(self._routes[name], self.provider, ident, body)


class LocalAssuranceTransport(_AssuranceCalls):
    """Direct calls into an assurance service, dict-shaped like HTTP."""

    _origin = "the in-process assurer"

    def __init__(self, service: AssuranceService):
        self.service = service

    def _call(self, name: str, ident: Optional[str] = None, body: Optional[dict] = None):
        return _serve(self._routes[name], self.service, ident, body)


# ---------------------------------------------------------------------------
# HTTP servers
# ---------------------------------------------------------------------------


_HTTP_1X = re.compile(rb"HTTP/1\.[0-9]")


class _BodyTooLarge(MalformedInput):
    """A declared body longer than MAX_BODY_BYTES, answered 413."""


def _patterns(routes: dict[str, _Route]) -> list[tuple[re.Pattern, _Route]]:
    """Each route with its path as a pattern, ``{}`` matching exactly one
    segment, an empty one too: an empty id reaches its route, which
    answers as it does in process."""
    return [(re.compile(re.escape(route.path).replace(r"\{\}", "([^/]*)")), route)
            for route in routes.values()]


class _QuietHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket: a body written after its
    # headers goes out at once instead of waiting for the client's
    # delayed ACK (Nagle, RFC 896, against RFC 1122 4.2.3.2), ~40 ms.
    disable_nagle_algorithm = True
    server: _ActorHTTPServer  # the actor a handler serves is self.server.actor
    routes: list[tuple[re.Pattern, _Route]]  # the actor's table, as _patterns

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def parse_request(self) -> bool:
        """Refuse a request line that is not ``METHOD target HTTP/1.x``
        (RFC 9112 section 3) with a 400. The stdlib would take a shorter
        one as HTTP/0.9: an answer with no status line, or a wait for
        header lines that never come."""
        words = self.raw_requestline.split()
        if len(words) != 3 or not _HTTP_1X.fullmatch(words[2]):
            # What the stdlib sets first; a version other than HTTP/0.9
            # gives the answer a status line and headers.
            self.command, self.requestline, self.request_version = None, "", self.protocol_version
            self.send_error(400, "request line is not METHOD target HTTP/1.x")
            return False
        return super().parse_request()

    def send_error(self, code: int, message: Optional[str] = None, explain: Optional[str] = None):
        """Every error the stdlib sends itself (an unknown method, a
        request line or header too long), and every 400, as a JSON error
        object on a closing connection: a refused request may leave
        unread bytes on the stream, so it cannot carry another."""
        phrase = HTTPStatus(code).phrase
        error = re.sub(r"\W+", "_", phrase.lower())  # "Bad Request" is "bad_request"
        body = json.dumps({"error": error, "message": message or phrase}).encode("utf-8")
        self._send_body(code, b"" if self.command == "HEAD" else body, close=True)

    def do_GET(self):
        """Serve the request by the route in ``routes`` that matches its
        method and path; 404 for none."""
        try:
            for pattern, route in self.routes:
                if route.method == self.command and (match := pattern.fullmatch(self.path)):
                    break
            else:
                self._refuse_body()
                self._send_json(404, {"error": "not_found", "message": self.path})
                return
            body = self._refuse_body() if route.body is None else self._read_json()
            ident = urllib.parse.unquote(match.group(1)) if pattern.groups else None
            self._send_result(route, _serve(route, self.server.actor, ident, body))
        except MalformedInput as exc:  # may leave a body unread: the 4xx closes
            self.send_error(413 if isinstance(exc, _BodyTooLarge) else 400, str(exc))
        except DataLoaError as exc:
            code, status = wire_code_for(exc)
            self._send_json(status, {"error": code, "message": str(exc)})

    do_POST = do_GET

    def _body_length(self) -> int:
        """The declared body length; MalformedInput for any framing but one
        Content-Length, so no body is left on the stream to be parsed as
        the next request (RFC 9112 section 6)."""
        if "Transfer-Encoding" in self.headers:
            raise MalformedInput("Transfer-Encoding is not accepted")
        values = self.headers.get_all("Content-Length", ["0"])
        length = values[0].strip()
        if any(v.strip() != length for v in values) or not (length.isascii() and length.isdigit()):
            raise MalformedInput(f"invalid Content-Length {', '.join(values)!r}")
        return int(length)

    def _refuse_body(self) -> None:
        """For a route that reads no body: MalformedInput if one is sent."""
        if self._body_length():
            raise MalformedInput(f"{self.command} {self.path} takes no body")

    def _read_json(self):
        """The request body as a JSON value, which _serve reads by the
        route's spec; MalformedInput if it is not UTF-8 JSON.

        With _refuse_body, the only paths by which a handler meets a
        body, so a malformed length, encoding or shape always gets a 400,
        and a length above MAX_BODY_BYTES a 413, and never drops the
        connection, allocates the declared length or blocks the thread on
        a read to end of stream.
        """
        length = self._body_length()
        if length > MAX_BODY_BYTES:  # refused before a byte of it is read
            raise _BodyTooLarge(f"body of {length} bytes, more than {MAX_BODY_BYTES}")
        body = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(body.decode("utf-8"))
        # UnicodeDecodeError, JSONDecodeError, or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise MalformedInput(f"body is not UTF-8 JSON: {exc}") from None

    def _send_result(self, route: _Route, result) -> None:
        if isinstance(result, dict):
            self._send_json(AUDIT_FAILED if result.get("passed") is False else route.status, result)
        elif result is None or isinstance(result, bytes):
            self._send_body(route.status, result or b"", route.content_type)
        else:
            payload, declared = result
            self._send_body(route.status, payload, route.content_type,
                            headers=((CONTENT_HASH_HEADER, declared),))

    def _send_json(self, status: int, payload) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes, content_type: Optional[str] = JSON_CONTENT_TYPE,
                   close: bool = False, headers: tuple[tuple[str, str], ...] = ()) -> None:
        self.send_response(status)
        if content_type:
            self.send_header("Content-Type", content_type)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(body)


class _ProviderHandler(_QuietHandler):
    routes = _patterns(PROVIDER_ROUTES)


class _AssuranceHandler(_QuietHandler):
    routes = _patterns(ASSURANCE_ROUTES)


class _ActorHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server holding its actor on the instance.

    Handlers reach the actor as ``self.server.actor``, so no class is
    built per server and nothing here sits in a reference cycle. Each
    accepted connection stays in ``_live`` until its handler is done, so
    that end_connections() can close the ones still open.
    """

    daemon_threads = True  # a process that never stops a server still exits

    def __init__(self, address: tuple[str, int], handler_cls: type, actor):
        super().__init__(address, handler_cls)
        self.actor = actor
        self._live: set[socket.socket] = set()
        self._live_changed = threading.Condition()
        self._ending = False

    def process_request(self, request, client_address):
        with self._live_changed:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._live_changed:
            self._live.discard(request)
            self._live_changed.notify_all()

    def handle_error(self, request, client_address):
        # A handler whose connection end_connections() shut down fails
        # on its next read or write; that is the intended end, not news.
        if not self._ending:
            super().handle_error(request, client_address)

    def end_connections(self, timeout: float) -> None:
        """Shut every live connection down, then wait up to ``timeout``
        seconds for their handlers to finish. Call after the accept
        loop has ended, so that no connection arrives meanwhile."""
        with self._live_changed:
            self._ending = True
            for request in self._live:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._live_changed.wait_for(lambda: not self._live, timeout)


class _ActorServer:
    """Threaded HTTP server bound to an ephemeral localhost port."""

    STOP_TIMEOUT = 2.0  # seconds stop() waits for the handlers it ends

    def __init__(self, handler_cls: type, actor, host: str = "127.0.0.1", port: int = 0):
        self._server = _ActorHTTPServer((host, port), handler_cls, actor)
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "_ActorServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every live connection, wait for their
        handlers within STOP_TIMEOUT, and let go of the actor. A server
        never started has no accept loop to end; its socket is closed."""
        # Shutting down the listening socket wakes serve_forever's select
        # at once; where it does not, shutdown() waits out the poll.
        try:
            self._server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._thread:
            # shutdown() waits for serve_forever to end, so only a
            # started server may call it.
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()
        self._server.end_connections(self.STOP_TIMEOUT)
        self._server.actor = None

    def __enter__(self) -> "_ActorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ProviderHTTPServer(_ActorServer):
    def __init__(self, provider: ProviderConnector, host: str = "127.0.0.1", port: int = 0):
        super().__init__(_ProviderHandler, provider, host, port)


class AssuranceHTTPServer(_ActorServer):
    def __init__(self, service: AssuranceService, host: str = "127.0.0.1", port: int = 0):
        super().__init__(_AssuranceHandler, service, host, port)


# ---------------------------------------------------------------------------
# HTTP clients
# ---------------------------------------------------------------------------


def _readable(sock: socket.socket) -> bool:
    """Whether sock has bytes or an end of stream waiting, without blocking."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _HttpClient:
    """One keep-alive connection to ``base_url``, one request at a time.

    The connection opens on the first request and is reused until the
    server closes it (RFC 9112 section 9.3). Proxy environment variables
    are not read; ``https://`` verifies the server against the system
    trust store. A request is never sent twice: any failure to send it
    or to read its response is ``Unreachable``.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme == "http" and url.hostname:
            self._conn = http.client.HTTPConnection(url.hostname, url.port, timeout=timeout)
        elif url.scheme == "https" and url.hostname:
            self._conn = http.client.HTTPSConnection(
                url.hostname, url.port, timeout=timeout, context=ssl.create_default_context()
            )
        else:
            raise ValueError(f"not an http:// or https:// URL: {base_url!r}")
        self._path_prefix = url.path
        self._lock = threading.Lock()
        # bench/tracing.py sets its span header here; every request sends these.
        self._session = SimpleNamespace(headers={})

    @property
    def _origin(self) -> str:
        return self.base_url

    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        with self._lock:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, name: str, ident: Optional[str] = None, body: Optional[dict] = None):
        """One round trip to the route ``name``: the reply decoded to what
        the in-process call returns, or the error it names raised."""
        route = self._routes[name]
        # A route's id goes out as one segment, whatever its characters.
        path = route.path.format(urllib.parse.quote(str(ident), safe=""))
        url = f"{self.base_url}{path}"
        headers = dict(self._session.headers)
        if body is not None:
            try:
                body = json.dumps(body).encode("utf-8")
            except (TypeError, ValueError, RecursionError) as exc:  # no JSON form
                raise MalformedInput(f"body: {exc}") from None
            headers["Content-Type"] = JSON_CONTENT_TYPE
        with self._lock:
            conn = self._conn
            # An idle connection has nothing to read: if it is readable,
            # the server has closed it (or broken framing) since the last
            # response, so open a fresh one rather than send into it.
            if conn.sock is not None and _readable(conn.sock):
                conn.close()
            try:
                conn.request(route.method, self._path_prefix + path, body, headers)
                response = conn.getresponse()
                # Read in full so the connection is free for the next
                # request; http.client itself closes it on will_close.
                content = response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise Unreachable(f"{url}: {exc}") from exc
        failed_audit = response.status == AUDIT_FAILED and name == "request_audit"
        if response.status >= 400 and not failed_audit:
            try:
                error = json.loads(content)
                error = error_for_wire_code(error["error"], error.get("message", ""))
            except (ValueError, KeyError, TypeError, RecursionError):
                raise DataLoaError(f"HTTP {response.status} from {url}") from None
            raise error
        if route.content_type == JSON_CONTENT_TYPE:
            try:
                return json.loads(content)
            except (ValueError, RecursionError) as exc:
                raise MalformedCatalog(f"non-JSON response from {url}") from exc
        if route.content_type == PAYLOAD_CONTENT_TYPE:
            return content, response.headers.get(CONTENT_HASH_HEADER, "")
        return content if route.content_type else None


class HttpProviderTransport(_ProviderCalls, _HttpClient):
    """Client for a provider's HTTP endpoints."""


class HttpAssuranceTransport(_AssuranceCalls, _HttpClient):
    """Client for an assurer's HTTP endpoints."""
