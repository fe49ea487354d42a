"""Transports connecting consumers to providers and assurers.

Two interchangeable implementations of the same contract:

* local: direct in-process calls against a ProviderConnector or
  AssuranceService, still exchanging plain dicts, and the catalog's
  body bytes, so the consumer code path is byte-for-byte the same as
  over HTTP;
* http: a stdlib threaded HTTP server per actor plus a stdlib client
  holding one keep-alive connection per transport, with domain errors
  mapped to status codes on the way out and reconstructed from the
  response body on the way back in.

A consumer holding a ProviderTransport cannot tell which one it has.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import ssl
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import NamedTuple, Optional, Protocol

from .assurance import AssuranceService
from .connector import ProviderConnector
from .errors import (
    DataLoaError,
    HashMismatch,
    IllegalTransition,
    InvalidClaim,
    InvalidClaimSignature,
    MalformedCatalog,
    ManifestMismatch,
    NoSuchAgreement,
    NotFinalized,
    UnknownSession,
    Unreachable,
    error_for_wire_code,
    wire_code_for,
)

CONTENT_HASH_HEADER = "X-Content-Hash"
CATALOG_CONTENT_TYPE = "application/jsonl"  # JSON Lines, one asset per line

STATUS_FOR_ERROR: dict[type, int] = {
    UnknownSession: 404,
    NoSuchAgreement: 404,
    IllegalTransition: 409,
    NotFinalized: 409,
    InvalidClaimSignature: 400,
    ManifestMismatch: 400,
    HashMismatch: 400,
    InvalidClaim: 400,
}


class ProviderTransport(Protocol):
    def get_catalog(self) -> bytes: ...

    def request_negotiation(
        self, asset_id: str, consumer_id: str, policy_hash: str, claim_hash: str
    ) -> dict: ...

    def get_negotiation(self, session_id: str) -> dict: ...

    def finalize_negotiation(self, session_id: str) -> dict: ...

    def get_transfer(self, agreement_id: str) -> tuple[bytes, str]: ...


class AssuranceTransport(Protocol):
    def request_audit(
        self, claim: dict, manifest: dict, requested_level: int
    ) -> dict: ...

    def get_revocations(self) -> list[dict]: ...

    def revoke(self, attestation_id: str, reason: str) -> None: ...


# ---------------------------------------------------------------------------
# Local (in-process) transports
# ---------------------------------------------------------------------------


class LocalProviderTransport:
    """Direct calls into a provider connector, shaped like HTTP: dicts,
    and the catalog as the body bytes the server sends."""

    def __init__(self, provider: ProviderConnector):
        self.provider = provider

    def get_catalog(self) -> bytes:
        return self.provider.catalog().public_lines()

    def request_negotiation(
        self, asset_id: str, consumer_id: str, policy_hash: str, claim_hash: str
    ) -> dict:
        session = self.provider.handle_negotiation_request(
            asset_id, consumer_id, policy_hash, claim_hash
        )
        return session.to_dict()

    def get_negotiation(self, session_id: str) -> dict:
        return self.provider.get_session(session_id).to_dict()

    def finalize_negotiation(self, session_id: str) -> dict:
        return self.provider.finalize(session_id).to_dict()

    def get_transfer(self, agreement_id: str) -> tuple[bytes, str]:
        return self.provider.transfer(agreement_id)


class LocalAssuranceTransport:
    """Direct calls into an assurance service, dict-shaped like HTTP."""

    def __init__(self, service: AssuranceService):
        self.service = service

    def request_audit(self, claim: dict, manifest: dict, requested_level: int) -> dict:
        return self.service.handle_audit(claim, manifest, requested_level).to_dict()

    def get_revocations(self) -> list[dict]:
        return self.service.revocations.to_list()

    def revoke(self, attestation_id: str, reason: str) -> None:
        self.service.revoke(attestation_id, reason)


# ---------------------------------------------------------------------------
# HTTP servers
# ---------------------------------------------------------------------------


class _BadRequest(ValueError):
    """A request whose headers or body cannot be parsed."""


class _QuietHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket: a body written after its
    # headers goes out at once instead of waiting for the client's
    # delayed ACK (Nagle, RFC 896, against RFC 1122 4.2.3.2), ~40 ms.
    disable_nagle_algorithm = True
    server: _ActorHTTPServer  # the actor a handler serves is self.server.actor

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _body_length(self) -> int:
        """The declared body length; _BadRequest for any framing but one
        Content-Length, so no body is left on the stream to be parsed as
        the next request (RFC 9112 section 6)."""
        if "Transfer-Encoding" in self.headers:
            raise _BadRequest("Transfer-Encoding is not accepted")
        values = self.headers.get_all("Content-Length", ["0"])
        length = values[0].strip()
        if any(v.strip() != length for v in values) or not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"invalid Content-Length {', '.join(values)!r}")
        return int(length)

    def _refuse_body(self) -> None:
        """For a route that reads no body: _BadRequest if one is sent."""
        if self._body_length():
            raise _BadRequest(f"{self.command} {self.path} takes no body")

    def _read_json(self) -> dict:
        """The request body as a JSON object; _BadRequest otherwise.

        With _refuse_body, the only paths by which a handler meets a
        body, so a malformed length, encoding or shape always gets a 400
        and never drops the connection or blocks the thread on a read to
        end of stream.
        """
        length = self._body_length()
        body = self.rfile.read(length) if length else b"{}"
        try:
            data = json.loads(body.decode("utf-8"))
        # UnicodeDecodeError, JSONDecodeError, or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise _BadRequest(f"body is not UTF-8 JSON: {exc}") from None
        if not isinstance(data, dict):
            raise _BadRequest(f"body must be a JSON object, not {type(data).__name__}")
        return data

    def _send_json(self, status: int, payload) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes, close: bool = False,
                   content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, payload: bytes, declared_hash: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header(CONTENT_HASH_HEADER, declared_hash)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_empty(self, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _send_error_json(self, exc: DataLoaError) -> None:
        status = STATUS_FOR_ERROR.get(type(exc), 500)
        self._send_json(status, {"error": wire_code_for(exc), "message": str(exc)})

    def _send_bad_request(self, exc: Exception) -> None:
        # A rejected body may be partly unread, so the stream cannot
        # carry another request.
        body = json.dumps({"error": "bad_request", "message": str(exc)})
        self._send_body(400, body.encode("utf-8"), close=True)


class _ProviderHandler(_QuietHandler):
    def do_GET(self):
        provider = self.server.actor
        try:
            self._refuse_body()
            if self.path == "/catalog":
                body = provider.catalog().public_lines()
                self._send_body(200, body, content_type=CATALOG_CONTENT_TYPE)
            elif self.path.startswith("/negotiations/"):
                session_id = self.path.split("/", 2)[2]
                self._send_json(200, provider.get_session(session_id).to_dict())
            elif self.path.startswith("/transfers/"):
                agreement_id = self.path.split("/", 2)[2]
                payload, declared = provider.transfer(agreement_id)
                self._send_bytes(payload, declared)
            else:
                self._send_json(404, {"error": "not_found", "message": self.path})
        except DataLoaError as exc:
            self._send_error_json(exc)
        except _BadRequest as exc:
            self._send_bad_request(exc)

    def do_POST(self):
        provider = self.server.actor
        try:
            if self.path == "/negotiations":
                body = self._read_json()
                session = provider.handle_negotiation_request(
                    body["asset_id"],
                    body["consumer_id"],
                    body["policy_hash"],
                    body["claim_hash"],
                )
                self._send_json(201, session.to_dict())
            elif self.path.startswith("/negotiations/") and self.path.endswith("/finalize"):
                self._refuse_body()
                session_id = self.path.split("/")[2]
                self._send_json(200, provider.finalize(session_id).to_dict())
            else:
                self._refuse_body()
                self._send_json(404, {"error": "not_found", "message": self.path})
        except DataLoaError as exc:
            self._send_error_json(exc)
        except (KeyError, TypeError, ValueError) as exc:  # _BadRequest is a ValueError
            self._send_bad_request(exc)


class _AssuranceHandler(_QuietHandler):
    def do_GET(self):
        service = self.server.actor
        try:
            self._refuse_body()
            if self.path == "/revocations":
                self._send_json(200, {"revocations": service.revocations.to_list()})
            else:
                self._send_json(404, {"error": "not_found", "message": self.path})
        except DataLoaError as exc:
            self._send_error_json(exc)
        except _BadRequest as exc:
            self._send_bad_request(exc)

    def do_POST(self):
        service = self.server.actor
        try:
            if self.path == "/audits":
                body = self._read_json()
                outcome = service.handle_audit(
                    body["claim"], body["manifest"], body["requested_level"]
                )
                self._send_json(200 if outcome.passed else 422, outcome.to_dict())
            elif self.path == "/revocations":
                body = self._read_json()
                service.revoke(body["attestation_id"], body.get("reason", ""))
                self._send_empty(204)
            else:
                self._refuse_body()
                self._send_json(404, {"error": "not_found", "message": self.path})
        except DataLoaError as exc:
            self._send_error_json(exc)
        except (KeyError, TypeError, ValueError) as exc:  # _BadRequest is a ValueError
            self._send_bad_request(exc)


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


class _Response(NamedTuple):
    status_code: int
    headers: http.client.HTTPMessage
    content: bytes
    url: str

    def json(self):
        return json.loads(self.content)


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

    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        with self._lock:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, json_body: Optional[dict] = None) -> _Response:
        url = f"{self.base_url}{path}"
        headers = dict(self._session.headers)
        body = None
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            conn = self._conn
            # An idle connection has nothing to read: if it is readable,
            # the server has closed it (or broken framing) since the last
            # response, so open a fresh one rather than send into it.
            if conn.sock is not None and _readable(conn.sock):
                conn.close()
            try:
                conn.request(method, self._path_prefix + path, body, headers)
                response = conn.getresponse()
                # Read in full so the connection is free for the next
                # request; http.client itself closes it on will_close.
                content = response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise Unreachable(f"{url}: {exc}") from exc
        return _Response(response.status, response.headers, content, url)

    def _raise_for_error(self, response: _Response) -> None:
        if response.status_code < 400:
            return
        try:
            body = response.json()
            error = error_for_wire_code(body["error"], body.get("message", ""))
        except (ValueError, KeyError, TypeError, RecursionError):
            raise DataLoaError(
                f"HTTP {response.status_code} from {response.url}"
            ) from None
        raise error

    def _json_of(self, response: _Response):
        try:
            return response.json()
        except (ValueError, RecursionError) as exc:
            raise MalformedCatalog(f"non-JSON response from {response.url}") from exc


class HttpProviderTransport(_HttpClient):
    """Client for a provider's HTTP endpoints."""

    def get_catalog(self) -> bytes:
        response = self._request("GET", "/catalog")
        self._raise_for_error(response)
        return response.content

    def request_negotiation(
        self, asset_id: str, consumer_id: str, policy_hash: str, claim_hash: str
    ) -> dict:
        response = self._request(
            "POST",
            "/negotiations",
            {
                "asset_id": asset_id,
                "consumer_id": consumer_id,
                "policy_hash": policy_hash,
                "claim_hash": claim_hash,
            },
        )
        self._raise_for_error(response)
        return self._json_of(response)

    def get_negotiation(self, session_id: str) -> dict:
        response = self._request("GET", f"/negotiations/{session_id}")
        self._raise_for_error(response)
        return self._json_of(response)

    def finalize_negotiation(self, session_id: str) -> dict:
        response = self._request("POST", f"/negotiations/{session_id}/finalize")
        self._raise_for_error(response)
        return self._json_of(response)

    def get_transfer(self, agreement_id: str) -> tuple[bytes, str]:
        response = self._request("GET", f"/transfers/{agreement_id}")
        self._raise_for_error(response)
        return response.content, response.headers.get(CONTENT_HASH_HEADER, "")


class HttpAssuranceTransport(_HttpClient):
    """Client for an assurer's HTTP endpoints."""

    def request_audit(self, claim: dict, manifest: dict, requested_level: int) -> dict:
        response = self._request(
            "POST",
            "/audits",
            {"claim": claim, "manifest": manifest, "requested_level": requested_level},
        )
        if response.status_code != 422:  # a failed audit, not an error
            self._raise_for_error(response)
        body = self._json_of(response)
        if not isinstance(body, dict) or not isinstance(body.get("passed"), bool):
            raise MalformedCatalog(f"no audit outcome from {response.url}")
        return body

    def get_revocations(self) -> list[dict]:
        response = self._request("GET", "/revocations")
        self._raise_for_error(response)
        body = self._json_of(response)
        entries = body.get("revocations") if isinstance(body, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("attestation_id"), str) for e in entries
        ):
            raise MalformedCatalog(f"no revocation list from {response.url}")
        return entries

    def revoke(self, attestation_id: str, reason: str) -> None:
        response = self._request(
            "POST", "/revocations", {"attestation_id": attestation_id, "reason": reason}
        )
        self._raise_for_error(response)
