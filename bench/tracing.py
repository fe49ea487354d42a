"""Spans around the calls into each dataloa layer, for the traced run.

``Tracer.install()`` replaces each traced public function at every name
it is bound to in a dataloa module (``connector.verify_payload`` and
``assurance.verify_payload`` as well as ``envelope.verify_payload``),
and each traced method on its class. An untraced run never calls
``install()``, so it runs the library untouched.

A span is ``(id, parent, name, start, end, request, size)``. Spans live
in memory until ``write()``. The HTTP clients pass their span id and
request id to the server in a header, so the domain call a server
thread makes is a child of the client's round trip, and the round
trip's self time is the wire's own cost.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from pathlib import Path

from dataloa import assurance, connector, envelope, model, policy_engine, scenario, wire

SPAN_HEADER = "X-Bench-Span"

# (module or class, attribute, span name). Module functions are replaced
# at every binding; methods on the class that defines or inherits them.
TRACED = (
    (envelope, "canonicalize", "envelope.canonicalize"),
    (envelope, "content_hash", "envelope.content_hash"),
    (envelope, "hash_of", "envelope.hash_of"),
    (envelope, "derived_id", "envelope.derived_id"),
    (envelope, "sign_payload", "envelope.sign"),
    (envelope, "verify_payload", "envelope.verify"),
    (model.TrustClaim, "from_dict", "model.from_dict"),
    (model.Attestation, "from_dict", "model.from_dict"),
    (model.EvidenceManifest, "from_dict", "model.from_dict"),
    (model.TrustClaim, "canonical_hash", "model.canonical_hash"),
    (model.EvidenceManifest, "canonical_hash", "model.canonical_hash"),
    (model, "create_claim", "model.create_claim"),
    (model, "build_manifest", "model.build_manifest"),
    (model, "effective_level", "model.effective_level"),
    (connector.ConsumerConnector, "fetch_catalog", "connector.fetch_catalog"),
    (connector.ConsumerConnector, "negotiate", "connector.negotiate"),
    (connector.ConsumerConnector, "transfer", "connector.transfer"),
    (connector.ProviderConnector, "catalog", "connector.provider.catalog"),
    (connector.ProviderConnector, "publish", "connector.provider.publish"),
    (connector.ProviderConnector, "handle_negotiation_request", "connector.provider.handle_negotiation_request"),
    (connector.ProviderConnector, "finalize", "connector.provider.finalize"),
    (connector.ProviderConnector, "transfer", "connector.provider.transfer"),
    (connector.FileProviderStore, "load", "connector.store.load"),
    (policy_engine, "decide", "policy_engine.decide"),
    (assurance, "audit", "assurance.audit"),
    (assurance, "issue_attestation", "assurance.issue_attestation"),
    (assurance.AssuranceService, "handle_audit", "assurance.handle_audit"),
    (assurance.AssuranceService, "revoke", "assurance.revoke"),
    (assurance.RevocationList, "to_list", "assurance.revocations"),
    (scenario.ScenarioRunner, "setup", "scenario.setup"),
    (scenario.ScenarioRunner, "run", "scenario.run"),
)

# Client round trips, one per endpoint the consumer journeys use.
ENDPOINTS = {
    (wire.HttpProviderTransport, "get_catalog"): "catalog",
    (wire.HttpProviderTransport, "request_negotiation"): "negotiations",
    (wire.HttpProviderTransport, "finalize_negotiation"): "finalize",
    (wire.HttpProviderTransport, "get_transfer"): "transfers",
    (wire.HttpAssuranceTransport, "request_audit"): "audits",
    (wire.HttpAssuranceTransport, "get_revocations"): "revocations_get",
    (wire.HttpAssuranceTransport, "revoke"): "revocations_post",
}

SERVERS = (wire.ProviderHTTPServer, wire.AssuranceHTTPServer)
HANDLERS = (wire._ProviderHandler, wire._AssuranceHandler)


def read_wchar() -> int:
    """Bytes this process has passed to write calls, from /proc/self/io."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context -------------------------------------------------------

    def _ctx(self):
        ctx = self._local
        if not hasattr(ctx, "stack"):
            ctx.stack = []
            ctx.remote = None
            ctx.request = None
        return ctx

    def request(self, request_id) -> None:
        """Tag the spans this thread records from now on."""
        self._ctx().request = request_id

    def span(self, name: str, fn, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = tracer._ctx()
            sid = next(tracer._ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.remote
            ctx.stack.append(sid)
            size = size_of(args) if size_of else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                ctx.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, ctx.request, size))

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TRACED:
            size_of = (lambda args: len(args[0])) if name == "envelope.content_hash" else None
            if isinstance(owner, type):
                self._wrap_method(owner, attr, name, size_of)
            else:
                self._wrap_function(getattr(owner, attr), name, size_of)
        self._wrap_save()
        for (cls, attr), endpoint in ENDPOINTS.items():
            self._wrap_round_trip(cls, attr, f"wire.rtt.{endpoint}")
        for cls in SERVERS:
            setattr(cls, "start", self.span("wire.server.start", cls.start))
            setattr(cls, "stop", self.span("wire.server.stop", cls.stop))
        for cls in HANDLERS:
            for attr in ("do_GET", "do_POST"):
                setattr(cls, attr, self._serve(getattr(cls, attr)))

    def _wrap_function(self, fn, name, size_of) -> None:
        traced = self.span(name, fn, size_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dataloa" or mod_name.startswith("dataloa."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def _wrap_method(self, cls, attr, name, size_of) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.span(name, raw.__func__, size_of)))
        else:
            setattr(cls, attr, self.span(name, raw, size_of))

    def _wrap_save(self) -> None:
        """FileProviderStore.save, with the bytes it wrote as the span size."""
        save = connector.FileProviderStore.save
        tracer = self

        @functools.wraps(save)
        def traced_save(store, provider):
            ctx = tracer._ctx()
            sid = next(tracer._ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.remote
            ctx.stack.append(sid)
            before = read_wchar()
            start = time.perf_counter()
            try:
                return save(store, provider)
            finally:
                end = time.perf_counter()
                written = read_wchar() - before
                ctx.stack.pop()
                tracer.spans.append((sid, parent, "connector.store.save", start, end, ctx.request, written))

        connector.FileProviderStore.save = traced_save

    def _wrap_round_trip(self, cls, attr, name) -> None:
        """Time a transport call and send its span id to the server."""
        fn = getattr(cls, attr)
        tracer = self

        def call(transport, *args, **kwargs):
            ctx = tracer._ctx()
            transport._session.headers[SPAN_HEADER] = f"{ctx.stack[-1]} {ctx.request}"
            return fn(transport, *args, **kwargs)

        setattr(cls, attr, self.span(name, functools.wraps(fn)(call)))

    def _serve(self, handle):
        """Make a server thread's spans children of the client round trip."""
        tracer = self

        @functools.wraps(handle)
        def serve(handler):
            ctx = tracer._ctx()
            parent, _, request = (handler.headers.get(SPAN_HEADER) or "").partition(" ")
            ctx.remote = int(parent) if parent else None
            ctx.request = request or None
            try:
                return handle(handler)
            finally:
                ctx.remote = None
                ctx.request = None

        return serve

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end, request, size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart\tend\trequest\tsize\n")
            for sid, parent, name, start, end, request, size in self.spans:
                out.write(f"{sid}\t{parent or ''}\t{name}\t{start:.9f}\t{end:.9f}\t{request or ''}\t{size}\n")
