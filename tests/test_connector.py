"""Connectors: publication, negotiation state machine, transfer."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dataloa.connector import (
    ABSORBING_STATES,
    TRANSITIONS,
    Agreement,
    Asset,
    ConsumerConnector,
    FileProviderStore,
    NegotiationEvent,
    NegotiationSession,
    NegotiationState,
    Permission,
    Policy,
    ProviderConnector,
    default_policy,
    step,
)
from dataloa.envelope import SignatureEnvelope, content_hash, verify_payload
from dataloa.errors import (
    DuplicateAssetId,
    HashMismatch,
    IllegalTransition,
    IntegrityFailure,
    InvalidClaim,
    MalformedCatalog,
    NoSuchAgreement,
    NotFinalized,
    UnknownSession,
)
from dataloa.model import AssuranceLevel, TrustClaim, effective_level, make_actor_id
from dataloa.wire import HttpProviderTransport, LocalProviderTransport, ProviderHTTPServer

from conftest import CONSUMER_ID, NOW, PAYLOAD, PROVIDER_ID, catalog_lines, spy_replace


# -- policies ---------------------------------------------------------------


def test_policy_rejects_unknown_action():
    with pytest.raises(ValueError):
        Permission(action="sell")


def test_policy_requires_at_least_one_permission():
    with pytest.raises(ValueError):
        Policy(policy_id="empty", permissions=())


def test_policy_hash_survives_reparse():
    policy = Policy(
        policy_id="share",
        permissions=(Permission("use"), Permission("distribute", "non-commercial")),
    )
    again = Policy.from_dict(policy.to_dict())
    assert again.canonical_hash() == policy.canonical_hash()


# -- publication ------------------------------------------------------------


def test_publish_appears_in_catalog(published):
    provider, asset, claim = published
    catalog = provider.catalog()
    assert [a.asset_id for a in catalog.assets] == ["wells-1"]
    assert catalog.provider_id == PROVIDER_ID
    assert catalog.assets[0].claim.claim_id == claim.claim_id


def test_public_catalog_redacts_payload_locator(published):
    provider, asset, _ = published
    assert "payload_locator" not in asset.to_dict(public=True)
    assert asset.to_dict(public=False)["payload_locator"] == "mem://wells-1"


def test_empty_catalog(provider):
    assert provider.catalog().assets == ()


def test_publish_rejects_payload_hash_mismatch(provider, make_claim):
    claim = make_claim()
    with pytest.raises(HashMismatch):
        provider.publish(
            payload=b"not the advertised bytes",
            description="",
            policy=default_policy(),
            claim=claim,
        )


def test_publish_rejects_duplicate_asset_id(published, make_claim):
    provider, _, _ = published
    with pytest.raises(DuplicateAssetId):
        provider.publish(
            payload=PAYLOAD,
            description="again",
            policy=default_policy(),
            claim=make_claim(),
        )


def test_publish_rejects_tampered_claim(provider, make_claim):
    claim = make_claim()
    forged = TrustClaim.from_dict({**claim.to_dict(), "issued_at": NOW + 1})
    with pytest.raises(InvalidClaim):
        provider.publish(
            payload=PAYLOAD, description="", policy=default_policy(), claim=forged
        )


def _attested(assurance, make_claim, make_manifest, level=2):
    claim = make_claim(level=level)
    manifest = make_manifest(claim)
    response = assurance.handle_audit(claim.to_dict(), manifest.to_dict(), level)
    assert response.passed
    from dataloa.model import Attestation

    return claim, Attestation.from_dict(response.attestation)


def test_catalog_public_lines_give_back_the_public_dict(provider, assurance,
                                                       make_claim, make_manifest):
    """The HTTP catalog body: a header line, then each asset's cached
    encoding on a line of its own, every line ending in a newline.
    Parsing the lines gives back the public dict."""

    def parsed(body: bytes) -> dict:
        header, *assets = body.split(b"\n")[:-1]
        return {**json.loads(header), "assets": [json.loads(line) for line in assets]}

    empty = provider.catalog()
    assert empty.public_lines() == json.dumps(
        {"provider_id": PROVIDER_ID, "issued_at": NOW}).encode() + b"\n"
    assert parsed(empty.public_lines()) == empty.to_dict(public=True)
    claim, att = _attested(assurance, make_claim, make_manifest)
    provider.publish(payload=PAYLOAD, description="wells \u00e9\"\n", claim=claim,
                     policy=default_policy(), attestations=(att,))
    provider.publish(payload=PAYLOAD, description="", claim=claim,
                     policy=default_policy(), asset_id="wells-copy")
    catalog = provider.catalog()
    body = catalog.public_lines()
    assert body.split(b"\n")[1:] == [a.public_json.encode() for a in catalog.assets] + [b""]
    assert parsed(body) == catalog.to_dict(public=True)


def test_publish_accepts_bound_attestation(provider, assurance, make_claim,
                                           make_manifest):
    claim, att = _attested(assurance, make_claim, make_manifest)
    asset = provider.publish(
        payload=PAYLOAD,
        description="",
        policy=default_policy(),
        claim=claim,
        attestations=(att,),
    )
    assert asset.attestation_refs == (att,)


def test_publish_rejects_foreign_attestation(provider, assurance, make_claim,
                                             make_manifest):
    _, att = _attested(assurance, make_claim, make_manifest)
    other = make_claim(dataset_id="unrelated")
    with pytest.raises(InvalidClaim):
        provider.publish(
            payload=PAYLOAD,
            description="",
            policy=default_policy(),
            claim=other,
            attestations=(att,),
        )


# -- state machine ----------------------------------------------------------

_DUMMY_SIG = SignatureEnvelope(alg="ed25519", key_id="k", sig="00" * 64)

_DUMMY_AGREEMENT = Agreement(
    agreement_id="agr-1",
    asset_id="a",
    consumer_id="c",
    provider_id="p",
    policy_hash="11" * 32,
    claim_hash="22" * 32,
    agreed_at=NOW,
    signature=_DUMMY_SIG,
)


def _session_in(state: NegotiationState) -> NegotiationSession:
    agreement = (
        _DUMMY_AGREEMENT
        if state in (NegotiationState.AGREED, NegotiationState.FINALIZED)
        else None
    )
    reason = "why" if state is NegotiationState.TERMINATED else None
    return NegotiationSession(
        session_id="s-1",
        asset_id="a",
        consumer_id="c",
        state=state,
        agreement=agreement,
        terminated_reason=reason,
    )


def test_exhaustive_transition_table():
    """Every (state, event) pair behaves per the declared table."""
    legal_seen = 0
    for state, event in itertools.product(NegotiationState, NegotiationEvent):
        session = _session_in(state)
        target = TRANSITIONS.get((state, event))
        if target is None:
            with pytest.raises(IllegalTransition):
                step(session, event, agreement=_DUMMY_AGREEMENT)
            assert session.state is state  # input untouched
        else:
            after = step(session, event, agreement=_DUMMY_AGREEMENT, reason="r")
            assert after.state is target
            assert after.session_id == session.session_id
            legal_seen += 1
    assert legal_seen == 4


def test_absorbing_states_accept_no_events():
    for state in ABSORBING_STATES:
        for event in NegotiationEvent:
            with pytest.raises(IllegalTransition):
                step(_session_in(state), event, agreement=_DUMMY_AGREEMENT)


def test_agree_without_agreement_is_an_error():
    with pytest.raises(ValueError):
        step(_session_in(NegotiationState.REQUESTED), NegotiationEvent.AGREE)


def test_terminate_records_reason():
    after = step(_session_in(NegotiationState.REQUESTED),
                 NegotiationEvent.TERMINATE, reason="no deal")
    assert after.terminated_reason == "no deal"
    assert step(_session_in(NegotiationState.AGREED),
                NegotiationEvent.TERMINATE).terminated_reason == "terminated"


@pytest.mark.parametrize("state,agreement", [
    (NegotiationState.AGREED, None),
    (NegotiationState.FINALIZED, None),
    (NegotiationState.REQUESTED, _DUMMY_AGREEMENT),
    (NegotiationState.TERMINATED, _DUMMY_AGREEMENT),
])
def test_session_invariant_agreement_iff_agreed_or_finalized(state, agreement):
    with pytest.raises(ValueError):
        NegotiationSession(
            session_id="s", asset_id="a", consumer_id="c",
            state=state, agreement=agreement,
        )


@settings(max_examples=200)
@given(events=st.lists(st.sampled_from(list(NegotiationEvent)), max_size=12))
def test_random_event_streams_stay_on_declared_states(events):
    session = _session_in(NegotiationState.REQUESTED)
    for event in events:
        try:
            session = step(session, event, agreement=_DUMMY_AGREEMENT, reason="r")
        except IllegalTransition:
            pass
        assert session.state in NegotiationState
        if session.state in ABSORBING_STATES:
            # nothing moves an absorbing session
            for probe in NegotiationEvent:
                with pytest.raises(IllegalTransition):
                    step(session, probe, agreement=_DUMMY_AGREEMENT)


def test_session_round_trips_through_dict():
    for state in NegotiationState:
        session = _session_in(state)
        assert NegotiationSession.from_dict(session.to_dict()) == session


# -- provider-side negotiation ---------------------------------------------


def _hashes(asset):
    return asset.usage_policy.canonical_hash(), asset.claim.canonical_hash()


def test_negotiation_happy_path(published, keys):
    provider, asset, _ = published
    policy_hash, claim_hash = _hashes(asset)
    session = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    assert session.state is NegotiationState.AGREED
    agreement = session.agreement
    assert agreement.asset_id == asset.asset_id
    assert agreement.consumer_id == CONSUMER_ID
    assert verify_payload(
        agreement.signing_payload(), agreement.signature,
        keys.public_key_for(PROVIDER_ID),
    )
    final = provider.finalize(session.session_id)
    assert final.state is NegotiationState.FINALIZED
    assert provider.get_session(session.session_id).state is NegotiationState.FINALIZED


def test_negotiation_terminates_for_unknown_asset(provider):
    session = provider.handle_negotiation_request(
        "ghost", CONSUMER_ID, "00" * 32, "00" * 32
    )
    assert session.state is NegotiationState.TERMINATED
    assert session.terminated_reason == "unknown-asset"


def test_negotiation_terminates_on_policy_hash_mismatch(published):
    provider, asset, _ = published
    _, claim_hash = _hashes(asset)
    session = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, "00" * 32, claim_hash
    )
    assert session.state is NegotiationState.TERMINATED
    assert session.terminated_reason == "policy-hash-mismatch"


def test_negotiation_terminates_on_claim_hash_mismatch(published):
    provider, asset, _ = published
    policy_hash, _ = _hashes(asset)
    session = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, policy_hash, "00" * 32
    )
    assert session.state is NegotiationState.TERMINATED
    assert session.terminated_reason == "claim-hash-mismatch"


def test_repeat_requests_get_fresh_sessions(published):
    provider, asset, _ = published
    policy_hash, claim_hash = _hashes(asset)
    first = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    second = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    assert first.session_id != second.session_id
    assert first.agreement.agreement_id != second.agreement.agreement_id


def test_get_session_unknown_id(provider):
    with pytest.raises(UnknownSession):
        provider.get_session("nope")


def test_finalize_terminated_session_is_illegal(provider):
    session = provider.handle_negotiation_request(
        "ghost", CONSUMER_ID, "00" * 32, "00" * 32
    )
    with pytest.raises(IllegalTransition):
        provider.finalize(session.session_id)


def test_transfer_requires_finalized(published):
    provider, asset, claim = published
    policy_hash, claim_hash = _hashes(asset)
    session = provider.handle_negotiation_request(
        asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
    )
    agreement_id = session.agreement.agreement_id
    with pytest.raises(NotFinalized):
        provider.transfer(agreement_id)
    provider.finalize(session.session_id)
    payload, declared = provider.transfer(agreement_id)
    assert payload == PAYLOAD
    assert declared == claim.content_hash


def test_transfer_unknown_agreement(provider):
    with pytest.raises(NoSuchAgreement):
        provider.transfer("nope")


# -- consumer side ----------------------------------------------------------


class _StubTransport:
    """Catalog-only transport serving a fixed dict as JSON Lines."""

    def __init__(self, catalog_data):
        self.catalog_data = catalog_data

    def get_catalog(self):
        return catalog_lines(self.catalog_data)


def _effective(vasset):
    """The effective level of a verified asset at NOW, nothing revoked."""
    claim = vasset.asset.claim if vasset.claim_valid else None
    return effective_level(claim, vasset.valid_attestations, frozenset(), NOW)


def test_consumer_verifies_clean_catalog(published, consumer):
    provider, asset, _ = published
    catalog = consumer.fetch_catalog(LocalProviderTransport(provider))
    assert catalog.provider_id == PROVIDER_ID
    vasset = catalog.get(asset.asset_id)
    assert vasset.claim_valid
    assert not vasset.flagged
    # level-2 claim, no attestation: effectively self-asserted
    assert _effective(vasset) is AssuranceLevel.SELF_ASSERTED


def test_consumer_flags_tampered_claim(published, consumer):
    provider, asset, _ = published
    data = provider.catalog().to_dict()
    data["assets"][0]["claim"]["issued_at"] += 1
    catalog = consumer.fetch_catalog(_StubTransport(data))
    vasset = catalog.get(asset.asset_id)
    assert vasset.flagged
    assert not vasset.claim_valid
    assert _effective(vasset) is AssuranceLevel.UNASSERTED


def test_consumer_ignores_unbound_attestation(published, consumer, assurance,
                                              make_claim, make_manifest):
    provider, asset, _ = published
    other = make_claim(dataset_id="unrelated")
    response = assurance.handle_audit(
        other.to_dict(), make_manifest(other).to_dict(), 2
    )
    data = provider.catalog().to_dict()
    data["assets"][0]["attestation_refs"] = [response.attestation]
    vasset = consumer.fetch_catalog(_StubTransport(data)).get(asset.asset_id)
    assert vasset.valid_attestations == ()
    assert vasset.ignored[0][1] == "claim-hash-mismatch"
    assert vasset.flagged


def test_consumer_ignores_forged_attestation(provider, consumer, assurance,
                                             make_claim, make_manifest):
    claim = make_claim()
    response = assurance.handle_audit(
        claim.to_dict(), make_manifest(claim).to_dict(), 2
    )
    forged = {**response.attestation, "level_assured": 3}
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim)
    data = provider.catalog().to_dict()
    data["assets"][0]["attestation_refs"] = [forged]
    vasset = consumer.fetch_catalog(_StubTransport(data)).get(claim.dataset_id)
    assert vasset.valid_attestations == ()
    assert vasset.ignored[0][1] == "signature-invalid"


def test_fetch_canonicalizes_each_claim_once(monkeypatch, provider, consumer, assurance,
                                             make_claim, make_manifest):
    """One encoding per claim and per attestation on the first fetch, by
    either encoder, and none on a repeat fetch of the unchanged asset."""
    from dataloa import envelope, model

    claim, att = _attested(assurance, make_claim, make_manifest)
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim, attestations=(att,))
    encoded = []

    def counting(real):
        def wrapper(value):
            encoded.append(value)
            return real(value)
        return wrapper

    monkeypatch.setattr(model, "encode_typed", counting(envelope.encode_typed))
    monkeypatch.setattr(envelope, "canonicalize", counting(envelope.canonicalize))
    for expected in ([claim.signing_payload(), att.signing_payload()], []):
        encoded.clear()
        vasset = consumer.fetch_catalog(LocalProviderTransport(provider)).assets[0]
        assert vasset.claim_valid
        assert vasset.valid_attestations == (att,)
        assert vasset.asset.claim.canonical_hash() == claim.canonical_hash()
        assert encoded == expected


@contextlib.contextmanager
def _provider_transport(provider, mode):
    """A transport to provider: in process, or through a live HTTP server."""
    if mode == "local":
        yield LocalProviderTransport(provider)
        return
    with ProviderHTTPServer(provider) as server, HttpProviderTransport(server.base_url) as http:
        yield http


@pytest.mark.parametrize("mode", ["local", "http"])
def test_publish_between_two_gets_is_listed(published, make_claim, mode):
    provider, _, _ = published
    with _provider_transport(provider, mode) as transport:
        first = transport.get_catalog()
        assert first == provider.catalog().public_lines()
        provider.publish(payload=PAYLOAD, description="more wells", policy=default_policy(),
                         claim=make_claim(dataset_id="wells-2"))
        second = transport.get_catalog()
    assert second == provider.catalog().public_lines()
    assert second.startswith(first)  # wells-2 sorts after wells-1
    assert [json.loads(line)["asset_id"] for line in second.split(b"\n")[1:-1]] == [
        "wells-1", "wells-2"]


def test_listing_encodes_each_asset_once(provider, make_claim, monkeypatch):
    """publish encodes nothing; the first listing after it encodes each
    new asset once, and a repeat encodes nothing."""
    encoded = []
    real = Asset.to_dict

    def counting(asset, public=True):
        encoded.append(asset.asset_id)
        return real(asset, public)

    monkeypatch.setattr(Asset, "to_dict", counting)
    claims = [make_claim(dataset_id=f"wells-{index}") for index in range(6)]
    for claim in claims[:5]:
        provider.publish(payload=PAYLOAD, description="", policy=default_policy(), claim=claim)
    assert encoded == []
    body = provider.catalog().public_lines()
    assert sorted(encoded) == [f"wells-{index}" for index in range(5)]
    assert provider.catalog().public_lines() == body
    assert len(encoded) == 5
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(), claim=claims[5])
    assert len(provider.catalog().public_lines().split(b"\n")) == 8
    assert encoded[5:] == ["wells-5"]


def test_gets_during_publishes_each_list_one_snapshot(provider, make_claim):
    """Two threads publish while a third reads the catalog through the
    in-process transport, with thread switches forced often. Every body
    read is the catalog of one snapshot: a prefix of each publisher's
    assets, in id order, each line the asset's own encoding."""
    batches = [[make_claim(dataset_id=f"wells-{side}-{index:02d}") for index in range(12)]
               for side in "ab"]
    start = threading.Barrier(3)
    publishing = [True, True]
    bodies: list[bytes] = []

    def publish(side: int) -> None:
        start.wait(timeout=5)
        for claim in batches[side]:
            provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                             claim=claim)
        publishing[side] = False

    def read() -> None:
        transport = LocalProviderTransport(provider)
        start.wait(timeout=5)
        while any(publishing):
            bodies.append(transport.get_catalog())
        bodies.append(transport.get_catalog())

    threads = [threading.Thread(target=publish, args=(side,)) for side in (0, 1)]
    threads.append(threading.Thread(target=read))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    header = json.dumps({"provider_id": PROVIDER_ID, "issued_at": NOW}).encode()
    prefixes = [{tuple(c.dataset_id for c in batch[:n]) for n in range(13)} for batch in batches]
    for body in bodies:
        ids = sorted(json.loads(line)["asset_id"] for line in body.split(b"\n")[1:-1])
        for side, prefix in zip("ab", prefixes):
            assert tuple(i for i in ids if i.startswith(f"wells-{side}")) in prefix
        assert body == header + b"\n" + b"".join(
            provider.get_asset(i).public_json.encode() + b"\n" for i in ids)
    assert len(bodies[-1].split(b"\n")) == 26


def test_consumer_rejects_malformed_catalog(consumer):
    with pytest.raises(MalformedCatalog):
        consumer.fetch_catalog(_StubTransport({"assets": "not-a-list"}))


def _body_transport(body: bytes):
    """Catalog-only transport serving fixed body bytes."""
    return SimpleNamespace(get_catalog=lambda: body)


def _lines(published) -> tuple[bytes, bytes]:
    """The header line and the one asset line of the published catalog."""
    provider, _, _ = published
    header, asset, end = provider.catalog().public_lines().split(b"\n")
    assert end == b""
    return header, asset


MALFORMED_LINES = {
    "empty-body": lambda header, asset: b"",
    "no-header": lambda header, asset: asset,
    "header-a-list": lambda header, asset: b"[" + header + b"]\n" + asset,
    "header-a-string": lambda header, asset: json.dumps(header.decode()).encode() + b"\n" + asset,
    "header-not-utf8": lambda header, asset: header.replace(b'"', b'"\xff', 1) + b"\n" + asset,
    "header-provider-id-a-list": lambda header, asset: (
        json.dumps({"provider_id": [PROVIDER_ID], "issued_at": NOW}).encode() + b"\n" + asset),
    "header-issued-at-a-string": lambda header, asset: (
        json.dumps({"provider_id": PROVIDER_ID, "issued_at": str(NOW)}).encode() + b"\n" + asset),
    "blank-line": lambda header, asset: header + b"\n\n" + asset,
    "blank-last-line": lambda header, asset: header + b"\n" + asset + b"\n\n",
    "asset-pretty-printed": lambda header, asset: (
        header + b"\n" + json.dumps(json.loads(asset), indent=2).encode()),
    "asset-not-utf8": lambda header, asset: (
        header + b"\n" + asset.replace(b"well data", b"well \xff data")),
    "asset-utf16": lambda header, asset: header + b"\n" + asset.decode().encode("utf-16"),
    "asset-not-an-object": lambda header, asset: header + b"\n[" + asset + b"]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_consumer_rejects_malformed_catalog_lines(published, consumer, case):
    body = MALFORMED_LINES[case](*_lines(published))
    for _ in range(2):  # a line that failed to parse is not remembered
        with pytest.raises(MalformedCatalog):
            consumer.fetch_catalog(_body_transport(body))


def test_header_only_catalog_has_no_assets(published, consumer):
    """With or without the newline that ends the last line."""
    header, _ = _lines(published)
    for body in (header, header + b"\n"):
        catalog = consumer.fetch_catalog(_body_transport(body))
        assert (catalog.provider_id, catalog.issued_at, catalog.assets) == (PROVIDER_ID, NOW, ())


@pytest.mark.parametrize("mode", ["local", "http"])
def test_warm_consumer_frames_every_body_as_a_cold_one(published, consumer, monkeypatch, mode):
    """After a successful fetch, whose catalog the consumer keeps, each
    malformed body is still refused and each header-only body still lists
    no asset, in process and over HTTP."""
    provider, _, _ = published
    header, asset = _lines(published)
    good = provider.catalog().public_lines()
    served = [good]
    monkeypatch.setattr(provider, "catalog", lambda: SimpleNamespace(public_lines=lambda: served[0]))
    malformed = {case: make(header, asset) for case, make in MALFORMED_LINES.items()}
    malformed["header-then-blank"] = header + b"\n\n"
    with _provider_transport(provider, mode) as transport:
        for case, body in sorted(malformed.items()):
            served[0] = good
            assert [a.asset.asset_id for a in consumer.fetch_catalog(transport).assets] == [
                "wells-1"]
            served[0] = body
            for _ in range(2):
                with pytest.raises(MalformedCatalog):
                    consumer.fetch_catalog(transport)
        for body in (header, header + b"\n"):
            served[0] = good
            assert len(consumer.fetch_catalog(transport).assets) == 1
            served[0] = body
            for _ in range(2):
                catalog = consumer.fetch_catalog(transport)
                assert (catalog.provider_id, catalog.issued_at, catalog.assets) == (
                    PROVIDER_ID, NOW, ())


@pytest.mark.parametrize("path,field", [
    ((), "asset_id"),
    ((), "description"),
    ((), "payload_locator"),
    (("usage_policy",), "policy_id"),
    (("usage_policy", "permissions", 0), "constraint"),
    (("claim", "signature"), "key_id"),
    (("claim", "signature"), "alg"),
])
def test_consumer_rejects_wrong_typed_unsigned_fields(published, consumer, path, field):
    """Fields no signature covers are type-checked too: a list asset_id
    would otherwise pass as a valid claim and break every lookup."""
    provider, _, _ = published
    data = provider.catalog().to_dict()
    target = data["assets"][0]
    for key in path:
        target = target[key]
    target[field] = ["x"]
    with pytest.raises(MalformedCatalog):
        consumer.fetch_catalog(_StubTransport(data))


@pytest.mark.parametrize("record,field,value", [
    ("claim", "claim_id", [1]),
    ("claim", "provider_id", 5.0),
    ("claim", "signature", {"alg": [1], "key_id": PROVIDER_ID, "sig": "00"}),
    ("attestation", "assurer_id", {"k": 1}),
])
def test_consumer_rejects_wrong_typed_signed_fields(provider, consumer, assurance,
                                                    make_claim, make_manifest,
                                                    record, field, value):
    claim, att = _attested(assurance, make_claim, make_manifest)
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim, attestations=(att,))
    data = provider.catalog().to_dict()
    asset = data["assets"][0]
    target = asset["claim"] if record == "claim" else asset["attestation_refs"][0]
    target[field] = value
    with pytest.raises(MalformedCatalog):
        consumer.fetch_catalog(_StubTransport(data))


@pytest.mark.parametrize("record,field", [
    ("claim", "claim_id"),
    ("attestation", "attestation_id"),
])
def test_consumer_rejects_lone_surrogate_in_signed_string(provider, consumer, assurance,
                                                          make_claim, make_manifest,
                                                          record, field):
    """Valid JSON, but no UTF-8 encoding exists to check a signature over."""
    claim, att = _attested(assurance, make_claim, make_manifest)
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim, attestations=(att,))
    data = provider.catalog().to_dict()
    asset = data["assets"][0]
    target = asset["claim"] if record == "claim" else asset["attestation_refs"][0]
    target[field] = "\ud800"
    with pytest.raises(MalformedCatalog):
        consumer.fetch_catalog(_StubTransport(data))


def test_consumer_end_to_end_negotiate_and_transfer(published, consumer):
    provider, asset, claim = published
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    outcome = consumer.negotiate(transport, vasset)
    assert outcome.finalized
    assert outcome.session.state is NegotiationState.FINALIZED
    payload = consumer.transfer(transport, outcome.agreement_id, claim.content_hash)
    assert payload == PAYLOAD


def test_consumer_reports_provider_refusal(published, consumer):
    provider, asset, _ = published
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    stale = vasset.asset.to_dict(public=False)
    stale["claim"] = {**stale["claim"], "content_hash": "33" * 32}
    # a consumer working from a stale claim gets terminated by the provider
    from dataloa.connector import Asset, VerifiedAsset

    stale_vasset = VerifiedAsset(
        asset=Asset.from_dict(stale),
        provider_id=vasset.provider_id,
        claim_valid=True,
        valid_attestations=(),
    )
    outcome = consumer.negotiate(transport, stale_vasset)
    assert not outcome.finalized
    assert outcome.refusal_reason == "claim-hash-mismatch"
    assert outcome.agreement_id is None


class _CorruptingTransport:
    """Wraps a real transport and tampers with the returned agreement."""

    def __init__(self, inner):
        self.inner = inner

    def get_catalog(self):
        return self.inner.get_catalog()

    def request_negotiation(self, asset_id, consumer_id, policy_hash, claim_hash):
        raw = self.inner.request_negotiation(
            asset_id, consumer_id, policy_hash, claim_hash
        )
        if raw.get("agreement"):
            raw["agreement"]["agreed_at"] += 1
        return raw

    def finalize_negotiation(self, session_id):
        raise AssertionError("consumer must not finalize a corrupt agreement")


def test_consumer_refuses_bad_agreement_signature(published, consumer):
    provider, asset, _ = published
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    outcome = consumer.negotiate(_CorruptingTransport(transport), vasset)
    assert not outcome.finalized
    assert outcome.refusal_reason == "agreement-signature-invalid"
    # provider never saw a finalize; session stays AGREED
    states = provider.session_states()
    assert list(states.values()) == ["AGREED"]


def test_consumer_refuses_misdirected_agreement(published, keys):
    provider, asset, _ = published
    stranger = ConsumerConnector(
        consumer_id=make_actor_id("someone-else"), keys=keys, clock=lambda: NOW
    )
    transport = LocalProviderTransport(provider)

    class _Replay:
        def get_catalog(self):
            return transport.get_catalog()

        def request_negotiation(self, asset_id, consumer_id, policy_hash, claim_hash):
            # replay an agreement minted for a different consumer
            return transport.request_negotiation(
                asset_id, CONSUMER_ID, policy_hash, claim_hash
            )

    vasset = stranger.fetch_catalog(transport).get(asset.asset_id)
    outcome = stranger.negotiate(_Replay(), vasset)
    assert not outcome.finalized
    assert outcome.refusal_reason == "agreement-consumer-mismatch"


def test_transfer_integrity_failure_on_tampered_store(published, consumer):
    provider, asset, claim = published
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    outcome = consumer.negotiate(transport, vasset)
    provider.data_source.store("mem://wells-1", b"tampered after publication")
    with pytest.raises(IntegrityFailure):
        consumer.transfer(transport, outcome.agreement_id, claim.content_hash)


def test_concurrent_negotiations(published, keys):
    provider, asset, claim = published
    transport = LocalProviderTransport(provider)
    results = {}

    def run(name):
        consumer = ConsumerConnector(
            consumer_id=make_actor_id(name), keys=keys, clock=lambda: NOW
        )
        vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
        outcome = consumer.negotiate(transport, vasset)
        payload = consumer.transfer(transport, outcome.agreement_id,
                                    claim.content_hash)
        results[name] = (outcome, payload)

    names = [f"consumer-{i}" for i in range(8)]
    threads = [threading.Thread(target=run, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert set(results) == set(names)
    assert all(outcome.finalized for outcome, _ in results.values())
    assert all(payload == PAYLOAD for _, payload in results.values())
    session_ids = {o.session.session_id for o, _ in results.values()}
    assert len(session_ids) == 8
    assert set(provider.session_states().values()) == {"FINALIZED"}


def test_racing_finalizes_of_one_session_finalize_once(published):
    provider, asset, _ = published
    policy_hash = asset.usage_policy.canonical_hash()
    claim_hash = asset.claim.canonical_hash()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            session = provider.handle_negotiation_request(
                asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
            )
            barrier = threading.Barrier(2)
            results = []

            def finalize():
                barrier.wait(timeout=5)
                try:
                    results.append(provider.finalize(session.session_id).state)
                except IllegalTransition as exc:
                    results.append(exc)

            threads = [threading.Thread(target=finalize) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
            assert results.count(NegotiationState.FINALIZED) == 1
            assert sum(isinstance(r, IllegalTransition) for r in results) == 1
    finally:
        sys.setswitchinterval(previous)


# -- file-backed provider state ---------------------------------------------


def test_file_store_round_trip(tmp_path, published, keys, consumer, make_claim):
    provider, asset, claim = published
    second = make_claim(payload=b"other bytes", dataset_id="wells-2")
    provider.publish(payload=b"other bytes", description="more wells",
                     policy=default_policy(), claim=second)
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    outcome = consumer.negotiate(transport, vasset)
    assert outcome.finalized

    store = FileProviderStore(tmp_path / "prov")
    assert not store.exists()
    store.save(provider)
    assert store.exists()

    reloaded = store.load(keys, clock=lambda: NOW)
    assert reloaded.catalog().to_dict() == provider.catalog().to_dict()
    assert reloaded.session_states() == provider.session_states()
    payload, declared = reloaded.transfer(outcome.agreement_id)
    assert payload == PAYLOAD
    assert declared == claim.content_hash


def test_reloaded_store_opens_fresh_sessions(tmp_path, published, keys, consumer):
    provider, asset, claim = published
    store = FileProviderStore(tmp_path / "prov")
    store.save(provider)
    outcomes = []
    for minute in (1, 2):
        # each CLI call loads the store, negotiates and saves it again
        reloaded = store.load(keys, clock=lambda: NOW + 60 * minute)
        transport = LocalProviderTransport(reloaded)
        vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
        outcomes.append(consumer.negotiate(transport, vasset))
        store.save(reloaded)
    first, second = outcomes
    assert first.finalized and second.finalized
    assert first.session.session_id != second.session.session_id

    reloaded = store.load(keys, clock=lambda: NOW)
    assert set(reloaded.session_states().values()) == {"FINALIZED"}
    assert len(reloaded.session_states()) == 2
    for outcome in outcomes:
        payload, _ = reloaded.transfer(outcome.agreement_id)
        assert payload == PAYLOAD


def _store_files(root):
    """Every file under root, with the inode and mtime that a rewrite changes."""
    return {
        path: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in root.rglob("*") if path.is_file()
    }


def test_store_resave_after_load_replaces_nothing(tmp_path, monkeypatch, published, keys, consumer):
    provider, asset, _ = published
    transport = LocalProviderTransport(provider)
    assert consumer.negotiate(transport, consumer.fetch_catalog(transport).get(asset.asset_id)).finalized
    root = tmp_path / "prov"
    FileProviderStore(root).save(provider)
    before = _store_files(root)
    time.sleep(0.02)  # file timestamps tick coarsely; a rewrite must show in st_mtime_ns

    store = FileProviderStore(root)
    reloaded = store.load(keys, clock=lambda: NOW)
    replaced = spy_replace(monkeypatch)
    store.save(reloaded)
    assert replaced == []
    assert _store_files(root) == before


def test_store_saves_only_what_changed(tmp_path, monkeypatch, published, make_claim):
    provider, asset, _ = published
    root = tmp_path / "prov"
    store = FileProviderStore(root)
    replaced = spy_replace(monkeypatch)
    store.save(provider)
    payload_path = root / "payloads" / asset.claim.content_hash
    assert replaced == [root / "meta.json", payload_path,
                        root / "assets" / f"{content_hash(b'wells-1')}.json"]
    assert payload_path.read_bytes() == PAYLOAD

    second = make_claim(payload=b"other bytes", dataset_id="wells-2")
    provider.publish(payload=b"other bytes", description="more wells",
                     policy=default_policy(), claim=second)
    replaced.clear()
    store.save(provider)
    assert replaced == [root / "payloads" / second.content_hash,
                        root / "assets" / f"{content_hash(b'wells-2')}.json"]


def test_store_refuses_a_payload_that_does_not_match_its_name(tmp_path, published, keys):
    provider, asset, _ = published
    root = tmp_path / "prov"
    FileProviderStore(root).save(provider)
    (root / "payloads" / asset.claim.content_hash).write_bytes(b"tampered at rest")
    with pytest.raises(HashMismatch):
        FileProviderStore(root).load(keys, clock=lambda: NOW)


def test_store_survives_a_save_cut_off_at_every_write(tmp_path, monkeypatch, published, keys,
                                                     consumer, make_claim):
    provider, asset, _ = published
    first_save = tmp_path / "first"
    FileProviderStore(first_save).save(provider)
    for n, dataset_id in enumerate(("wells-2", "wells-3")):
        payload = f"more bytes {n}".encode()
        provider.publish(payload=payload, description=dataset_id, policy=default_policy(),
                         claim=make_claim(payload=payload, dataset_id=dataset_id))
    transport = LocalProviderTransport(provider)
    for asset_id in ("wells-1", "wells-2"):
        consumer.negotiate(transport, consumer.fetch_catalog(transport).get(asset_id))
    provider_ids = {a.asset_id for a in provider.catalog().assets}

    for first in (True, False):
        k = 0
        while True:
            root = tmp_path / f"cut-{first}-{k}"
            if not first:
                shutil.copytree(first_save, root)
            store = FileProviderStore(root)
            if not first:
                store.load(keys, clock=lambda: NOW)
            with monkeypatch.context() as patch:
                replaced = spy_replace(patch, fail_after=k)
                try:
                    store.save(provider)
                    done = True
                except OSError:
                    done = False
            assert not list(root.rglob("*.tmp"))
            if first and k == 0:
                assert not FileProviderStore(root).exists()
            else:
                reloaded = FileProviderStore(root).load(keys, clock=lambda: NOW)
                loaded_ids = {a.asset_id for a in reloaded.catalog().assets}
                assert loaded_ids <= provider_ids
                assert first or "wells-1" in loaded_ids
                for session in reloaded._sessions.values():
                    assert session.asset_id in loaded_ids
            if done:
                break
            k += 1
        # the meta record, three payloads and asset records, two sessions;
        # a save over the first one rewrites neither meta nor wells-1
        assert len(replaced) == (9 if first else 6)


_ID_PIECES = st.one_of(
    st.sampled_from(["/", "..", "\\", "../", "..\\", "é", "データ", "\x00", " "]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(asset_ids=st.sets(st.lists(_ID_PIECES, min_size=1, max_size=8).map("".join),
                         min_size=1, max_size=3))
def test_store_round_trips_any_asset_id_inside_its_root(asset_ids, keys, make_claim):
    provider = ProviderConnector(keys.signer_for(PROVIDER_ID), keys, clock=lambda: NOW)
    for n, asset_id in enumerate(sorted(asset_ids)):
        payload = f"payload {n}".encode()
        provider.publish(payload=payload, description=asset_id, policy=default_policy(),
                         claim=make_claim(payload=payload, dataset_id=f"d-{n}"),
                         asset_id=asset_id)
    with tempfile.TemporaryDirectory() as tmp:
        # deep, so that even a layout that put ids into paths would stay in tmp
        root = Path(tmp) / "a" / "b" / "c" / "d" / "store"
        FileProviderStore(root).save(provider)
        reloaded = FileProviderStore(root).load(keys, clock=lambda: NOW)
        assert reloaded.catalog().to_dict(public=False) == provider.catalog().to_dict(public=False)
        for path in Path(tmp).rglob("*"):
            assert path == root or root in path.parents or path in root.parents


def test_verified_catalog_get_returns_first_duplicate(published, consumer):
    provider, asset, _ = published
    data = provider.catalog().to_dict()
    twin = {**data["assets"][0], "description": "second copy"}
    data["assets"].append(twin)
    catalog = consumer.fetch_catalog(_StubTransport(data))
    assert catalog.get(asset.asset_id) is catalog.assets[0]
    assert catalog.get(asset.asset_id).asset.description == "well data"
    assert catalog.get("no-such-asset") is None


# -- independent assurance at the consumer -----------------------------------


def test_self_attested_attestation_is_ignored_and_flagged(provider, consumer, keys,
                                                          provider_key, make_claim,
                                                          make_manifest):
    """A provider auditing its own claim with its own key earns nothing:
    the attestation is ignored, the asset flagged, and HIGH rejects.
    publish refuses such an attestation, so the catalog is served by a
    stub, as a provider that skipped the check would serve it."""
    from dataloa.assurance import AssuranceService
    from dataloa.model import Attestation
    from dataloa.policy_engine import ConsumerPolicy, Verdict, decide

    claim = make_claim(level=3)
    self_assurer = AssuranceService(provider_key, keys, clock=lambda: NOW)
    response = self_assurer.handle_audit(
        claim.to_dict(),
        make_manifest(claim, kinds=("quality-report", "provenance-record",
                                    "integrity-monitoring", "security-assessment")).to_dict(),
        3,
    )
    att = Attestation.from_dict(response.attestation)
    assert att.assurer_id == PROVIDER_ID
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim)
    data = provider.catalog().to_dict()
    data["assets"][0]["attestation_refs"] = [response.attestation]

    vasset = consumer.fetch_catalog(_StubTransport(data)).assets[0]
    assert vasset.claim_valid
    assert vasset.valid_attestations == ()
    assert vasset.ignored == ((att.attestation_id, "self-attested"),)
    assert vasset.flagged
    decision = decide(vasset, "HIGH", ConsumerPolicy.default(), frozenset(), NOW)
    assert decision.verdict is Verdict.REJECT
    assert decision.effective is AssuranceLevel.SELF_ASSERTED
    assert any("self-attested" in reason for reason in decision.reasons)


def test_publish_refuses_self_attested_attestation(provider, keys, provider_key,
                                                   make_claim, make_manifest):
    """An attestation by the claim's own provider is no independent
    assurance, so the provider does not list it at all."""
    from dataloa.assurance import AssuranceService
    from dataloa.model import Attestation

    claim = make_claim()
    self_assurer = AssuranceService(provider_key, keys, clock=lambda: NOW)
    response = self_assurer.handle_audit(claim.to_dict(), make_manifest(claim).to_dict(), 2)
    att = Attestation.from_dict(response.attestation)
    with pytest.raises(InvalidClaim, match="self-attested"):
        provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                         claim=claim, attestations=(att,))
    assert provider.catalog().assets == ()


def test_claim_from_another_provider_is_invalid(provider, consumer, keys):
    """A catalog relisting a claim that another actor signed: the claim
    verifies under its signer's key, but it is not the catalog's."""
    from dataloa.model import create_claim

    other = keys.signer_for(make_actor_id("trustline-audit"))
    claim = create_claim("wells-1", content_hash(PAYLOAD), 1, {}, other, NOW)
    assert claim.verify(keys)
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(), claim=claim)

    vasset = consumer.fetch_catalog(LocalProviderTransport(provider)).assets[0]
    assert not vasset.claim_valid
    assert vasset.flagged
    assert any("claim-provider-mismatch" in p for p in vasset.problems)
    assert _effective(vasset) is AssuranceLevel.UNASSERTED


# -- malformed negotiation responses ------------------------------------------


class _NegotiationStub(LocalProviderTransport):
    """A provider transport whose negotiation answers are replaced."""

    def __init__(self, provider, request=None, finalize=None):
        super().__init__(provider)
        self.request, self.finalize = request, finalize

    def request_negotiation(self, *args):
        real = super().request_negotiation(*args)
        return real if self.request is None else self.request

    def finalize_negotiation(self, session_id):
        real = super().finalize_negotiation(session_id)
        return real if self.finalize is None else self.finalize


@pytest.mark.parametrize("answer", [{}, [], "agreed", {"session_id": "s"},
                                    {"session_id": "s", "asset_id": "a",
                                     "consumer_id": "c", "state": "BOGUS"}])
@pytest.mark.parametrize("step_name", ["request", "finalize"])
def test_malformed_negotiation_response_is_malformed_catalog(published, consumer,
                                                             answer, step_name):
    provider, asset, _ = published
    transport = _NegotiationStub(provider, **{step_name: answer})
    vasset = consumer.fetch_catalog(transport).get(asset.asset_id)
    with pytest.raises(MalformedCatalog):
        consumer.negotiate(transport, vasset)


# -- the finalize answer ------------------------------------------------------


class _FinalizeLie(LocalProviderTransport):
    """A provider transport whose finalize answer is rewritten by ``lie``,
    given the real answer."""

    def __init__(self, provider, lie):
        super().__init__(provider)
        self.lie = lie

    def finalize_negotiation(self, session_id):
        return self.lie(super().finalize_negotiation(session_id))


@pytest.mark.parametrize("lie", ["session", "asset", "consumer", "agreement"])
def test_finalize_answer_for_another_session_is_refused(published, consumer, make_claim, lie):
    """A finalize answered with anything but the session the consumer
    verified, finalized, is not reported as finalized."""
    provider, asset, _ = published
    other_payload = b"well_id,quarter\nW-009,2026Q2\n"
    other_claim = make_claim(payload=other_payload, dataset_id="wells-2")
    provider.publish(payload=other_payload, description="", policy=default_policy(),
                     claim=other_claim)
    transport = LocalProviderTransport(provider)
    catalog = consumer.fetch_catalog(transport)
    other = consumer.negotiate(transport, catalog.get("wells-2"))
    assert other.finalized
    theirs = other.session.to_dict()
    lies = {
        "session": lambda real: theirs,
        "asset": lambda real: {**real, "asset_id": "wells-2"},
        "consumer": lambda real: {**real, "consumer_id": make_actor_id("someone-else")},
        "agreement": lambda real: {**real, "agreement": theirs["agreement"]},
    }

    outcome = consumer.negotiate(_FinalizeLie(provider, lies[lie]), catalog.get(asset.asset_id))
    assert not outcome.finalized
    assert outcome.refusal_reason == "finalize-session-mismatch"
    assert outcome.session.asset_id == asset.asset_id
    assert outcome.agreement_id != other.agreement_id
