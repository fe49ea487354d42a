"""The consumer's asset memo: a repeat fetch of an unchanged catalog line
reuses the record parsed from it and the result of its last check, as
long as the catalog header's provider_id and the public key the consumer
holds for each signer the asset names are those that check used. Any
other header or key checks the asset again, as a fresh consumer would."""

from __future__ import annotations

import contextlib
import copy
import itertools
import sys
import threading
from types import SimpleNamespace

import pytest

from dataloa import connector, model
from dataloa.connector import (
    Asset,
    ConsumerConnector,
    Permission,
    Policy,
    ProviderConnector,
    default_policy,
)
from dataloa.envelope import KeyDirectory, SignatureEnvelope, generate_keypair
from dataloa.errors import DataLoaError, MalformedCatalog
from dataloa.model import Attestation, TrustClaim
from dataloa.wire import HttpProviderTransport, LocalProviderTransport, ProviderHTTPServer

from conftest import ASSURER_ID, CONSUMER_ID, NOW, PAYLOAD, PROVIDER_ID, catalog_lines


class _StubTransport:
    """Catalog-only transport serving a fixed dict as JSON Lines."""

    def __init__(self, catalog_data):
        self.catalog_data = catalog_data

    def get_catalog(self):
        return catalog_lines(self.catalog_data)


def _fresh(keys) -> ConsumerConnector:
    return ConsumerConnector(consumer_id=CONSUMER_ID, keys=keys, clock=lambda: NOW)


def _outcome(consumer, transport):
    """The catalog a fetch returns, or the type of the error it raises."""
    try:
        return consumer.fetch_catalog(transport)
    except DataLoaError as exc:
        return type(exc)


@pytest.fixture
def attested_provider(provider, assurance, make_claim, make_manifest):
    claim = make_claim()
    response = assurance.handle_audit(claim.to_dict(), make_manifest(claim).to_dict(), 2)
    assert response.passed
    provider.publish(payload=PAYLOAD, description="well data", policy=default_policy(),
                     claim=claim, attestations=(Attestation.from_dict(response.attestation),))
    return provider


def _claim(asset):
    return asset["claim"]


def _att(asset):
    return asset["attestation_refs"][0]


def _set(path, field, value):
    def mutate(asset):
        path(asset)[field] = value
    return mutate


def _flip_char(path, field):
    def mutate(asset):
        text = path(asset)[field]
        path(asset)[field] = ("0" if text[0] != "0" else "1") + text[1:]
    return mutate


def _as_tuples(asset):
    asset["attestation_refs"] = tuple(asset["attestation_refs"])
    asset["usage_policy"]["permissions"] = tuple(asset["usage_policy"]["permissions"])


def _bump(path, field, by):
    def mutate(asset):
        path(asset)[field] += by
    return mutate


# Each mutates the one asset of a pristine catalog. Several write the
# same JSON text as another in-process value, or as the pristine asset.
MUTATIONS = {
    "pristine": lambda asset: None,
    "issued_at-1": _set(_claim, "issued_at", 1),
    "issued_at-true": _set(_claim, "issued_at", True),
    "issued_at-1.0": _set(_claim, "issued_at", 1.0),
    "issued_at-nan": _set(_claim, "issued_at", float("nan")),
    "issued_at-bumped": _bump(_claim, "issued_at", 1),
    "claim-extra-key": _set(_claim, "note", "unsigned"),
    "asset-extra-key": _set(lambda asset: asset, "extra", [1, 2]),
    "tuples-for-lists": _as_tuples,
    "level-as-plain-int": _set(_claim, "level_claimed", 2),
    "dimensions-int-key": _set(_claim, "dimensions", {1: "lab-validated"}),
    "dimensions-str-key": _set(_claim, "dimensions", {"1": "lab-validated"}),
    "claim-id-lone-surrogate": _set(_claim, "claim_id", "\ud800"),
    "attestation-id-lone-surrogate": _set(_att, "attestation_id", "\udfff"),
    "content-hash-flipped": _flip_char(_claim, "content_hash"),
    "level-assured-flipped": _set(_att, "level_assured", 3),
    "claim-hash-flipped": _flip_char(_att, "claim_hash"),
    "valid-until-bumped": _bump(_att, "valid_until", 7),
    "assurer-is-provider": _set(_att, "assurer_id", PROVIDER_ID),
    "signature-flipped": _flip_char(lambda asset: _claim(asset)["signature"], "sig"),
}


def _catalogs(provider) -> dict[str, dict]:
    pristine = provider.catalog().to_dict()
    catalogs = {}
    for name, mutate in MUTATIONS.items():
        data = copy.deepcopy(pristine)
        mutate(data["assets"][0])
        catalogs[name] = data
    return catalogs


def test_warm_fetch_equals_cold_fetch(attested_provider, keys):
    """A consumer that has fetched every catalog of the tamper set returns,
    for each, what a fresh consumer returns, or raises the same error."""
    catalogs = _catalogs(attested_provider)
    warm = _fresh(keys)
    for data in catalogs.values():
        _outcome(warm, _StubTransport(data))
    for name, data in catalogs.items():
        for _ in range(2):
            assert _outcome(warm, _StubTransport(data)) == _outcome(
                _fresh(keys), _StubTransport(data)
            ), name
    # the tamper set reaches every verdict, so the equalities above say something
    outcomes = {name: _outcome(_fresh(keys), _StubTransport(data))
                for name, data in catalogs.items()}
    assert not outcomes["pristine"].assets[0].flagged
    assert outcomes["issued_at-1"].assets[0].claim_valid is False
    assert outcomes["tuples-for-lists"] == outcomes["pristine"]
    assert outcomes["level-as-plain-int"] == outcomes["pristine"]
    assert outcomes["claim-extra-key"] == outcomes["pristine"]
    assert outcomes["level-assured-flipped"].assets[0].ignored
    for name in ("issued_at-true", "issued_at-1.0", "issued_at-nan",
                 "dimensions-int-key", "dimensions-str-key",
                 "claim-id-lone-surrogate", "attestation-id-lone-surrogate"):
        assert outcomes[name] is MalformedCatalog, name


def test_line_nested_too_deep_is_malformed(attested_provider, consumer):
    header, asset, _ = attested_provider.catalog().public_lines().split(b"\n")
    deep = b"[" * 100_000 + b"]" * 100_000
    line = asset.replace(b'"well data"', deep)
    assert line != asset
    transport = SimpleNamespace(get_catalog=lambda: header + b"\n" + line)
    for _ in range(2):
        with pytest.raises(MalformedCatalog):
            consumer.fetch_catalog(transport)


def _count_parses(monkeypatch) -> list[str]:
    calls: list[str] = []
    for cls in (Asset, Policy, Permission, TrustClaim, Attestation, SignatureEnvelope):
        real = cls.from_dict

        def counting(owner, data, real=real):
            calls.append(owner.__name__)
            return real(data)

        monkeypatch.setattr(cls, "from_dict", classmethod(counting))
    return calls


@pytest.mark.parametrize("mode", ["local", "http"])
def test_repeat_fetch_of_unchanged_catalog_parses_nothing(monkeypatch, attested_provider,
                                                          consumer, mode):
    calls = _count_parses(monkeypatch)
    with ProviderHTTPServer(attested_provider) as server, \
            HttpProviderTransport(server.base_url) as http:
        transport = http if mode == "http" else LocalProviderTransport(attested_provider)
        first = consumer.fetch_catalog(transport)
        assert "Asset" in calls and "TrustClaim" in calls and "Attestation" in calls
        calls.clear()
        second = consumer.fetch_catalog(transport)
    assert calls == []
    assert second == first
    assert not second.assets[0].flagged


def test_key_changes_count_on_a_warm_fetch(attested_provider, keys):
    """Adding, removing or replacing a signer's key moves claim_valid and
    the valid attestations as it would for a fresh consumer."""
    transport = LocalProviderTransport(attested_provider)
    public = {actor: keys.signer_for(actor).public_only() for actor in (PROVIDER_ID, ASSURER_ID)}
    directories = [
        KeyDirectory({ASSURER_ID: public[ASSURER_ID]}),
        KeyDirectory(public),
        KeyDirectory({PROVIDER_ID: public[PROVIDER_ID]}),
        KeyDirectory({**public, PROVIDER_ID: generate_keypair(PROVIDER_ID).public_only()}),
        KeyDirectory(public),
    ]
    warm = _fresh(directories[0])
    seen = []
    for directory in directories:
        warm.keys = directory
        catalog = warm.fetch_catalog(transport)
        assert catalog == _fresh(directory).fetch_catalog(transport)
        vasset = catalog.assets[0]
        seen.append((vasset.claim_valid, len(vasset.valid_attestations)))
    assert seen == [(False, 1), (True, 1), (True, 0), (False, 1), (True, 1)]

    # the same, adding the key to the directory the consumer already holds
    directory = KeyDirectory({ASSURER_ID: public[ASSURER_ID]})
    warm = _fresh(directory)
    assert not warm.fetch_catalog(transport).assets[0].claim_valid
    directory.add(public[PROVIDER_ID])
    assert warm.fetch_catalog(transport).assets[0].claim_valid


def _count_verifies(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = model.verify_payload

    def counting(payload, envelope, public_hex):
        calls.append(envelope.key_id)
        return real(payload, envelope, public_hex)

    monkeypatch.setattr(model, "verify_payload", counting)
    return calls


def test_warm_fetch_of_unchanged_catalog_verifies_nothing(monkeypatch, attested_provider,
                                                          consumer):
    calls = _count_verifies(monkeypatch)
    transport = LocalProviderTransport(attested_provider)
    first = consumer.fetch_catalog(transport)
    assert sorted(calls) == sorted([PROVIDER_ID, ASSURER_ID])
    calls.clear()
    for _ in range(2):
        assert consumer.fetch_catalog(transport) == first
    assert calls == []
    assert not first.assets[0].flagged


def test_same_line_under_another_header_is_checked_again(monkeypatch, attested_provider,
                                                         consumer, keys):
    """The line a warm consumer verified under its provider's header is
    flagged claim-provider-mismatch under another provider_id, as a fresh
    consumer flags it; that result is then the one remembered."""
    header, asset, _ = attested_provider.catalog().public_lines().split(b"\n")
    assert not consumer.fetch_catalog(LocalProviderTransport(attested_provider)).assets[0].flagged
    other = header.replace(PROVIDER_ID.encode(), b"urn:actor:other")
    assert other != header
    transport = SimpleNamespace(get_catalog=lambda: other + b"\n" + asset + b"\n")
    warm = consumer.fetch_catalog(transport)
    assert warm == _fresh(keys).fetch_catalog(transport)
    vasset = warm.assets[0]
    assert vasset.provider_id == "urn:actor:other"
    assert not vasset.claim_valid
    assert "claim-provider-mismatch" in vasset.problems[0]
    calls = _count_verifies(monkeypatch)
    assert consumer.fetch_catalog(transport) == warm
    assert calls == []


def test_key_replaced_in_the_held_directory_is_checked_again(monkeypatch, attested_provider,
                                                             keys):
    """A replacement assurer key added to the very KeyDirectory the
    consumer holds makes the attestation fail on the next warm fetch."""
    transport = LocalProviderTransport(attested_provider)
    directory = KeyDirectory({actor: keys.signer_for(actor).public_only()
                              for actor in (PROVIDER_ID, ASSURER_ID)})
    warm = _fresh(directory)
    assert len(warm.fetch_catalog(transport).assets[0].valid_attestations) == 1
    directory.add(generate_keypair(ASSURER_ID).public_only())
    catalog = warm.fetch_catalog(transport)
    assert catalog == _fresh(directory).fetch_catalog(transport)
    vasset = catalog.assets[0]
    assert vasset.claim_valid
    assert vasset.valid_attestations == ()
    assert [cause for _, cause in vasset.ignored] == ["signature-invalid"]
    calls = _count_verifies(monkeypatch)
    assert warm.fetch_catalog(transport) == catalog
    assert calls == []


def test_memo_holds_at_most_its_bound(monkeypatch, provider, keys, make_claim):
    monkeypatch.setattr(connector, "PARSED_ASSETS_SIZE", 3)
    consumer = _fresh(keys)
    transport = LocalProviderTransport(provider)
    for index in range(6):
        claim = make_claim(dataset_id=f"wells-{index}")
        provider.publish(payload=PAYLOAD, description=f"set {index}",
                         policy=default_policy(), claim=claim)
        for _ in range(2):
            catalog = consumer.fetch_catalog(transport)
            assert len(consumer._parsed) <= 3
            assert catalog == _fresh(keys).fetch_catalog(transport)
            assert len(catalog.assets) == index + 1
            assert not any(vasset.flagged for vasset in catalog.assets)


def test_threads_sharing_a_consumer_get_equal_catalogs(monkeypatch, provider, keys,
                                                       make_claim):
    """Three threads fetch through one consumer whose memo is too small
    for the catalog, with thread switches forced often, and all get the
    catalog a fresh consumer gets."""
    monkeypatch.setattr(connector, "PARSED_ASSETS_SIZE", 2)
    for index in range(3):
        provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                         claim=make_claim(dataset_id=f"wells-{index}"))
    transport = LocalProviderTransport(provider)
    expected = _fresh(keys).fetch_catalog(transport)
    consumer = _fresh(keys)
    start = threading.Barrier(3)
    results: list = []

    def fetch() -> None:
        start.wait(timeout=5)
        for _ in range(5):
            results.append(consumer.fetch_catalog(transport))

    threads = [threading.Thread(target=fetch) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 15
    assert all(catalog == expected for catalog in results)
    assert len(consumer._parsed) <= 2


@contextlib.contextmanager
def _serving(provider, monkeypatch, mode):
    """A transport to provider, in process or over HTTP, and a list whose
    one item is the catalog body that provider serves."""
    served = [provider.catalog().public_lines()]
    monkeypatch.setattr(provider, "catalog", lambda: SimpleNamespace(public_lines=lambda: served[0]))
    if mode == "local":
        yield LocalProviderTransport(provider), served
        return
    with ProviderHTTPServer(provider) as server, HttpProviderTransport(server.base_url) as http:
        yield http, served


@pytest.mark.parametrize("mode", ["local", "http"])
def test_repeat_fetch_of_unchanged_lines_reads_no_line(monkeypatch, provider, keys, make_claim,
                                                       mode):
    """A repeat fetch of the same asset lines under a fresh header returns
    the kept assets under that header, having split and looked up no
    line."""
    ticking = ProviderConnector(provider.provider_key, keys, clock=itertools.count(NOW).__next__)
    for index in range(3):
        ticking.publish(payload=PAYLOAD, description="", policy=default_policy(),
                        claim=make_claim(dataset_id=f"wells-{index}"))
    read: list[bytes] = []
    real = ConsumerConnector._parse_asset
    monkeypatch.setattr(ConsumerConnector, "_parse_asset",
                        lambda self, line: read.append(line) or real(self, line))
    consumer = _fresh(keys)
    with contextlib.ExitStack() as stack:
        transport = LocalProviderTransport(ticking)
        if mode == "http":
            server = stack.enter_context(ProviderHTTPServer(ticking))
            transport = stack.enter_context(HttpProviderTransport(server.base_url))
        first = consumer.fetch_catalog(transport)
        assert len(read) == 3
        read.clear()
        again = [consumer.fetch_catalog(transport) for _ in range(2)]
    assert read == []
    assert [c.issued_at for c in again] == [first.issued_at + 1, first.issued_at + 2]
    assert all(c.assets == first.assets and c.provider_id == PROVIDER_ID for c in again)
    assert not any(vasset.flagged for vasset in first.assets)


@pytest.mark.parametrize("mode", ["local", "http"])
def test_kept_catalog_is_not_reused_when_an_input_changes(monkeypatch, attested_provider, keys,
                                                          mode):
    """One changed byte in a line, another header provider_id, or an
    added, removed or replaced signer key each gives what a fresh
    consumer gets; the pristine catalog then comes back unflagged."""
    header, asset, _ = attested_provider.catalog().public_lines().split(b"\n")
    pristine = header + b"\n" + asset + b"\n"
    public = {actor: keys.signer_for(actor).public_only() for actor in (PROVIDER_ID, ASSURER_ID)}
    other_provider = {**public, PROVIDER_ID: generate_keypair(PROVIDER_ID).public_only()}
    changes = [
        # (body, the consumer's keys, (description, claim_valid, valid attestations))
        (pristine.replace(b"well data", b"well dbta"), public, ("well dbta", True, 1)),
        (pristine.replace(PROVIDER_ID.encode(), b"urn:actor:other", 1), public,
         ("well data", False, 1)),
        (pristine, {ASSURER_ID: public[ASSURER_ID]}, ("well data", False, 1)),
        (pristine, {PROVIDER_ID: public[PROVIDER_ID]}, ("well data", True, 0)),
        (pristine, other_provider, ("well data", False, 1)),
        (pristine, {**public, ASSURER_ID: generate_keypair(ASSURER_ID).public_only()},
         ("well data", True, 0)),
    ]
    warm = _fresh(KeyDirectory(public))
    with _serving(attested_provider, monkeypatch, mode) as (transport, served):
        for body, directory, seen in changes:
            served[0], warm.keys = pristine, KeyDirectory(public)
            assert not warm.fetch_catalog(transport).assets[0].flagged
            served[0], warm.keys = body, KeyDirectory(directory)
            for _ in range(2):
                catalog = warm.fetch_catalog(transport)
                assert catalog == _fresh(KeyDirectory(directory)).fetch_catalog(transport)
                vasset = catalog.assets[0]
                assert (vasset.asset.description, vasset.claim_valid,
                        len(vasset.valid_attestations)) == seen
        # a key added to the very directory the consumer holds
        served[0], warm.keys = pristine, KeyDirectory({ASSURER_ID: public[ASSURER_ID]})
        assert not warm.fetch_catalog(transport).assets[0].claim_valid
        warm.keys.add(public[PROVIDER_ID])
        assert warm.fetch_catalog(transport).assets[0].claim_valid
