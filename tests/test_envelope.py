"""Hashing, signing, key files, and the key directory."""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataloa import envelope as envelope_module
from dataloa.connector import ConsumerConnector, default_policy
from dataloa.envelope import (
    VERIFIED_CACHE_SIZE,
    KeyDirectory,
    KeyPair,
    SignatureEnvelope,
    canonicalize,
    content_hash,
    derived_id,
    generate_keypair,
    load_key_file,
    save_key_files,
    sign_payload,
    verify_payload,
)
from dataloa.errors import NonCanonicalizable, SigningFailure, UnknownAlgorithm
from dataloa.model import Attestation, create_claim

from conftest import NOW, PAYLOAD, PROVIDER_ID, catalog_lines

SAMPLE = bytes(range(64))


def test_content_hash_is_deterministic():
    assert content_hash(SAMPLE) == content_hash(SAMPLE)


def test_single_bit_flip_changes_hash():
    flipped = bytes([SAMPLE[0] ^ 0x01]) + SAMPLE[1:]
    assert content_hash(SAMPLE) != content_hash(flipped)


def test_hash_is_lowercase_hex():
    digest = content_hash(SAMPLE)
    assert len(digest) == 64
    assert digest == digest.lower()
    int(digest, 16)


def test_sign_verify_round_trip():
    kp = generate_keypair("urn:actor:p")
    payload = {"claim_id": "c-1", "level_claimed": 2}
    envelope = sign_payload(payload, kp)
    assert envelope.alg == "ed25519"
    assert envelope.key_id == "urn:actor:p"
    assert verify_payload(payload, envelope, kp.public) is True


def test_verify_fails_on_payload_mutation():
    kp = generate_keypair("urn:actor:p")
    payload = {"claim_id": "c-1", "issued_at": 1000}
    envelope = sign_payload(payload, kp)
    assert verify_payload({"claim_id": "c-1", "issued_at": 1001}, envelope, kp.public) is False


def test_verify_accepts_the_canonical_bytes(ed25519_calls):
    kp = generate_keypair("urn:actor:p")
    payload = {"claim_id": "c-1", "level_claimed": 2}
    envelope = sign_payload(payload, kp)
    assert verify_payload(canonicalize(payload), envelope, kp.public) is True
    assert verify_payload(payload, envelope, kp.public) is True
    assert ed25519_calls == [True]  # one cache entry for both forms
    assert verify_payload(json.dumps(payload).encode(), envelope, kp.public) is False
    with pytest.raises(NonCanonicalizable):
        canonicalize(canonicalize(payload))


def test_verify_fails_on_signature_byte_flip():
    kp = generate_keypair("urn:actor:p")
    payload = {"n": 7}
    envelope = sign_payload(payload, kp)
    sig = bytearray(bytes.fromhex(envelope.sig))
    sig[0] ^= 0x01
    tampered = SignatureEnvelope(alg=envelope.alg, key_id=envelope.key_id, sig=sig.hex())
    assert verify_payload(payload, tampered, kp.public) is False


def test_verify_fails_under_wrong_key():
    kp = generate_keypair("urn:actor:p")
    other = generate_keypair("urn:actor:q")
    envelope = sign_payload({"n": 7}, kp)
    assert verify_payload({"n": 7}, envelope, other.public) is False


def test_verify_is_false_not_error_on_garbage_sig():
    kp = generate_keypair("urn:actor:p")
    bogus = SignatureEnvelope(alg="ed25519", key_id=kp.key_id, sig="zz-not-hex")
    assert verify_payload({"n": 7}, bogus, kp.public) is False


def test_unknown_algorithm_raises():
    kp = generate_keypair("urn:actor:p")
    envelope = sign_payload({"n": 7}, kp)
    alien = SignatureEnvelope(alg="rot13", key_id=kp.key_id, sig=envelope.sig)
    with pytest.raises(UnknownAlgorithm):
        verify_payload({"n": 7}, alien, kp.public)


def test_signing_without_secret_raises():
    kp = generate_keypair("urn:actor:p").public_only()
    with pytest.raises(SigningFailure):
        sign_payload({"n": 7}, kp)


def test_signature_is_deterministic():
    kp = generate_keypair("urn:actor:p")
    payload = {"a": 1, "b": [2, 3]}
    assert sign_payload(payload, kp).sig == sign_payload(payload, kp).sig


@settings(max_examples=100)
@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.integers(min_value=0, max_value=10**9),
                       min_size=1, max_size=5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_signature_soundness_random_payloads(payload, seed):
    kp = generate_keypair("urn:actor:prop")
    envelope = sign_payload(payload, kp)
    assert verify_payload(payload, envelope, kp.public)
    key = sorted(payload)[seed % len(payload)]
    mutated = dict(payload)
    mutated[key] = payload[key] + 1
    assert verify_payload(mutated, envelope, kp.public) is False


def test_key_files_round_trip(tmp_path):
    kp = generate_keypair("urn:actor:p")
    private_path, public_path = save_key_files(kp, tmp_path, "p")
    assert load_key_file(private_path) == kp
    pub = load_key_file(public_path)
    assert pub.secret is None
    assert pub.public == kp.public
    assert "secret" not in json.loads(public_path.read_text())


def test_key_directory_prefers_secret_bearing_entry(tmp_path):
    kp = generate_keypair("urn:actor:p")
    save_key_files(kp, tmp_path, "p")
    loaded = KeyDirectory.load(tmp_path)
    assert loaded.signer_for("urn:actor:p").secret == kp.secret
    assert loaded.public_key_for("urn:actor:p") == kp.public


def test_key_directory_signer_requires_secret():
    directory = KeyDirectory()
    directory.add(generate_keypair("urn:actor:p").public_only())
    with pytest.raises(SigningFailure):
        directory.signer_for("urn:actor:p")


def test_key_directory_unknown_actor():
    directory = KeyDirectory()
    assert directory.public_key_for("urn:actor:nobody") is None
    assert "urn:actor:nobody" not in directory


def test_keypair_to_dict_omits_missing_secret():
    kp = KeyPair(key_id="urn:actor:p", alg="ed25519", public="ab" * 32)
    assert "secret" not in kp.to_dict()


def test_derived_ids_are_stable_and_content_bound():
    a = derived_id("claim", {"x": 1})
    b = derived_id("claim", {"x": 1})
    c = derived_id("claim", {"x": 2})
    d = derived_id("session", {"x": 1})
    assert a == b
    assert a != c
    assert a != d


# -- verified-signature cache ----------------------------------------------


@pytest.fixture
def ed25519_calls(monkeypatch):
    """Results of every call into the Ed25519 check, in order."""
    calls: list[bool] = []
    real = envelope_module._ed25519_verify

    def counting(public_hex, message, sig_hex):
        valid = real(public_hex, message, sig_hex)
        calls.append(valid)
        return valid

    monkeypatch.setattr(envelope_module, "_ed25519_verify", counting)
    return calls


def _flip_first_byte(sig_hex: str) -> str:
    return ("0" if sig_hex[0] != "0" else "1") + sig_hex[1:]


def test_cached_success_does_not_cover_mutations(ed25519_calls):
    kp = generate_keypair("urn:actor:p")
    other = generate_keypair("urn:actor:q")
    payload = {"claim_id": "c-1", "level_claimed": 2}
    env = sign_payload(payload, kp)
    twin = SignatureEnvelope(alg="ed25519-twin", key_id=env.key_id, sig=env.sig)
    with pytest.raises(UnknownAlgorithm):
        verify_payload(payload, twin, kp.public)
    assert verify_payload(payload, env, kp.public) is True
    assert verify_payload(payload, env, kp.public) is True
    assert ed25519_calls == [True]

    flipped = SignatureEnvelope(alg=env.alg, key_id=env.key_id, sig=_flip_first_byte(env.sig))
    assert verify_payload({"claim_id": "c-1", "level_claimed": 3}, env, kp.public) is False
    assert verify_payload(payload, flipped, kp.public) is False
    assert verify_payload(payload, env, other.public) is False
    # bytes moved across the boundary between key and signature
    shifted = SignatureEnvelope(alg=env.alg, key_id=env.key_id, sig=env.sig[2:])
    assert verify_payload(payload, shifted, kp.public + env.sig[:2]) is False
    # the cached ed25519 success does not answer for another algorithm
    with pytest.raises(UnknownAlgorithm):
        verify_payload(payload, twin, kp.public)


def test_cache_key_fields_cannot_shift():
    key = envelope_module._VerifiedCache.key
    assert key("ed25519", "ab", "cd", b"m") != key("ed25519", "abc", "d", b"m")
    assert key("ed25519", "ab", "cd", b"m") != key("ed25519", 'ab","cd', "", b"m")
    assert key("ed25519", "ab", "cd", b"m") != key("ed25519", "ab", "cd", b"n")


def test_failing_signature_is_remembered_once(monkeypatch, ed25519_calls):
    """A remembered failure answers False for the same four inputs and
    never turns into a success; a change to any of them is a miss."""
    monkeypatch.setattr(envelope_module, "_VERIFIED",
                        envelope_module._VerifiedCache(VERIFIED_CACHE_SIZE))
    kp = generate_keypair("urn:actor:p")
    other = generate_keypair("urn:actor:q")
    payload = {"n": 7}
    env = sign_payload(payload, kp)
    forged = SignatureEnvelope(alg=env.alg, key_id=env.key_id, sig=_flip_first_byte(env.sig))
    for _ in range(3):
        assert verify_payload(payload, forged, kp.public) is False
    assert ed25519_calls == [False]

    ed25519_calls.clear()
    assert verify_payload(payload, env, kp.public) is True  # signature
    assert verify_payload({"n": 8}, forged, kp.public) is False  # message
    assert verify_payload(payload, forged, other.public) is False  # key
    assert ed25519_calls == [True, False, False]
    twin = SignatureEnvelope(alg="ed25519-twin", key_id=env.key_id, sig=env.sig)
    with pytest.raises(UnknownAlgorithm):  # algorithm
        verify_payload(payload, twin, kp.public)

    ed25519_calls.clear()
    for _ in range(2):
        assert verify_payload(payload, forged, kp.public) is False
        assert verify_payload(payload, env, kp.public) is True
        with pytest.raises(UnknownAlgorithm):
            verify_payload(payload, twin, kp.public)
    assert ed25519_calls == []


def test_malformed_payload_raises_on_a_cached_signature():
    kp = generate_keypair("urn:actor:p")
    env = sign_payload({"n": 7}, kp)
    assert verify_payload({"n": 7}, env, kp.public)
    with pytest.raises(NonCanonicalizable):
        verify_payload({"n": 7.0}, env, kp.public)


def test_cache_evicts_least_recently_used():
    cache = envelope_module._VerifiedCache(4)
    keys = [bytes([i]) * 32 for i in range(10)]
    for i, key in enumerate(keys):
        cache.add(key)
        assert len(cache) == min(i + 1, 4)
        assert cache.hit(keys[0])  # a hit keeps it
    assert [k for k in keys if cache.hit(k)] == [keys[0], *keys[7:]]


def test_verify_cache_stays_within_its_bound(monkeypatch, ed25519_calls):
    assert len(envelope_module._VERIFIED) <= VERIFIED_CACHE_SIZE
    monkeypatch.setattr(envelope_module, "_VERIFIED", envelope_module._VerifiedCache(3))
    kp = generate_keypair("urn:actor:p")
    signed = [({"n": n}, sign_payload({"n": n}, kp)) for n in range(5)]
    for payload, env in signed:
        assert verify_payload(payload, env, kp.public)
        assert len(envelope_module._VERIFIED) <= 3
    # the two oldest were evicted and are checked in full again
    for payload, env in signed:
        assert verify_payload(payload, env, kp.public)
    assert len(ed25519_calls) == 10


def test_verify_cache_under_thread_contention():
    cache = envelope_module._VerifiedCache(64)
    per_thread = 400

    def worker(t):
        for i in range(per_thread):
            key = t.to_bytes(2, "big") + i.to_bytes(30, "big")
            cache.add(key)
            cache.hit(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(cache) == 64
    assert len(list(cache._keys)) == 64


class _FixedCatalog:
    def __init__(self, data):
        self.data = data

    def get_catalog(self):
        return catalog_lines(self.data)


def test_repeat_catalog_fetch_skips_valid_signatures(
    monkeypatch, ed25519_calls, provider, keys, assurance, make_claim, make_manifest
):
    good = make_claim(dataset_id="good")
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(), claim=good)
    attested = make_claim(dataset_id="attested")
    att = assurance.handle_audit(attested.to_dict(), make_manifest(attested).to_dict(), 2).attestation
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(), claim=attested,
                     attestations=(Attestation.from_dict(att),))
    data = provider.catalog().to_dict()
    forged_att = {**att, "signature": {**att["signature"], "sig": _flip_first_byte(att["signature"]["sig"])}}
    data["assets"].append({**data["assets"][0], "asset_id": "forged", "attestation_refs": [forged_att]})
    shadow = create_claim(
        dataset_id="shadowed", payload_hash=content_hash(PAYLOAD), level=1,
        dimensions={"quality": "lab-validated"},
        provider_key=generate_keypair(PROVIDER_ID), issued_at=NOW,
    )
    data["assets"].append({**data["assets"][0], "asset_id": "shadowed", "claim": shadow.to_dict(),
                           "attestation_refs": []})
    consumer = ConsumerConnector("urn:actor:consumer", keys, clock=lambda: NOW)
    transport = _FixedCatalog(data)

    monkeypatch.setattr(envelope_module, "_VERIFIED",
                        envelope_module._VerifiedCache(VERIFIED_CACHE_SIZE))
    ed25519_calls.clear()
    cold = consumer.fetch_catalog(transport)
    assert sorted(ed25519_calls) == [False, False, True, True, True]
    ed25519_calls.clear()
    warm = consumer.fetch_catalog(transport)
    assert ed25519_calls == []
    assert warm == cold
    for catalog in (cold, warm):
        assert {a.asset.asset_id for a in catalog.assets if a.flagged} == {"forged", "shadowed"}
        assert catalog.get("forged").ignored[0][1] == "signature-invalid"
        assert not catalog.get("shadowed").claim_valid
