"""Claims, manifests, attestations, and the effective-level algebra."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataloa.connector import Agreement
from dataloa.envelope import (
    KeyDirectory,
    SignatureEnvelope,
    canonicalize,
    content_hash,
    generate_keypair,
    hash_of,
    verify_payload,
)
from dataloa.model import (
    DIMENSION_NAMES,
    AssuranceLevel,
    Attestation,
    EvidenceArtifact,
    EvidenceManifest,
    TrustClaim,
    build_manifest,
    create_claim,
    effective_level,
    make_actor_id,
    validate_dimensions,
)

from conftest import ASSURER_ID, NOW, PAYLOAD


def _attestation(claim, level=2, valid_from=NOW - 100, valid_until=NOW + 100,
                 attestation_id=None):
    """Well-formed attestation without a real signature; effective_level
    trusts its caller to have verified signatures already."""
    return Attestation(
        attestation_id=attestation_id or f"att-{level}-{valid_from}-{valid_until}",
        claim_hash=claim.canonical_hash(),
        level_assured=AssuranceLevel.from_value(level),
        assurer_id=ASSURER_ID,
        evidence_manifest_hash="ab" * 32,
        valid_from=valid_from,
        valid_until=valid_until,
        signature=SignatureEnvelope(alg="ed25519", key_id=ASSURER_ID, sig="00" * 64),
    )


# -- levels -----------------------------------------------------------------


def test_level_ordinals():
    assert [int(l) for l in AssuranceLevel] == [0, 1, 2, 3]
    assert AssuranceLevel.UNASSERTED < AssuranceLevel.SELF_ASSERTED
    assert AssuranceLevel.AUDITED < AssuranceLevel.AUDITED_HIGH


@pytest.mark.parametrize("value,expected", [
    (0, AssuranceLevel.UNASSERTED),
    (3, AssuranceLevel.AUDITED_HIGH),
    ("AUDITED", AssuranceLevel.AUDITED),
    ("self_asserted", AssuranceLevel.SELF_ASSERTED),
    (AssuranceLevel.AUDITED, AssuranceLevel.AUDITED),
])
def test_level_from_value(value, expected):
    assert AssuranceLevel.from_value(value) is expected


@pytest.mark.parametrize("bad", [-1, 4, "PLATINUM", True, None])
def test_level_from_value_rejects(bad):
    with pytest.raises(ValueError):
        AssuranceLevel.from_value(bad)


# -- dimensions and actors --------------------------------------------------


def test_actor_id_is_urn():
    assert make_actor_id("aquifer-labs") == "urn:actor:aquifer-labs"


def test_dimensions_restricted_to_known_names():
    ok = validate_dimensions({"quality": "q", "security": "s"})
    assert ok == {"quality": "q", "security": "s"}
    with pytest.raises(ValueError):
        validate_dimensions({"vibes": "good"})


# -- claims -----------------------------------------------------------------


def test_create_claim_signs_and_verifies(make_claim, keys):
    claim = make_claim(level=2)
    public = keys.public_key_for(claim.provider_id)
    assert verify_payload(claim.signing_payload(), claim.signature, public)
    assert claim.content_hash == content_hash(PAYLOAD)


def test_claim_level_must_be_at_least_self_asserted(make_claim):
    with pytest.raises(ValueError):
        make_claim(level=0)


def test_claim_id_is_content_derived(make_claim):
    assert make_claim(level=2).claim_id == make_claim(level=2).claim_id
    assert make_claim(level=2).claim_id != make_claim(level=3).claim_id


def test_claim_round_trips_through_dict(make_claim):
    claim = make_claim()
    assert TrustClaim.from_dict(claim.to_dict()) == claim


def test_claim_canonical_hash_excludes_signature(make_claim, keys, provider_key):
    claim = make_claim()
    resigned = TrustClaim.from_dict(
        {**claim.to_dict(),
         "signature": {"alg": "ed25519", "key_id": provider_key.key_id, "sig": "11" * 64}}
    )
    assert resigned.canonical_hash() == claim.canonical_hash()


def test_claim_canonical_bytes_are_the_signed_message(make_claim, keys):
    claim = make_claim()
    assert claim.canonical_bytes == canonicalize(claim.signing_payload())
    assert claim.canonical_hash() == hash_of(claim.signing_payload())
    assert verify_payload(
        claim.canonical_bytes, claim.signature, keys.public_key_for(claim.provider_id)
    )


def test_claim_rejects_bad_content_hash(provider_key):
    with pytest.raises(ValueError):
        create_claim(
            dataset_id="d", payload_hash="nothex", level=1, dimensions={},
            provider_key=provider_key, issued_at=NOW,
        )


# -- manifests --------------------------------------------------------------


def test_manifest_requires_artifacts(make_claim):
    claim = make_claim()
    with pytest.raises(ValueError):
        build_manifest(claim_id=claim.claim_id, artifacts=(), created_at=NOW)


def test_manifest_kinds(make_claim, make_manifest):
    manifest = make_manifest(make_claim(), kinds=("quality-report", "provenance-record"))
    assert manifest.kinds() == {"quality-report", "provenance-record"}
    assert EvidenceManifest.from_dict(manifest.to_dict()) == manifest


def test_artifact_hash_must_be_hex():
    with pytest.raises(ValueError):
        EvidenceArtifact(kind="quality-report", content_hash="xyz")


# -- attestations -----------------------------------------------------------


def test_attestation_level_must_be_audited(make_claim):
    claim = make_claim()
    with pytest.raises(ValueError):
        _attestation(claim, level=1)
    with pytest.raises(ValueError):
        _attestation(claim, level=0)


def test_attestation_window_must_be_ordered(make_claim):
    claim = make_claim()
    with pytest.raises(ValueError):
        _attestation(claim, valid_from=NOW, valid_until=NOW)


def test_attestation_window_is_inclusive(make_claim):
    att = _attestation(make_claim(), valid_from=100, valid_until=200)
    assert att.valid_at(100)
    assert att.valid_at(200)
    assert not att.valid_at(99)
    assert not att.valid_at(201)


def test_attestation_round_trips_through_dict(make_claim):
    att = _attestation(make_claim())
    assert Attestation.from_dict(att.to_dict()) == att


# -- effective level: mandated examples -------------------------------------


def test_no_claim_is_unasserted():
    assert effective_level(None, [], frozenset(), NOW) is AssuranceLevel.UNASSERTED


def test_no_claim_ignores_attestations(make_claim):
    att = _attestation(make_claim(), level=3)
    assert effective_level(None, [att], frozenset(), NOW) is AssuranceLevel.UNASSERTED


def test_claim_without_attestation_is_self_asserted(make_claim):
    claim = make_claim(level=2)
    assert effective_level(claim, [], frozenset(), NOW) is AssuranceLevel.SELF_ASSERTED


def test_valid_level2_beats_expired_level3(make_claim):
    claim = make_claim(level=3)
    a = _attestation(claim, level=2, valid_from=NOW - 10, valid_until=NOW + 10)
    b = _attestation(claim, level=3, valid_from=NOW - 100, valid_until=NOW - 50)
    assert effective_level(claim, [a, b], frozenset(), NOW) is AssuranceLevel.AUDITED


def test_attested_level_capped_by_claimed(make_claim):
    claim = make_claim(level=2)
    att = _attestation(claim, level=3)
    assert effective_level(claim, [att], frozenset(), NOW) is AssuranceLevel.AUDITED


def test_revocation_drops_to_self_asserted(make_claim):
    claim = make_claim(level=3)
    att = _attestation(claim, level=3, attestation_id="att-x")
    assert effective_level(claim, [att], frozenset(), NOW) is AssuranceLevel.AUDITED_HIGH
    assert effective_level(claim, [att], frozenset({"att-x"}), NOW) \
        is AssuranceLevel.SELF_ASSERTED


# -- effective level: properties against an independent oracle --------------


def _oracle(claim, attestations, revoked, now) -> int:
    """Filter usable attestations, cap each at the claimed level, take
    the max; stated as literally as possible."""
    if claim is None:
        return 0
    usable = [
        a for a in attestations
        if a.attestation_id not in revoked and a.valid_from <= now <= a.valid_until
    ]
    capped = [min(int(a.level_assured), int(claim.level_claimed)) for a in usable]
    return max([1] + capped)


# One keypair shared by all property examples; claims are cached per
# level so hypothesis cases stay cheap.
_PROP_KEY = generate_keypair(make_actor_id("aquifer-labs"))
_PROP_CLAIMS = {
    level: create_claim(
        dataset_id="d", payload_hash=content_hash(PAYLOAD), level=level,
        dimensions={}, provider_key=_PROP_KEY, issued_at=NOW,
    )
    for level in (1, 2, 3)
}

att_params = st.lists(
    st.tuples(
        st.sampled_from([2, 3]),                         # level_assured
        st.integers(min_value=-200, max_value=199),      # valid_from offset
        st.integers(min_value=0, max_value=400),         # window length - 1
        st.booleans(),                                   # revoked
    ),
    max_size=4,
)


def _build_case(claim_level, params):
    claim = _PROP_CLAIMS[claim_level]
    attestations = []
    revoked = set()
    for i, (level, start, length, is_revoked) in enumerate(params):
        att = _attestation(
            claim, level=level,
            valid_from=NOW + start, valid_until=NOW + start + length + 1,
            attestation_id=f"att-{i}",
        )
        attestations.append(att)
        if is_revoked:
            revoked.add(att.attestation_id)
    return claim, attestations, frozenset(revoked)


@settings(max_examples=300)
@given(claim_level=st.sampled_from([1, 2, 3]), params=att_params)
def test_matches_filter_then_max_oracle(claim_level, params):
    claim, attestations, revoked = _build_case(claim_level, params)
    got = effective_level(claim, attestations, revoked, NOW)
    assert int(got) == _oracle(claim, attestations, revoked, NOW)


@settings(max_examples=200)
@given(claim_level=st.sampled_from([1, 2, 3]), params=att_params,
       extra_level=st.sampled_from([2, 3]))
def test_adding_valid_attestation_never_decreases(claim_level, params, extra_level):
    claim, attestations, revoked = _build_case(claim_level, params)
    before = effective_level(claim, attestations, revoked, NOW)
    extra = _attestation(claim, level=extra_level, attestation_id="att-extra")
    after = effective_level(claim, attestations + [extra], revoked, NOW)
    assert after >= before


@settings(max_examples=200)
@given(claim_level=st.sampled_from([1, 2, 3]), params=att_params)
def test_cap_and_subset_properties(claim_level, params):
    claim, attestations, revoked = _build_case(claim_level, params)
    full = effective_level(claim, attestations, revoked, NOW)
    assert full <= claim.level_claimed
    for cut in range(len(attestations) + 1):
        subset = effective_level(claim, attestations[:cut], revoked, NOW)
        assert subset <= full


@settings(max_examples=100)
@given(claim_level=st.sampled_from([1, 2, 3]), params=att_params)
def test_revoking_everything_dominates(claim_level, params):
    claim, attestations, _ = _build_case(claim_level, params)
    all_revoked = frozenset(a.attestation_id for a in attestations)
    assert effective_level(claim, attestations, all_revoked, NOW) \
        is AssuranceLevel.SELF_ASSERTED
    assert effective_level(None, attestations, frozenset(), NOW) \
        is AssuranceLevel.UNASSERTED


# -- records encode their own canonical bytes --------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = _JSON | st.dictionaries(
    st.sampled_from(sorted(DIMENSION_NAMES)), _JSON, max_size=2
)
_VALID = {
    TrustClaim: _PROP_CLAIMS[2].to_dict(),
    Attestation: _attestation(_PROP_CLAIMS[2]).to_dict(),
    Agreement: Agreement(
        agreement_id="agr", asset_id="d", consumer_id="c", provider_id="p",
        policy_hash="11" * 32, claim_hash="22" * 32, agreed_at=NOW,
        signature=SignatureEnvelope(alg="ed25519", key_id="p", sig="00" * 64),
    ).to_dict(),
}
_DROP = object()


def _records(cls):
    """Any JSON value or, three times as often, a valid ``cls`` record
    with up to two fields replaced by a string, an integer, a float, any
    JSON value, or dropped."""
    valid = _VALID[cls]
    value = st.sampled_from(
        [st.text(max_size=4), st.integers(), st.floats(), _FIELD_VALUES, st.just(_DROP)]
    ).flatmap(lambda strategy: strategy)
    edited = st.dictionaries(st.sampled_from(sorted(valid)), value, max_size=2).map(
        lambda edits: {k: v for k, v in {**valid, **edits}.items() if v is not _DROP}
    )
    return st.integers(0, 3).flatmap(lambda i: edited if i else _JSON)


@pytest.mark.parametrize("cls", [TrustClaim, Attestation, Agreement])
@settings(max_examples=200)
@given(data=st.data())
def test_decoded_records_encode_like_canonicalize(cls, data):
    """Whatever ``from_dict`` accepts, the record's own encoding equals
    the checked canonical encoding of its signing payload."""
    try:
        record = cls.from_dict(data.draw(_records(cls)))
    except (KeyError, TypeError, ValueError):
        return
    assert record.canonical_bytes == canonicalize(record.signing_payload())


@pytest.mark.parametrize("cls,field", [
    (TrustClaim, "claim_id"),
    (TrustClaim, "dataset_id"),
    (TrustClaim, "provider_id"),
    (Attestation, "attestation_id"),
    (Attestation, "assurer_id"),
])
def test_records_reject_non_string_ids(cls, field):
    with pytest.raises(ValueError, match=field):
        cls.from_dict({**_VALID[cls], field: [1]})


# -- one pattern for every signed record --------------------------------------

_SIGNER = generate_keypair(make_actor_id("signer"))


def _signed(kind):
    """A record of ``kind`` signed by ``_SIGNER`` through ``sign``."""
    if kind is TrustClaim:
        return create_claim("d", content_hash(PAYLOAD), 2, {"quality": "ok"}, _SIGNER, NOW)
    if kind is Attestation:
        return Attestation.sign(_SIGNER, {
            "claim_hash": "11" * 32, "level_assured": 3, "evidence_manifest_hash": "22" * 32,
            "valid_from": NOW, "valid_until": NOW + 100,
        })
    return Agreement.sign(_SIGNER, {
        "asset_id": "d", "consumer_id": "c", "policy_hash": "11" * 32,
        "claim_hash": "22" * 32, "agreed_at": NOW,
    }, session_id="s-1")


@pytest.mark.parametrize("kind", [TrustClaim, Attestation, Agreement])
def test_signed_records_round_trip_and_verify(kind):
    record = _signed(kind)
    assert kind.from_dict(record.to_dict()) == record
    assert record.canonical_bytes == canonicalize(record.signing_payload())
    assert record.verify(KeyDirectory({_SIGNER.key_id: _SIGNER.public_only()}))

    other = generate_keypair(_SIGNER.key_id)
    sig = record.signature.sig
    flipped = dataclasses.replace(
        record, signature=dataclasses.replace(
            record.signature, sig=("0" if sig[0] != "0" else "1") + sig[1:]
        ),
    )
    assert not record.verify(KeyDirectory())  # unknown signer
    assert not record.verify(KeyDirectory({other.key_id: other}))  # wrong key
    assert not flipped.verify(KeyDirectory({_SIGNER.key_id: _SIGNER}))


@pytest.mark.parametrize("field,value", [
    ("agreed_at", float(NOW)),
    ("agreed_at", True),
    ("agreement_id", 5),
    ("consumer_id", None),
    ("provider_id", ["p"]),
    ("claim_hash", "not-a-hash"),
])
def test_agreement_rejects_wrong_typed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        Agreement.from_dict({**_VALID[Agreement], field: value})
