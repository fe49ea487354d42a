"""Audits, attestation issuance, and revocation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataloa.assurance import (
    AssuranceService,
    LevelRequirement,
    LevelRequirements,
    RevocationList,
    audit,
    issue_attestation,
)
from dataloa.envelope import verify_payload
from dataloa.errors import InvalidClaimSignature, ManifestMismatch
from dataloa.model import AssuranceLevel, TrustClaim, build_manifest

from conftest import ASSURER_ID, NOW, PROVIDER_ID

DAY = 86400

LEVEL2_KINDS = {"quality-report", "provenance-record"}
LEVEL3_KINDS = LEVEL2_KINDS | {"integrity-monitoring", "security-assessment"}


# -- requirements -----------------------------------------------------------


def test_default_requirements():
    reqs = LevelRequirements.default()
    assert reqs.for_level(2).required_kinds == frozenset(LEVEL2_KINDS)
    assert reqs.for_level(3).required_kinds == frozenset(LEVEL3_KINDS)
    assert reqs.for_level(2).max_validity_seconds == 90 * DAY
    assert reqs.for_level(3).max_validity_seconds == 30 * DAY


def test_requirements_must_cover_both_audit_levels():
    with pytest.raises(ValueError):
        LevelRequirements({2: LevelRequirement(frozenset({"quality-report"}), DAY)})


def test_level3_kinds_must_contain_level2_kinds():
    with pytest.raises(ValueError):
        LevelRequirements({
            2: LevelRequirement(frozenset({"quality-report"}), DAY),
            3: LevelRequirement(frozenset({"security-assessment"}), DAY),
        })


def test_level3_validity_cannot_exceed_level2():
    with pytest.raises(ValueError):
        LevelRequirements({
            2: LevelRequirement(frozenset({"quality-report"}), DAY),
            3: LevelRequirement(frozenset({"quality-report", "x"}), 2 * DAY),
        })


def test_requirements_round_trip():
    reqs = LevelRequirements.default()
    assert LevelRequirements.from_dict(reqs.to_dict()).to_dict() == reqs.to_dict()


# -- audit ------------------------------------------------------------------


def _provider_pub(keys):
    return keys.public_key_for(PROVIDER_ID)


def test_audit_passes_with_sufficient_evidence(keys, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim, kinds=tuple(LEVEL2_KINDS))
    outcome = audit(claim, manifest, 2, LevelRequirements.default(),
                    _provider_pub(keys))
    assert outcome.passed
    assert outcome.granted is AssuranceLevel.AUDITED


def test_audit_passes_level3_with_full_evidence(keys, make_claim, make_manifest):
    claim = make_claim(level=3)
    manifest = make_manifest(claim, kinds=tuple(LEVEL3_KINDS))
    outcome = audit(claim, manifest, 3, LevelRequirements.default(),
                    _provider_pub(keys))
    assert outcome.passed
    assert outcome.granted is AssuranceLevel.AUDITED_HIGH


def test_audit_fail_lists_every_missing_kind(keys, make_claim, make_manifest):
    claim = make_claim(level=3)
    manifest = make_manifest(claim, kinds=("quality-report",))
    outcome = audit(claim, manifest, 3, LevelRequirements.default(),
                    _provider_pub(keys))
    assert not outcome.passed
    # set-difference oracle: everything required for level 3 except
    # quality-report, in sorted order
    assert list(outcome.missing_kinds) == sorted(LEVEL3_KINDS - {"quality-report"})


def test_audit_fail_on_claim_cap(keys, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim, kinds=tuple(LEVEL3_KINDS))
    outcome = audit(claim, manifest, 3, LevelRequirements.default(),
                    _provider_pub(keys))
    assert not outcome.passed
    assert outcome.claim_cap_violation
    assert "claim" in outcome.reason


def test_audit_rejects_non_auditable_level(keys, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    with pytest.raises(ValueError):
        audit(claim, manifest, 1, LevelRequirements.default(),
              _provider_pub(keys))


def test_audit_rejects_tampered_claim(keys, make_claim, make_manifest):
    claim = make_claim(level=2)
    tampered = TrustClaim.from_dict({**claim.to_dict(), "issued_at": NOW + 1})
    manifest = make_manifest(tampered)
    with pytest.raises(InvalidClaimSignature):
        audit(tampered, manifest, 2, LevelRequirements.default(),
              _provider_pub(keys))


def test_audit_rejects_unknown_provider(make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    with pytest.raises(InvalidClaimSignature):
        audit(claim, manifest, 2, LevelRequirements.default(), None)


def test_audit_rejects_foreign_manifest(keys, make_claim, make_manifest):
    claim = make_claim(level=2)
    other = make_claim(level=2, dataset_id="other-set")
    manifest = make_manifest(other)
    with pytest.raises(ManifestMismatch):
        audit(claim, manifest, 2, LevelRequirements.default(),
              _provider_pub(keys))


kind_subsets = st.sets(st.sampled_from(sorted(LEVEL3_KINDS)), min_size=1)


@settings(max_examples=150)
@given(kinds=kind_subsets, requested=st.sampled_from([2, 3]),
       claimed=st.sampled_from([1, 2, 3]))
def test_audit_soundness_oracle(kinds, requested, claimed):
    from dataloa.envelope import generate_keypair
    from dataloa.model import EvidenceArtifact, create_claim
    from dataloa.envelope import content_hash

    key = generate_keypair(PROVIDER_ID)
    claim = create_claim(
        dataset_id="d", payload_hash="00" * 32, level=claimed, dimensions={},
        provider_key=key, issued_at=NOW,
    )
    artifacts = tuple(
        EvidenceArtifact(kind=k, content_hash=content_hash(k.encode()))
        for k in sorted(kinds)
    )
    manifest = build_manifest(claim.claim_id, artifacts, created_at=NOW)
    reqs = LevelRequirements.default()
    outcome = audit(claim, manifest, requested, reqs, key.public)
    required = reqs.for_level(requested).required_kinds
    should_pass = required <= kinds and requested <= claimed
    assert outcome.passed == should_pass
    if not outcome.passed and not outcome.claim_cap_violation:
        assert list(outcome.missing_kinds) == sorted(required - kinds)


def test_requirement_monotonicity(keys, make_claim, make_manifest):
    claim = make_claim(level=3)
    manifest = make_manifest(claim, kinds=tuple(LEVEL3_KINDS))
    reqs = LevelRequirements.default()
    pub = _provider_pub(keys)
    assert audit(claim, manifest, 3, reqs, pub).passed
    assert audit(claim, manifest, 2, reqs, pub).passed


# -- attestation issuance ---------------------------------------------------


def test_attestation_window_arithmetic(keys, assurer_key, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    reqs = LevelRequirements.default()
    outcome = audit(claim, manifest, 2, reqs, _provider_pub(keys))
    att = issue_attestation(claim, manifest, outcome, assurer_key, 1000, reqs)
    assert att.valid_from == 1000
    assert att.valid_until == 1000 + 7776000
    assert att.valid_until == 7777000


def test_attestation_verifies_and_binds(keys, assurer_key, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    reqs = LevelRequirements.default()
    outcome = audit(claim, manifest, 2, reqs, _provider_pub(keys))
    att = issue_attestation(claim, manifest, outcome, assurer_key, NOW, reqs)
    assert verify_payload(att.signing_payload(), att.signature,
                          keys.public_key_for(ASSURER_ID))
    # independent recomputation of the claim digest
    from dataloa.envelope import canonicalize, content_hash
    assert att.claim_hash == content_hash(canonicalize(claim.signing_payload()))
    assert att.evidence_manifest_hash == manifest.canonical_hash()
    assert att.level_assured is AssuranceLevel.AUDITED
    assert att.assurer_id == ASSURER_ID


def test_level3_attestation_gets_shorter_window(keys, assurer_key, make_claim,
                                                make_manifest):
    claim = make_claim(level=3)
    manifest = make_manifest(claim, kinds=tuple(LEVEL3_KINDS))
    reqs = LevelRequirements.default()
    outcome = audit(claim, manifest, 3, reqs, _provider_pub(keys))
    att = issue_attestation(claim, manifest, outcome, assurer_key, NOW, reqs)
    assert att.valid_until - att.valid_from == 30 * DAY


# -- revocation -------------------------------------------------------------


def test_revocation_membership():
    rl = RevocationList()
    assert not rl.is_revoked("att-1")
    rl.revoke("att-1", "compromised", now=NOW)
    assert rl.is_revoked("att-1")
    assert rl.revoked_ids() == frozenset({"att-1"})


def test_revocation_is_idempotent_first_wins():
    rl = RevocationList()
    rl.revoke("att-1", "first", now=NOW)
    rl.revoke("att-1", "second", now=NOW + 5)
    assert len(rl) == 1
    entry = rl.entries()[0]
    assert entry.reason == "first"
    assert entry.revoked_at == NOW


def test_revocation_list_serialization():
    rl = RevocationList()
    rl.revoke("att-b", "x", now=NOW)
    rl.revoke("att-a", "y", now=NOW)
    listed = rl.to_list()
    assert [e["attestation_id"] for e in listed] == ["att-a", "att-b"]


# -- service ----------------------------------------------------------------


def test_service_audit_pass_wire_shape(assurance, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    response = assurance.handle_audit(claim.to_dict(), manifest.to_dict(), 2)
    assert response.passed
    assert response.attestation["level_assured"] == 2
    assert response.attestation["claim_hash"] == claim.canonical_hash()


def test_service_audit_fail_wire_shape(assurance, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim, kinds=("quality-report",))
    response = assurance.handle_audit(claim.to_dict(), manifest.to_dict(), 2)
    assert not response.passed
    assert response.attestation is None
    assert list(response.missing_kinds) == ["provenance-record"]


def test_service_revocation_round_trip(assurance, make_claim, make_manifest):
    claim = make_claim(level=2)
    manifest = make_manifest(claim)
    response = assurance.handle_audit(claim.to_dict(), manifest.to_dict(), 2)
    att_id = response.attestation["attestation_id"]
    assurance.revoke(att_id, "test")
    assert assurance.revocations.is_revoked(att_id)
