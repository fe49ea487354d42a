"""Risk-gated accept/reject decisions."""

from __future__ import annotations

import pytest

from dataloa.connector import Asset, VerifiedAsset, default_policy
from dataloa.envelope import SignatureEnvelope
from dataloa.errors import UnknownRiskClass
from dataloa.model import AssuranceLevel, Attestation
from dataloa.policy_engine import (
    RISK_ORDER,
    ConsumerPolicy,
    Decision,
    RiskClass,
    Verdict,
    decide,
)

from conftest import ASSURER_ID, NOW, PROVIDER_ID


# -- risk classes -----------------------------------------------------------


@pytest.mark.parametrize("raw,expected", [
    ("low", RiskClass.LOW),
    ("Medium", RiskClass.MEDIUM),
    ("HIGH", RiskClass.HIGH),
    (RiskClass.CRITICAL, RiskClass.CRITICAL),
])
def test_risk_class_from_value(raw, expected):
    assert RiskClass.from_value(raw) is expected


def test_unknown_risk_class():
    with pytest.raises(UnknownRiskClass):
        RiskClass.from_value("EXTREME")


# -- consumer policy --------------------------------------------------------


def test_default_policy_mapping():
    policy = ConsumerPolicy.default()
    assert policy.required_level(RiskClass.LOW) is AssuranceLevel.SELF_ASSERTED
    assert policy.required_level(RiskClass.MEDIUM) is AssuranceLevel.AUDITED
    assert policy.required_level(RiskClass.HIGH) is AssuranceLevel.AUDITED_HIGH
    assert policy.required_level("critical") is AssuranceLevel.AUDITED_HIGH


def test_policy_must_cover_every_risk_class():
    with pytest.raises(ValueError):
        ConsumerPolicy({"LOW": 1, "MEDIUM": 2, "HIGH": 3})


def test_policy_must_be_monotone():
    with pytest.raises(ValueError):
        ConsumerPolicy({"LOW": 1, "MEDIUM": 2, "HIGH": 1, "CRITICAL": 3})


def test_policy_round_trip_normalizes_names():
    policy = ConsumerPolicy(
        {"low": "self_asserted", "medium": 2, "high": "AUDITED_HIGH", "critical": 3}
    )
    assert policy.to_dict() == ConsumerPolicy.default().to_dict()
    assert ConsumerPolicy.from_dict(policy.to_dict()).to_dict() == policy.to_dict()


# -- decision objects -------------------------------------------------------


def _decision(verdict, effective, required):
    return Decision(
        verdict=verdict,
        asset_id="a",
        risk_class=RiskClass.MEDIUM,
        required_level=AssuranceLevel(required),
        effective=AssuranceLevel(effective),
        reasons=("r",),
        decided_at=NOW,
    )


def test_decision_invariant_rejects_inconsistent_accept():
    with pytest.raises(ValueError):
        _decision(Verdict.ACCEPT, effective=1, required=2)


def test_decision_invariant_rejects_inconsistent_reject():
    with pytest.raises(ValueError):
        _decision(Verdict.REJECT, effective=3, required=2)


def test_decision_serialization():
    data = _decision(Verdict.ACCEPT, effective=2, required=2).to_dict()
    assert data["verdict"] == "ACCEPT"
    assert data["required_level"] == 2
    assert data["effective_level"] == 2
    assert data["decided_at"] == NOW


# -- decide -----------------------------------------------------------------


def _att(claim, level=2, valid_from=NOW - 10, valid_until=NOW + 1000, att_id=None):
    # decide() works on post-verification inputs, so a dummy signature is fine
    return Attestation(
        attestation_id=att_id or f"att-{level}-{valid_from}",
        claim_hash=claim.canonical_hash(),
        level_assured=AssuranceLevel.from_value(level),
        assurer_id=ASSURER_ID,
        evidence_manifest_hash="00" * 32,
        valid_from=valid_from,
        valid_until=valid_until,
        signature=SignatureEnvelope(alg="ed25519", key_id=ASSURER_ID, sig="00" * 64),
    )


def _vasset(claim, atts=(), claim_valid=True, problems=()):
    asset = Asset(
        asset_id=claim.dataset_id,
        description="",
        usage_policy=default_policy(),
        claim=claim,
        attestation_refs=tuple(atts),
    )
    return VerifiedAsset(
        asset=asset,
        provider_id=PROVIDER_ID,
        claim_valid=claim_valid,
        valid_attestations=tuple(atts),
        problems=tuple(problems),
    )


def test_self_asserted_accepted_at_low_risk(make_claim):
    decision = decide(_vasset(make_claim(level=1)), RiskClass.LOW,
                      ConsumerPolicy.default(), frozenset(), NOW)
    assert decision.verdict is Verdict.ACCEPT
    assert decision.effective is AssuranceLevel.SELF_ASSERTED
    assert decision.decided_at == NOW


def test_self_asserted_rejected_at_medium_risk(make_claim):
    decision = decide(_vasset(make_claim(level=1)), RiskClass.MEDIUM,
                      ConsumerPolicy.default(), frozenset(), NOW)
    assert decision.verdict is Verdict.REJECT
    assert any("self-asserted" in r for r in decision.reasons)


def test_fully_attested_accepted_at_critical(make_claim):
    claim = make_claim(level=3)
    vasset = _vasset(claim, atts=(_att(claim, level=3),))
    decision = decide(vasset, RiskClass.CRITICAL, ConsumerPolicy.default(),
                      frozenset(), NOW)
    assert decision.verdict is Verdict.ACCEPT
    assert not any("ignored" in r for r in decision.reasons)


def test_revoked_attestation_forces_reject_with_reason(make_claim):
    claim = make_claim(level=3)
    att = _att(claim, level=3)
    decision = decide(_vasset(claim, atts=(att,)), RiskClass.HIGH,
                      ConsumerPolicy.default(), frozenset({att.attestation_id}), NOW)
    assert decision.verdict is Verdict.REJECT
    assert any("revoked" in r for r in decision.reasons)


def test_expired_attestation_is_named_and_ignored(make_claim):
    claim = make_claim(level=2)
    att = _att(claim, valid_until=NOW - 1)
    decision = decide(_vasset(claim, atts=(att,)), RiskClass.MEDIUM,
                      ConsumerPolicy.default(), frozenset(), NOW)
    assert decision.verdict is Verdict.REJECT
    assert any("expired" in r and "ignored" in r for r in decision.reasons)


def test_future_attestation_is_named_and_ignored(make_claim):
    claim = make_claim(level=2)
    att = _att(claim, valid_from=NOW + 100, valid_until=NOW + 200)
    decision = decide(_vasset(claim, atts=(att,)), RiskClass.MEDIUM,
                      ConsumerPolicy.default(), frozenset(), NOW)
    assert decision.verdict is Verdict.REJECT
    assert any("not yet valid" in r for r in decision.reasons)


def test_unasserted_reject_carries_verification_problems(make_claim):
    vasset = _vasset(make_claim(), claim_valid=False,
                     problems=("claim xyz signature invalid",))
    decision = decide(vasset, RiskClass.LOW, ConsumerPolicy.default(),
                      frozenset(), NOW)
    assert decision.verdict is Verdict.REJECT
    assert decision.effective is AssuranceLevel.UNASSERTED
    assert "no valid claim; asset is unasserted" in decision.reasons
    assert "claim xyz signature invalid" in decision.reasons


def test_attestation_capped_by_claimed_level(make_claim):
    claim = make_claim(level=2)
    vasset = _vasset(claim, atts=(_att(claim, level=3),))
    policy = ConsumerPolicy.default()
    assert decide(vasset, RiskClass.MEDIUM, policy, frozenset(), NOW).verdict \
        is Verdict.ACCEPT
    assert decide(vasset, RiskClass.HIGH, policy, frozenset(), NOW).verdict \
        is Verdict.REJECT


def _vasset_with_effective(make_claim, target: int) -> VerifiedAsset:
    """Build an asset whose effective level is exactly ``target``."""
    if target == 0:
        return _vasset(make_claim(), claim_valid=False, problems=("bad",))
    if target == 1:
        return _vasset(make_claim(level=1))
    claim = make_claim(level=target)
    return _vasset(claim, atts=(_att(claim, level=target),))


def test_full_matrix_against_threshold_oracle(make_claim):
    """All 16 (effective, risk) combinations against the comparison rule."""
    policy = ConsumerPolicy.default()
    for target in range(4):
        vasset = _vasset_with_effective(make_claim, target)
        for risk in RISK_ORDER:
            decision = decide(vasset, risk, policy, frozenset(), NOW)
            assert decision.effective == target
            expected = Verdict.ACCEPT if target >= int(policy.required_level(risk)) \
                else Verdict.REJECT
            assert decision.verdict is expected, (target, risk)


def test_acceptance_is_downward_closed_in_risk(make_claim):
    """Accepting at some risk implies accepting at every lower risk."""
    policy = ConsumerPolicy.default()
    for target in range(4):
        vasset = _vasset_with_effective(make_claim, target)
        verdicts = [decide(vasset, r, policy, frozenset(), NOW).verdict
                    for r in RISK_ORDER]
        accepts = [v is Verdict.ACCEPT for v in verdicts]
        # once rejection starts it never flips back as risk rises
        assert accepts == sorted(accepts, reverse=True)


@pytest.mark.parametrize("risk", ["medium", "HIGH"])
@pytest.mark.parametrize("revoked", [(), ("att-3",)])
def test_every_call_shape_gives_one_decision(make_claim, risk, revoked):
    """A risk given as a string or a RiskClass, and revoked ids given as
    a set, a frozenset, a list or a tuple, decide alike: the shapes that
    the bench, the runner and the CLI pass."""
    claim = make_claim(level=3)
    vasset = _vasset(claim, atts=(
        _att(claim, level=3, att_id="att-3"),
        _att(claim, level=2, att_id="att-2"),
        _att(claim, level=3, valid_until=NOW - 1, att_id="att-expired"),
        _att(claim, level=3, valid_from=NOW + 1, valid_until=NOW + 9, att_id="att-early"),
    ))
    policy = ConsumerPolicy.default()
    decisions = [
        decide(vasset, risk, policy, set(revoked), NOW),
        decide(vasset, RiskClass.from_value(risk), policy, frozenset(revoked), NOW),
        decide(vasset, risk, policy, list(revoked), NOW),
        decide(vasset, RiskClass.from_value(risk), policy, revoked, NOW),
    ]
    assert decisions[1:] == decisions[:1] * 3
    expected = AssuranceLevel.AUDITED if revoked else AssuranceLevel.AUDITED_HIGH
    assert decisions[0].effective is expected
    assert decisions[0].risk_class is RiskClass.from_value(risk)
    assert sum("ignored" in reason for reason in decisions[0].reasons) == 2 + len(revoked)
