"""Acceptance gate: one test per top-level behavioral guarantee.

Each test prints a single ``PASS criterion N`` line on success; run
with ``pytest tests/test_acceptance.py -v -s`` to see them. Counts and
tolerances are part of the guarantee, not tuning knobs.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from dataloa.connector import (
    Asset,
    ConsumerConnector,
    NegotiationEvent,
    NegotiationSession,
    NegotiationState,
    VerifiedAsset,
    default_policy,
    step,
)
from dataloa.envelope import (
    KeyDirectory,
    SignatureEnvelope,
    canonicalize,
    verify_payload,
)
from dataloa.errors import IllegalTransition, IntegrityFailure, NotFinalized
from dataloa.model import (
    AssuranceLevel,
    Attestation,
    TrustClaim,
    effective_level,
)
from dataloa.policy_engine import ConsumerPolicy, Verdict, decide
from dataloa.scenario import bundled_scenarios, run_scenario
from dataloa.wire import LocalProviderTransport

from conftest import ASSURER_ID, CONSUMER_ID, NOW, PAYLOAD, PROVIDER_ID, catalog_lines

GOLDEN_DIR = Path(__file__).parent / "golden"

SEED = 20260823


# ---------------------------------------------------------------------------
# criterion 1: bundled proof-of-concept replay
# ---------------------------------------------------------------------------


def test_criterion_1_poc_replay():
    started = time.perf_counter()
    report = run_scenario("poc_self_asserted", mode="in-process")
    elapsed = time.perf_counter() - started

    assert report.ok, report.expectation_failures
    kinds = [s["action"] for s in report.steps]
    assert kinds == ["fetch_catalog", "decide", "negotiate", "transfer"]
    decide_step = report.steps[1]
    assert decide_step["risk"] == "LOW"
    assert decide_step["verdict"] == "ACCEPT"
    assert report.steps[2]["state"] == "FINALIZED"
    assert report.steps[3]["integrity"] == "OK"
    assert elapsed < 5.0, f"replay took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: poc replay ACCEPT@LOW, integrity OK, "
          f"{elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: risk gating flips exactly where the oracle says
# ---------------------------------------------------------------------------


def _verified(claim, atts=(), claim_valid=True):
    asset = Asset(
        asset_id=claim.dataset_id, description="", usage_policy=default_policy(),
        claim=claim, attestation_refs=tuple(atts),
    )
    return VerifiedAsset(
        asset=asset, provider_id=PROVIDER_ID, claim_valid=claim_valid,
        valid_attestations=tuple(atts),
        problems=() if claim_valid else ("claim signature invalid",),
    )


def _dummy_att(claim, level):
    return Attestation(
        attestation_id=f"att-l{level}",
        claim_hash=claim.canonical_hash(),
        level_assured=AssuranceLevel(level),
        assurer_id=ASSURER_ID,
        evidence_manifest_hash="00" * 32,
        valid_from=NOW - 10,
        valid_until=NOW + 1000,
        signature=SignatureEnvelope(alg="ed25519", key_id=ASSURER_ID, sig="00" * 64),
    )


def test_criterion_2_risk_gating(provider, consumer, assurance, make_claim,
                                 make_manifest):
    policy = ConsumerPolicy.default()

    # same asset, no attestation: MEDIUM and HIGH both reject, naming the cause
    claim = make_claim(level=2)
    provider.publish(payload=PAYLOAD, description="", policy=default_policy(),
                     claim=claim)
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(claim.dataset_id)
    for risk in ("MEDIUM", "HIGH"):
        decision = decide(vasset, risk, policy, frozenset(), NOW)
        assert decision.verdict is Verdict.REJECT
        assert any("self-asserted" in r for r in decision.reasons), decision.reasons

    # after a real level-2 audit, MEDIUM flips to ACCEPT; HIGH still rejects
    attested_claim = make_claim(level=2, dataset_id="wells-attested")
    response = assurance.handle_audit(
        attested_claim.to_dict(), make_manifest(attested_claim).to_dict(), 2
    )
    assert response.passed
    provider.publish(
        payload=PAYLOAD, description="", policy=default_policy(),
        claim=attested_claim,
        attestations=(Attestation.from_dict(response.attestation),),
    )
    vasset = consumer.fetch_catalog(transport).get("wells-attested")
    assert decide(vasset, "MEDIUM", policy, frozenset(), NOW).verdict is Verdict.ACCEPT
    assert decide(vasset, "HIGH", policy, frozenset(), NOW).verdict is Verdict.REJECT

    # brute-force oracle over all 16 (effective level, risk class) cases
    required_by_risk = {"LOW": 1, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3}
    by_effective = {
        0: _verified(make_claim(level=2, dataset_id="m0"), claim_valid=False),
        1: _verified(make_claim(level=1, dataset_id="m1")),
        2: _verified((c2 := make_claim(level=2, dataset_id="m2")),
                     atts=(_dummy_att(c2, 2),)),
        3: _verified((c3 := make_claim(level=3, dataset_id="m3")),
                     atts=(_dummy_att(c3, 3),)),
    }
    cases = 0
    for eff, vasset in by_effective.items():
        for risk, required in required_by_risk.items():
            decision = decide(vasset, risk, policy, frozenset(), NOW)
            assert int(decision.effective) == eff
            expected = Verdict.ACCEPT if eff >= required else Verdict.REJECT
            assert decision.verdict is expected, (eff, risk)
            if decision.verdict is Verdict.ACCEPT:
                assert not any("ignored" in r for r in decision.reasons)
            cases += 1
    assert cases == 16
    print("\nPASS criterion 2: risk gating matches the oracle on all 16 cases")


# ---------------------------------------------------------------------------
# criterion 3: effective-level algebra against an independent oracle
# ---------------------------------------------------------------------------


def _filter_then_max(claim, atts, revoked, now) -> int:
    """Independent reimplementation: filter invalid, cap, take the max."""
    if claim is None:
        return 0
    usable = [
        min(int(a.level_assured), int(claim.level_claimed))
        for a in atts
        if a.attestation_id not in revoked and a.valid_from <= now <= a.valid_until
    ]
    return max([1] + usable)


def test_criterion_3_effective_level_properties(make_claim):
    rng = random.Random(SEED)
    claims = {level: make_claim(level=level, dataset_id=f"alg-{level}")
              for level in (1, 2, 3)}
    wide = {level: _dummy_att(claims[level], 3) for level in (1, 2, 3)}

    cases = 0
    for case in range(1200):
        claim = None if rng.random() < 0.15 else claims[rng.choice((1, 2, 3))]
        atts = []
        for i in range(rng.randrange(0, 5)):
            start = NOW - rng.randrange(0, 6000)
            target = claim if claim is not None else claims[2]
            atts.append(Attestation(
                attestation_id=f"att-{case}-{i}",
                claim_hash=target.canonical_hash(),
                level_assured=AssuranceLevel(rng.choice((2, 3))),
                assurer_id=ASSURER_ID,
                evidence_manifest_hash="00" * 32,
                valid_from=start,
                valid_until=start + rng.randrange(1, 9000),
                signature=SignatureEnvelope(alg="ed25519", key_id=ASSURER_ID,
                                            sig="00" * 64),
            ))
        revoked = frozenset(
            a.attestation_id for a in atts if rng.random() < 0.25
        )

        got = int(effective_level(claim, atts, revoked, NOW))
        assert got == _filter_then_max(claim, atts, revoked, NOW)

        if claim is not None:
            # claim-cap: attested support never lifts above what was claimed
            assert got <= int(claim.level_claimed)
            # monotonicity: one more valid attestation never lowers the level
            more = atts + [wide[int(claim.level_claimed)]]
            assert int(effective_level(claim, more, revoked, NOW)) >= got
        # revocation dominance: revoking everything leaves only the claim
        all_ids = frozenset(a.attestation_id for a in atts)
        assert int(effective_level(claim, atts, all_ids, NOW)) == \
            (1 if claim is not None else 0)
        # expiry dominance: far enough in the future every window is shut
        assert int(effective_level(claim, atts, revoked, NOW + 10 ** 7)) == \
            (1 if claim is not None else 0)
        cases += 1

    assert cases >= 1000
    print(f"\nPASS criterion 3: effective-level algebra, {cases} random cases, "
          f"0 violations")


# ---------------------------------------------------------------------------
# criterion 4: negotiation state machine
# ---------------------------------------------------------------------------


def _session_in(state: NegotiationState) -> NegotiationSession:
    from dataloa.connector import Agreement

    agreement = None
    if state in (NegotiationState.AGREED, NegotiationState.FINALIZED):
        agreement = Agreement(
            agreement_id="agr", asset_id="a", consumer_id="c", provider_id="p",
            policy_hash="11" * 32, claim_hash="22" * 32, agreed_at=NOW,
            signature=SignatureEnvelope(alg="ed25519", key_id="p", sig="00" * 64),
        )
    return NegotiationSession(
        session_id="s", asset_id="a", consumer_id="c", state=state,
        agreement=agreement,
        terminated_reason="r" if state is NegotiationState.TERMINATED else None,
    )


def test_criterion_4_state_machine(published, keys):
    # independently written legal-transition table
    legal = {
        (NegotiationState.REQUESTED, NegotiationEvent.AGREE): NegotiationState.AGREED,
        (NegotiationState.REQUESTED, NegotiationEvent.TERMINATE): NegotiationState.TERMINATED,
        (NegotiationState.AGREED, NegotiationEvent.FINALIZE): NegotiationState.FINALIZED,
        (NegotiationState.AGREED, NegotiationEvent.TERMINATE): NegotiationState.TERMINATED,
    }
    dummy_agreement = _session_in(NegotiationState.AGREED).agreement

    pairs = 0
    for state, event in itertools.product(NegotiationState, NegotiationEvent):
        session = _session_in(state)
        if (state, event) in legal:
            assert step(session, event, agreement=dummy_agreement,
                        reason="r").state is legal[(state, event)]
        else:
            with pytest.raises(IllegalTransition):
                step(session, event, agreement=dummy_agreement)
        pairs += 1
    assert pairs == 12

    # randomized event streams
    rng = random.Random(SEED)
    events = list(NegotiationEvent)
    steps_taken = 0
    while steps_taken < 10000:
        session = _session_in(NegotiationState.REQUESTED)
        for _ in range(rng.randrange(1, 9)):
            event = rng.choice(events)
            try:
                session = step(session, event, agreement=dummy_agreement,
                               reason="r")
            except IllegalTransition:
                pass
            steps_taken += 1
            assert session.state in NegotiationState

    # payloads move only for FINALIZED sessions
    provider, asset, _ = published
    policy_hash = asset.usage_policy.canonical_hash()
    claim_hash = asset.claim.canonical_hash()
    released = 0
    finalized = 0
    for i in range(30):
        outcome = rng.randrange(3)
        if outcome == 0:  # terminated: wrong claim hash, no agreement at all
            session = provider.handle_negotiation_request(
                asset.asset_id, CONSUMER_ID, policy_hash, "00" * 32
            )
            assert session.state is NegotiationState.TERMINATED
            assert session.agreement is None
        else:
            session = provider.handle_negotiation_request(
                asset.asset_id, CONSUMER_ID, policy_hash, claim_hash
            )
            if outcome == 1:  # agreed but never finalized
                with pytest.raises(NotFinalized):
                    provider.transfer(session.agreement.agreement_id)
            else:
                provider.finalize(session.session_id)
                finalized += 1
                payload, _ = provider.transfer(session.agreement.agreement_id)
                assert payload == PAYLOAD
                released += 1
    assert released == finalized
    print(f"\nPASS criterion 4: 12/12 transition pairs, {steps_taken} random "
          f"steps, payload released only when FINALIZED")


# ---------------------------------------------------------------------------
# criterion 5: tamper detection
# ---------------------------------------------------------------------------

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_HEX = "0123456789abcdef"

MUTATIONS_PER_CASE = 50


def _mutated_char(rng, text, alphabet=_ALNUM):
    index = rng.randrange(len(text))
    replacement = rng.choice(alphabet)
    while replacement == text[index]:
        replacement = rng.choice(alphabet)
    return text[:index] + replacement + text[index + 1:]


def _mutate_claim_dict(rng, data):
    spot = rng.choice(["dataset_id", "claim_id", "provider_id", "content_hash",
                       "issued_at", "dimension"])
    if spot == "issued_at":
        data["issued_at"] += rng.choice([-13, -1, 1, 7])
    elif spot == "content_hash":
        data["content_hash"] = _mutated_char(rng, data["content_hash"], _HEX)
    elif spot == "dimension":
        key = rng.choice(sorted(data["dimensions"]))
        data["dimensions"][key] = _mutated_char(rng, data["dimensions"][key])
    else:
        data[spot] = _mutated_char(rng, data[spot])


def _mutate_attestation_dict(rng, data):
    spot = rng.choice(["attestation_id", "claim_hash", "evidence_manifest_hash",
                       "assurer_id", "level_assured", "valid_from", "valid_until"])
    if spot == "level_assured":
        data["level_assured"] = 5 - data["level_assured"]  # 2 <-> 3
    elif spot == "valid_from":
        data["valid_from"] -= rng.randrange(1, 100)
    elif spot == "valid_until":
        data["valid_until"] += rng.randrange(1, 100)
    elif spot in ("claim_hash", "evidence_manifest_hash"):
        data[spot] = _mutated_char(rng, data[spot], _HEX)
    else:
        data[spot] = _mutated_char(rng, data[spot])


def _mutate_agreement_dict(rng, data):
    spot = rng.choice(["agreement_id", "asset_id", "consumer_id", "provider_id",
                       "policy_hash", "claim_hash", "agreed_at"])
    if spot == "agreed_at":
        data["agreed_at"] += rng.choice([-5, -1, 1, 11])
    elif spot in ("policy_hash", "claim_hash"):
        data[spot] = _mutated_char(rng, data[spot], _HEX)
    else:
        data[spot] = _mutated_char(rng, data[spot])


class _StubCatalog:
    def __init__(self, data):
        self.data = data

    def get_catalog(self):
        return catalog_lines(self.data)


class _AgreementTamperer:
    def __init__(self, inner, rng):
        self.inner = inner
        self.rng = rng

    def get_catalog(self):
        return self.inner.get_catalog()

    def request_negotiation(self, *args):
        raw = self.inner.request_negotiation(*args)
        if raw.get("agreement"):
            _mutate_agreement_dict(self.rng, raw["agreement"])
        return raw

    def finalize_negotiation(self, session_id):
        raise AssertionError("corrupt agreement must never be finalized")


def test_criterion_5_tamper_suite(provider, consumer, assurance, keys,
                                  make_claim, make_manifest):
    rng = random.Random(SEED)
    provider_key = keys.public_key_for(PROVIDER_ID)

    # (a) claim body: signature verification must fail
    claim = make_claim(level=2)
    detected_claim = 0
    for _ in range(MUTATIONS_PER_CASE):
        data = copy.deepcopy(claim.to_dict())
        _mutate_claim_dict(rng, data)
        mutated = TrustClaim.from_dict(data)
        if not verify_payload(mutated.signing_payload(), mutated.signature,
                              provider_key):
            detected_claim += 1
    assert detected_claim == MUTATIONS_PER_CASE

    # (b) attestation body: the verified catalog flags the asset
    response = assurance.handle_audit(
        claim.to_dict(), make_manifest(claim).to_dict(), 2
    )
    assert response.passed
    provider.publish(
        payload=PAYLOAD, description="", policy=default_policy(), claim=claim,
        attestations=(Attestation.from_dict(response.attestation),),
    )
    clean_catalog = provider.catalog().to_dict()
    detected_att = 0
    for _ in range(MUTATIONS_PER_CASE):
        data = copy.deepcopy(clean_catalog)
        _mutate_attestation_dict(rng, data["assets"][0]["attestation_refs"][0])
        vasset = consumer.fetch_catalog(_StubCatalog(data)).get(claim.dataset_id)
        if vasset.flagged and not vasset.valid_attestations:
            detected_att += 1
    assert detected_att == MUTATIONS_PER_CASE

    # (c) payload bytes: transfer raises IntegrityFailure
    transport = LocalProviderTransport(provider)
    vasset = consumer.fetch_catalog(transport).get(claim.dataset_id)
    outcome = consumer.negotiate(transport, vasset)
    assert outcome.finalized
    locator = f"mem://{claim.dataset_id}"
    detected_payload = 0
    for _ in range(MUTATIONS_PER_CASE):
        tampered = bytearray(PAYLOAD)
        tampered[rng.randrange(len(tampered))] ^= rng.randrange(1, 256)
        provider.data_source.store(locator, bytes(tampered))
        try:
            consumer.transfer(transport, outcome.agreement_id, claim.content_hash)
        except IntegrityFailure:
            detected_payload += 1
    assert detected_payload == MUTATIONS_PER_CASE
    provider.data_source.store(locator, PAYLOAD)
    assert consumer.transfer(transport, outcome.agreement_id,
                             claim.content_hash) == PAYLOAD

    # (d) agreement: the consumer refuses to finalize
    tamperer = _AgreementTamperer(transport, rng)
    detected_agreement = 0
    for _ in range(MUTATIONS_PER_CASE):
        outcome = consumer.negotiate(tamperer, vasset)
        if not outcome.finalized and outcome.refusal_reason:
            detected_agreement += 1
    assert detected_agreement == MUTATIONS_PER_CASE

    total = (detected_claim + detected_att + detected_payload
             + detected_agreement)
    print(f"\nPASS criterion 5: tamper detection {total}/"
          f"{4 * MUTATIONS_PER_CASE} across claim/attestation/payload/agreement")


# ---------------------------------------------------------------------------
# criterion 6: canonical encoding
# ---------------------------------------------------------------------------


def _random_scalar(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-10 ** 9, 10 ** 9)
    if kind == 1:
        return "".join(rng.choice("abcdefé水🌊xyz_") for _ in range(rng.randrange(8)))
    if kind == 2:
        return rng.random() < 0.5
    return None


def _random_structure(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        return _random_scalar(rng)
    if rng.random() < 0.5:
        return [_random_structure(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = {
        "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 6)))
        for _ in range(rng.randrange(5))
    }
    return {k: _random_structure(rng, depth + 1) for k in keys}


def _reordered(rng, value):
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _reordered(rng, v) for k, v in items}
    if isinstance(value, list):
        return [_reordered(rng, v) for v in value]
    return value


def test_criterion_6_canonical_encoding():
    golden_files = sorted(GOLDEN_DIR.glob("*.golden"))
    assert len(golden_files) == 10
    for golden in golden_files:
        source = golden.with_suffix(".input.json")
        value = json.loads(source.read_text(encoding="utf-8"))
        assert canonicalize(value) == golden.read_bytes(), golden.name

    rng = random.Random(SEED)
    structures = 0
    for _ in range(600):
        value = {f"k{i}": _random_structure(rng) for i in range(rng.randrange(1, 6))}
        reference = canonicalize(value)
        assert canonicalize(_reordered(rng, value)) == reference
        assert json.loads(reference.decode("utf-8")) == value
        structures += 1
    assert structures >= 500
    print(f"\nPASS criterion 6: 10 golden files byte-equal, {structures} "
          f"shuffled structures invariant")


# ---------------------------------------------------------------------------
# criterion 7: transport-mode equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_mode_equivalence():
    names = sorted(bundled_scenarios())
    assert names, "no bundled scenarios found"
    for name in names:
        shared_keys = KeyDirectory()
        in_process = run_scenario(name, mode="in-process", keys=shared_keys)
        over_http = run_scenario(name, mode="http", keys=shared_keys)
        assert in_process.ok, (name, in_process.expectation_failures)
        assert over_http.ok, (name, over_http.expectation_failures)
        assert in_process.comparable() == over_http.comparable(), name
    print(f"\nPASS criterion 7: identical reports across modes for "
          f"{len(names)} scenarios")
