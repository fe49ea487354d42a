"""Provider and consumer data-space connectors.

The provider connector owns the catalog (publication, negotiation,
transfer); the consumer connector verifies everything it pulls off the
wire before any of it reaches the decision logic, or reuses the result
of checking the same bytes under the same keys. Assets whose
claims or attestations fail verification are surfaced flagged rather
than hidden, so a consumer can see exactly what is wrong.

Negotiation is a four-state machine: REQUESTED -> AGREED -> FINALIZED,
with TERMINATED reachable from REQUESTED and AGREED. FINALIZED and
TERMINATED are absorbing. Payload bytes are only ever released for a
FINALIZED session.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional

from .envelope import KeyDirectory, KeyPair, _VerifiedCache, content_hash, derived_id, hash_of
from .errors import (
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
from .model import Agreement, AssuranceLevel, Attestation, TrustClaim, _check_str, effective_level

PERMITTED_ACTIONS = frozenset({"use", "distribute"})

# Catalog lines each consumer keeps between fetches, parsed and verified:
# twice the largest catalog any caller serves (2000 assets).
PARSED_ASSETS_SIZE = 4096


@dataclass(frozen=True)
class Permission:
    action: str
    constraint: Optional[str] = None

    def __post_init__(self):
        if self.action not in PERMITTED_ACTIONS:
            raise ValueError(f"unknown policy action {self.action!r}")
        _check_str(self, "constraint", optional=True)

    def to_dict(self) -> dict:
        return {"action": self.action, "constraint": self.constraint}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Permission":
        return cls(action=data["action"], constraint=data.get("constraint"))


@dataclass(frozen=True)
class Policy:
    """Usage policy attached to an asset; at least one permission."""

    policy_id: str
    permissions: tuple[Permission, ...]

    def __post_init__(self):
        _check_str(self, "policy_id")
        object.__setattr__(self, "permissions", tuple(self.permissions))
        if not self.permissions:
            raise ValueError("policy requires at least one permission")

    def to_dict(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "permissions": [p.to_dict() for p in self.permissions],
        }

    def canonical_hash(self) -> str:
        return hash_of(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping) -> "Policy":
        return cls(
            policy_id=data["policy_id"],
            permissions=tuple(Permission.from_dict(p) for p in data["permissions"]),
        )


def default_policy() -> Policy:
    return Policy(policy_id="use-only", permissions=(Permission(action="use"),))


@dataclass(frozen=True)
class Asset:
    """Catalog entry: dataset description, usage policy, embedded claim,
    and any attestations the provider chooses to attach.

    ``payload_locator`` is provider-internal and redacted from the
    public catalog view.
    """

    asset_id: str
    description: str
    usage_policy: Policy
    claim: TrustClaim
    attestation_refs: tuple[Attestation, ...] = ()
    payload_locator: Optional[str] = None

    def __post_init__(self):
        _check_str(self, "asset_id", "description")
        _check_str(self, "payload_locator", optional=True)
        object.__setattr__(self, "attestation_refs", tuple(self.attestation_refs))
        if not self.asset_id:
            raise ValueError("asset_id must be non-empty")

    @cached_property
    def public_json(self) -> str:
        """``json.dumps`` of the public view, encoded once per asset: the
        record is frozen, and a provider serves it on every catalog fetch."""
        return json.dumps(self.to_dict(public=True))

    def to_dict(self, public: bool = True) -> dict:
        data = {
            "asset_id": self.asset_id,
            "description": self.description,
            "usage_policy": self.usage_policy.to_dict(),
            "claim": self.claim.to_dict(),
            "attestation_refs": [a.to_dict() for a in self.attestation_refs],
        }
        if not public:
            data["payload_locator"] = self.payload_locator
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Asset":
        return cls(
            asset_id=data["asset_id"],
            description=data.get("description", ""),
            usage_policy=Policy.from_dict(data["usage_policy"]),
            claim=TrustClaim.from_dict(data["claim"]),
            attestation_refs=tuple(
                Attestation.from_dict(a) for a in data.get("attestation_refs", [])
            ),
            payload_locator=data.get("payload_locator"),
        )


@dataclass(frozen=True)
class Catalog:
    provider_id: str
    assets: tuple[Asset, ...]
    issued_at: int

    def to_dict(self, public: bool = True) -> dict:
        return {
            "provider_id": self.provider_id,
            "assets": [a.to_dict(public=public) for a in self.assets],
            "issued_at": self.issued_at,
        }

    def public_lines(self) -> bytes:
        """The public catalog as JSON Lines, the body ``GET /catalog``
        sends: a header object ``{"provider_id", "issued_at"}``, then each
        asset's cached ``public_json``, one per line, every line ending
        in ``\n``. ``ConsumerConnector.fetch_catalog`` reads it."""
        header = json.dumps({"provider_id": self.provider_id, "issued_at": self.issued_at})
        return "\n".join([header, *(a.public_json for a in self.assets), ""]).encode()


# ---------------------------------------------------------------------------
# Negotiation state machine
# ---------------------------------------------------------------------------


class NegotiationState(str, Enum):
    REQUESTED = "REQUESTED"
    AGREED = "AGREED"
    FINALIZED = "FINALIZED"
    TERMINATED = "TERMINATED"


class NegotiationEvent(str, Enum):
    AGREE = "AGREE"
    FINALIZE = "FINALIZE"
    TERMINATE = "TERMINATE"


TRANSITIONS: dict[tuple[NegotiationState, NegotiationEvent], NegotiationState] = {
    (NegotiationState.REQUESTED, NegotiationEvent.AGREE): NegotiationState.AGREED,
    (NegotiationState.REQUESTED, NegotiationEvent.TERMINATE): NegotiationState.TERMINATED,
    (NegotiationState.AGREED, NegotiationEvent.FINALIZE): NegotiationState.FINALIZED,
    (NegotiationState.AGREED, NegotiationEvent.TERMINATE): NegotiationState.TERMINATED,
}

ABSORBING_STATES = (NegotiationState.FINALIZED, NegotiationState.TERMINATED)


@dataclass(frozen=True)
class NegotiationSession:
    session_id: str
    asset_id: str
    consumer_id: str
    state: NegotiationState
    agreement: Optional[Agreement] = None
    terminated_reason: Optional[str] = None

    def __post_init__(self):
        has_agreement = self.agreement is not None
        should_have = self.state in (NegotiationState.AGREED, NegotiationState.FINALIZED)
        if has_agreement != should_have:
            raise ValueError(
                f"agreement must be present iff state is AGREED/FINALIZED (state={self.state})"
            )

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "asset_id": self.asset_id,
            "consumer_id": self.consumer_id,
            "state": self.state.value,
            "agreement": self.agreement.to_dict() if self.agreement else None,
            "terminated_reason": self.terminated_reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NegotiationSession":
        agreement = data.get("agreement")
        return cls(
            session_id=data["session_id"],
            asset_id=data["asset_id"],
            consumer_id=data["consumer_id"],
            state=NegotiationState(data["state"]),
            agreement=Agreement.from_dict(agreement) if agreement else None,
            terminated_reason=data.get("terminated_reason"),
        )


def step(
    session: NegotiationSession,
    event: NegotiationEvent,
    agreement: Optional[Agreement] = None,
    reason: Optional[str] = None,
) -> NegotiationSession:
    """Apply one negotiation event, returning the successor session.

    Raises IllegalTransition (and leaves the input untouched) for any
    (state, event) pair outside the transition table.
    """
    target = TRANSITIONS.get((session.state, event))
    if target is None:
        raise IllegalTransition(
            f"event {event.value} not allowed in state {session.state.value}"
        )
    if target is NegotiationState.AGREED:
        if agreement is None:
            raise ValueError("AGREE requires an agreement")
        return replace(session, state=target, agreement=agreement)
    if target is NegotiationState.TERMINATED:
        return replace(session, state=target, agreement=None,
                       terminated_reason=reason or "terminated")
    return replace(session, state=target)


# ---------------------------------------------------------------------------
# Provider side
# ---------------------------------------------------------------------------


class InMemoryDataSource:
    """Provider-internal payload store, addressed by opaque locators."""

    def __init__(self):
        self._payloads: dict[str, bytes] = {}

    def store(self, locator: str, payload: bytes) -> None:
        self._payloads[locator] = payload

    def resolve(self, locator: str) -> bytes:
        return self._payloads[locator]


class ProviderConnector:
    """Provider-side connector: catalog, negotiations, transfers.

    Catalog mutations copy-on-write the asset map. One lock guards every
    other mutation: session ids, and each session's read -> step ->
    write, so two finalizes of one session cannot both succeed.
    """

    def __init__(
        self,
        provider_key: KeyPair,
        keys: KeyDirectory,
        clock=None,
        data_source: Optional[InMemoryDataSource] = None,
    ):
        self.provider_key = provider_key
        self.keys = keys
        self.data_source = data_source or InMemoryDataSource()
        self._clock = clock or (lambda: int(time.time()))
        self._assets: dict[str, Asset] = {}
        self._sessions: dict[str, NegotiationSession] = {}
        self._agreements: dict[str, str] = {}  # agreement_id -> session_id
        self._session_seq: dict[tuple[str, str], int] = {}
        self._mutate_lock = threading.Lock()

    @property
    def actor_id(self) -> str:
        return self.provider_key.key_id

    def now(self) -> int:
        return int(self._clock())

    # -- publication ---------------------------------------------------

    def publish(
        self,
        payload: bytes,
        description: str,
        policy: Policy,
        claim: TrustClaim,
        attestations: tuple[Attestation, ...] = (),
        asset_id: Optional[str] = None,
    ) -> Asset:
        """Register a dataset in the catalog.

        The claim must verify and its content hash must match the
        actual payload bytes; every attached attestation must bind to
        this exact claim and come from an assurer other than the claim's
        provider.
        """
        asset_id = asset_id or claim.dataset_id
        if not claim.verify(self.keys):
            raise InvalidClaim(f"claim {claim.claim_id} signature did not verify")
        actual_hash = content_hash(payload)
        if actual_hash != claim.content_hash:
            raise HashMismatch(
                f"claim declares {claim.content_hash}, payload hashes to {actual_hash}"
            )
        claim_hash = claim.canonical_hash()
        for att in attestations:
            if att.claim_hash != claim_hash:
                raise InvalidClaim(
                    f"attestation {att.attestation_id} does not reference this claim"
                )
            if att.assurer_id == claim.provider_id:
                raise InvalidClaim(
                    f"attestation {att.attestation_id} is self-attested: "
                    f"{att.assurer_id} made the claim it attests"
                )
        with self._mutate_lock:
            if asset_id in self._assets:
                raise DuplicateAssetId(f"asset {asset_id} already published")
            locator = f"mem://{asset_id}"
            self.data_source.store(locator, payload)
            asset = Asset(
                asset_id=asset_id,
                description=description,
                usage_policy=policy,
                claim=claim,
                attestation_refs=tuple(attestations),
                payload_locator=locator,
            )
            self._assets = {**self._assets, asset_id: asset}
        return asset

    def catalog(self) -> Catalog:
        assets = self._assets  # snapshot; map is replaced, never mutated
        return Catalog(
            provider_id=self.actor_id,
            assets=tuple(assets[k] for k in sorted(assets)),
            issued_at=self.now(),
        )

    def get_asset(self, asset_id: str) -> Optional[Asset]:
        return self._assets.get(asset_id)

    # -- negotiation ---------------------------------------------------

    def handle_negotiation_request(
        self, asset_id: str, consumer_id: str, policy_hash: str, claim_hash: str
    ) -> NegotiationSession:
        """Open a session and immediately resolve it: agree when the
        request references an existing asset and echoes the correct
        policy and claim hashes, terminate otherwise."""
        with self._mutate_lock:
            seq = self._session_seq.get((asset_id, consumer_id), 0)
            self._session_seq[(asset_id, consumer_id)] = seq + 1
        session_id = derived_id(
            "session", {"asset_id": asset_id, "consumer_id": consumer_id, "seq": seq}
        )
        session = NegotiationSession(
            session_id=session_id,
            asset_id=asset_id,
            consumer_id=consumer_id,
            state=NegotiationState.REQUESTED,
        )
        asset = self._assets.get(asset_id)
        if asset is None:
            session = step(session, NegotiationEvent.TERMINATE, reason="unknown-asset")
        elif policy_hash != asset.usage_policy.canonical_hash():
            session = step(session, NegotiationEvent.TERMINATE, reason="policy-hash-mismatch")
        elif claim_hash != asset.claim.canonical_hash():
            session = step(session, NegotiationEvent.TERMINATE, reason="claim-hash-mismatch")
        else:
            agreement = self._make_agreement(session, asset)
            session = step(session, NegotiationEvent.AGREE, agreement=agreement)
        with self._mutate_lock:
            self._sessions[session_id] = session
            if session.agreement is not None:
                self._agreements[session.agreement.agreement_id] = session_id
        return session

    def _make_agreement(self, session: NegotiationSession, asset: Asset) -> Agreement:
        body = {
            "asset_id": asset.asset_id,
            "consumer_id": session.consumer_id,
            "policy_hash": asset.usage_policy.canonical_hash(),
            "claim_hash": asset.claim.canonical_hash(),
            "agreed_at": self.now(),
        }
        return Agreement.sign(self.provider_key, body, session_id=session.session_id)

    def get_session(self, session_id: str) -> NegotiationSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no negotiation session {session_id}")
        return session

    def finalize(self, session_id: str) -> NegotiationSession:
        with self._mutate_lock:
            session = step(self.get_session(session_id), NegotiationEvent.FINALIZE)
            self._sessions[session_id] = session
        return session

    # -- transfer ------------------------------------------------------

    def transfer(self, agreement_id: str) -> tuple[bytes, str]:
        """Release payload bytes for a finalized agreement, together
        with the content hash the provider declares for them."""
        session_id = self._agreements.get(agreement_id)
        if session_id is None:
            raise NoSuchAgreement(f"no agreement {agreement_id}")
        session = self.get_session(session_id)
        if session.state is not NegotiationState.FINALIZED:
            raise NotFinalized(
                f"session {session_id} is {session.state.value}, transfer requires FINALIZED"
            )
        asset = self._assets[session.asset_id]
        payload = self.data_source.resolve(asset.payload_locator)
        return payload, asset.claim.content_hash

    def session_states(self) -> dict[str, str]:
        with self._mutate_lock:
            return {sid: s.state.value for sid, s in sorted(self._sessions.items())}


# ---------------------------------------------------------------------------
# Consumer side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifiedAsset:
    """Consumer-side view of one catalog asset after re-verification.

    ``valid_attestations`` hold only signature-verified attestations
    bound to this asset's claim by an assurer other than its provider;
    time windows and revocation are left to the decision point. Everything that failed verification is
    listed in ``ignored`` with its cause, and the asset is flagged.
    """

    asset: Asset
    provider_id: str
    claim_valid: bool
    valid_attestations: tuple[Attestation, ...]
    ignored: tuple[tuple[str, str], ...] = ()
    problems: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return not self.claim_valid or bool(self.problems)

    def effective(self, revoked, now: int) -> AssuranceLevel:
        return effective_level(
            self.asset.claim if self.claim_valid else None,
            self.valid_attestations,
            revoked,
            now,
        )

    def to_dict(self) -> dict:
        return {
            "asset": self.asset.to_dict(),
            "provider_id": self.provider_id,
            "claim_valid": self.claim_valid,
            "valid_attestation_ids": [a.attestation_id for a in self.valid_attestations],
            "ignored": [{"attestation_id": i, "cause": c} for i, c in self.ignored],
            "problems": list(self.problems),
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class VerifiedCatalog:
    provider_id: str
    issued_at: int
    assets: tuple[VerifiedAsset, ...]

    @cached_property
    def _by_id(self) -> dict[str, VerifiedAsset]:
        # Reversed, so the first of any duplicate ids wins.
        return {a.asset.asset_id: a for a in reversed(self.assets)}

    def get(self, asset_id: str) -> Optional[VerifiedAsset]:
        return self._by_id.get(asset_id)


@dataclass(frozen=True)
class NegotiationOutcome:
    session: NegotiationSession
    finalized: bool
    refusal_reason: Optional[str] = None

    @property
    def agreement_id(self) -> Optional[str]:
        return self.session.agreement.agreement_id if self.session.agreement else None


class ConsumerConnector:
    """Consumer-side connector: catalog verification, negotiation, and
    integrity-checked transfer.

    Each instance keeps a bounded memo from the digest of an asset's
    catalog line to the ``Asset`` parsed from it and the
    ``VerifiedAsset`` its last check gave, with the inputs of that check:
    the catalog header's ``provider_id`` and the public key this consumer
    holds for each signer the asset names (its claim's provider and each
    attestation's assurer, None for an absent key). The signatures, their
    algorithms and every signed byte are inside the line, and Ed25519
    verification is a deterministic function of key, message and
    signature (RFC 8032). So when all those inputs match, the remembered
    result is the answer a full check would give; any added, removed or
    replaced key, or another header, checks the asset again.
    """

    def __init__(self, consumer_id: str, keys: KeyDirectory, clock=None):
        self.consumer_id = consumer_id
        self.keys = keys
        self._clock = clock or (lambda: int(time.time()))
        self._parsed = _VerifiedCache(PARSED_ASSETS_SIZE)

    def now(self) -> int:
        return int(self._clock())

    def fetch_catalog(self, transport) -> VerifiedCatalog:
        """Pull a provider's catalog and verify every claim and
        attestation signature; nothing from the wire is trusted as-is. An
        asset whose line, header ``provider_id`` and signer keys all match
        its memo entry reuses the result of its last check.

        The body is ``Catalog.public_lines``: a header object, then one
        asset per line. Each line must be one UTF-8 JSON value; the
        final line may end in ``\n``, and a blank line is malformed.
        """
        header, *lines = transport.get_catalog().removesuffix(b"\n").split(b"\n")
        try:
            head = json.loads(header.decode("utf-8"))
            provider_id, issued_at = head["provider_id"], head["issued_at"]
            if not isinstance(provider_id, str) or type(issued_at) is not int:
                raise MalformedCatalog("catalog header needs a str provider_id, int issued_at")
            entries = [self._parse_asset(line) for line in lines]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise MalformedCatalog(f"catalog response not parseable: {exc}") from exc
        key_for = self.keys.public_key_for
        verified = []
        try:
            for key, (asset, inputs, vasset) in entries:
                signer_keys = (provider_id, key_for(asset.claim.provider_id),
                               *[key_for(att.assurer_id) for att in asset.attestation_refs])
                if signer_keys != inputs:
                    vasset = self._verify_asset(asset, provider_id)
                    self._parsed.add(key, (asset, signer_keys, vasset))
                verified.append(vasset)
        except UnicodeEncodeError as exc:  # a lone surrogate in a signed string
            raise MalformedCatalog(f"catalog record not encodable as UTF-8: {exc}") from exc
        return VerifiedCatalog(provider_id=provider_id, issued_at=issued_at, assets=tuple(verified))

    def _parse_asset(self, line: bytes) -> tuple[bytes, tuple]:
        """The SHA-256 digest of one catalog line and its memo entry
        ``(asset, signer_keys, vasset)``. The same bytes always decode to
        the same record, so a line is parsed once while its entry is
        held; a line not held is parsed and given ``(asset, None, None)``,
        which ``fetch_catalog`` stores once ``_verify_asset`` returns."""
        key = hashlib.sha256(line).digest()
        entry = self._parsed.hit(key)
        if entry is None:
            entry = (Asset.from_dict(json.loads(line.decode("utf-8"))), None, None)
        return key, entry

    def _verify_asset(self, asset: Asset, provider_id: str) -> VerifiedAsset:
        problems: list[str] = []
        ignored: list[tuple[str, str]] = []

        claim = asset.claim
        claim_valid = False
        if claim.provider_id != provider_id:
            problems.append(
                f"claim {claim.claim_id} invalid (claim-provider-mismatch): "
                f"signed by {claim.provider_id}, listed by {provider_id}"
            )
        elif not claim.verify(self.keys):
            problems.append(f"claim {claim.claim_id} signature invalid")
        else:
            claim_valid = True

        claim_hash = claim.canonical_hash()
        valid: list[Attestation] = []
        for att in asset.attestation_refs:
            if att.claim_hash != claim_hash:
                cause = "claim-hash-mismatch"
            elif att.assurer_id == claim.provider_id:
                cause = "self-attested"
            elif not att.verify(self.keys):
                cause = "signature-invalid"
            else:
                valid.append(att)
                continue
            ignored.append((att.attestation_id, cause))
            problems.append(f"attestation {att.attestation_id} ignored ({cause})")

        return VerifiedAsset(
            asset=asset,
            provider_id=provider_id,
            claim_valid=claim_valid,
            valid_attestations=tuple(valid),
            ignored=tuple(ignored),
            problems=tuple(problems),
        )

    def negotiate(self, transport, vasset: VerifiedAsset) -> NegotiationOutcome:
        """Run the full happy-path negotiation: request, verify the
        returned agreement, finalize. Refuses to finalize (and says
        why) when the agreement does not verify."""
        asset = vasset.asset
        policy_hash = asset.usage_policy.canonical_hash()
        claim_hash = asset.claim.canonical_hash()
        session = _session_of(transport.request_negotiation(
            asset.asset_id, self.consumer_id, policy_hash, claim_hash
        ))
        if session.state is not NegotiationState.AGREED:
            return NegotiationOutcome(
                session=session, finalized=False, refusal_reason=session.terminated_reason
            )
        refusal = self._check_agreement(
            session.agreement, asset, vasset.provider_id, policy_hash, claim_hash
        )
        if refusal is not None:
            return NegotiationOutcome(session=session, finalized=False, refusal_reason=refusal)
        final = _session_of(transport.finalize_negotiation(session.session_id))
        return NegotiationOutcome(
            session=final, finalized=final.state is NegotiationState.FINALIZED
        )

    def _check_agreement(
        self,
        agreement: Agreement,
        asset: Asset,
        provider_id: str,
        policy_hash: str,
        claim_hash: str,
    ) -> Optional[str]:
        if agreement.provider_id != provider_id:
            return "agreement-provider-mismatch"
        if agreement.asset_id != asset.asset_id:
            return "agreement-asset-mismatch"
        if agreement.consumer_id != self.consumer_id:
            return "agreement-consumer-mismatch"
        if agreement.policy_hash != policy_hash:
            return "agreement-policy-hash-mismatch"
        if agreement.claim_hash != claim_hash:
            return "agreement-claim-hash-mismatch"
        if not agreement.verify(self.keys):
            return "agreement-signature-invalid"
        return None

    def transfer(self, transport, agreement_id: str, expected_content_hash: str) -> bytes:
        """Fetch payload bytes and accept them only if they hash to the
        claim's content hash."""
        payload, declared = transport.get_transfer(agreement_id)
        actual = content_hash(payload)
        if actual != expected_content_hash:
            raise IntegrityFailure(
                f"payload hashes to {actual}, claim declares {expected_content_hash}"
                + (f" (provider declared {declared})" if declared != actual else "")
            )
        return payload


def _session_of(raw) -> NegotiationSession:
    try:
        return NegotiationSession.from_dict(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedCatalog(f"negotiation response not parseable: {exc!r}") from exc


# ---------------------------------------------------------------------------
# File-backed provider state (for the stateless CLI)
# ---------------------------------------------------------------------------


class FileProviderStore:
    """Persist a provider connector's assets, payloads, and sessions to
    a directory so separate CLI invocations can share state.

    Files are named by content, never by id: a payload lives at
    ``payloads/<claim content hash>``, an asset or session record at
    ``assets/<sha256(id)>.json`` or ``sessions/<sha256(id)>.json``, so
    no id can lead outside the root. The instance remembers the content
    hash of every file it has written or read, and ``save`` writes only
    the files whose bytes differ. Each write goes to a temp file beside
    its target and is renamed over it, payloads before the asset records
    that name them and asset records before sessions, so a save cut off
    at any point leaves a store that loads. Nothing is fsynced and
    nothing is locked: the store survives a killed process, not a power
    loss, and expects one writer at a time.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._on_disk: dict[Path, str] = {}  # path -> content hash of its bytes

    def save(self, provider: ProviderConnector) -> None:
        for kind in ("assets", "payloads", "sessions"):
            (self.root / kind).mkdir(parents=True, exist_ok=True)
        self._put_record(self.root / "meta.json", {"provider_id": provider.actor_id})
        assets = provider._assets
        for asset_id in sorted(assets):
            asset = assets[asset_id]
            # publish has checked this hash against the payload bytes
            digest = asset.claim.content_hash
            path = self.root / "payloads" / digest
            if self._on_disk.get(path) != digest:
                self._replace(path, provider.data_source.resolve(asset.payload_locator), digest)
            self._put_record(self._record_path("assets", asset_id), asset.to_dict(public=False))
        for session_id, session in provider._sessions.items():
            self._put_record(self._record_path("sessions", session_id), session.to_dict())

    def load(self, keys: KeyDirectory, clock=None) -> ProviderConnector:
        meta = json.loads(self._read(self.root / "meta.json"))
        provider_key = keys.signer_for(meta["provider_id"])
        provider = ProviderConnector(provider_key=provider_key, keys=keys, clock=clock)
        for path in sorted((self.root / "assets").glob("*.json")):
            asset = Asset.from_dict(json.loads(self._read(path)))
            payload_path = self.root / "payloads" / asset.claim.content_hash
            provider.publish(
                payload=payload_path.read_bytes(),
                description=asset.description,
                policy=asset.usage_policy,
                claim=asset.claim,
                attestations=asset.attestation_refs,
                asset_id=asset.asset_id,
            )
            # publish has checked the bytes against their name
            self._on_disk[payload_path] = asset.claim.content_hash
        for path in sorted((self.root / "sessions").glob("*.json")):
            session = NegotiationSession.from_dict(json.loads(self._read(path)))
            provider._sessions[session.session_id] = session
            if session.agreement is not None:
                provider._agreements[session.agreement.agreement_id] = session.session_id
            # Every request leaves one session, so the count per
            # (asset, consumer) is the next sequence number.
            pair = (session.asset_id, session.consumer_id)
            provider._session_seq[pair] = provider._session_seq.get(pair, 0) + 1
        return provider

    def _record_path(self, kind: str, record_id: str) -> Path:
        # surrogatepass: any str id gets a name, even one no codec accepts
        name = content_hash(record_id.encode("utf-8", "surrogatepass"))
        return self.root / kind / f"{name}.json"

    def _put_record(self, path: Path, record: dict) -> None:
        data = (json.dumps(record, indent=2) + "\n").encode()
        digest = content_hash(data)
        if self._on_disk.get(path) != digest:
            self._replace(path, data, digest)

    def _replace(self, path: Path, data: bytes, digest: str) -> None:
        # load globs only *.json, so it never sees a half-written temp file
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._on_disk[path] = digest

    def _read(self, path: Path) -> bytes:
        data = path.read_bytes()
        self._on_disk[path] = content_hash(data)
        return data

    def exists(self) -> bool:
        return (self.root / "meta.json").is_file()
