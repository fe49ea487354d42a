"""Core domain types: assurance levels, actors, claims, attestations.

The level taxonomy is a fixed four-step ordinal scale. A provider's
claim alone can never establish more than SELF_ASSERTED; higher levels
require a third-party attestation, and an attestation can never raise
the effective level above what the provider claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional

from .envelope import (
    SignatureEnvelope,
    KeyPair,
    content_hash,
    derived_id,
    encode_typed,
    hash_of,
    is_hash_hex,
    sign_payload,
)

ACTOR_URN_PREFIX = "urn:actor:"

DIMENSION_NAMES = frozenset({"availability", "quality", "security", "compatibility"})


class AssuranceLevel(IntEnum):
    """Degree of confidence in a dataset's trustworthiness claim.

    Totally ordered by ordinal; comparisons are plain integer
    comparisons.
    """

    UNASSERTED = 0
    SELF_ASSERTED = 1
    AUDITED = 2
    AUDITED_HIGH = 3

    @classmethod
    def from_value(cls, value) -> "AssuranceLevel":
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ValueError(f"invalid assurance level {value!r}")
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(f"unknown assurance level name {value!r}") from None
        raise ValueError(f"invalid assurance level {value!r}")


class ActorRole(str, Enum):
    PROVIDER = "PROVIDER"
    CONSUMER = "CONSUMER"
    ASSURER = "ASSURER"


def make_actor_id(name: str) -> str:
    if not name:
        raise ValueError("actor name must be non-empty")
    return f"{ACTOR_URN_PREFIX}{name}"


@dataclass(frozen=True)
class ActorIdentity:
    """A named participant: provider, consumer, or assurance provider."""

    actor_id: str
    role: ActorRole
    public_key: str

    def __post_init__(self):
        if not self.actor_id.startswith(ACTOR_URN_PREFIX) or self.actor_id == ACTOR_URN_PREFIX:
            raise ValueError(f"actor_id must have the form {ACTOR_URN_PREFIX}<name>")
        if not self.public_key:
            raise ValueError("public_key must be non-empty")

    @property
    def name(self) -> str:
        return self.actor_id[len(ACTOR_URN_PREFIX):]

    def to_dict(self) -> dict:
        return {
            "actor_id": self.actor_id,
            "role": self.role.value,
            "public_key": self.public_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ActorIdentity":
        return cls(
            actor_id=data["actor_id"],
            role=ActorRole(data["role"]),
            public_key=data["public_key"],
        )


def validate_dimensions(dimensions: Mapping[str, str]) -> dict[str, str]:
    """Validate and copy a trust-dimension map.

    Keys are restricted to availability / quality / security /
    compatibility; values are free-text evidence summaries.
    """
    bad = set(dimensions) - DIMENSION_NAMES
    if bad:
        raise ValueError(f"unknown trust dimensions: {sorted(bad)}")
    for key, value in dimensions.items():
        if not isinstance(value, str):
            raise ValueError(f"dimension {key!r} must map to a string")
    return dict(dimensions)


def _check_str(value, label: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a string")


def _check_epoch(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer epoch timestamp")
    return value


@dataclass(frozen=True)
class TrustClaim:
    """Provider-signed statement binding a dataset's content hash to a
    claimed assurance level and trust dimensions."""

    claim_id: str
    dataset_id: str
    content_hash: str
    level_claimed: AssuranceLevel
    dimensions: dict[str, str]
    issued_at: int
    provider_id: str
    signature: SignatureEnvelope

    def __post_init__(self):
        # Every signed field is type-checked here, so canonical_bytes
        # needs no type walk.
        for label in ("claim_id", "dataset_id", "provider_id"):
            _check_str(getattr(self, label), label)
        if self.level_claimed < AssuranceLevel.SELF_ASSERTED:
            raise ValueError("a claim cannot claim UNASSERTED")
        if not is_hash_hex(self.content_hash):
            raise ValueError("content_hash must be 64 lowercase hex chars")
        object.__setattr__(self, "dimensions", validate_dimensions(self.dimensions))
        _check_epoch(self.issued_at, "issued_at")

    def signing_payload(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "dataset_id": self.dataset_id,
            "content_hash": self.content_hash,
            "level_claimed": int(self.level_claimed),
            "dimensions": self.dimensions,
            "issued_at": self.issued_at,
            "provider_id": self.provider_id,
        }

    @cached_property
    def canonical_bytes(self) -> bytes:
        """Canonical bytes of the signing payload, encoded once per
        claim: the message its signature covers."""
        return encode_typed(self.signing_payload())

    def canonical_hash(self) -> str:
        """Digest over the claim's canonical bytes (signature excluded);
        attestations bind to this value."""
        return content_hash(self.canonical_bytes)

    def to_dict(self) -> dict:
        data = self.signing_payload()
        data["signature"] = self.signature.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrustClaim":
        return cls(
            claim_id=data["claim_id"],
            dataset_id=data["dataset_id"],
            content_hash=data["content_hash"],
            level_claimed=AssuranceLevel.from_value(data["level_claimed"]),
            dimensions=dict(data.get("dimensions", {})),
            issued_at=data["issued_at"],
            provider_id=data["provider_id"],
            signature=SignatureEnvelope.from_dict(data["signature"]),
        )


def create_claim(
    dataset_id: str,
    payload_hash: str,
    level: AssuranceLevel | int,
    dimensions: Mapping[str, str],
    provider_key: KeyPair,
    issued_at: int,
    claim_id: Optional[str] = None,
) -> TrustClaim:
    """Build and sign a trust claim for a dataset.

    The claim id is derived from the claim's own content unless given,
    so identical inputs always mint the same claim.
    """
    level = AssuranceLevel.from_value(level)
    body = {
        "dataset_id": dataset_id,
        "content_hash": payload_hash,
        "level_claimed": int(level),
        "dimensions": validate_dimensions(dimensions),
        "issued_at": issued_at,
        "provider_id": provider_key.key_id,
    }
    if claim_id is None:
        claim_id = derived_id("claim", body)
    payload = {"claim_id": claim_id, **body}
    signature = sign_payload(payload, provider_key)
    return TrustClaim(
        claim_id=claim_id,
        dataset_id=dataset_id,
        content_hash=payload_hash,
        level_claimed=level,
        dimensions=dict(dimensions),
        issued_at=issued_at,
        provider_id=provider_key.key_id,
        signature=signature,
    )


@dataclass(frozen=True)
class EvidenceArtifact:
    """One piece of audit evidence, identified by kind and content hash."""

    kind: str
    content_hash: str
    description: str = ""

    def __post_init__(self):
        if not self.kind:
            raise ValueError("artifact kind must be non-empty")
        if not is_hash_hex(self.content_hash):
            raise ValueError("artifact content_hash must be 64 lowercase hex chars")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "content_hash": self.content_hash,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvidenceArtifact":
        return cls(
            kind=data["kind"],
            content_hash=data["content_hash"],
            description=data.get("description", ""),
        )


@dataclass(frozen=True)
class EvidenceManifest:
    """Content-hashed list of audit artifacts supporting one claim."""

    manifest_id: str
    claim_id: str
    artifacts: tuple[EvidenceArtifact, ...]
    created_at: int

    def __post_init__(self):
        if not self.artifacts:
            raise ValueError("evidence manifest requires at least one artifact")
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        _check_epoch(self.created_at, "created_at")

    def kinds(self) -> set[str]:
        return {a.kind for a in self.artifacts}

    def to_dict(self) -> dict:
        return {
            "manifest_id": self.manifest_id,
            "claim_id": self.claim_id,
            "artifacts": [a.to_dict() for a in self.artifacts],
            "created_at": self.created_at,
        }

    def canonical_hash(self) -> str:
        return hash_of(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvidenceManifest":
        return cls(
            manifest_id=data["manifest_id"],
            claim_id=data["claim_id"],
            artifacts=tuple(EvidenceArtifact.from_dict(a) for a in data["artifacts"]),
            created_at=data["created_at"],
        )


def build_manifest(
    claim_id: str,
    artifacts: Iterable[EvidenceArtifact],
    created_at: int,
    manifest_id: Optional[str] = None,
) -> EvidenceManifest:
    artifacts = tuple(artifacts)
    if manifest_id is None:
        body = {
            "claim_id": claim_id,
            "artifacts": [a.to_dict() for a in artifacts],
            "created_at": created_at,
        }
        manifest_id = derived_id("manifest", body)
    return EvidenceManifest(
        manifest_id=manifest_id,
        claim_id=claim_id,
        artifacts=artifacts,
        created_at=created_at,
    )


@dataclass(frozen=True)
class Attestation:
    """Assurance-provider-signed audit result binding a claim hash to an
    assured level, valid for a bounded time window."""

    attestation_id: str
    claim_hash: str
    level_assured: AssuranceLevel
    assurer_id: str
    evidence_manifest_hash: str
    valid_from: int
    valid_until: int
    signature: SignatureEnvelope

    def __post_init__(self):
        # Every signed field is type-checked here, so canonical_bytes
        # needs no type walk.
        _check_str(self.attestation_id, "attestation_id")
        _check_str(self.assurer_id, "assurer_id")
        if self.level_assured not in (AssuranceLevel.AUDITED, AssuranceLevel.AUDITED_HIGH):
            raise ValueError("level_assured must be AUDITED or AUDITED_HIGH")
        if not is_hash_hex(self.claim_hash):
            raise ValueError("claim_hash must be 64 lowercase hex chars")
        if not is_hash_hex(self.evidence_manifest_hash):
            raise ValueError("evidence_manifest_hash must be 64 lowercase hex chars")
        _check_epoch(self.valid_from, "valid_from")
        _check_epoch(self.valid_until, "valid_until")
        if not self.valid_from < self.valid_until:
            raise ValueError("valid_from must precede valid_until")

    def valid_at(self, now: int) -> bool:
        return self.valid_from <= now <= self.valid_until

    def signing_payload(self) -> dict:
        return {
            "attestation_id": self.attestation_id,
            "claim_hash": self.claim_hash,
            "level_assured": int(self.level_assured),
            "assurer_id": self.assurer_id,
            "evidence_manifest_hash": self.evidence_manifest_hash,
            "valid_from": self.valid_from,
            "valid_until": self.valid_until,
        }

    @cached_property
    def canonical_bytes(self) -> bytes:
        """Canonical bytes of the signing payload, encoded once per
        attestation: the message its signature covers."""
        return encode_typed(self.signing_payload())

    def to_dict(self) -> dict:
        data = self.signing_payload()
        data["signature"] = self.signature.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Attestation":
        return cls(
            attestation_id=data["attestation_id"],
            claim_hash=data["claim_hash"],
            level_assured=AssuranceLevel.from_value(data["level_assured"]),
            assurer_id=data["assurer_id"],
            evidence_manifest_hash=data["evidence_manifest_hash"],
            valid_from=data["valid_from"],
            valid_until=data["valid_until"],
            signature=SignatureEnvelope.from_dict(data["signature"]),
        )


def effective_level(
    claim: Optional[TrustClaim],
    attestations: Iterable[Attestation],
    revoked: Collection[str],
    now: int,
) -> AssuranceLevel:
    """Combine a claim and its attestations into one effective level.

    Callers must pass only signature-verified inputs: ``claim`` is None
    when absent or when its signature failed, and every attestation in
    the list has a verified signature and a claim_hash matching the
    claim. Each attestation counts only while unrevoked and inside its
    validity window, and is capped at the claimed level; with no claim
    there is nothing to attest, and the result is UNASSERTED.
    """
    if claim is None:
        return AssuranceLevel.UNASSERTED
    best = int(AssuranceLevel.SELF_ASSERTED)
    for att in attestations:
        if att.attestation_id in revoked:
            continue
        if not att.valid_at(now):
            continue
        best = max(best, min(int(att.level_assured), int(claim.level_claimed)))
    return AssuranceLevel(best)
