"""Core domain types: assurance levels, actors, and the three signed
records: claims, attestations and agreements.

The level taxonomy is a fixed four-step ordinal scale. A provider's
claim alone can never establish more than SELF_ASSERTED; higher levels
require a third-party attestation, and an attestation can never raise
the effective level above what the provider claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Collection, Iterable, Mapping, Optional

from .envelope import (
    KeyDirectory,
    KeyPair,
    SignatureEnvelope,
    content_hash,
    derived_id,
    encode_typed,
    hash_of,
    is_hash_hex,
    sign_payload,
    verify_payload,
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


def validate_dimensions(dimensions: Mapping[str, str]) -> dict[str, str]:
    """Validate and copy a trust-dimension map.

    Keys are restricted to availability / quality / security /
    compatibility; values are free-text evidence summaries.
    """
    dimensions = dict(dimensions)
    bad = set(dimensions) - DIMENSION_NAMES
    if bad:
        raise ValueError(f"unknown trust dimensions: {sorted(bad)}")
    for key, value in dimensions.items():
        if not isinstance(value, str):
            raise ValueError(f"dimension {key!r} must map to a string")
    return dimensions


def _check_str(record, *labels: str, optional: bool = False) -> None:
    """Each field a string, or also None where ``optional``."""
    for label in labels:
        value = getattr(record, label)
        if not (isinstance(value, str) or optional and value is None):
            raise ValueError(f"{label} must be a string")


def _check_hash(record, *labels: str) -> None:
    for label in labels:
        if not is_hash_hex(getattr(record, label)):
            raise ValueError(f"{label} must be 64 lowercase hex chars")


def _check_epoch(record, *labels: str) -> None:
    for label in labels:
        value = getattr(record, label)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{label} must be an integer epoch timestamp")


def signed_record(kind: str, signer: str):
    """Class decorator for a frozen dataclass whose first field is the
    record's id and whose last is its ``signature`` over every other
    field, ``signer`` naming the field that holds the signer's actor id.

    The class's ``__post_init__`` must type-check every signed field, so
    ``canonical_bytes`` can skip ``canonicalize``'s type walk. The
    methods are set on the class itself, not inherited, so each record
    type holds its own ``from_dict``.
    """

    def install(cls):
        names = tuple(f.name for f in fields(cls))[:-1]
        id_field = names[0]
        attrs_of = attrgetter(*names)
        items_of = itemgetter(*names)

        def signing_payload(self) -> dict:
            return dict(zip(names, attrs_of(self)))

        def canonical_bytes(self) -> bytes:
            """Canonical bytes of the signing payload, encoded once per
            record: the message its signature covers."""
            return encode_typed(self.signing_payload())

        def to_dict(self) -> dict:
            data = self.signing_payload()
            data["signature"] = self.signature.to_dict()
            return data

        def from_dict(cls, data: Mapping):
            return cls(*items_of(data), SignatureEnvelope.from_dict(data["signature"]))

        def sign(cls, key: KeyPair, body: Mapping, record_id: Optional[str] = None, **id_salt):
            """The record of ``body`` signed by ``key``, whose id is the
            signer. The record id, unless given, is derived from the body
            and ``id_salt``, so identical inputs mint the same record."""
            body = {**body, signer: key.key_id}
            if record_id is None:
                record_id = derived_id(kind, {**body, **id_salt})
            record = cls(**{id_field: record_id}, **body, signature=None)
            # Set once, before the record is handed out; signs the bytes
            # the constructor has already type-checked.
            object.__setattr__(record, "signature", sign_payload(record.canonical_bytes, key))
            return record

        def verify(self, keys: KeyDirectory) -> bool:
            """True iff the signature verifies under the signer's key in
            ``keys``; False also when ``keys`` holds no key for it."""
            return self.verify_with(keys.public_key_for(getattr(self, signer)))

        def verify_with(self, public_key: Optional[str]) -> bool:
            """True iff the signature verifies under ``public_key``."""
            return public_key is not None and verify_payload(
                self.canonical_bytes, self.signature, public_key
            )

        cached = cached_property(canonical_bytes)
        cached.__set_name__(cls, "canonical_bytes")
        for name, value in (
            ("signing_payload", signing_payload),
            ("canonical_bytes", cached),
            ("to_dict", to_dict),
            ("from_dict", classmethod(from_dict)),
            ("sign", classmethod(sign)),
            ("verify", verify),
            ("verify_with", verify_with),
        ):
            setattr(cls, name, value)
        return cls

    return install


@signed_record("claim", signer="provider_id")
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
        _check_str(self, "claim_id", "dataset_id", "provider_id")
        object.__setattr__(self, "level_claimed", AssuranceLevel.from_value(self.level_claimed))
        if self.level_claimed < AssuranceLevel.SELF_ASSERTED:
            raise ValueError("a claim cannot claim UNASSERTED")
        _check_hash(self, "content_hash")
        object.__setattr__(self, "dimensions", validate_dimensions(self.dimensions))
        _check_epoch(self, "issued_at")

    def canonical_hash(self) -> str:
        """Digest over the claim's canonical bytes (signature excluded);
        attestations bind to this value."""
        return content_hash(self.canonical_bytes)


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
    body = {
        "dataset_id": dataset_id,
        "content_hash": payload_hash,
        "level_claimed": AssuranceLevel.from_value(level),
        "dimensions": validate_dimensions(dimensions),
        "issued_at": issued_at,
    }
    return TrustClaim.sign(provider_key, body, record_id=claim_id)


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
        _check_epoch(self, "created_at")

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


@signed_record("attestation", signer="assurer_id")
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
        _check_str(self, "attestation_id", "assurer_id")
        object.__setattr__(self, "level_assured", AssuranceLevel.from_value(self.level_assured))
        if self.level_assured not in (AssuranceLevel.AUDITED, AssuranceLevel.AUDITED_HIGH):
            raise ValueError("level_assured must be AUDITED or AUDITED_HIGH")
        _check_hash(self, "claim_hash", "evidence_manifest_hash")
        _check_epoch(self, "valid_from", "valid_until")
        if not self.valid_from < self.valid_until:
            raise ValueError("valid_from must precede valid_until")

    def valid_at(self, now: int) -> bool:
        return self.valid_from <= now <= self.valid_until


@signed_record("agreement", signer="provider_id")
@dataclass(frozen=True)
class Agreement:
    """Provider-signed record of a successful negotiation, pinning the
    exact policy and claim the consumer saw."""

    agreement_id: str
    asset_id: str
    consumer_id: str
    provider_id: str
    policy_hash: str
    claim_hash: str
    agreed_at: int
    signature: SignatureEnvelope

    def __post_init__(self):
        _check_str(self, "agreement_id", "asset_id", "consumer_id", "provider_id")
        _check_hash(self, "policy_hash", "claim_hash")
        _check_epoch(self, "agreed_at")


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
