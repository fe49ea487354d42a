"""Assurance-provider service: evidence audits, attestation issuance,
and revocation bookkeeping.

The audit is deliberately shallow: it checks that the evidence manifest
covers every artifact kind the requested level demands and that the
requested level does not exceed what the provider claimed. Artifact
content is never semantically evaluated here; real audit semantics are
domain-specific and live with the deployment.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .envelope import KeyDirectory, KeyPair
from .errors import InvalidClaimSignature, ManifestMismatch, decode
from .model import (
    AssuranceLevel,
    Attestation,
    EvidenceManifest,
    TrustClaim,
)

AUDITABLE_LEVELS = (AssuranceLevel.AUDITED, AssuranceLevel.AUDITED_HIGH)

SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class LevelRequirement:
    """Evidence kinds and attestation lifetime for one auditable level."""

    required_kinds: frozenset[str]
    max_validity_seconds: int

    def __post_init__(self):
        object.__setattr__(self, "required_kinds", frozenset(self.required_kinds))
        if self.max_validity_seconds <= 0:
            raise ValueError("max_validity_seconds must be positive")


class LevelRequirements:
    """Per-level audit requirements for levels 2 and 3.

    Well-formedness: level 3 must demand a superset of level 2's
    evidence kinds and must not grant longer-lived attestations.
    """

    def __init__(self, requirements: Mapping[int, LevelRequirement]):
        if set(requirements) != {2, 3}:
            raise ValueError("requirements must cover exactly levels 2 and 3")
        if not requirements[3].required_kinds >= requirements[2].required_kinds:
            raise ValueError("level 3 must require a superset of level 2 kinds")
        if requirements[3].max_validity_seconds > requirements[2].max_validity_seconds:
            raise ValueError("level 3 validity must not exceed level 2 validity")
        self._by_level = dict(requirements)

    def for_level(self, level: AssuranceLevel | int) -> LevelRequirement:
        return self._by_level[int(level)]

    @classmethod
    def default(cls) -> "LevelRequirements":
        return cls({
            2: LevelRequirement(
                required_kinds=frozenset({"quality-report", "provenance-record"}),
                max_validity_seconds=90 * SECONDS_PER_DAY,
            ),
            3: LevelRequirement(
                required_kinds=frozenset({
                    "quality-report",
                    "provenance-record",
                    "integrity-monitoring",
                    "security-assessment",
                }),
                max_validity_seconds=30 * SECONDS_PER_DAY,
            ),
        })

    def to_dict(self) -> dict:
        return {
            str(level): {
                "required_kinds": sorted(req.required_kinds),
                "max_validity_seconds": req.max_validity_seconds,
            }
            for level, req in sorted(self._by_level.items())
        }

    @classmethod
    def from_dict(cls, data: Mapping, where: str = "level_requirements") -> "LevelRequirements":
        """Requirements of the ``to_dict`` shape, ``where`` being the path
        of ``data``: MalformedInput naming the field at fault for any other
        shape, ValueError for levels that break the rules above."""
        entry = {"required_kinds": [str], "max_validity_seconds": int}
        levels = decode(data, {"2": entry, "3": entry}, where)
        return cls({int(level): LevelRequirement(**fields) for level, fields in levels.items()})


CLAIM_CAP_REASON = "claim-cap"


@dataclass(frozen=True)
class AuditOutcome:
    """Result of auditing a claim's evidence for a requested level; the
    service adds the attestation it issued for a PASS."""

    passed: bool
    granted: Optional[AssuranceLevel]
    missing_kinds: tuple[str, ...] = ()
    claim_cap_violation: bool = False
    attestation: Optional[dict] = None

    @property
    def reason(self) -> str:
        if self.passed:
            return ""
        parts = []
        if self.claim_cap_violation:
            parts.append(CLAIM_CAP_REASON)
        if self.missing_kinds:
            parts.append("missing: " + ", ".join(self.missing_kinds))
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """The wire shape, the body of a ``/audits`` response."""
        return {
            "passed": self.passed,
            "attestation": self.attestation,
            "missing_kinds": list(self.missing_kinds),
            "claim_cap_violation": self.claim_cap_violation,
            "reason": self.reason,
        }


def audit(
    claim: TrustClaim,
    manifest: EvidenceManifest,
    requested_level: AssuranceLevel | int,
    reqs: LevelRequirements,
    provider_public_key: Optional[str],
) -> AuditOutcome:
    """Check a claim's evidence against the requested level's demands.

    PASS requires every required artifact kind to be present in the
    manifest and the requested level to stay within what the provider
    claimed. FAIL lists every missing kind.
    """
    requested_level = AssuranceLevel.from_value(requested_level)
    if requested_level not in AUDITABLE_LEVELS:
        raise ValueError("only levels 2 and 3 can be audited")
    if provider_public_key is None:
        raise InvalidClaimSignature(f"no known key for provider {claim.provider_id}")
    if not claim.verify_with(provider_public_key):
        raise InvalidClaimSignature(f"claim {claim.claim_id} signature did not verify")
    if manifest.claim_id != claim.claim_id:
        raise ManifestMismatch(
            f"manifest references claim {manifest.claim_id}, audited claim is {claim.claim_id}"
        )

    missing = tuple(sorted(reqs.for_level(requested_level).required_kinds - manifest.kinds()))
    over_cap = requested_level > claim.level_claimed
    if missing or over_cap:
        return AuditOutcome(
            passed=False,
            granted=None,
            missing_kinds=missing,
            claim_cap_violation=over_cap,
        )
    return AuditOutcome(passed=True, granted=requested_level)


def issue_attestation(
    claim: TrustClaim,
    manifest: EvidenceManifest,
    outcome: AuditOutcome,
    assurer_key: KeyPair,
    now: int,
    reqs: LevelRequirements,
) -> Attestation:
    """Sign an attestation for a passed audit.

    Binds to the claim's canonical hash (hence to one specific dataset
    content hash) and to the evidence manifest's digest; validity runs
    from ``now`` for the granted level's configured lifetime.
    """
    if not outcome.passed or outcome.granted is None:
        raise ValueError("attestations can only be issued for PASS outcomes")
    body = {
        "claim_hash": claim.canonical_hash(),
        "level_assured": outcome.granted,
        "evidence_manifest_hash": manifest.canonical_hash(),
        "valid_from": now,
        "valid_until": now + reqs.for_level(outcome.granted).max_validity_seconds,
    }
    return Attestation.sign(assurer_key, body)


@dataclass(frozen=True)
class RevocationEntry:
    attestation_id: str
    revoked_at: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "attestation_id": self.attestation_id,
            "revoked_at": self.revoked_at,
            "reason": self.reason,
        }


class RevocationList:
    """Set of revoked attestation ids; inserts are idempotent (the first
    revocation of an id wins). Mutation is serialized behind a lock so
    readers always see a consistent snapshot."""

    def __init__(self):
        self._entries: dict[str, RevocationEntry] = {}
        self._lock = threading.Lock()

    def revoke(self, attestation_id: str, reason: str, now: int) -> None:
        # Entries are listed sorted by id, which a non-str id would break.
        if not isinstance(attestation_id, str):
            raise ValueError("attestation_id must be a string")
        with self._lock:
            if attestation_id not in self._entries:
                self._entries[attestation_id] = RevocationEntry(
                    attestation_id=attestation_id, revoked_at=now, reason=reason
                )

    def is_revoked(self, attestation_id: str) -> bool:
        with self._lock:
            return attestation_id in self._entries

    def revoked_ids(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._entries)

    def entries(self) -> list[RevocationEntry]:
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.attestation_id)

    def to_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class AssuranceService:
    """One assurance provider: audits claims, issues attestations, and
    maintains the deployment's revocation list."""

    def __init__(
        self,
        assurer_key: KeyPair,
        key_directory: KeyDirectory,
        requirements: Optional[LevelRequirements] = None,
        clock=None,
    ):
        self.assurer_key = assurer_key
        self.keys = key_directory
        self.requirements = requirements or LevelRequirements.default()
        self.revocations = RevocationList()
        self._clock = clock or (lambda: int(time.time()))

    @property
    def actor_id(self) -> str:
        return self.assurer_key.key_id

    def now(self) -> int:
        return int(self._clock())

    def handle_audit(
        self, claim_data: Mapping, manifest_data: Mapping, requested_level: int
    ) -> AuditOutcome:
        claim = TrustClaim.from_dict(claim_data)
        manifest = EvidenceManifest.from_dict(manifest_data)
        outcome = audit(
            claim,
            manifest,
            requested_level,
            self.requirements,
            self.keys.public_key_for(claim.provider_id),
        )
        if not outcome.passed:
            return outcome
        attestation = issue_attestation(
            claim, manifest, outcome, self.assurer_key, self.now(), self.requirements
        )
        return replace(outcome, attestation=attestation.to_dict())

    def revoke(self, attestation_id: str, reason: str) -> None:
        self.revocations.revoke(attestation_id, reason, self.now())
