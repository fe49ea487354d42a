"""Risk-based accept/reject decisions over verified catalog assets.

A consumer maps each risk class to a minimum assurance level, then
accepts an asset exactly when its effective level (claims capped by
what was actually attested, minus anything revoked or out of window)
meets that minimum. Every rejection carries human-readable reasons
naming the causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping

from .connector import VerifiedAsset
from .errors import UnknownRiskClass
from .model import AssuranceLevel, counted_level, lapse_reason


class RiskClass(str, Enum):
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"

    @classmethod
    def from_value(cls, value) -> "RiskClass":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise UnknownRiskClass(f"unknown risk class {value!r}") from None


RISK_ORDER: tuple[RiskClass, ...] = (
    RiskClass.LOW,
    RiskClass.MEDIUM,
    RiskClass.HIGH,
    RiskClass.CRITICAL,
)


class Verdict(str, Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"


@dataclass(frozen=True)
class ConsumerPolicy:
    """Mapping from risk class to the minimum assurance level a
    consumer will accept at that risk.

    The mapping must cover all risk classes and be monotone: a higher
    risk class never requires a lower level.
    """

    risk_to_min_level: Mapping[RiskClass, AssuranceLevel]

    def __post_init__(self):
        mapping = {
            RiskClass.from_value(k): AssuranceLevel.from_value(v)
            for k, v in dict(self.risk_to_min_level).items()
        }
        missing = [r.value for r in RISK_ORDER if r not in mapping]
        if missing:
            raise ValueError(f"policy missing risk classes: {missing}")
        for lower, higher in zip(RISK_ORDER, RISK_ORDER[1:]):
            if mapping[higher] < mapping[lower]:
                raise ValueError(
                    f"required level for {higher.value} is below {lower.value}; "
                    "policy must be monotone in risk"
                )
        object.__setattr__(self, "risk_to_min_level", mapping)

    def required_level(self, risk: RiskClass) -> AssuranceLevel:
        return self.risk_to_min_level[RiskClass.from_value(risk)]

    @classmethod
    def default(cls) -> "ConsumerPolicy":
        return cls(
            risk_to_min_level={
                RiskClass.LOW: AssuranceLevel.SELF_ASSERTED,
                RiskClass.MEDIUM: AssuranceLevel.AUDITED,
                RiskClass.HIGH: AssuranceLevel.AUDITED_HIGH,
                RiskClass.CRITICAL: AssuranceLevel.AUDITED_HIGH,
            }
        )

    def to_dict(self) -> dict:
        return {
            "risk_to_min_level": {
                r.value: int(self.risk_to_min_level[r]) for r in RISK_ORDER
            }
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ConsumerPolicy":
        return cls(risk_to_min_level=data["risk_to_min_level"])


@dataclass(frozen=True)
class Decision:
    """One accept/reject decision with its full justification.

    Invariant: verdict is ACCEPT exactly when the effective level meets
    the required level.
    """

    verdict: Verdict
    asset_id: str
    risk_class: RiskClass
    required_level: AssuranceLevel
    effective: AssuranceLevel
    reasons: tuple[str, ...]
    decided_at: int

    def __post_init__(self):
        meets = self.effective >= self.required_level
        if (self.verdict is Verdict.ACCEPT) != meets:
            raise ValueError(
                f"verdict {self.verdict.value} inconsistent with levels "
                f"(effective {self.effective.name}, required {self.required_level.name})"
            )

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "asset_id": self.asset_id,
            "risk_class": self.risk_class.value,
            "required_level": int(self.required_level),
            "effective_level": int(self.effective),
            "reasons": list(self.reasons),
            "decided_at": self.decided_at,
        }


def decide(
    vasset: VerifiedAsset,
    risk: RiskClass,
    policy: ConsumerPolicy,
    revoked: Collection[str],
    now: int,
) -> Decision:
    """Decide whether to accept one verified asset at a given risk.

    The effective level is recomputed here from the verified claim and
    attestations, so revocations and expiry observed at decision time
    always win over whatever the catalog said. Each attestation either
    counts or gives its ``lapse_reason``; ``revoked`` is read as given.
    """
    risk = RiskClass.from_value(risk)
    required = policy.risk_to_min_level[risk]

    claim = vasset.asset.claim if vasset.claim_valid else None
    counted = []
    reasons: list[str] = []
    for att in vasset.valid_attestations:
        reason = lapse_reason(att, revoked, now)
        if reason is None:
            counted.append(att)
        else:
            reasons.append(reason)
    effective = counted_level(claim, counted)

    if effective >= required:
        verdict = Verdict.ACCEPT
        reasons.insert(
            0, f"effective level {effective.name} meets required {required.name}"
        )
    else:
        verdict = Verdict.REJECT
        reasons.insert(
            0, f"effective level {effective.name} below required {required.name}"
        )
        if claim is None:
            reasons.insert(1, "no valid claim; asset is unasserted")
        elif effective == AssuranceLevel.SELF_ASSERTED and not counted:
            reasons.insert(1, "claim is self-asserted with no valid attestation")
        reasons.extend(vasset.problems)

    return Decision(
        verdict=verdict,
        asset_id=vasset.asset.asset_id,
        risk_class=risk,
        required_level=required,
        effective=effective,
        reasons=tuple(reasons),
        decided_at=now,
    )
