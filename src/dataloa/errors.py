"""Exception hierarchy shared by all dataloa modules.

Every domain failure raises a subclass of DataLoaError so callers (CLI,
HTTP layer, scenario runner) can distinguish domain errors from bugs.
"""

from __future__ import annotations


class DataLoaError(Exception):
    """Base class for all domain errors."""


class NonCanonicalizable(DataLoaError):
    """Value cannot be canonically encoded (float or non-string map key)."""


class UnknownAlgorithm(DataLoaError):
    """Signature algorithm identifier is not registered."""


class SigningFailure(DataLoaError):
    """Signing could not be performed (missing or unusable secret key)."""


class InvalidClaimSignature(DataLoaError):
    """A trust claim's signature did not verify."""


class ManifestMismatch(DataLoaError):
    """Evidence manifest does not reference the audited claim."""


class HashMismatch(DataLoaError):
    """Declared content hash does not match the actual payload bytes."""


class InvalidClaim(DataLoaError):
    """Claim (or an attached attestation) failed publish-time validation."""


class DuplicateAssetId(DataLoaError):
    """An asset with this id is already published."""


class Unreachable(DataLoaError):
    """Remote endpoint could not be reached."""


class MalformedCatalog(DataLoaError):
    """Catalog response could not be parsed into the expected shape."""


class IllegalTransition(DataLoaError):
    """Negotiation event not allowed in the session's current state."""


class UnknownSession(DataLoaError):
    """No negotiation session with this id."""


class NoSuchAgreement(DataLoaError):
    """No agreement with this id."""


class NotFinalized(DataLoaError):
    """Transfer requested for a session that is not FINALIZED."""


class IntegrityFailure(DataLoaError):
    """Transferred payload bytes do not hash to the claimed content hash."""


class UnknownRiskClass(DataLoaError):
    """Risk class name is not part of the consumer policy."""


class ConfigError(DataLoaError):
    """Deployment configuration file is missing or malformed."""


class ScenarioParseError(DataLoaError):
    """Scenario file is malformed or contains dangling references."""


class StepFailure(DataLoaError):
    """A scenario step could not be carried out as written."""


# Stable wire codes and HTTP statuses for domain errors crossing the HTTP
# boundary; a type not listed is ("domain_error", 500).
WIRE_CODES: dict[type, tuple[str, int]] = {
    InvalidClaimSignature: ("invalid_claim_signature", 400),
    ManifestMismatch: ("manifest_mismatch", 400),
    HashMismatch: ("hash_mismatch", 400),
    InvalidClaim: ("invalid_claim", 400),
    DuplicateAssetId: ("duplicate_asset_id", 500),
    IllegalTransition: ("illegal_transition", 409),
    UnknownSession: ("unknown_session", 404),
    NoSuchAgreement: ("no_such_agreement", 404),
    NotFinalized: ("not_finalized", 409),
    UnknownAlgorithm: ("unknown_algorithm", 500),
}

_CODE_TO_ERROR = {code: exc for exc, (code, _) in WIRE_CODES.items()}


def wire_code_for(exc: DataLoaError) -> tuple[str, int]:
    """The wire code and HTTP status of a domain error."""
    return WIRE_CODES.get(type(exc), ("domain_error", 500))


def error_for_wire_code(code: str, message: str) -> DataLoaError:
    return _CODE_TO_ERROR.get(code, DataLoaError)(message)
