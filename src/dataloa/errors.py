"""Exception hierarchy shared by all dataloa modules, and the one
decoder of outside input.

Every domain failure raises a subclass of DataLoaError so callers (CLI,
HTTP layer, scenario runner) can distinguish domain errors from bugs.
Scenario files, config files and request bodies are read by decode(),
which refuses anything not exactly as its spec declares.
"""

from __future__ import annotations

import re


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


class MalformedInput(DataLoaError):
    """Outside input (a request, a file, an argument) is not of the
    declared shape; the message names the path of the field at fault."""


class ConfigError(MalformedInput):
    """Deployment configuration file is missing or malformed."""


class ScenarioParseError(MalformedInput):
    """Scenario file is malformed or contains dangling references."""


class StepFailure(DataLoaError):
    """A scenario step could not be carried out as written."""


# Stable wire codes and HTTP statuses for domain errors crossing the HTTP
# boundary; a type not listed is ("domain_error", 500).
WIRE_CODES: dict[type, tuple[str, int]] = {
    MalformedInput: ("bad_request", 400),
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


_EXPECTED = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "a list"}
_SURROGATE = re.compile("[\ud800-\udfff]")


def decode(data, spec, where: str):
    """``data`` read as ``spec``, or MalformedInput naming the path of
    the first field at fault, ``where`` being the path of ``data``.

    A spec is one of:

    * ``str``, ``int``, ``bool``, ``dict`` or ``list``: a value of that
      JSON type. An int is never a bool, and a number is an int only
      when integral (2.0 reads as 2); a string holds no lone surrogate
      (I-JSON, RFC 7493 section 2.1);
    * a dict of field name to spec: an object with exactly those fields
      and no other (JSON Schema's ``additionalProperties: false``). A
      field whose spec is a ``(spec, default)`` pair may be left out,
      and then reads as its default;
    * a one-item list: a list, each item read as that item's spec, the
      whole as a tuple;
    * a set: one of its members, all of one type;
    * any other callable: a validator, given the value, whose result is
      the value read; its KeyError, TypeError or ValueError is a refusal.
    """
    if isinstance(spec, dict):
        unknown = [name for name in decode(data, dict, where) if name not in spec]
        if unknown:
            raise MalformedInput(f"{where}: unknown field {unknown[0]!r}")
        fields = {}
        for name, field in spec.items():
            optional = isinstance(field, tuple)
            if name in data:
                fields[name] = decode(data[name], field[0] if optional else field, f"{where}.{name}")
            elif optional:
                fields[name] = field[1]
            else:
                raise MalformedInput(f"{where}: missing field {name!r}")
        return fields
    if isinstance(spec, list):
        return tuple(decode(item, spec[0], f"{where}[{i}]")
                     for i, item in enumerate(decode(data, list, where)))
    if isinstance(spec, set):
        value = decode(data, type(next(iter(spec))), where)
        if value not in spec:
            raise MalformedInput(f"{where}: {value!r} is not one of {sorted(spec)}")
        return value
    if spec not in _EXPECTED:
        try:
            return spec(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"{where}: {exc}") from None
    if spec is int and isinstance(data, float) and data.is_integer():
        return int(data)
    if not isinstance(data, spec) or spec is int and isinstance(data, bool):
        # A scalar is shown; a string or a container, which may be large, is named.
        shown = repr(data) if data is None or isinstance(data, (bool, int, float)) else type(data).__name__
        raise MalformedInput(f"{where}: expected {_EXPECTED[spec]}, got {shown}")
    if spec is str and _SURROGATE.search(data):
        raise MalformedInput(f"{where}: holds a lone surrogate, which is not text")
    return data
