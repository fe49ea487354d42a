"""Canonical encoding, content hashing, signing, and key handling.

Every signed object in the system (claim, attestation, agreement) is
reduced to canonical bytes before hashing or signing, so that two
structurally equal objects always produce identical digests regardless
of construction order.

Canonical form: UTF-8 JSON, map keys sorted by byte value, no
insignificant whitespace, integers in shortest decimal form, strings
minimally escaped (only control characters, double quote, and
backslash). Floats and non-string map keys are rejected outright;
nothing in the domain model ever carries a float.

Signed-object convention: the signature is computed over the canonical
bytes of the object with its ``signature`` field removed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
import uuid
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Iterator, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import NonCanonicalizable, SigningFailure, UnknownAlgorithm

HASH_ALG = "sha256"
DEFAULT_SIGNATURE_ALG = "ed25519"

_HASH_HEX_RE = re.compile(r"^[0-9a-f]{64}$")

# Namespace for content-derived object ids; ids must be reproducible
# across processes and transport modes given the same inputs.
_ID_NAMESPACE = uuid.uuid5(uuid.NAMESPACE_URL, "urn:dataloa:ids")


def _check_canonicalizable(value: Any, path: str = "$") -> None:
    if value is None or isinstance(value, (str, bool)):
        return
    if isinstance(value, float):
        raise NonCanonicalizable(f"float at {path} cannot be canonicalized")
    if isinstance(value, int):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_canonicalizable(item, f"{path}[{i}]")
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise NonCanonicalizable(
                    f"non-string map key {key!r} at {path}"
                )
            _check_canonicalizable(item, f"{path}.{key}")
        return
    raise NonCanonicalizable(
        f"unsupported type {type(value).__name__} at {path}"
    )


def canonicalize(value: Any) -> bytes:
    """Return the canonical byte encoding of a structured value.

    Raises NonCanonicalizable for floats, non-string map keys, or any
    type outside str/int/bool/None/list/map.
    """
    _check_canonicalizable(value)
    return encode_typed(value)


def encode_typed(value: Any) -> bytes:
    """``canonicalize`` without its type walk, for a signed record whose
    constructor has already checked that every field it signs is a str,
    int, bool, None, list or str-keyed map. Anything else must go
    through ``canonicalize``."""
    return json.dumps(
        value, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def content_hash(data: bytes) -> str:
    """Lowercase hex SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def hash_of(value: Any) -> str:
    """Digest of a structured value's canonical bytes."""
    return content_hash(canonicalize(value))


def is_hash_hex(value: str) -> bool:
    return isinstance(value, str) and bool(_HASH_HEX_RE.match(value))


def derived_id(kind: str, payload: Any) -> str:
    """Deterministic UUID for an object, derived from its content.

    Two objects with identical content (of the same kind) get the same
    id, which keeps scenario runs reproducible across processes.
    """
    return str(uuid.uuid5(_ID_NAMESPACE, f"{kind}:{hash_of(payload)}"))


# ---------------------------------------------------------------------------
# Signature schemes
# ---------------------------------------------------------------------------


class Ed25519Scheme:
    """Ed25519 over raw 32-byte keys, hex-encoded at rest."""

    name = "ed25519"

    def generate(self) -> tuple[str, str]:
        key = Ed25519PrivateKey.generate()
        secret = key.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )
        public = key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        return secret.hex(), public.hex()

    def sign(self, secret_hex: str, message: bytes) -> str:
        try:
            return _ed25519_signing_key(secret_hex).sign(message).hex()
        except (ValueError, TypeError) as exc:
            raise SigningFailure(f"unusable ed25519 secret key: {exc}") from exc

    def verify(self, public_hex: str, message: bytes, sig_hex: str) -> bool:
        try:
            key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_hex))
            key.verify(bytes.fromhex(sig_hex), message)
            return True
        except (ValueError, TypeError, InvalidSignature):
            return False


@functools.lru_cache(maxsize=32)
def _ed25519_signing_key(secret_hex: str) -> Ed25519PrivateKey:
    """Parsed private key for a hex secret; parsing costs more than signing."""
    return Ed25519PrivateKey.from_private_bytes(bytes.fromhex(secret_hex))


_SCHEMES: dict[str, Ed25519Scheme] = {Ed25519Scheme.name: Ed25519Scheme()}


def _scheme_for(alg: str):
    try:
        return _SCHEMES[alg]
    except KeyError:
        raise UnknownAlgorithm(f"unregistered signature algorithm {alg!r}") from None


# ---------------------------------------------------------------------------
# Envelope and keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignatureEnvelope:
    """Detached signature: algorithm id, signer's key id, hex signature."""

    alg: str
    key_id: str
    sig: str

    def __post_init__(self):
        if not (isinstance(self.alg, str) and self.alg):
            raise ValueError("signature envelope requires a non-empty string alg")
        if not isinstance(self.key_id, str):
            raise ValueError("signature envelope requires a string key_id")

    def to_dict(self) -> dict:
        return {"alg": self.alg, "key_id": self.key_id, "sig": self.sig}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SignatureEnvelope":
        return cls(alg=data["alg"], key_id=data["key_id"], sig=data["sig"])


@dataclass(frozen=True)
class KeyPair:
    """Signing/verification key material for one actor.

    ``secret`` is None for public-only variants.
    """

    key_id: str
    alg: str
    public: str
    secret: Optional[str] = None

    def public_only(self) -> "KeyPair":
        return KeyPair(key_id=self.key_id, alg=self.alg, public=self.public)

    def to_dict(self) -> dict:
        data = {"key_id": self.key_id, "alg": self.alg, "public": self.public}
        if self.secret is not None:
            data["secret"] = self.secret
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "KeyPair":
        return cls(
            key_id=data["key_id"],
            alg=data["alg"],
            public=data["public"],
            secret=data.get("secret"),
        )


def generate_keypair(key_id: str, alg: str = DEFAULT_SIGNATURE_ALG) -> KeyPair:
    secret, public = _scheme_for(alg).generate()
    return KeyPair(key_id=key_id, alg=alg, public=public, secret=secret)


def sign_payload(payload: Any, keypair: KeyPair) -> SignatureEnvelope:
    """Sign the canonical bytes of ``payload`` (which must not contain
    a ``signature`` field of its own); ``payload`` may also be those
    bytes, already encoded, as for ``verify_payload``."""
    if keypair.secret is None:
        raise SigningFailure(f"no secret key material for {keypair.key_id}")
    scheme = _scheme_for(keypair.alg)
    message = payload if isinstance(payload, bytes) else canonicalize(payload)
    sig = scheme.sign(keypair.secret, message)
    return SignatureEnvelope(alg=keypair.alg, key_id=keypair.key_id, sig=sig)


# ---------------------------------------------------------------------------
# Verified-signature cache
# ---------------------------------------------------------------------------

# Entries in the process-wide cache of verification outcomes: room for
# every signature of a 2000-asset catalog (about 3300) with space to
# spare for the other records a process checks meanwhile.
VERIFIED_CACHE_SIZE = 8192


class _VerifiedCache:
    """Bounded, thread-safe LRU map; a value is never None, so ``hit``
    answers None for a miss.

    ``_VERIFIED`` maps a signature check to its outcome. A signature
    check is a deterministic function of (alg, public key, message,
    signature) -- RFC 8032 for Ed25519 -- so a remembered outcome,
    success or failure, is the answer the check would give again. Each
    ``ConsumerConnector`` keeps one as its memo of catalog lines.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._keys: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(alg: str, public_hex: str, sig_hex: str, message: bytes) -> tuple:
        """The four values as a tuple, so no crafted field can shift
        bytes into its neighbour; the message enters as its digest."""
        return (alg, public_hex, sig_hex, hashlib.sha256(message).digest())

    def hit(self, key: Hashable) -> Any:
        """The value held for ``key``, or None; a hit makes it the most
        recent."""
        with self._lock:
            value = self._keys.get(key)
            if value is not None:
                self._keys.move_to_end(key)
            return value

    def add(self, key: Hashable, value: Any = True) -> None:
        with self._lock:
            self._keys[key] = value
            self._keys.move_to_end(key)
            if len(self._keys) > self.maxsize:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        return len(self._keys)


_VERIFIED = _VerifiedCache(VERIFIED_CACHE_SIZE)


def verify_payload(payload: Any, envelope: SignatureEnvelope, public_hex: str) -> bool:
    """True iff the envelope signs the canonical bytes of ``payload``.

    ``payload`` may also be those canonical bytes, already encoded;
    bytes are never canonicalizable, so the two cannot be confused.
    Any mutation of payload or signature yields False, never an error;
    only an unregistered algorithm raises. Each outcome is remembered in
    a bounded process-wide cache keyed on the exact bytes checked.
    """
    scheme = _scheme_for(envelope.alg)
    message = payload if isinstance(payload, bytes) else canonicalize(payload)
    # Only hex strings can verify; other types go straight to the scheme.
    if not (isinstance(public_hex, str) and isinstance(envelope.sig, str)):
        return scheme.verify(public_hex, message, envelope.sig)
    key = _VerifiedCache.key(envelope.alg, public_hex, envelope.sig, message)
    outcome = _VERIFIED.hit(key)
    if outcome is None:
        outcome = scheme.verify(public_hex, message, envelope.sig)
        _VERIFIED.add(key, outcome)
    return outcome


# ---------------------------------------------------------------------------
# Key files and directories
# ---------------------------------------------------------------------------


def save_key_files(keypair: KeyPair, directory: str | Path, name: str) -> tuple[Path, Path]:
    """Write ``<name>.json`` (with secret) and ``<name>.pub.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    private_path = directory / f"{name}.json"
    public_path = directory / f"{name}.pub.json"
    private_path.write_text(json.dumps(keypair.to_dict(), indent=2) + "\n")
    os.chmod(private_path, 0o600)
    public_path.write_text(json.dumps(keypair.public_only().to_dict(), indent=2) + "\n")
    return private_path, public_path


def load_key_file(path: str | Path) -> KeyPair:
    return KeyPair.from_dict(json.loads(Path(path).read_text()))


class KeyDirectory:
    """Lookup table from actor id to key material.

    Loaded from a directory of key files; entries carrying a secret win
    over public-only duplicates of the same key id.
    """

    def __init__(self, keys: Optional[Mapping[str, KeyPair]] = None):
        self._keys: dict[str, KeyPair] = dict(keys or {})

    @classmethod
    def load(cls, directory: str | Path) -> "KeyDirectory":
        directory = Path(directory)
        keys: dict[str, KeyPair] = {}
        if directory.is_dir():
            for path in sorted(directory.glob("*.json")):
                try:
                    kp = load_key_file(path)
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                existing = keys.get(kp.key_id)
                if existing is None or (existing.secret is None and kp.secret):
                    keys[kp.key_id] = kp
        return cls(keys)

    def add(self, keypair: KeyPair) -> None:
        self._keys[keypair.key_id] = keypair

    def public_key_for(self, actor_id: str) -> Optional[str]:
        kp = self._keys.get(actor_id)
        return kp.public if kp else None

    def signer_for(self, actor_id: str) -> KeyPair:
        kp = self._keys.get(actor_id)
        if kp is None or kp.secret is None:
            raise SigningFailure(f"no secret key for {actor_id}")
        return kp

    def __contains__(self, actor_id: str) -> bool:
        return actor_id in self._keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)
