from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from dataloa.assurance import AssuranceService
from dataloa.connector import ConsumerConnector, ProviderConnector, default_policy
from dataloa.envelope import KeyDirectory, content_hash, generate_keypair
from dataloa.model import (
    EvidenceArtifact,
    build_manifest,
    create_claim,
    make_actor_id,
)

NOW = 1700000000

PROVIDER_ID = make_actor_id("aquifer-labs")
CONSUMER_ID = make_actor_id("metro-water")
ASSURER_ID = make_actor_id("trustline-audit")

PAYLOAD = b"well_id,quarter,nitrate_mg_l\nW-001,2026Q1,7\nW-002,2026Q1,12\n"


def catalog_lines(data: dict) -> bytes:
    """A catalog dict as the JSON Lines body ``GET /catalog`` sends: a
    header line with whichever of provider_id and issued_at it has, then
    ``json.dumps`` of each asset, one per line."""
    header = {key: data[key] for key in ("provider_id", "issued_at") if key in data}
    lines = [json.dumps(header), *(json.dumps(asset) for asset in data["assets"])]
    return "\n".join(lines).encode()


def spy_replace(monkeypatch, fail_after=None):
    """Record each os.replace target; raise OSError once fail_after have run."""
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        if fail_after is not None and len(replaced) >= fail_after:
            raise OSError("simulated crash")
        real_replace(src, dst)
        replaced.append(Path(dst))

    monkeypatch.setattr(os, "replace", replace)
    return replaced


@pytest.fixture
def keys() -> KeyDirectory:
    directory = KeyDirectory()
    for actor_id in (PROVIDER_ID, CONSUMER_ID, ASSURER_ID):
        directory.add(generate_keypair(actor_id))
    return directory


@pytest.fixture
def provider_key(keys):
    return keys.signer_for(PROVIDER_ID)


@pytest.fixture
def assurer_key(keys):
    return keys.signer_for(ASSURER_ID)


@pytest.fixture
def make_claim(keys):
    """Factory for signed claims over PAYLOAD (or custom bytes)."""

    def factory(level=2, payload=PAYLOAD, dataset_id="wells-1", issued_at=NOW,
                dimensions=None):
        return create_claim(
            dataset_id=dataset_id,
            payload_hash=content_hash(payload),
            level=level,
            dimensions=dimensions or {"quality": "lab-validated"},
            provider_key=keys.signer_for(PROVIDER_ID),
            issued_at=issued_at,
        )

    return factory


@pytest.fixture
def make_manifest():
    """Factory for evidence manifests with the given kinds."""

    def factory(claim, kinds=("quality-report", "provenance-record"), created_at=NOW):
        artifacts = tuple(
            EvidenceArtifact(kind=k, content_hash=content_hash(k.encode()))
            for k in kinds
        )
        return build_manifest(claim_id=claim.claim_id, artifacts=artifacts,
                              created_at=created_at)

    return factory


@pytest.fixture
def assurance(keys, assurer_key) -> AssuranceService:
    return AssuranceService(
        assurer_key=assurer_key, key_directory=keys, clock=lambda: NOW
    )


@pytest.fixture
def provider(keys, provider_key) -> ProviderConnector:
    return ProviderConnector(provider_key=provider_key, keys=keys, clock=lambda: NOW)


@pytest.fixture
def consumer(keys) -> ConsumerConnector:
    return ConsumerConnector(consumer_id=CONSUMER_ID, keys=keys, clock=lambda: NOW)


@pytest.fixture
def published(provider, make_claim):
    """Provider with one published asset; returns (provider, asset, claim)."""
    claim = make_claim()
    asset = provider.publish(
        payload=PAYLOAD,
        description="well data",
        policy=default_policy(),
        claim=claim,
    )
    return provider, asset, claim
