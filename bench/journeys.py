"""The four consumer journeys the benchmark drives, each with its own
seeded world and its own correctness oracle.

A journey has three stages: ``setup()`` builds its world (keys, claims,
audits, publishes, servers started), ``run()`` repeats its operation in
a closed loop until a deadline and a minimum operation count are both
reached, and ``close()`` stops its servers.

Every input derives from the seed: Ed25519 keys come from seeded bytes
and every actor runs on one frozen clock, so ids, signatures and byte
counts repeat exactly for a given seed. Library functions are looked
up through their modules at call time (``envelope.content_hash``, not a
local alias), so the traced run sees the benchmark's own calls too.

Each operation that raises or returns an unexpected outcome is counted
as failed, with a short description kept for the report.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import shutil
import threading
import time
from pathlib import Path

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from dataloa import assurance, connector, envelope, model, policy_engine, scenario, wire
from dataloa.errors import DataLoaError, IntegrityFailure

NOW = 1_700_000_000
DAY = 86_400

# Minimum assurance level per risk class, written out independently of
# ConsumerPolicy.default() so the oracle does not share the code it checks.
REQUIRED_LEVEL = {"LOW": 1, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3}
RISKS = tuple(REQUIRED_LEVEL)
EVIDENCE_KINDS = {
    2: ("quality-report", "provenance-record"),
    3: ("quality-report", "provenance-record", "integrity-monitoring", "security-assessment"),
}


def frozen_clock() -> int:
    return NOW


def seeded_keypair(rng: random.Random, actor_id: str) -> envelope.KeyPair:
    secret = rng.randbytes(32)
    public = Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return envelope.KeyPair(key_id=actor_id, alg="ed25519", public=public.hex(), secret=secret.hex())


def manifest_for(claim, level: int, rng: random.Random):
    artifacts = [
        model.EvidenceArtifact(kind=kind, content_hash=rng.randbytes(32).hex())
        for kind in EVIDENCE_KINDS[level]
    ]
    return model.build_manifest(claim.claim_id, artifacts, created_at=NOW)


def attest(service, claim, level: int, rng: random.Random):
    response = service.handle_audit(claim.to_dict(), manifest_for(claim, level, rng).to_dict(), level)
    if not response.passed:
        raise RuntimeError(f"set-up audit of {claim.dataset_id} failed: {response.reason}")
    return model.Attestation.from_dict(response.attestation)


def stop_all(servers) -> None:
    """Stop servers side by side; each stop waits out the server's poll."""
    threads = [threading.Thread(target=s.stop) for s in servers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Journey:
    """Shared loop bookkeeping: attempts, failures and their causes."""

    name = ""

    @staticmethod
    def tag(request_id: str) -> None:
        """Names the operation about to start; the traced run replaces it."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.servers: list = []
        self._lock = threading.Lock()

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{label}")

    def record(self, problem: str | None) -> bool:
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failures.append(problem)
        return problem is None

    def finish(self) -> None:
        """Complete any unit of work the last run() left open."""

    def close(self) -> None:
        stop_all(self.servers)
        self.servers = []


# ---------------------------------------------------------------------------
# discover: revocations, fetch_catalog, decide every asset
# ---------------------------------------------------------------------------

# Share of assets given each kind of defect; the rest are well-formed.
DEFECTS = (
    ("unknown-key", 0.06),  # claim signer missing from the consumer's keys
    ("wrong-key", 0.06),  # consumer holds a different key for the claim signer
    ("forged", 0.07),  # attestation signature altered after issue
    ("revoked", 0.07),
    ("expired", 0.04),
    ("future", 0.04),  # attestation not yet valid
)
ATTESTATION_DEFECTS = {"forged", "revoked", "expired", "future"}


class Discover(Journey):
    """Read-heavy: one client fetches revocations and the catalog, then
    decides on every asset. Levels 1, 2 and 3 each take a third of the
    assets; risk classes and defects are drawn from the seed."""

    name = "discover"

    def __init__(self, seed: int, n_assets: int):
        super().__init__(seed)
        self.n_assets = n_assets
        self.catalog_ms: list[float] = []
        self.op_s = 0.0
        self.assets_decided = 0

    def setup(self) -> None:
        rng = self.rng("world")
        ids = {role: model.make_actor_id(role) for role in ("provider", "assurer", "consumer", "unlisted", "shadow")}
        keys = {role: seeded_keypair(rng, actor) for role, actor in ids.items()}
        shadow_seen_by_consumer = seeded_keypair(rng, ids["shadow"])
        provider_keys = envelope.KeyDirectory({kp.key_id: kp for kp in keys.values()})
        consumer_keys = envelope.KeyDirectory(
            {ids[r]: keys[r].public_only() for r in ("provider", "assurer", "consumer")}
        )
        consumer_keys.add(shadow_seen_by_consumer.public_only())

        self.provider = connector.ProviderConnector(keys["provider"], provider_keys, clock=frozen_clock)
        self.assurer = assurance.AssuranceService(keys["assurer"], provider_keys, clock=frozen_clock)
        early = assurance.AssuranceService(keys["assurer"], provider_keys, clock=lambda: NOW - 100 * DAY)
        late = assurance.AssuranceService(keys["assurer"], provider_keys, clock=lambda: NOW + DAY)
        self.consumer = connector.ConsumerConnector(ids["consumer"], consumer_keys, clock=frozen_clock)
        self.policy = policy_engine.ConsumerPolicy.default()

        levels = [1 + i % 3 for i in range(self.n_assets)]
        rng.shuffle(levels)
        self.risk: dict[str, str] = {}
        self.expected: dict[str, tuple[str, bool]] = {}  # asset -> (verdict, flagged)
        for i, level in enumerate(levels):
            asset_id = f"ds-{i:05d}"
            defect = self._draw_defect(rng, level)
            signer = keys["unlisted" if defect == "unknown-key" else "shadow" if defect == "wrong-key" else "provider"]
            payload = rng.randbytes(64)
            claim = model.create_claim(
                asset_id, envelope.content_hash(payload), level,
                {"quality": f"row checks {i}"}, signer, issued_at=NOW,
            )
            attestations = ()
            if level >= 2:
                service = {"expired": early, "future": late}.get(defect, self.assurer)
                att = attest(service, claim, level, rng)
                if defect == "forged":
                    sig = att.signature
                    forged_sig = ("0" if sig.sig[0] != "0" else "1") + sig.sig[1:]
                    att = dataclasses.replace(att, signature=dataclasses.replace(sig, sig=forged_sig))
                elif defect == "revoked":
                    self.assurer.revoke(att.attestation_id, "benchmark revocation")
                attestations = (att,)
            self.provider.publish(payload, f"dataset {i}", connector.default_policy(), claim, attestations)
            risk = rng.choice(RISKS)
            self.risk[asset_id] = risk
            self.expected[asset_id] = self._oracle(level, defect, risk)

        provider_server = wire.ProviderHTTPServer(self.provider).start()
        assurance_server = wire.AssuranceHTTPServer(self.assurer).start()
        self.servers = [provider_server, assurance_server]
        self.provider_tx = wire.HttpProviderTransport(provider_server.base_url)
        self.assurance_tx = wire.HttpAssuranceTransport(assurance_server.base_url)

    @staticmethod
    def _draw_defect(rng: random.Random, level: int) -> str | None:
        roll = rng.random()
        for defect, share in DEFECTS:
            if roll < share:
                return None if defect in ATTESTATION_DEFECTS and level < 2 else defect
            roll -= share
        return None

    @staticmethod
    def _oracle(level: int, defect: str | None, risk: str) -> tuple[str, bool]:
        if defect in ("unknown-key", "wrong-key"):
            effective = 0
        elif level >= 2 and defect not in ATTESTATION_DEFECTS:
            effective = level
        else:
            effective = 1
        verdict = "ACCEPT" if effective >= REQUIRED_LEVEL[risk] else "REJECT"
        flagged = defect in ("unknown-key", "wrong-key", "forged")
        return verdict, flagged

    def expected_counts(self) -> dict[str, int]:
        verdicts = [v for v, _ in self.expected.values()]
        return {
            "ACCEPT": verdicts.count("ACCEPT"),
            "REJECT": verdicts.count("REJECT"),
            "flagged": sum(f for _, f in self.expected.values()),
        }

    def once(self) -> float:
        """One fetch-and-decide pass over HTTP; returns the catalog time in ms."""
        started = time.perf_counter()
        revoked = {e["attestation_id"] for e in self.assurance_tx.get_revocations()}
        t0 = time.perf_counter()
        catalog = self.consumer.fetch_catalog(self.provider_tx)
        catalog_ms = (time.perf_counter() - t0) * 1000
        decisions = {
            va.asset.asset_id: (
                policy_engine.decide(va, self.risk[va.asset.asset_id], self.policy, revoked, NOW).verdict.value,
                va.flagged,
            )
            for va in catalog.assets
        }
        self.op_s += time.perf_counter() - started
        self.assets_decided += len(decisions)
        self.record(self._check(decisions))
        return catalog_ms

    def _check(self, decisions: dict) -> str | None:
        if decisions == self.expected:
            return None
        got = [v for v, _ in decisions.values()]
        counts = {"ACCEPT": got.count("ACCEPT"), "REJECT": got.count("REJECT"),
                  "flagged": sum(f for _, f in decisions.values())}
        return f"discover: got {counts}, expected {self.expected_counts()}"

    def run(self, deadline: float, min_ops: int) -> None:
        while time.perf_counter() < deadline or self.attempted < min_ops:
            self.tag(f"discover-{self.attempted}")
            try:
                self.catalog_ms.append(self.once())
            except DataLoaError as exc:
                self.record(f"discover: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# acquire: negotiate, finalize and transfer from two clients
# ---------------------------------------------------------------------------

ACQUIRE_CLIENTS = 2
ACQUIRE_ASSETS = 64
ACQUIRE_PAYLOAD_BYTES = 4096
WRONG_POLICY_SHARE = 1 / 8


class Acquire(Journey):
    """Request-heavy: two clients each fetch the catalog once, then loop
    negotiate -> finalize -> transfer on seeded assets. Some requests
    carry a wrong policy hash and must end TERMINATED; one asset has a
    tampered payload and must fail the integrity check."""

    name = "acquire"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.acquire_ms: list[float] = []
        self.wall_s = 0.0
        self.clients: dict[int, dict] = {}

    def setup(self) -> None:
        rng = self.rng("world")
        provider_key = seeded_keypair(rng, model.make_actor_id("provider"))
        self.consumer_keys = [seeded_keypair(rng, model.make_actor_id(f"consumer-{c}")) for c in range(ACQUIRE_CLIENTS)]
        keys = envelope.KeyDirectory({provider_key.key_id: provider_key})
        self.provider = connector.ProviderConnector(provider_key, keys, clock=frozen_clock)
        self.payloads: dict[str, bytes] = {}
        for i in range(ACQUIRE_ASSETS):
            asset_id = f"item-{i:03d}"
            payload = rng.randbytes(ACQUIRE_PAYLOAD_BYTES)
            claim = model.create_claim(
                asset_id, envelope.content_hash(payload), 1 + i % 3,
                {"availability": f"replica {i}"}, provider_key, issued_at=NOW,
            )
            self.provider.publish(payload, f"item {i}", connector.default_policy(), claim)
            self.payloads[asset_id] = payload
        self.tampered = f"item-{rng.randrange(ACQUIRE_ASSETS):03d}"
        asset = self.provider.get_asset(self.tampered)
        self.provider.data_source.store(asset.payload_locator, rng.randbytes(ACQUIRE_PAYLOAD_BYTES))
        self.wrong_policy = connector.Policy("bench-wrong", (connector.Permission("distribute"),))
        server = wire.ProviderHTTPServer(self.provider).start()
        self.servers = [server]
        self.public_keys = envelope.KeyDirectory({provider_key.key_id: provider_key.public_only()})

    def _connect(self, index: int) -> dict:
        """One client: its own connector, connection, seeded asset stream
        and catalog, fetched once and reused for every acquisition."""
        consumer = connector.ConsumerConnector(self.consumer_keys[index].key_id, self.public_keys, clock=frozen_clock)
        transport = wire.HttpProviderTransport(self.servers[0].base_url)
        return {
            "consumer": consumer,
            "transport": transport,
            "catalog": consumer.fetch_catalog(transport),
            "rng": self.rng(f"client-{index}"),
            "done": 0,
        }

    def _client(self, index: int, deadline: float, min_ops: int, barrier: threading.Barrier) -> None:
        if index not in self.clients:
            self.clients[index] = self._connect(index)
        client = self.clients[index]
        rng = client["rng"]
        barrier.wait()
        while time.perf_counter() < deadline or client["done"] < min_ops:
            vasset = client["catalog"].get(f"item-{rng.randrange(ACQUIRE_ASSETS):03d}")
            wrong = rng.random() < WRONG_POLICY_SHARE
            if wrong:
                vasset = dataclasses.replace(
                    vasset, asset=dataclasses.replace(vasset.asset, usage_policy=self.wrong_policy)
                )
            self.tag(f"acquire-{index}-{client['done']}")
            t0 = time.perf_counter()
            try:
                problem = self._acquire(client["consumer"], client["transport"], vasset, wrong)
            except DataLoaError as exc:
                problem = f"acquire {vasset.asset.asset_id}: {type(exc).__name__}: {exc}"
            elapsed = (time.perf_counter() - t0) * 1000
            if self.record(problem):
                with self._lock:
                    self.acquire_ms.append(elapsed)
            client["done"] += 1

    def _acquire(self, consumer, transport, vasset, wrong: bool) -> str | None:
        asset_id = vasset.asset.asset_id
        outcome = consumer.negotiate(transport, vasset)
        if wrong:
            if outcome.session.state.value != "TERMINATED" or outcome.refusal_reason != "policy-hash-mismatch":
                return f"acquire {asset_id}: wrong policy hash ended {outcome.session.state.value}"
            return None
        if not outcome.finalized:
            return f"acquire {asset_id}: not finalized ({outcome.refusal_reason})"
        try:
            payload = consumer.transfer(transport, outcome.agreement_id, vasset.asset.claim.content_hash)
        except IntegrityFailure:
            return None if asset_id == self.tampered else f"acquire {asset_id}: integrity failure"
        if asset_id == self.tampered:
            return f"acquire {asset_id}: tampered payload passed the integrity check"
        if payload != self.payloads[asset_id]:
            return f"acquire {asset_id}: payload differs from the published bytes"
        return None

    def run(self, deadline: float, min_ops: int) -> None:
        """Both clients loop until the deadline and until together they
        have made ``min_ops`` acquisitions over every call so far."""
        barrier = threading.Barrier(ACQUIRE_CLIENTS + 1)
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                self._client(index, deadline, -(-min_ops // ACQUIRE_CLIENTS), barrier)
            except Exception as exc:  # reported below, never lost with the thread
                barrier.abort()
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(ACQUIRE_CLIENTS)]
        for t in threads:
            t.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        started = time.perf_counter()
        for t in threads:
            t.join()
        self.wall_s += time.perf_counter() - started
        for exc in errors:
            self.record(f"acquire client: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# ingest: onboard, save, reload, pull; revoke every k-th
# ---------------------------------------------------------------------------

REVOKE_EVERY = 3


class Ingest(Journey):
    """Write-heavy with large payloads. Each epoch onboards one dataset
    per entry of ``sizes``, in order, so every seed moves the same bytes
    and only their content changes: hash, create_claim, audit over
    HTTP, publish, FileProviderStore.save. Each save is followed by a
    reload that must equal the in-memory catalog, and by a pull of the
    new asset over HTTP. Every REVOKE_EVERY-th dataset revokes an
    earlier attestation over HTTP, and a decision on that asset must
    then be REJECT at MEDIUM. Each epoch starts a fresh provider and
    store, so a run's cost does not grow with its length."""

    name = "ingest"

    def __init__(self, seed: int, work_dir: Path, sizes: list[int]):
        super().__init__(seed)
        self.work_dir = work_dir
        self.sizes = sizes  # dataset bytes, in order, for each epoch
        self.ingest_ms: list[float] = []
        self.transfer_bytes = 0
        self.transfer_s = 0.0
        self.saved_new_bytes = 0
        self.epoch = 0
        self.broken = False
        self._retired: list[threading.Thread] = []

    def setup(self) -> None:
        rng = self.rng("world")
        self.provider_key = seeded_keypair(rng, model.make_actor_id("provider"))
        assurer_key = seeded_keypair(rng, model.make_actor_id("assurer"))
        consumer_id = model.make_actor_id("consumer")
        self.keys = envelope.KeyDirectory({self.provider_key.key_id: self.provider_key})
        self.assurer = assurance.AssuranceService(assurer_key, self.keys, clock=frozen_clock)
        public = envelope.KeyDirectory({k.key_id: k.public_only() for k in (self.provider_key, assurer_key)})
        self.consumer = connector.ConsumerConnector(consumer_id, public, clock=frozen_clock)
        self.policy = policy_engine.ConsumerPolicy.default()
        server = wire.AssuranceHTTPServer(self.assurer).start()
        self.servers = [server]
        # The provider's audits and the consumer's revocation traffic come
        # from different actors, so each has its own connection.
        self.audit_tx = wire.HttpAssuranceTransport(server.base_url)
        self.assurance_tx = wire.HttpAssuranceTransport(server.base_url)
        self._start_epoch()

    def _start_epoch(self) -> None:
        self.store_dir = self.work_dir / f"{self.name}-{self.seed}-{id(self)}-{self.epoch}"
        self.store = connector.FileProviderStore(self.store_dir)
        self.provider = connector.ProviderConnector(self.provider_key, self.keys, clock=frozen_clock)
        self.provider_server = wire.ProviderHTTPServer(self.provider).start()
        self.provider_tx = wire.HttpProviderTransport(self.provider_server.base_url)
        self.attested: list[tuple[str, str]] = []  # (asset_id, attestation_id) this epoch
        self.epoch_rng = self.rng(f"epoch-{self.epoch}")

    def _end_epoch(self) -> None:
        """Retire the epoch's server in the background: its stop waits out
        the server's poll, which is not ingest work. The handler class a
        server builds holds its provider in a reference cycle, so the
        epoch before this one is collected here, once its stop is done:
        memory then holds at most two epochs, whatever the timing."""
        for thread in self._retired:
            thread.join()
        gc.collect()
        retired = threading.Thread(target=self.provider_server.stop)
        retired.start()
        self._retired = [retired]
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.epoch += 1

    def once(self) -> None:
        index = len(self.attested)
        rng = self.epoch_rng
        payload = rng.randbytes(self.sizes[index])
        level = 2 + rng.randrange(2)
        asset_id = f"bulk-{self.epoch:04d}-{index}"

        t0 = time.perf_counter()
        digest = envelope.content_hash(payload)
        claim = model.create_claim(asset_id, digest, level, {"security": f"step {index}"}, self.provider_key, issued_at=NOW)
        manifest = manifest_for(claim, level, rng)
        response = self.audit_tx.request_audit(claim.to_dict(), manifest.to_dict(), level)
        if not response["passed"]:
            self.record(f"ingest {asset_id}: audit failed: {response['reason']}")
            return
        att = model.Attestation.from_dict(response["attestation"])
        self.provider.publish(payload, f"bulk dataset {index}", connector.default_policy(), claim, (att,))
        self.store.save(self.provider)
        self.ingest_ms.append((time.perf_counter() - t0) * 1000)
        self.saved_new_bytes += len(payload)
        self.attested.append((asset_id, att.attestation_id))

        problem = self._check_reload() or self._pull(asset_id, payload)
        if problem is None and len(self.attested) % REVOKE_EVERY == 0:
            problem = self._revoke_earlier(rng)
        self.record(problem)
        if len(self.attested) == len(self.sizes):
            self._end_epoch()
            self._start_epoch()

    def _check_reload(self) -> str | None:
        reloaded = self.store.load(self.keys, clock=frozen_clock)
        if reloaded.catalog().to_dict(public=False) != self.provider.catalog().to_dict(public=False):
            return f"ingest epoch {self.epoch}: reloaded store differs from the in-memory catalog"
        return None

    def _pull(self, asset_id: str, payload: bytes) -> str | None:
        self.catalog = self.consumer.fetch_catalog(self.provider_tx)
        vasset = self.catalog.get(asset_id)
        if vasset is None or vasset.flagged:
            return f"ingest {asset_id}: missing or flagged in the catalog"
        verdict = policy_engine.decide(vasset, "MEDIUM", self.policy, (), NOW).verdict.value
        if verdict != "ACCEPT":
            return f"ingest {asset_id}: fresh audited asset got {verdict} at MEDIUM"
        outcome = self.consumer.negotiate(self.provider_tx, vasset)
        if not outcome.finalized:
            return f"ingest {asset_id}: negotiation ended {outcome.session.state.value}"
        t0 = time.perf_counter()
        pulled = self.consumer.transfer(self.provider_tx, outcome.agreement_id, vasset.asset.claim.content_hash)
        self.transfer_s += time.perf_counter() - t0
        self.transfer_bytes += len(pulled)
        return None if pulled == payload else f"ingest {asset_id}: pulled bytes differ"

    def _revoke_earlier(self, rng: random.Random) -> str | None:
        asset_id, attestation_id = self.attested[rng.randrange(len(self.attested) - 1)]
        self.assurance_tx.revoke(attestation_id, "benchmark revocation")
        revoked = {e["attestation_id"] for e in self.assurance_tx.get_revocations()}
        verdict = policy_engine.decide(self.catalog.get(asset_id), "MEDIUM", self.policy, revoked, NOW)
        if verdict.verdict.value != "REJECT":
            return f"ingest {asset_id}: revoked asset got {verdict.verdict.value} at MEDIUM"
        return None

    def run(self, deadline: float, min_ops: int) -> None:
        while not self.broken and (self.attempted < min_ops or time.perf_counter() < deadline):
            self._guarded_once()

    def finish(self) -> None:
        # Whole epochs only, so every size step carries the same weight.
        while not self.broken and self.attested:
            self._guarded_once()

    def _guarded_once(self) -> None:
        self.tag(f"ingest-{self.attempted}")
        try:
            self.once()
        except DataLoaError as exc:
            # The epoch cannot go on; the run is already marked wrong.
            self.record(f"ingest: {type(exc).__name__}: {exc}")
            self.broken = True

    def close(self) -> None:
        self.servers.append(self.provider_server)
        super().close()
        for thread in self._retired:
            thread.join()
        shutil.rmtree(self.store_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# replay: bundled scenarios, round-robin, in both modes
# ---------------------------------------------------------------------------


# An in-process replay takes a few milliseconds against half a second or
# more over HTTP, so each call to run() first replays every scenario
# in-process this many times, which spreads those samples over the run.
INPROC_PASSES = 2


class Replay(Journey):
    """Each operation replays the next bundled scenario over HTTP; each
    call to run() also replays every scenario in-process. Every report
    must be ok and equal under ``comparable()`` to the scenario's
    in-process report taken at set-up."""

    name = "replay"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ms: dict[str, dict[str, list[float]]] = {mode: {} for mode in scenario.MODES}
        self.http_ops = 0
        self.op_s = 0.0

    def setup(self) -> None:
        rng = self.rng("world")
        self.scenarios = [
            scenario.load_scenario(path) for _, path in sorted(scenario.bundled_scenarios().items())
        ]
        actors = sorted({a.name for s in self.scenarios for a in s.actors})
        self.keys = envelope.KeyDirectory(
            {model.make_actor_id(n): seeded_keypair(rng, model.make_actor_id(n)) for n in actors}
        )
        self.reference = {
            s.name: scenario.ScenarioRunner(s, mode="in-process", keys=self.keys).run().comparable()
            for s in self.scenarios
        }

    def _replay(self, scen, mode: str) -> None:
        self.tag(f"replay-{mode}-{self.attempted}")
        t0 = time.perf_counter()
        try:
            report = scenario.ScenarioRunner(scen, mode=mode, keys=self.keys).run()
        except DataLoaError as exc:
            self.record(f"replay {scen.name} {mode}: {type(exc).__name__}: {exc}")
            return
        self.ms[mode].setdefault(scen.name, []).append((time.perf_counter() - t0) * 1000)
        if not report.ok:
            self.record(f"replay {scen.name} {mode}: {report.expectation_failures[:3]}")
        elif report.comparable() != self.reference[scen.name]:
            self.record(f"replay {scen.name} {mode}: report differs from the in-process one")
        else:
            self.record(None)

    def run(self, deadline: float, min_ops: int) -> None:
        """``min_ops`` counts HTTP replays. No HTTP replay is started that
        the previous one says cannot end before the deadline."""
        for _ in range(INPROC_PASSES):
            for scen in self.scenarios:
                self._replay(scen, "in-process")
        while self.http_ops < min_ops or time.perf_counter() + self.op_s <= deadline:
            started = time.perf_counter()
            self._replay(self.scenarios[self.http_ops % len(self.scenarios)], "http")
            self.http_ops += 1
            self.op_s = time.perf_counter() - started
