"""Declarative end-to-end scenarios and their runner.

A scenario JSON file names the actors, datasets (with embedded payload
text, usage policy, and optionally a tampered payload), the claims to
issue, the audits to request, and a sequence of consumer actions:
fetch_catalog, decide, negotiate, negotiate_parallel, transfer.

The runner replays the scenario over either the local or the HTTP
transport and produces a structured report. Reports are deterministic
given a fixed clock; ``RunReport.comparable()`` strips wall-clock
timings and the transport mode so runs can be compared across modes.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .assurance import AssuranceService
from .config import DeploymentConfig
from .connector import (
    ConsumerConnector,
    NegotiationOutcome,
    Policy,
    ProviderConnector,
    VerifiedAsset,
    default_policy,
)
from .envelope import KeyDirectory, content_hash, generate_keypair
from .errors import (
    DataLoaError,
    IntegrityFailure,
    ScenarioParseError,
    StepFailure,
    UnknownRiskClass,
)
from .model import (
    ActorRole,
    Attestation,
    EvidenceArtifact,
    TrustClaim,
    build_manifest,
    create_claim,
    make_actor_id,
)
from .policy_engine import RiskClass, Verdict, decide
from .wire import (
    AssuranceHTTPServer,
    HttpAssuranceTransport,
    HttpProviderTransport,
    LocalAssuranceTransport,
    LocalProviderTransport,
    ProviderHTTPServer,
)

DEFAULT_START_TIME = 1700000000
MODES = ("in-process", "http")


@dataclass(frozen=True)
class ScenarioActor:
    name: str
    role: ActorRole


@dataclass(frozen=True)
class ScenarioDataset:
    dataset_id: str
    payload_text: str
    description: str
    provider: str
    policy: Policy
    tampered_payload_text: Optional[str] = None

    @property
    def payload(self) -> bytes:
        return self.payload_text.encode("utf-8")


@dataclass(frozen=True)
class ScenarioClaim:
    ref: str
    dataset: str
    level: int
    dimensions: Mapping[str, str]


@dataclass(frozen=True)
class ScenarioAudit:
    claim_ref: str
    requested_level: int
    evidence: tuple[tuple[str, str], ...]  # (kind, content text)
    expect_pass: Optional[bool] = None


@dataclass(frozen=True)
class ScenarioRevocation:
    audit_index: int
    reason: str


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    start_time: int
    actors: tuple[ScenarioActor, ...]
    datasets: tuple[ScenarioDataset, ...]
    claims: tuple[ScenarioClaim, ...]
    audits: tuple[ScenarioAudit, ...]
    revocations: tuple[ScenarioRevocation, ...]
    actions: tuple[dict, ...]

    def actor_names(self, role: ActorRole) -> list[str]:
        return [a.name for a in self.actors if a.role is role]


def parse_scenario(data: Mapping) -> Scenario:
    """Validate a scenario document; dangling references are errors."""
    try:
        name = data["name"]
        actors = tuple(
            ScenarioActor(name=a["name"], role=ActorRole(str(a["role"]).upper()))
            for a in data["actors"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad scenario header/actors: {exc}") from exc

    actor_names = {a.name for a in actors}
    if len(actor_names) != len(actors):
        raise ScenarioParseError("duplicate actor names")
    providers = {a.name for a in actors if a.role is ActorRole.PROVIDER}
    consumers = {a.name for a in actors if a.role is ActorRole.CONSUMER}
    assurers = {a.name for a in actors if a.role is ActorRole.ASSURER}
    if len(providers) != 1:
        raise ScenarioParseError("scenario requires exactly one provider actor")
    if len(assurers) != 1:
        raise ScenarioParseError("scenario requires exactly one assurer actor")
    if not consumers:
        raise ScenarioParseError("scenario requires at least one consumer actor")

    datasets = []
    try:
        for d in data.get("datasets", []):
            policy = (
                Policy.from_dict(d["policy"]) if "policy" in d else default_policy()
            )
            datasets.append(
                ScenarioDataset(
                    dataset_id=d["dataset_id"],
                    payload_text=d["payload_text"],
                    description=d.get("description", ""),
                    provider=d["provider"],
                    policy=policy,
                    tampered_payload_text=d.get("tampered_payload_text"),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad dataset entry: {exc}") from exc
    dataset_ids = {d.dataset_id for d in datasets}
    if len(dataset_ids) != len(datasets):
        raise ScenarioParseError("duplicate dataset ids")
    for d in datasets:
        if d.provider not in providers:
            raise ScenarioParseError(
                f"dataset {d.dataset_id} names unknown provider {d.provider!r}"
            )

    claims = []
    try:
        for c in data.get("claims", []):
            claims.append(
                ScenarioClaim(
                    ref=c["ref"],
                    dataset=c["dataset"],
                    level=int(c["level"]),
                    dimensions=dict(c.get("dimensions", {})),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad claim entry: {exc}") from exc
    claim_refs = {c.ref for c in claims}
    if len(claim_refs) != len(claims):
        raise ScenarioParseError("duplicate claim refs")
    for c in claims:
        if c.dataset not in dataset_ids:
            raise ScenarioParseError(f"claim {c.ref} names unknown dataset {c.dataset!r}")

    audits = []
    try:
        for a in data.get("audits", []):
            audits.append(
                ScenarioAudit(
                    claim_ref=a["claim"],
                    requested_level=int(a["requested_level"]),
                    evidence=tuple(
                        (e["kind"], e["content_text"]) for e in a.get("evidence", [])
                    ),
                    expect_pass=a.get("expect_pass"),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad audit entry: {exc}") from exc
    for a in audits:
        if a.claim_ref not in claim_refs:
            raise ScenarioParseError(f"audit names unknown claim {a.claim_ref!r}")

    revocations = []
    try:
        for r in data.get("revocations", []):
            revocations.append(
                ScenarioRevocation(
                    audit_index=int(r["audit_index"]), reason=r.get("reason", "")
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad revocation entry: {exc}") from exc
    for r in revocations:
        if not 0 <= r.audit_index < len(audits):
            raise ScenarioParseError(f"revocation audit_index {r.audit_index} out of range")

    actions = tuple(dict(a) for a in data.get("consumer_actions", []))
    known_actions = {"fetch_catalog", "decide", "negotiate", "negotiate_parallel", "transfer"}
    for i, action in enumerate(actions):
        kind = action.get("action")
        if kind not in known_actions:
            raise ScenarioParseError(f"action {i}: unknown action {kind!r}")
        if kind == "negotiate_parallel":
            names = action.get("consumers", [])
            if not names:
                raise ScenarioParseError(f"action {i}: negotiate_parallel needs consumers")
            unknown = [n for n in names if n not in consumers]
        else:
            name_ = action.get("consumer")
            if not name_:
                raise ScenarioParseError(f"action {i}: missing consumer")
            unknown = [name_] if name_ not in consumers else []
        if unknown:
            raise ScenarioParseError(f"action {i}: unknown consumer(s) {unknown}")
        if kind in ("decide", "negotiate", "negotiate_parallel", "transfer"):
            asset = action.get("asset")
            if asset not in dataset_ids:
                raise ScenarioParseError(f"action {i}: unknown asset {asset!r}")
        if kind == "decide":
            try:
                RiskClass.from_value(action.get("risk", ""))
            except UnknownRiskClass as exc:
                raise ScenarioParseError(f"action {i}: {exc}") from exc
            expected = action.get("expect_verdict")
            if expected is not None and expected not in ("ACCEPT", "REJECT"):
                raise ScenarioParseError(f"action {i}: bad expect_verdict {expected!r}")
        if kind == "transfer":
            expected = action.get("expect_integrity")
            if expected is not None and expected not in ("OK", "FAILED"):
                raise ScenarioParseError(f"action {i}: bad expect_integrity {expected!r}")

    return Scenario(
        name=name,
        description=data.get("description", ""),
        start_time=int(data.get("start_time", DEFAULT_START_TIME)),
        actors=actors,
        datasets=tuple(datasets),
        claims=tuple(claims),
        audits=tuple(audits),
        revocations=tuple(revocations),
        actions=actions,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(data)


def bundled_scenarios() -> dict[str, Path]:
    """Name -> path for the scenario files shipped with the package."""
    root = resources.files("dataloa") / "scenarios"
    found = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            found[entry.name[: -len(".json")]] = Path(str(entry))
    return found


def resolve_scenario(name_or_path: str) -> Path:
    """Accept either a bundled scenario name or a filesystem path."""
    bundled = bundled_scenarios()
    if name_or_path in bundled:
        return bundled[name_or_path]
    path = Path(name_or_path)
    if path.is_file():
        return path
    raise ScenarioParseError(
        f"no scenario {name_or_path!r}; bundled: {', '.join(sorted(bundled))}"
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

TIMING_KEYS = ("elapsed_ms",)


@dataclass
class RunReport:
    scenario_name: str
    mode: str
    now: int
    setup: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    final_sessions: dict = field(default_factory=dict)
    revocations: list = field(default_factory=list)
    expectation_failures: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.expectation_failures

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "mode": self.mode,
            "now": self.now,
            "setup": self.setup,
            "steps": self.steps,
            "final_sessions": self.final_sessions,
            "revocations": self.revocations,
            "expectation_failures": self.expectation_failures,
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def comparable(self) -> dict:
        """Report content minus the transport mode and all timings."""
        data = _strip_timings(self.to_dict())
        data.pop("mode", None)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _strip_timings(value):
    if isinstance(value, dict):
        return {
            k: _strip_timings(v) for k, v in value.items() if k not in TIMING_KEYS
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class ScenarioRunner:
    """Set up all actors for one scenario, then replay its actions."""

    def __init__(
        self,
        scenario: Scenario,
        mode: str = "in-process",
        now: Optional[int] = None,
        config: Optional[DeploymentConfig] = None,
        keys: Optional[KeyDirectory] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.scenario = scenario
        self.mode = mode
        self.now = start = int(now) if now is not None else scenario.start_time
        self.config = config or DeploymentConfig.defaults()
        self.keys = keys or KeyDirectory()
        # The actors' clock and the transport factory capture values, not
        # self: a closure over the runner would hold its world in a cycle.
        self._clock = lambda: start
        self._resources = ExitStack()  # HTTP servers and transports, closed by run()

        self.provider: Optional[ProviderConnector] = None
        self.assurer: Optional[AssuranceService] = None
        self.consumers: dict[str, ConsumerConnector] = {}
        self.provider_transport = None
        self.assurance_transport = None
        self._provider_transport_factory = None

        self._claims: dict[str, TrustClaim] = {}
        self._attestations: dict[str, list[Attestation]] = {}
        self._attestation_by_audit: dict[int, Attestation] = {}
        self._catalogs: dict[str, object] = {}
        self._decisions: dict[tuple[str, str], Verdict] = {}
        self._outcomes: dict[tuple[str, str], NegotiationOutcome] = {}
        self._verified: dict[tuple[str, str], VerifiedAsset] = {}

    # -- setup ---------------------------------------------------------

    def _ensure_key(self, name: str) -> None:
        actor_id = make_actor_id(name)
        if actor_id not in self.keys:
            self.keys.add(generate_keypair(actor_id))

    def setup(self, report: RunReport) -> None:
        scenario = self.scenario
        for actor in scenario.actors:
            self._ensure_key(actor.name)

        provider_name = scenario.actor_names(ActorRole.PROVIDER)[0]
        assurer_name = scenario.actor_names(ActorRole.ASSURER)[0]
        self.provider = ProviderConnector(
            provider_key=self.keys.signer_for(make_actor_id(provider_name)),
            keys=self.keys,
            clock=self._clock,
        )
        self.assurer = AssuranceService(
            assurer_key=self.keys.signer_for(make_actor_id(assurer_name)),
            key_directory=self.keys,
            requirements=self.config.requirements,
            clock=self._clock,
        )
        for name in scenario.actor_names(ActorRole.CONSUMER):
            self.consumers[name] = ConsumerConnector(
                consumer_id=make_actor_id(name), keys=self.keys, clock=self._clock
            )

        if self.mode == "http":
            # run() closes these in reverse: the transports first, whose
            # closed connections end their servers' handler threads.
            hold = self._resources.enter_context
            provider_server = hold(ProviderHTTPServer(self.provider))
            assurance_server = hold(AssuranceHTTPServer(self.assurer))
            self.provider_transport = hold(HttpProviderTransport(provider_server.base_url))
            self.assurance_transport = hold(HttpAssuranceTransport(assurance_server.base_url))
            factory_lock = threading.Lock()  # parallel workers call it at once

            def worker_transport() -> HttpProviderTransport:
                with factory_lock:
                    return hold(HttpProviderTransport(provider_server.base_url))

            self._provider_transport_factory = worker_transport
        else:
            self.provider_transport = transport = LocalProviderTransport(self.provider)
            self.assurance_transport = LocalAssuranceTransport(self.assurer)
            self._provider_transport_factory = lambda: transport

        datasets = {d.dataset_id: d for d in scenario.datasets}
        for entry in scenario.claims:
            dataset = datasets[entry.dataset]
            claim = create_claim(
                dataset_id=dataset.dataset_id,
                payload_hash=content_hash(dataset.payload),
                level=entry.level,
                dimensions=entry.dimensions,
                provider_key=self.keys.signer_for(make_actor_id(dataset.provider)),
                issued_at=self.now,
            )
            self._claims[entry.ref] = claim
            self._attestations[entry.ref] = []
            report.setup.append(
                {
                    "event": "claim_created",
                    "ref": entry.ref,
                    "claim_id": claim.claim_id,
                    "dataset_id": dataset.dataset_id,
                    "level_claimed": int(claim.level_claimed),
                }
            )

        for index, entry in enumerate(scenario.audits):
            claim = self._claims[entry.claim_ref]
            artifacts = tuple(
                EvidenceArtifact(kind=kind, content_hash=content_hash(text.encode("utf-8")))
                for kind, text in entry.evidence
            )
            manifest = build_manifest(
                claim_id=claim.claim_id, artifacts=artifacts, created_at=self.now
            )
            response = self.assurance_transport.request_audit(
                claim.to_dict(), manifest.to_dict(), entry.requested_level
            )
            record = {
                "event": "audit",
                "claim_ref": entry.claim_ref,
                "requested_level": entry.requested_level,
                "passed": response["passed"],
            }
            if response["passed"]:
                attestation = Attestation.from_dict(response["attestation"])
                self._attestations[entry.claim_ref].append(attestation)
                self._attestation_by_audit[index] = attestation
                record["attestation_id"] = attestation.attestation_id
                record["level_assured"] = int(attestation.level_assured)
            else:
                record["missing_kinds"] = list(response["missing_kinds"])
                record["reason"] = response["reason"]
            report.setup.append(record)
            if entry.expect_pass is not None and response["passed"] != entry.expect_pass:
                report.expectation_failures.append(
                    f"audit of {entry.claim_ref} expected "
                    f"{'PASS' if entry.expect_pass else 'FAIL'}, got "
                    f"{'PASS' if response['passed'] else 'FAIL'}"
                )

        for entry in scenario.revocations:
            attestation = self._attestation_by_audit.get(entry.audit_index)
            if attestation is None:
                report.expectation_failures.append(
                    f"revocation references audit {entry.audit_index}, which issued nothing"
                )
                continue
            self.assurance_transport.revoke(attestation.attestation_id, entry.reason)
            report.setup.append(
                {
                    "event": "revoked",
                    "attestation_id": attestation.attestation_id,
                    "reason": entry.reason,
                }
            )

        claims_by_dataset: dict[str, list[str]] = {}
        for entry in scenario.claims:
            claims_by_dataset.setdefault(entry.dataset, []).append(entry.ref)
        for dataset in scenario.datasets:
            refs = claims_by_dataset.get(dataset.dataset_id, [])
            if not refs:
                continue  # a dataset with no claim cannot be published
            ref = refs[0]
            claim = self._claims[ref]
            attached = tuple(self._attestations[ref])
            asset = self.provider.publish(
                payload=dataset.payload,
                description=dataset.description,
                policy=dataset.policy,
                claim=claim,
                attestations=attached,
            )
            report.setup.append(
                {
                    "event": "published",
                    "asset_id": asset.asset_id,
                    "attached_attestations": len(attached),
                }
            )
            if dataset.tampered_payload_text is not None:
                self.provider.data_source.store(
                    asset.payload_locator,
                    dataset.tampered_payload_text.encode("utf-8"),
                )
                report.setup.append(
                    {"event": "payload_tampered", "asset_id": asset.asset_id}
                )

    # -- actions -------------------------------------------------------

    def _revoked_ids(self) -> frozenset[str]:
        entries = self.assurance_transport.get_revocations()
        return frozenset(e["attestation_id"] for e in entries)

    def _verified_asset(self, consumer: str, asset_id: str) -> VerifiedAsset:
        vasset = self._verified.get((consumer, asset_id))
        if vasset is None:
            raise StepFailure(f"{consumer} has not fetched a catalog listing {asset_id}")
        return vasset

    def _do_fetch_catalog(self, action: dict) -> dict:
        consumer = action["consumer"]
        catalog = self.consumers[consumer].fetch_catalog(self.provider_transport)
        for vasset in catalog.assets:
            self._verified[(consumer, vasset.asset.asset_id)] = vasset
        return {
            "consumer": consumer,
            "asset_count": len(catalog.assets),
            "flagged": sorted(v.asset.asset_id for v in catalog.assets if v.flagged),
        }

    def _do_decide(self, action: dict, report: RunReport) -> dict:
        consumer = action["consumer"]
        asset_id = action["asset"]
        risk = RiskClass.from_value(action["risk"])
        vasset = self._verified_asset(consumer, asset_id)
        decision = decide(
            vasset,
            risk,
            self.config.consumer_policy,
            self._revoked_ids(),
            self.consumers[consumer].now(),
        )
        self._decisions[(consumer, asset_id)] = decision.verdict
        entry = {
            "consumer": consumer,
            "asset": asset_id,
            "risk": risk.value,
            "verdict": decision.verdict.value,
            "required_level": int(decision.required_level),
            "effective_level": int(decision.effective),
            "reasons": list(decision.reasons),
        }
        expected = action.get("expect_verdict")
        if expected is not None:
            entry["expected_verdict"] = expected
            if decision.verdict.value != expected:
                report.expectation_failures.append(
                    f"decide {consumer}/{asset_id}@{risk.value}: expected {expected}, "
                    f"got {decision.verdict.value}"
                )
        return entry

    def _do_negotiate(self, action: dict, report: RunReport) -> dict:
        consumer = action["consumer"]
        asset_id = action["asset"]
        if self._decisions.get((consumer, asset_id)) is Verdict.REJECT:
            return {
                "consumer": consumer,
                "asset": asset_id,
                "skipped": True,
                "reason": "prior decision rejected the asset",
            }
        vasset = self._verified_asset(consumer, asset_id)
        outcome = self.consumers[consumer].negotiate(self.provider_transport, vasset)
        self._outcomes[(consumer, asset_id)] = outcome
        entry = {
            "consumer": consumer,
            "asset": asset_id,
            "skipped": False,
            "state": outcome.session.state.value,
            "finalized": outcome.finalized,
            "agreement_id": outcome.agreement_id,
            "refusal_reason": outcome.refusal_reason,
        }
        expected = action.get("expect_state")
        if expected is not None:
            entry["expected_state"] = expected
            if outcome.session.state.value != expected:
                report.expectation_failures.append(
                    f"negotiate {consumer}/{asset_id}: expected state {expected}, "
                    f"got {outcome.session.state.value}"
                )
        return entry

    def _do_negotiate_parallel(self, action: dict, report: RunReport) -> dict:
        asset_id = action["asset"]
        names = list(action["consumers"])
        results: dict[str, dict] = {}
        errors: dict[str, str] = {}

        def worker(name: str) -> None:
            try:
                transport = self._provider_transport_factory()
                connector = self.consumers[name]
                catalog = connector.fetch_catalog(transport)
                vasset = catalog.get(asset_id)
                if vasset is None:
                    errors[name] = f"asset {asset_id} not in catalog"
                    return
                self._verified[(name, asset_id)] = vasset
                outcome = connector.negotiate(transport, vasset)
                self._outcomes[(name, asset_id)] = outcome
                results[name] = {
                    "consumer": name,
                    "state": outcome.session.state.value,
                    "finalized": outcome.finalized,
                    "agreement_id": outcome.agreement_id,
                }
            except DataLoaError as exc:
                errors[name] = str(exc)
            except Exception as exc:  # a worker must not vanish from the report
                errors[name] = f"{type(exc).__name__}: {exc}"

        threads = [threading.Thread(target=worker, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for name in names:
            if name in errors:
                report.expectation_failures.append(
                    f"negotiate_parallel {name}/{asset_id}: {errors[name]}"
                )
        outcomes = [results[n] for n in sorted(results)]
        all_finalized = bool(outcomes) and all(o["finalized"] for o in outcomes)
        if action.get("expect_all_finalized") and not all_finalized:
            report.expectation_failures.append(
                f"negotiate_parallel on {asset_id}: not all sessions finalized"
            )
        return {
            "asset": asset_id,
            "consumers": sorted(names),
            "outcomes": outcomes,
            "all_finalized": all_finalized,
            "errors": {n: errors[n] for n in sorted(errors)},
        }

    def _do_transfer(self, action: dict, report: RunReport) -> dict:
        consumer = action["consumer"]
        asset_id = action["asset"]
        outcome = self._outcomes.get((consumer, asset_id))
        if outcome is None or not outcome.finalized:
            raise StepFailure(f"{consumer} holds no finalized agreement for {asset_id}")
        vasset = self._verified_asset(consumer, asset_id)
        entry = {
            "consumer": consumer,
            "asset": asset_id,
            "agreement_id": outcome.agreement_id,
        }
        try:
            payload = self.consumers[consumer].transfer(
                self.provider_transport,
                outcome.agreement_id,
                vasset.asset.claim.content_hash,
            )
            entry["integrity"] = "OK"
            entry["payload_bytes"] = len(payload)
        except IntegrityFailure as exc:
            entry["integrity"] = "FAILED"
            entry["detail"] = str(exc)
        expected = action.get("expect_integrity")
        if expected is not None:
            entry["expected_integrity"] = expected
            if entry["integrity"] != expected:
                report.expectation_failures.append(
                    f"transfer {consumer}/{asset_id}: expected integrity {expected}, "
                    f"got {entry['integrity']}"
                )
        return entry

    def run(self) -> RunReport:
        started = time.perf_counter()
        report = RunReport(
            scenario_name=self.scenario.name, mode=self.mode, now=self.now
        )
        try:
            self.setup(report)
            for index, action in enumerate(self.scenario.actions):
                kind = action["action"]
                step_started = time.perf_counter()
                try:
                    if kind == "fetch_catalog":
                        entry = self._do_fetch_catalog(action)
                    elif kind == "decide":
                        entry = self._do_decide(action, report)
                    elif kind == "negotiate":
                        entry = self._do_negotiate(action, report)
                    elif kind == "negotiate_parallel":
                        entry = self._do_negotiate_parallel(action, report)
                    else:
                        entry = self._do_transfer(action, report)
                except DataLoaError as exc:
                    entry = {"error": str(exc)}
                    report.expectation_failures.append(f"step {index} ({kind}): {exc}")
                entry["step"] = index
                entry["action"] = kind
                entry["elapsed_ms"] = round(
                    (time.perf_counter() - step_started) * 1000, 3
                )
                report.steps.append(entry)
            report.final_sessions = self.provider.session_states()
            report.revocations = self.assurance_transport.get_revocations()
        finally:
            self._resources.close()
        report.elapsed_ms = (time.perf_counter() - started) * 1000
        return report


def run_scenario(
    name_or_path: str,
    mode: str = "in-process",
    now: Optional[int] = None,
    config: Optional[DeploymentConfig] = None,
    keys: Optional[KeyDirectory] = None,
) -> RunReport:
    scenario = load_scenario(resolve_scenario(name_or_path))
    runner = ScenarioRunner(scenario, mode=mode, now=now, config=config, keys=keys)
    return runner.run()
