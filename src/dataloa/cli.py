"""Operator command line.

Every subcommand is a thin veneer over one library operation: keygen,
claim create/verify, manifest create, audit request, attest verify,
publish, catalog, decide, negotiate, transfer, scenario run. Output is
human-readable by default and JSON with --json. Exit codes: 0 success,
1 domain error, 2 usage error.

Provider state for the file-backed commands lives in a --store
directory, so separate invocations (publish, then catalog, then
negotiate) see the same catalog and sessions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional

import click

from .assurance import AssuranceService
from .config import load_config
from .connector import (
    ConsumerConnector,
    FileProviderStore,
    ProviderConnector,
    default_policy,
)
from .envelope import (
    KeyDirectory,
    content_hash,
    generate_keypair,
    save_key_files,
)
from .errors import DataLoaError, MalformedInput
from .model import (
    Attestation,
    EvidenceArtifact,
    EvidenceManifest,
    TrustClaim,
    build_manifest,
    create_claim,
    make_actor_id,
)
from .policy_engine import RiskClass, decide as decide_asset
from .scenario import bundled_scenarios, run_scenario
from .wire import (
    AssuranceHTTPServer,
    HttpAssuranceTransport,
    HttpProviderTransport,
    LocalAssuranceTransport,
    LocalProviderTransport,
    ProviderHTTPServer,
)


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DataLoaError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)

    return wrapper


def _now_or_default(now: Optional[int]) -> int:
    return int(now) if now is not None else int(time.time())


def _keys_from(keys_dir: str) -> KeyDirectory:
    return KeyDirectory.load(keys_dir)


def _read_record(cls, path: str):
    """A ``cls`` record parsed from a JSON file; a file that is not JSON,
    or not of the record's shape, is MalformedInput."""
    try:
        return cls.from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path} is not a {cls.__name__} record: {exc!r}") from None


def _emit(data: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            click.echo(line)


def _write_json(path: Optional[str], data: dict) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        click.echo(text, nl=False)


def _fetch(consumer_name: str, asset_id: Optional[str], store, provider_url, keys_dir, now):
    """Fetch the catalog of the provider at ``provider_url`` or in
    ``store`` as ``consumer_name``. Returns the consumer, the transport,
    the file store (None over HTTP), the catalog and, when ``asset_id``
    is given, its entry, a DataLoaError if the catalog does not list it."""
    keys = _keys_from(keys_dir)
    file_store = None
    if provider_url:
        transport = HttpProviderTransport(provider_url)
    elif store:
        file_store = FileProviderStore(store)
        if not file_store.exists():
            raise click.UsageError(f"no provider store at {store}")
        transport = LocalProviderTransport(file_store.load(keys, clock=lambda: now))
    else:
        raise click.UsageError("either --store or --provider-url is required")
    consumer = ConsumerConnector(
        consumer_id=make_actor_id(consumer_name), keys=keys, clock=lambda: now
    )
    verified = consumer.fetch_catalog(transport)
    vasset = None if asset_id is None else verified.get(asset_id)
    if asset_id is not None and vasset is None:
        raise DataLoaError(f"asset {asset_id} not in catalog")
    return consumer, transport, file_store, verified, vasset


keys_option = click.option(
    "--keys", "keys_dir", default="keys", show_default=True,
    help="Directory of key files.",
)
now_option = click.option(
    "--now", type=int, default=None, help="Frozen epoch timestamp (default: wall clock)."
)
json_option = click.option("--json", "as_json", is_flag=True, help="Emit JSON on stdout.")


@click.group()
@click.version_option(package_name="dataloa")
def main():
    """Minimal data space with levels of assurance for data trustworthiness."""


# -- keys -------------------------------------------------------------------


@main.command()
@click.option("--name", required=True, help="Actor name (becomes urn:actor:<name>).")
@keys_option
@json_option
@_domain_errors
def keygen(name: str, keys_dir: str, as_json: bool):
    """Generate a signing keypair for an actor and store it on disk."""
    actor_id = make_actor_id(name)
    keypair = generate_keypair(actor_id)
    private_path, public_path = save_key_files(keypair, keys_dir, name)
    _emit(
        {"actor_id": actor_id, "private_key_file": str(private_path),
         "public_key_file": str(public_path)},
        as_json,
        [f"generated key for {actor_id}",
         f"  secret: {private_path}",
         f"  public: {public_path}"],
    )


# -- claims -----------------------------------------------------------------


@main.group()
def claim():
    """Create and verify trust claims."""


@claim.command("create")
@click.option("--dataset-id", required=True)
@click.option("--payload", "payload_path", required=True, type=click.Path(exists=True))
@click.option("--level", type=int, default=1, show_default=True,
              help="Claimed assurance level (1-3).")
@click.option("--dimension", "dimensions", multiple=True, metavar="NAME=TEXT",
              help="Trust dimension entry; repeatable.")
@click.option("--provider", "provider_name", required=True, help="Provider actor name.")
@click.option("--out", "out_path", default=None, help="Write claim JSON here.")
@keys_option
@now_option
@json_option
@_domain_errors
def claim_create(dataset_id, payload_path, level, dimensions, provider_name,
                 out_path, keys_dir, now, as_json):
    """Sign a trust claim over a payload file."""
    now = _now_or_default(now)
    keys = _keys_from(keys_dir)
    parsed = {}
    for entry in dimensions:
        name, _, text = entry.partition("=")
        if not _:
            raise click.UsageError(f"--dimension needs NAME=TEXT, got {entry!r}")
        parsed[name] = text
    payload = Path(payload_path).read_bytes()
    signed = create_claim(
        dataset_id=dataset_id,
        payload_hash=content_hash(payload),
        level=level,
        dimensions=parsed,
        provider_key=keys.signer_for(make_actor_id(provider_name)),
        issued_at=now,
    )
    _write_json(out_path, signed.to_dict())
    if out_path:
        _emit(
            {"claim_id": signed.claim_id, "content_hash": signed.content_hash,
             "file": out_path},
            as_json,
            [f"claim {signed.claim_id}", f"  content hash {signed.content_hash}",
             f"  written to {out_path}"],
        )


@claim.command("verify")
@click.option("--claim", "claim_path", required=True, type=click.Path(exists=True))
@keys_option
@json_option
@_domain_errors
def claim_verify(claim_path, keys_dir, as_json):
    """Check a claim file's signature against the provider's public key."""
    keys = _keys_from(keys_dir)
    parsed = _read_record(TrustClaim, claim_path)
    if not parsed.verify(keys):
        click.echo(f"signature invalid: claim {parsed.claim_id}", err=True)
        raise SystemExit(1)
    _emit(
        {"claim_id": parsed.claim_id, "valid": True},
        as_json,
        [f"claim {parsed.claim_id}: signature valid"],
    )


# -- evidence ---------------------------------------------------------------


@main.group()
def manifest():
    """Assemble evidence manifests."""


@manifest.command("create")
@click.option("--claim", "claim_path", required=True, type=click.Path(exists=True))
@click.option("--evidence", "evidence", multiple=True, metavar="KIND=FILE",
              help="Evidence artifact; repeatable.")
@click.option("--out", "out_path", default=None, help="Write manifest JSON here.")
@now_option
@json_option
@_domain_errors
def manifest_create(claim_path, evidence, out_path, now, as_json):
    """Hash evidence files into a manifest bound to a claim."""
    now = _now_or_default(now)
    parsed_claim = _read_record(TrustClaim, claim_path)
    artifacts = []
    for entry in evidence:
        kind, _, file_path = entry.partition("=")
        if not _ or not Path(file_path).is_file():
            raise click.UsageError(f"--evidence needs KIND=FILE, got {entry!r}")
        artifacts.append(
            EvidenceArtifact(kind=kind, content_hash=content_hash(Path(file_path).read_bytes()))
        )
    built = build_manifest(parsed_claim.claim_id, artifacts, created_at=now)
    _write_json(out_path, built.to_dict())
    if out_path:
        _emit(
            {"manifest_id": built.manifest_id, "kinds": sorted(built.kinds()),
             "file": out_path},
            as_json,
            [f"manifest {built.manifest_id} ({', '.join(sorted(built.kinds()))})",
             f"  written to {out_path}"],
        )


# -- audits -----------------------------------------------------------------


@main.group()
def audit():
    """Interact with an assurance provider."""


@audit.command("request")
@click.option("--claim", "claim_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--level", type=int, required=True, help="Requested level (2 or 3).")
@click.option("--assurer-url", default=None, help="Remote assurance endpoint.")
@click.option("--assurer", "assurer_name", default=None,
              help="Local assurer actor name (runs the audit in-process).")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--out", "out_path", default=None, help="Write attestation JSON here.")
@keys_option
@now_option
@json_option
@_domain_errors
def audit_request(claim_path, manifest_path, level, assurer_url, assurer_name,
                  config_path, out_path, keys_dir, now, as_json):
    """Submit a claim plus evidence manifest for audit."""
    now = _now_or_default(now)
    keys = _keys_from(keys_dir)
    claim_data = _read_record(TrustClaim, claim_path).to_dict()
    manifest_data = _read_record(EvidenceManifest, manifest_path).to_dict()
    if assurer_url:
        transport = HttpAssuranceTransport(assurer_url)
    elif assurer_name:
        cfg = load_config(config_path)
        service = AssuranceService(
            assurer_key=keys.signer_for(make_actor_id(assurer_name)),
            key_directory=keys,
            requirements=cfg.requirements,
            clock=lambda: now,
        )
        transport = LocalAssuranceTransport(service)
    else:
        raise click.UsageError("either --assurer-url or --assurer is required")
    response = transport.request_audit(claim_data, manifest_data, level)
    if response["passed"]:
        attestation = response["attestation"]
        _write_json(out_path, attestation)
        if out_path:
            _emit(
                {"result": "PASS", "attestation_id": attestation["attestation_id"],
                 "file": out_path},
                as_json,
                [f"PASS: attestation {attestation['attestation_id']} "
                 f"(level {attestation['level_assured']})",
                 f"  written to {out_path}"],
            )
    else:
        _emit(
            {"result": "FAIL", "missing_kinds": response["missing_kinds"],
             "claim_cap_violation": response["claim_cap_violation"],
             "reason": response["reason"]},
            as_json,
            [f"FAIL: {response['reason']}",
             f"  missing kinds: {', '.join(response['missing_kinds']) or 'none'}"],
        )
        raise SystemExit(1)


@main.group()
def attest():
    """Verify attestations."""


@attest.command("verify")
@click.option("--attestation", "attestation_path", required=True, type=click.Path(exists=True))
@click.option("--claim", "claim_path", required=True, type=click.Path(exists=True))
@keys_option
@now_option
@json_option
@_domain_errors
def attest_verify(attestation_path, claim_path, keys_dir, now, as_json):
    """Check an attestation's signature, claim binding, and window."""
    now = _now_or_default(now)
    keys = _keys_from(keys_dir)
    parsed = _read_record(Attestation, attestation_path)
    parsed_claim = _read_record(TrustClaim, claim_path)
    if not parsed.verify(keys):
        click.echo(f"signature invalid: attestation {parsed.attestation_id}", err=True)
        raise SystemExit(1)
    if parsed.claim_hash != parsed_claim.canonical_hash():
        click.echo(
            f"attestation {parsed.attestation_id} does not bind to claim "
            f"{parsed_claim.claim_id}", err=True,
        )
        raise SystemExit(1)
    in_window = parsed.valid_at(now)
    _emit(
        {"attestation_id": parsed.attestation_id, "valid": True,
         "level_assured": int(parsed.level_assured), "in_window": in_window},
        as_json,
        [f"attestation {parsed.attestation_id}: signature valid, "
         f"level {int(parsed.level_assured)}, "
         f"{'inside' if in_window else 'OUTSIDE'} validity window"],
    )


# -- provider ---------------------------------------------------------------


@main.command()
@click.option("--store", required=True, help="Provider state directory.")
@click.option("--payload", "payload_path", required=True, type=click.Path(exists=True))
@click.option("--claim", "claim_path", required=True, type=click.Path(exists=True))
@click.option("--attestation", "attestation_paths", multiple=True, type=click.Path(exists=True))
@click.option("--description", default="")
@click.option("--asset-id", default=None, help="Defaults to the claim's dataset id.")
@keys_option
@now_option
@json_option
@_domain_errors
def publish(store, payload_path, claim_path, attestation_paths, description,
            asset_id, keys_dir, now, as_json):
    """Publish a dataset (payload + claim + attestations) to a provider store."""
    now = _now_or_default(now)
    keys = _keys_from(keys_dir)
    parsed_claim = _read_record(TrustClaim, claim_path)
    attestations = tuple(_read_record(Attestation, p) for p in attestation_paths)
    file_store = FileProviderStore(store)
    if file_store.exists():
        provider = file_store.load(keys, clock=lambda: now)
        if provider.actor_id != parsed_claim.provider_id:
            raise DataLoaError(
                f"store belongs to {provider.actor_id}, claim is from "
                f"{parsed_claim.provider_id}"
            )
    else:
        provider = ProviderConnector(
            provider_key=keys.signer_for(parsed_claim.provider_id),
            keys=keys,
            clock=lambda: now,
        )
    asset = provider.publish(
        payload=Path(payload_path).read_bytes(),
        description=description,
        policy=default_policy(),
        claim=parsed_claim,
        attestations=attestations,
        asset_id=asset_id,
    )
    file_store.save(provider)
    _emit(
        {"asset_id": asset.asset_id, "claim_id": parsed_claim.claim_id,
         "attestations": len(attestations), "store": store},
        as_json,
        [f"published {asset.asset_id} with {len(attestations)} attestation(s)",
         f"  store: {store}"],
    )


@main.command()
@click.option("--store", default=None, help="Provider state directory.")
@click.option("--provider-url", default=None, help="Remote provider endpoint.")
@keys_option
@now_option
@json_option
@_domain_errors
def catalog(store, provider_url, keys_dir, now, as_json):
    """Fetch and verify a provider's catalog."""
    _, _, _, verified, _ = _fetch("catalog-viewer", None, store, provider_url, keys_dir,
                                  _now_or_default(now))
    _emit(
        {"provider_id": verified.provider_id,
         "assets": [v.to_dict() for v in verified.assets]},
        as_json,
        [f"catalog of {verified.provider_id}: {len(verified.assets)} asset(s)"]
        + [
            f"  {v.asset.asset_id}: claimed level {int(v.asset.claim.level_claimed)}, "
            f"{len(v.valid_attestations)} attestation(s)"
            + (" [FLAGGED: " + "; ".join(v.problems) + "]" if v.flagged else "")
            for v in verified.assets
        ],
    )


# -- consumer ---------------------------------------------------------------


@main.command()
@click.option("--asset", "asset_id", required=True)
@click.option("--risk", required=True, help="LOW, MEDIUM, HIGH, or CRITICAL.")
@click.option("--store", default=None, help="Provider state directory.")
@click.option("--provider-url", default=None, help="Remote provider endpoint.")
@click.option("--assurer-url", default=None,
              help="Assurance endpoint for the revocation list.")
@click.option("--config", "config_path", default=None, type=click.Path())
@keys_option
@now_option
@json_option
@_domain_errors
def decide(asset_id, risk, store, provider_url, assurer_url, config_path,
           keys_dir, now, as_json):
    """Make a risk-based accept/reject decision about one asset."""
    now = _now_or_default(now)
    cfg = load_config(config_path)
    *_, vasset = _fetch("decision-maker", asset_id, store, provider_url, keys_dir, now)
    revoked = frozenset()
    if assurer_url:
        with HttpAssuranceTransport(assurer_url) as assurer:
            revoked = frozenset(e["attestation_id"] for e in assurer.get_revocations())
    decision = decide_asset(
        vasset, RiskClass.from_value(risk), cfg.consumer_policy, revoked, now
    )
    _emit(
        decision.to_dict(),
        as_json,
        [f"{decision.verdict.value}: {asset_id} at risk {decision.risk_class.value}",
         f"  effective level {int(decision.effective)}, "
         f"required {int(decision.required_level)}"]
        + [f"  - {reason}" for reason in decision.reasons],
    )


@main.command()
@click.option("--asset", "asset_id", required=True)
@click.option("--consumer", "consumer_name", required=True, help="Consumer actor name.")
@click.option("--store", default=None, help="Provider state directory.")
@click.option("--provider-url", default=None, help="Remote provider endpoint.")
@keys_option
@now_option
@json_option
@_domain_errors
def negotiate(asset_id, consumer_name, store, provider_url, keys_dir, now, as_json):
    """Negotiate a usage agreement for an asset (request, verify, finalize)."""
    connector, transport, file_store, _, vasset = _fetch(
        consumer_name, asset_id, store, provider_url, keys_dir, _now_or_default(now))
    outcome = connector.negotiate(transport, vasset)
    if file_store is not None:
        file_store.save(transport.provider)
    _emit(
        {"session_id": outcome.session.session_id,
         "state": outcome.session.state.value,
         "finalized": outcome.finalized,
         "agreement_id": outcome.agreement_id,
         "refusal_reason": outcome.refusal_reason},
        as_json,
        [f"session {outcome.session.session_id}: {outcome.session.state.value}"]
        + ([f"  agreement {outcome.agreement_id}"] if outcome.agreement_id else [])
        + ([f"  refusal: {outcome.refusal_reason}"] if outcome.refusal_reason else []),
    )
    if not outcome.finalized:
        raise SystemExit(1)


@main.command()
@click.option("--asset", "asset_id", required=True)
@click.option("--agreement", "agreement_id", required=True)
@click.option("--store", default=None, help="Provider state directory.")
@click.option("--provider-url", default=None, help="Remote provider endpoint.")
@click.option("--out", "out_path", default=None, help="Write payload bytes here.")
@keys_option
@now_option
@json_option
@_domain_errors
def transfer(asset_id, agreement_id, store, provider_url, out_path, keys_dir, now, as_json):
    """Transfer the payload under a finalized agreement, checking integrity."""
    connector, transport, _, _, vasset = _fetch(
        "transfer-client", asset_id, store, provider_url, keys_dir, _now_or_default(now))
    payload = connector.transfer(transport, agreement_id, vasset.asset.claim.content_hash)
    if out_path:
        Path(out_path).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    _emit(
        {"asset_id": asset_id, "bytes": len(payload), "integrity": "OK",
         "out": out_path},
        as_json,
        [f"transfer OK: {len(payload)} bytes"
         + (f" written to {out_path}" if out_path else "")]
        if out_path else [],
    )


# -- scenarios --------------------------------------------------------------


@main.group()
def scenario():
    """Run and inspect end-to-end scenarios."""


@scenario.command("run")
@click.argument("name_or_path")
@click.option("--mode", type=click.Choice(["in-process", "http"]),
              default="in-process", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--report", "report_path", default="report.json", show_default=True,
              help="Where to write the run report.")
@keys_option
@now_option
@json_option
@_domain_errors
def scenario_run(name_or_path, mode, config_path, report_path, keys_dir, now, as_json):
    """Replay a scenario end to end and write its report."""
    keys = KeyDirectory.load(keys_dir) if Path(keys_dir).is_dir() else None
    report = run_scenario(
        name_or_path, mode=mode, now=now, config=load_config(config_path), keys=keys
    )
    Path(report_path).write_text(report.to_json())
    if as_json:
        click.echo(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        click.echo(f"scenario {report.scenario_name} [{report.mode}]")
        for entry in report.steps:
            label = {
                "fetch_catalog": lambda e: f"{e['asset_count']} asset(s)",
                "decide": lambda e: f"{e.get('verdict', '?')} at {e.get('risk', '?')}",
                "negotiate": lambda e: (
                    "skipped: " + e["reason"] if e.get("skipped") else e.get("state", "?")
                ),
                "negotiate_parallel": lambda e: (
                    f"{len(e.get('outcomes', []))} session(s), "
                    + ("all finalized" if e.get("all_finalized") else "NOT all finalized")
                ),
                "transfer": lambda e: e.get("integrity", "?"),
            }[entry["action"]]
            detail = entry.get("error") or label(entry)
            click.echo(f"  step {entry['step']} {entry['action']}: {detail}")
        if report.ok:
            click.echo(f"ok, report written to {report_path}")
        else:
            click.echo("expectation failures:", err=True)
            for failure in report.expectation_failures:
                click.echo(f"  - {failure}", err=True)
    if not report.ok:
        raise SystemExit(1)


@scenario.command("list")
@json_option
def scenario_list(as_json):
    """List the scenarios bundled with the package."""
    names = sorted(bundled_scenarios())
    _emit({"scenarios": names}, as_json, names)


# -- servers ----------------------------------------------------------------


@main.command()
@click.option("--role", type=click.Choice(["provider", "assurer"]), default="provider",
              show_default=True)
@click.option("--store", default=None, help="Provider state directory (provider role).")
@click.option("--assurer", "assurer_name", default=None,
              help="Assurer actor name (assurer role).")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=0, show_default="ephemeral")
@click.option("--config", "config_path", default=None, type=click.Path())
@keys_option
@now_option
@_domain_errors
def serve(role, store, assurer_name, host, port, config_path, keys_dir, now):
    """Serve a provider store or an assurance service over HTTP."""
    frozen = now is not None
    clock = (lambda: int(now)) if frozen else None
    keys = _keys_from(keys_dir)
    if role == "provider":
        if not store:
            raise click.UsageError("--store is required for the provider role")
        file_store = FileProviderStore(store)
        if not file_store.exists():
            raise click.UsageError(f"no provider store at {store}")
        provider = file_store.load(keys, clock=clock)
        server = ProviderHTTPServer(provider, host=host, port=port)
    else:
        if not assurer_name:
            raise click.UsageError("--assurer is required for the assurer role")
        cfg = load_config(config_path)
        service = AssuranceService(
            assurer_key=keys.signer_for(make_actor_id(assurer_name)),
            key_directory=keys,
            requirements=cfg.requirements,
            clock=clock,
        )
        server = AssuranceHTTPServer(service, host=host, port=port)
    server.start()
    click.echo(server.base_url)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


if __name__ == "__main__":
    main()
