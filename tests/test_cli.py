"""Command-line interface, driven through click's test runner."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from dataloa.cli import main

from conftest import NOW, PAYLOAD, spy_replace

PROVIDER = "aquifer-labs"
CONSUMER = "metro-water"
ASSURER = "trustline-audit"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, runner):
    """Keys for all three actors plus a payload file, all under tmp_path."""
    keys_dir = tmp_path / "keys"
    for name in (PROVIDER, CONSUMER, ASSURER):
        result = runner.invoke(main, ["keygen", "--name", name,
                                      "--keys", str(keys_dir)])
        assert result.exit_code == 0, result.output
    payload = tmp_path / "payload.csv"
    payload.write_bytes(PAYLOAD)
    return tmp_path


def _invoke(runner, workspace, *args):
    argv = [str(a) for a in args] + ["--keys", str(workspace / "keys")]
    return runner.invoke(main, argv)


def _make_claim(runner, workspace, level=2, out="claim.json", dataset_id="wells-1"):
    result = _invoke(
        runner, workspace,
        "claim", "create",
        "--dataset-id", dataset_id,
        "--payload", workspace / "payload.csv",
        "--level", level,
        "--dimension", "quality=lab-validated",
        "--provider", PROVIDER,
        "--out", workspace / out,
        "--now", NOW,
    )
    assert result.exit_code == 0, result.output
    return workspace / out


def test_keygen_emits_key_files(tmp_path, runner):
    result = runner.invoke(main, ["keygen", "--name", "someone",
                                  "--keys", str(tmp_path / "k"), "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["actor_id"] == "urn:actor:someone"
    assert Path(data["private_key_file"]).is_file()
    assert Path(data["public_key_file"]).is_file()


def test_claim_create_and_verify(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    data = json.loads(claim_path.read_text())
    assert data["dataset_id"] == "wells-1"
    result = _invoke(runner, workspace, "claim", "verify", "--claim", claim_path)
    assert result.exit_code == 0
    assert "signature valid" in result.output


def test_claim_verify_fails_on_tampered_signature(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    data = json.loads(claim_path.read_text())
    sig = data["signature"]["sig"]
    data["signature"]["sig"] = ("1" if sig[0] == "0" else "0") + sig[1:]
    bad_path = workspace / "claim_bad.json"
    bad_path.write_text(json.dumps(data))
    result = _invoke(runner, workspace, "claim", "verify", "--claim", bad_path)
    assert result.exit_code == 1
    assert "signature invalid" in result.output


def _assert_typed_error(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    assert "Traceback" not in result.output


def test_claim_verify_reports_a_malformed_file(runner, workspace):
    bad_path = workspace / "claim_list.json"
    bad_path.write_text("[1]")
    _assert_typed_error(_invoke(runner, workspace, "claim", "verify", "--claim", bad_path))


def test_attest_verify_reports_a_malformed_file(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    bad_path = workspace / "att_list.json"
    bad_path.write_text("[1]")
    _assert_typed_error(_invoke(runner, workspace, "attest", "verify",
                                "--attestation", bad_path, "--claim", claim_path))


def test_claim_create_rejects_malformed_dimension(runner, workspace):
    result = _invoke(
        runner, workspace,
        "claim", "create", "--dataset-id", "d", "--payload",
        workspace / "payload.csv", "--provider", PROVIDER,
        "--dimension", "no-equals-sign",
    )
    assert result.exit_code == 2


def _make_evidence(workspace, kinds):
    paths = []
    for kind in kinds:
        path = workspace / f"{kind}.txt"
        path.write_text(f"evidence for {kind}\n")
        paths.append((kind, path))
    return paths


def _make_manifest(runner, workspace, claim_path, kinds, out="manifest.json"):
    # manifest assembly is pure hashing and takes no keys
    args = ["manifest", "create", "--claim", str(claim_path),
            "--out", str(workspace / out), "--now", str(NOW)]
    for kind, path in _make_evidence(workspace, kinds):
        args += ["--evidence", f"{kind}={path}"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return workspace / out


def test_audit_request_pass_and_attest_verify(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    manifest_path = _make_manifest(
        runner, workspace, claim_path, ["quality-report", "provenance-record"]
    )
    att_path = workspace / "att.json"
    result = _invoke(
        runner, workspace,
        "audit", "request", "--claim", claim_path, "--manifest", manifest_path,
        "--level", 2, "--assurer", ASSURER, "--now", NOW, "--out", att_path,
    )
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    attestation = json.loads(att_path.read_text())
    assert attestation["level_assured"] == 2

    result = _invoke(
        runner, workspace,
        "attest", "verify", "--attestation", att_path, "--claim", claim_path,
        "--now", NOW,
    )
    assert result.exit_code == 0
    assert "signature valid" in result.output


def test_audit_request_fail_names_missing_kinds(runner, workspace):
    claim_path = _make_claim(runner, workspace, level=3)
    manifest_path = _make_manifest(runner, workspace, claim_path, ["quality-report"])
    result = _invoke(
        runner, workspace,
        "audit", "request", "--claim", claim_path, "--manifest", manifest_path,
        "--level", 3, "--assurer", ASSURER, "--now", NOW,
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "integrity-monitoring" in result.output
    assert "security-assessment" in result.output


def test_audit_request_reports_a_malformed_claim_file(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    manifest_path = _make_manifest(runner, workspace, claim_path, ["quality-report"])
    bad_path = workspace / "claim_list.json"
    bad_path.write_text("[1]")
    _assert_typed_error(_invoke(runner, workspace, "audit", "request",
                                "--claim", bad_path, "--manifest", manifest_path,
                                "--level", 2, "--assurer", ASSURER, "--now", NOW))


def test_full_pipeline_publish_decide_negotiate_transfer(runner, workspace):
    claim_path = _make_claim(runner, workspace)
    manifest_path = _make_manifest(
        runner, workspace, claim_path, ["quality-report", "provenance-record"]
    )
    att_path = workspace / "att.json"
    result = _invoke(
        runner, workspace,
        "audit", "request", "--claim", claim_path, "--manifest", manifest_path,
        "--level", 2, "--assurer", ASSURER, "--now", NOW, "--out", att_path,
    )
    assert result.exit_code == 0, result.output

    store = workspace / "store"
    result = _invoke(
        runner, workspace,
        "publish", "--store", store, "--payload", workspace / "payload.csv",
        "--claim", claim_path, "--attestation", att_path, "--now", NOW,
    )
    assert result.exit_code == 0, result.output

    result = _invoke(runner, workspace, "catalog", "--store", store,
                     "--now", NOW, "--json")
    assert result.exit_code == 0, result.output
    catalog = json.loads(result.output)
    assert [a["asset"]["asset_id"] for a in catalog["assets"]] == ["wells-1"]
    assert not catalog["assets"][0]["flagged"]

    result = _invoke(runner, workspace, "decide", "--asset", "wells-1",
                     "--risk", "MEDIUM", "--store", store, "--now", NOW)
    assert result.exit_code == 0, result.output
    assert "ACCEPT" in result.output

    result = _invoke(runner, workspace, "decide", "--asset", "wells-1",
                     "--risk", "HIGH", "--store", store, "--now", NOW)
    assert result.exit_code == 0, result.output
    assert "REJECT" in result.output

    result = _invoke(runner, workspace, "negotiate", "--asset", "wells-1",
                     "--consumer", CONSUMER, "--store", store, "--now", NOW,
                     "--json")
    assert result.exit_code == 0, result.output
    outcome = json.loads(result.output)
    assert outcome["state"] == "FINALIZED"
    agreement_id = outcome["agreement_id"]

    out_path = workspace / "delivered.csv"
    result = _invoke(runner, workspace, "transfer", "--asset", "wells-1",
                     "--agreement", agreement_id, "--store", store,
                     "--now", NOW, "--out", out_path)
    assert result.exit_code == 0, result.output
    assert out_path.read_bytes() == PAYLOAD

    result = _invoke(runner, workspace, "transfer", "--asset", "wells-1",
                     "--agreement", "no-such-agreement", "--store", store,
                     "--now", NOW)
    assert result.exit_code == 1
    assert "error" in result.output


def test_publish_keeps_a_traversing_id_inside_the_store(runner, workspace):
    claim_path = _make_claim(runner, workspace, dataset_id="../../escaped")
    store = workspace / "store" / "inner"
    result = _invoke(runner, workspace, "publish", "--store", store, "--payload",
                     workspace / "payload.csv", "--claim", claim_path, "--now", NOW)
    assert result.exit_code == 0, result.output
    assert list((workspace / "store").iterdir()) == [store]
    assert not list(workspace.rglob("escaped*"))

    result = _invoke(runner, workspace, "catalog", "--store", store, "--now", NOW, "--json")
    assert result.exit_code == 0, result.output
    assert [a["asset"]["asset_id"] for a in json.loads(result.output)["assets"]] == ["../../escaped"]


def test_negotiate_writes_one_session_file_and_nothing_else(runner, workspace, monkeypatch):
    store = workspace / "store"
    result = _invoke(runner, workspace, "publish", "--store", store, "--payload",
                     workspace / "payload.csv", "--claim", _make_claim(runner, workspace),
                     "--now", NOW)
    assert result.exit_code == 0, result.output
    before = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}

    replaced = spy_replace(monkeypatch)
    result = _invoke(runner, workspace, "negotiate", "--asset", "wells-1",
                     "--consumer", CONSUMER, "--store", store, "--now", NOW)
    assert result.exit_code == 0, result.output
    assert len(replaced) == 1 and replaced[0].parent == store / "sessions"
    after = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}
    assert after.keys() - before.keys() == {replaced[0]}
    assert all(after[p] == data for p, data in before.items())


def test_decide_requires_a_provider_source(runner, workspace):
    result = _invoke(runner, workspace, "decide", "--asset", "x", "--risk", "LOW")
    assert result.exit_code == 2


def test_decide_reports_a_malformed_revocation_list(runner, workspace):
    """An assurer answering ``{"revocations": [1]}``: an error line and
    exit 1, not a traceback."""
    from test_wire import _StubServer, _answer

    claim_path = _make_claim(runner, workspace, level=1)
    store = workspace / "store"
    result = _invoke(runner, workspace, "publish", "--store", store,
                     "--payload", workspace / "payload.csv", "--claim", claim_path,
                     "--now", NOW)
    assert result.exit_code == 0, result.output
    with _StubServer(_answer("200 OK", b'{"revocations": [1]}')) as stub:
        result = _invoke(runner, workspace, "decide", "--asset", "wells-1",
                         "--risk", "LOW", "--store", store, "--assurer-url", stub.url,
                         "--now", NOW)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: no revocation list from" in result.output


def test_scenario_run_writes_report(tmp_path, runner):
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, [
        "scenario", "run", "poc_self_asserted",
        "--report", str(report_path),
        "--keys", str(tmp_path / "no-keys"),
    ])
    assert result.exit_code == 0, result.output
    assert "ok, report written" in result.output
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["scenario"] == "poc_self_asserted"


def test_scenario_run_unknown_name(tmp_path, runner):
    result = runner.invoke(main, [
        "scenario", "run", "no_such_scenario",
        "--report", str(tmp_path / "r.json"),
        "--keys", str(tmp_path / "no-keys"),
    ])
    assert result.exit_code == 1
    assert "error" in result.output


def test_scenario_list(runner):
    result = runner.invoke(main, ["scenario", "list", "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["scenarios"] == [
        "concurrent_negotiations", "poc_audited", "poc_self_asserted",
        "tampered_payload",
    ]


def test_unknown_option_is_usage_error(runner):
    result = runner.invoke(main, ["keygen", "--bogus"])
    assert result.exit_code == 2
