"""Scenario parsing and end-to-end runs."""

from __future__ import annotations

import copy
import json
import threading
import time

import pytest

from dataloa.errors import ScenarioParseError
from dataloa.scenario import (
    MODES,
    ScenarioRunner,
    bundled_scenarios,
    load_scenario,
    parse_scenario,
    resolve_scenario,
    run_scenario,
)

from conftest import NOW

BUNDLED = (
    "concurrent_negotiations",
    "poc_audited",
    "poc_self_asserted",
    "tampered_payload",
)


def _base() -> dict:
    return {
        "name": "t",
        "start_time": NOW,
        "actors": [
            {"name": "prov", "role": "provider"},
            {"name": "cons", "role": "consumer"},
            {"name": "aud", "role": "assurer"},
        ],
        "datasets": [
            {"dataset_id": "d1", "payload_text": "x,y\n1,2\n", "provider": "prov"}
        ],
        "claims": [{"ref": "c1", "dataset": "d1", "level": 2}],
        "consumer_actions": [
            {"action": "fetch_catalog", "consumer": "cons"},
            {"action": "decide", "consumer": "cons", "asset": "d1", "risk": "LOW"},
        ],
    }


def _broken(mutate) -> dict:
    data = copy.deepcopy(_base())
    mutate(data)
    return data


def test_base_scenario_parses():
    scenario = parse_scenario(_base())
    assert scenario.name == "t"
    assert len(scenario.actions) == 2


@pytest.mark.parametrize("mutate,hint", [
    (lambda d: d["actors"].pop(0), "exactly one provider"),
    (lambda d: d["actors"].append({"name": "p2", "role": "provider"}),
     "exactly one provider"),
    (lambda d: d["actors"].pop(2), "exactly one assurer"),
    (lambda d: d["actors"].pop(1), "at least one consumer"),
    (lambda d: d["actors"].append({"name": "cons", "role": "consumer"}),
     "duplicate actor"),
    (lambda d: d["datasets"][0].update(provider="ghost"), "unknown provider"),
    (lambda d: d["datasets"].append(dict(d["datasets"][0])), "duplicate dataset"),
    (lambda d: d["claims"][0].update(dataset="ghost"), "unknown dataset"),
    (lambda d: d["claims"].append(dict(d["claims"][0])), "duplicate claim"),
    (lambda d: d.update(audits=[{"claim": "ghost", "requested_level": 2}]),
     "unknown claim"),
    (lambda d: d.update(revocations=[{"audit_index": 0}]), "out of range"),
    (lambda d: d["consumer_actions"].append({"action": "teleport",
                                             "consumer": "cons"}),
     "unknown action"),
    (lambda d: d["consumer_actions"][0].update(consumer="ghost"),
     "unknown consumer"),
    (lambda d: d["consumer_actions"][1].update(asset="ghost"), "unknown asset"),
    (lambda d: d["consumer_actions"][1].update(risk="EXTREME"), "risk"),
    (lambda d: d["consumer_actions"][1].update(expect_verdict="MAYBE"),
     "expect_verdict"),
    (lambda d: d["consumer_actions"].append(
        {"action": "transfer", "consumer": "cons", "asset": "d1",
         "expect_integrity": "SHAKY"}), "expect_integrity"),
    (lambda d: d["consumer_actions"].append(
        {"action": "negotiate_parallel", "asset": "d1", "consumers": []}),
     "needs consumers"),
])
def test_parse_rejects_broken_documents(mutate, hint):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(_broken(mutate))
    assert hint.split()[0].lower() in str(excinfo.value).lower()


def _bundled(name: str) -> dict:
    return json.loads(bundled_scenarios()[name].read_text())


def _set(path: tuple, value):
    """A mutation of a scenario document: the field at ``path`` set to ``value``."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


# One-field changes to a bundled scenario, each refused at parse time
# with the path of the field at fault. At the parent each one ran, or
# failed at run time, or was refused under another name.
ONE_FIELD_CHANGES = {
    "payload-not-text": (_set(("datasets", 0, "payload_text"), 5), "datasets[0].payload_text"),
    "evidence-not-text": (_set(("audits", 0, "evidence", 0, "content_text"), 5),
                          "audits[0].evidence[0].content_text"),
    "action-not-an-object": (_set(("consumer_actions", 1), 5), "consumer_actions[1]"),
    "start-time-not-an-integer": (_set(("start_time",), "abc"), "start_time"),
    "unknown-dimension": (_set(("claims", 0, "dimensions", "colour"), "blue"),
                          "claims[0].dimensions: unknown field 'colour'"),
    "level-0": (_set(("claims", 0, "level"), 0), "claims[0].level"),
    "level-7": (_set(("claims", 0, "level"), 7), "claims[0].level"),
    "requested-level-5": (_set(("audits", 0, "requested_level"), 5), "audits[0].requested_level"),
    "lone-surrogate": (_set(("datasets", 0, "payload_text"), "wells \ud800"),
                       "datasets[0].payload_text: holds a lone surrogate"),
    "level-2.9": (_set(("claims", 0, "level"), 2.9), "claims[0].level"),
    "requested-level-2.5": (_set(("audits", 0, "requested_level"), 2.5),
                            "audits[0].requested_level"),
    "level-true": (_set(("claims", 0, "level"), True), "claims[0].level"),
    "name-not-text": (_set(("name",), 5), "scenario.name"),
    "misspelt-key": (_set(("claims", 0, "levle"), 2), "claims[0]: unknown field 'levle'"),
    "expect-pass-not-a-boolean": (_set(("audits", 0, "expect_pass"), "yes"),
                                  "audits[0].expect_pass"),
    "unknown-expected-state": (_set(("consumer_actions", 4, "expect_state"), "BOGUS"),
                               "consumer_actions[4].expect_state"),
}


@pytest.mark.parametrize("case", sorted(ONE_FIELD_CHANGES))
def test_one_field_change_is_refused_at_parse_time(case):
    mutate, where = ONE_FIELD_CHANGES[case]
    doc = _bundled("poc_audited")
    parse_scenario(doc)
    mutate(doc)
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(doc)
    assert where in str(excinfo.value)


def test_consumers_given_as_one_string_are_refused():
    """Read as a list, the string would name one consumer per character."""
    doc = _bundled("concurrent_negotiations")
    _set(("consumer_actions", 2, "consumers"), "metro-water")(doc)
    with pytest.raises(ScenarioParseError, match=r"consumer_actions\[2\]\.consumers: expected a list"):
        parse_scenario(doc)


def test_expect_all_finalized_false_is_checked(tmp_path):
    """``false`` is an expectation too: every session finalizing fails it."""
    doc = _bundled("concurrent_negotiations")
    doc["consumer_actions"][2]["expect_all_finalized"] = False
    report = _run(doc, tmp_path)
    assert report.expectation_failures == [
        "negotiate_parallel on groundwater-2026 all_finalized: expected False, got True"]


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "absent.json")


def test_resolve_scenario_names_and_paths(tmp_path):
    assert resolve_scenario("poc_self_asserted").name == "poc_self_asserted.json"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(_base()))
    assert resolve_scenario(str(path)) == path
    with pytest.raises(ScenarioParseError):
        resolve_scenario("does_not_exist")


def test_bundled_scenario_inventory():
    assert tuple(sorted(bundled_scenarios())) == BUNDLED


def test_runner_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ScenarioRunner(parse_scenario(_base()), mode="carrier-pigeon")
    assert MODES == ("in-process", "http")


# -- runs -------------------------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass_in_process(name):
    report = run_scenario(name, mode="in-process")
    assert report.ok, report.expectation_failures
    assert report.steps


def test_http_replays_leave_no_threads_behind():
    """Every HTTP run closes its transports, the per-worker ones of
    negotiate_parallel too, so no server handler thread outlives it."""
    baseline = threading.active_count()
    for name in (*BUNDLED, BUNDLED[0]):
        assert run_scenario(name, mode="http").ok, name
    deadline = time.monotonic() + 1
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline


def _run(data: dict, tmp_path, **kwargs):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return run_scenario(str(path), **kwargs)


def test_reject_skips_negotiation(tmp_path):
    data = _base()
    data["consumer_actions"] = [
        {"action": "fetch_catalog", "consumer": "cons"},
        {"action": "decide", "consumer": "cons", "asset": "d1",
         "risk": "MEDIUM", "expect_verdict": "REJECT"},
        {"action": "negotiate", "consumer": "cons", "asset": "d1"},
    ]
    report = _run(data, tmp_path)
    assert report.ok, report.expectation_failures
    decide_step = report.steps[1]
    assert decide_step["verdict"] == "REJECT"
    assert any("self-asserted" in r for r in decide_step["reasons"])
    negotiate_step = report.steps[2]
    assert negotiate_step["skipped"] is True
    assert report.final_sessions == {}


def test_revocation_flow(tmp_path):
    data = _base()
    data["audits"] = [{
        "claim": "c1",
        "requested_level": 2,
        "expect_pass": True,
        "evidence": [
            {"kind": "quality-report", "content_text": "q"},
            {"kind": "provenance-record", "content_text": "p"},
        ],
    }]
    data["revocations"] = [{"audit_index": 0, "reason": "auditor compromised"}]
    data["consumer_actions"] = [
        {"action": "fetch_catalog", "consumer": "cons"},
        {"action": "decide", "consumer": "cons", "asset": "d1",
         "risk": "MEDIUM", "expect_verdict": "REJECT"},
    ]
    report = _run(data, tmp_path)
    assert report.ok, report.expectation_failures
    assert len(report.revocations) == 1
    assert report.revocations[0]["reason"] == "auditor compromised"
    decide_step = report.steps[1]
    assert decide_step["verdict"] == "REJECT"
    assert any("revoked" in r for r in decide_step["reasons"])


def test_failed_expectation_is_reported_not_raised(tmp_path):
    data = _base()
    data["consumer_actions"][1]["expect_verdict"] = "REJECT"  # actual: ACCEPT
    report = _run(data, tmp_path)
    assert not report.ok
    assert any("expected REJECT" in f for f in report.expectation_failures)


def test_transfer_without_agreement_is_a_step_failure(tmp_path):
    data = _base()
    data["consumer_actions"] = [
        {"action": "fetch_catalog", "consumer": "cons"},
        {"action": "transfer", "consumer": "cons", "asset": "d1"},
    ]
    report = _run(data, tmp_path)
    assert not report.ok
    assert "error" in report.steps[1]


def test_audit_expectation_mismatch_is_reported(tmp_path):
    data = _base()
    data["audits"] = [{
        "claim": "c1", "requested_level": 2, "expect_pass": True,
        "evidence": [{"kind": "quality-report", "content_text": "q"}],
    }]
    report = _run(data, tmp_path)
    assert not report.ok
    assert any("audit" in f for f in report.expectation_failures)


def test_parallel_negotiation_records_every_worker_exception(monkeypatch):
    def failing_transport():
        raise RuntimeError("transport exploded")

    setup = ScenarioRunner.setup

    def setup_then_break(self, report):
        setup(self, report)
        self._provider_transport_factory = failing_transport

    monkeypatch.setattr(ScenarioRunner, "setup", setup_then_break)
    report = run_scenario("concurrent_negotiations", mode="in-process")
    step = next(s for s in report.steps if s["action"] == "negotiate_parallel")
    assert step["outcomes"] == []
    assert step["errors"] == {
        name: "RuntimeError: transport exploded" for name in step["consumers"]
    }
    for name in step["consumers"]:
        assert any(f.startswith(f"negotiate_parallel {name}/")
                   for f in report.expectation_failures)


def test_reports_are_deterministic(tmp_path):
    first = run_scenario("poc_self_asserted", mode="in-process")
    second = run_scenario("poc_self_asserted", mode="in-process")
    assert first.comparable() == second.comparable()
    assert json.dumps(first.comparable(), sort_keys=True) == \
        json.dumps(second.comparable(), sort_keys=True)


def test_comparable_strips_mode_and_timings():
    report = run_scenario("poc_self_asserted", mode="in-process")
    full = report.to_dict()
    assert "mode" in full and "elapsed_ms" in full
    assert all("elapsed_ms" in s for s in full["steps"])
    comparable = report.comparable()
    assert "mode" not in comparable
    assert "elapsed_ms" not in comparable
    assert all("elapsed_ms" not in s for s in comparable["steps"])


def test_run_report_json_shape():
    report = run_scenario("poc_self_asserted", mode="in-process")
    parsed = json.loads(report.to_json())
    assert parsed["scenario"] == "poc_self_asserted"
    assert parsed["ok"] is True
