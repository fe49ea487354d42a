"""Deployment configuration loading."""

from __future__ import annotations

import json

import pytest

from dataloa.config import ENV_VAR, DeploymentConfig, load_config
from dataloa.errors import ConfigError
from dataloa.model import AssuranceLevel
from dataloa.policy_engine import RiskClass


def test_defaults_when_nothing_is_set(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    config = load_config()
    assert config.to_dict() == DeploymentConfig.defaults().to_dict()


def test_explicit_path(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(
        {"risk_to_min_level": {"LOW": 1, "MEDIUM": 1, "HIGH": 2, "CRITICAL": 3}}
    ))
    config = load_config(str(path))
    assert config.consumer_policy.required_level(RiskClass.MEDIUM) \
        is AssuranceLevel.SELF_ASSERTED
    # omitted section falls back to defaults
    assert config.requirements.to_dict() == \
        DeploymentConfig.defaults().requirements.to_dict()


def test_env_var_fallback(tmp_path, monkeypatch):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(
        {"risk_to_min_level": {"LOW": 2, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3}}
    ))
    monkeypatch.setenv(ENV_VAR, str(path))
    config = load_config()
    assert config.consumer_policy.required_level(RiskClass.LOW) \
        is AssuranceLevel.AUDITED


def test_explicit_path_beats_env_var(tmp_path, monkeypatch):
    good = tmp_path / "good.json"
    good.write_text("{}")
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "missing.json"))
    config = load_config(str(good))
    assert config.to_dict() == DeploymentConfig.defaults().to_dict()


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_unparseable_json(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_non_object_top_level(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_invalid_policy_section(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(
        {"risk_to_min_level": {"LOW": 3, "MEDIUM": 1, "HIGH": 1, "CRITICAL": 1}}
    ))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_custom_level_requirements(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({
        "level_requirements": {
            "2": {"required_kinds": ["quality-report"],
                  "max_validity_seconds": 3600},
            "3": {"required_kinds": ["quality-report", "security-assessment"],
                  "max_validity_seconds": 1800},
        }
    }))
    config = load_config(str(path))
    assert config.requirements.for_level(2).max_validity_seconds == 3600
    assert config.requirements.for_level(3).required_kinds == \
        frozenset({"quality-report", "security-assessment"})


def _requirements(**level_2) -> dict:
    return {"level_requirements": {
        "2": {"required_kinds": ["quality-report"], "max_validity_seconds": 3600, **level_2},
        "3": {"required_kinds": ["quality-report"], "max_validity_seconds": 1800},
    }}


@pytest.mark.parametrize("data, where", [
    (_requirements(required_kinds="quality-report"),
     "config.level_requirements.2.required_kinds: expected a list"),
    (_requirements(max_validity_seconds=10.5),
     "config.level_requirements.2.max_validity_seconds: expected an integer"),
    (_requirements(max_validity_seconds=True),
     "config.level_requirements.2.max_validity_seconds: expected an integer"),
    ({"risk_to_min_levels": {"LOW": 2, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3}},
     "config: unknown field 'risk_to_min_levels'"),
    ({"risk_to_min_level": {"LOW": 1, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3, "EXTREME": 3}},
     "config.risk_to_min_level: unknown field 'EXTREME'"),
], ids=["kinds-as-a-string", "lifetime-10.5", "lifetime-true", "misspelt-section",
        "unknown-risk-class"])
def test_malformed_field_is_refused_by_its_path(tmp_path, data, where):
    """Each was read some other way at the parent: a string as a set of
    characters, 10.5 and true as lifetimes, a misspelt section as no
    section at all, an unknown risk class as an UnknownRiskClass."""
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path))
    assert where in str(excinfo.value)
