"""Deployment configuration: consumer risk policy and audit requirements.

Configuration is a single JSON file. Resolution order: an explicit
path, then the DATALOA_CONFIG environment variable, then built-in
defaults. Both sections are optional; omitted sections fall back to
defaults. Any other key, or a field of another type, is a ConfigError
naming the field (see errors.decode).

Example::

    {
      "risk_to_min_level": {"LOW": 1, "MEDIUM": 2, "HIGH": 3, "CRITICAL": 3},
      "level_requirements": {
        "2": {"required_kinds": ["quality-report", "provenance-record"],
              "max_validity_seconds": 7776000},
        "3": {"required_kinds": ["quality-report", "provenance-record",
                                 "integrity-monitoring", "security-assessment"],
              "max_validity_seconds": 2592000}
      }
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .assurance import LevelRequirements
from .errors import ConfigError, MalformedInput, decode
from .model import AssuranceLevel
from .policy_engine import RISK_ORDER, ConsumerPolicy

ENV_VAR = "DATALOA_CONFIG"


@dataclass(frozen=True)
class DeploymentConfig:
    consumer_policy: ConsumerPolicy
    requirements: LevelRequirements

    @classmethod
    def defaults(cls) -> "DeploymentConfig":
        return cls(
            consumer_policy=ConsumerPolicy.default(),
            requirements=LevelRequirements.default(),
        )

    def to_dict(self) -> dict:
        return {
            "risk_to_min_level": self.consumer_policy.to_dict()["risk_to_min_level"],
            "level_requirements": self.requirements.to_dict(),
        }


def load_config(path: Optional[str] = None) -> DeploymentConfig:
    """Load configuration from ``path``, DATALOA_CONFIG, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return DeploymentConfig.defaults()
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        data = json.loads(file_path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {file_path}: {exc}") from exc
    # A section's own ValueError (levels out of order) is a refusal too.
    levels = {risk.value: AssuranceLevel.from_value for risk in RISK_ORDER}
    try:
        sections = decode(data, {
            "risk_to_min_level": (
                lambda section: ConsumerPolicy(decode(section, levels, "config.risk_to_min_level")),
                ConsumerPolicy.default()),
            "level_requirements": (
                lambda section: LevelRequirements.from_dict(section, "config.level_requirements"),
                LevelRequirements.default()),
        }, "config")
    except MalformedInput as exc:
        raise ConfigError(f"invalid config {file_path}: {exc}") from None
    return DeploymentConfig(sections["risk_to_min_level"], sections["level_requirements"])
