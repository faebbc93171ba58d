"""Model definition files.

YAML documents with either a `catalog` shortcut (name + params) or explicit
`rates` and `environment` sections following the prefix/tail layout of
`RateFamily` and `EnvironmentSpec`.
"""

from __future__ import annotations

import yaml

from .catalog import catalog
from .model import EnvironmentSpec, InvalidParam, JointModel, RateFamily


def model_from_dict(doc: dict) -> JointModel:
    if "catalog" in doc:
        entry = doc["catalog"]
        return catalog(entry["name"], **entry.get("params", {}))
    try:
        rates_doc = doc["rates"]
        env_doc = doc["environment"]
    except KeyError as exc:
        raise InvalidParam(f"model file needs `catalog` or `rates`+`environment`: missing {exc}") from exc
    rates = RateFamily(
        lambda_prefix=tuple(rates_doc.get("lambda_prefix", ())),
        mu_prefix=tuple(rates_doc.get("mu_prefix", ())),
        lambda_tail=tuple(rates_doc["lambda_tail"]),
        mu_tail=tuple(rates_doc["mu_tail"]),
    )
    env = EnvironmentSpec(
        labels=tuple(env_doc["labels"]),
        blocked=frozenset(env_doc.get("blocked", ())),
        V_prefix=tuple(env_doc.get("V_prefix", ())),
        R_prefix=tuple(env_doc.get("R_prefix", ())),
        V_tail=tuple(env_doc["V_tail"]),
        R_tail=tuple(env_doc["R_tail"]),
    )
    return JointModel(rates=rates, env=env, name=str(doc.get("name", "")))


def load_model(path) -> JointModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise InvalidParam(f"model file {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParam(f"model file {path} does not contain a mapping")
    return model_from_dict(doc)
