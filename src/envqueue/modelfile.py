"""Model definition files.

YAML documents with either a `catalog` shortcut (name + params) or explicit
`rates` and `environment` sections following the prefix/tail layout of
`RateFamily` and `EnvironmentSpec`.

A JSON text is also a YAML flow document.  PyYAML parses in C but constructs
every scalar in Python, while `json.loads` does both in C, ~18x faster on a
large explicit-matrix file.  So a JSON text on which the two parsers agree is
read by `json`; every other file goes to YAML, the reference.
"""

from __future__ import annotations

import json
import re

import yaml

from .catalog import catalog
from .model import EnvironmentSpec, InvalidParam, JointModel, RateFamily

# Each matches JSON texts that YAML 1.1 (PyYAML) may read differently from
# json.loads or reject; those go to YAML.  Every pattern starts with one
# literal character, so `re` finds it by a fast scan instead of trying each
# position.
_YAML_ONLY = tuple(re.compile(pattern) for pattern in (
    r"e(?<=[0-9]e)", r"E(?<=[0-9]E)",  # an exponent number: YAML 1.1 reads 1e-05 and 1.5e3 as strings
    r"NaN", r"Infinity",  # YAML strings
    r"\\u[dD][89a-fA-F]",  # a surrogate escape: YAML rejects it
    r'"\s+:',  # whitespace before a key's colon: YAML rejects a line break there
))
# YAML rejects a simple key longer than 1024 characters.  With no whitespace
# before the colon, a key of at most this many characters spans at most
# 2 + 6 * 166 of the text, as an escape takes at most 6 characters.
_MAX_KEY = 166


def _short_keys(pairs):
    if any(len(key) > _MAX_KEY for key, _ in pairs):
        raise ValueError("key too long for a YAML simple key")
    return dict(pairs)


def _parse_document(text: str):
    """The YAML document in `text`, read by `json.loads` when the two parsers
    agree on it.  Raises yaml.YAMLError on text that is not valid YAML."""
    # YAML rejects control characters and folds U+0085 into a space; json.loads
    # rejects every raw control character except DEL
    if text.isascii() and "\x7f" not in text and not any(p.search(text) for p in _YAML_ONLY):
        try:
            return json.loads(text, object_pairs_hook=_short_keys)
        except (ValueError, RecursionError):  # not JSON, a long key, an over-long integer or deep nesting
            pass
    # libyaml's parser where PyYAML was built with it: ~6x faster on large explicit models
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


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
        text = fh.read()
    try:
        doc = _parse_document(text)
    except yaml.YAMLError as exc:
        raise InvalidParam(f"model file {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParam(f"model file {path} does not contain a mapping")
    return model_from_dict(doc)
