"""Model definition files.

YAML documents with either a `catalog` shortcut (name + params) or explicit
`rates` and `environment` sections following the prefix/tail layout of
`RateFamily` and `EnvironmentSpec`.

A JSON text is read by `json.loads`, as YAML 1.2 reads it; PyYAML, a YAML 1.1
parser, reads every other file.  PyYAML parses in C but constructs every
scalar in Python, while `json.loads` does both in C, ~18x faster on a large
explicit-matrix file.
"""

from __future__ import annotations

import json

import yaml

from .catalog import catalog
from .model import EnvironmentSpec, InvalidParam, JointModel, RateFamily

# libyaml's composer recurses in C, ~300 bytes of stack a level: a file 30,000
# levels deep overflows an 8 MB stack and kills the interpreter, one 4000 deep
# a 1 MB stack.  A model needs ~5 levels; the cap sits where json.loads gives
# up (its recursion limit is ~1000) and keeps the composer within ~0.3 MB.
_MAX_DEPTH = 1000


def _parse_document(text: str):
    """The document in `text`: a JSON text as `json.loads` reads it, any other
    text as YAML reads it.  Raises yaml.YAMLError on text that is not valid
    YAML and InvalidParam on collections nested deeper than `_MAX_DEPTH`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, a BOM, an over-long integer or deep nesting
        pass
    # libyaml's parser where PyYAML was built with it: ~6x faster on large explicit models
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    # the parser's event stream is flat, so the depth is checked before the composer recurses; every
    # collection opens at one of these characters, so a text with few of them needs no check
    depth = 0
    events = yaml.parse(text, Loader=loader) if sum(map(text.count, "[{-:?")) > _MAX_DEPTH else ()
    for event in events:
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise InvalidParam(f"model file nests collections deeper than {_MAX_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return yaml.load(text, Loader=loader)


def _get(section: dict, key: str, kind, default=None):
    """`section[key]`, or `default` where an optional key is missing, checked to be a `kind`."""
    if default is None and key not in section:
        raise InvalidParam(f"model file: missing `{key}`")
    value = section.get(key, default)
    if not isinstance(value, kind):
        raise InvalidParam(f"model file: `{key}` must be a {kind.__name__}, got {value!r:.60}")
    return value


def _matrices(env_doc: dict, key: str, default=None) -> tuple:
    """`env_doc[key]`, a list of matrices, none with a boolean entry: numpy
    would read YAML's yes/no or JSON's true/false as 1 or 0."""
    matrices = _get(env_doc, key, list, default)
    for i, matrix in enumerate(matrices):
        if isinstance(matrix, list) and any(bool in map(type, row) for row in matrix if isinstance(row, list)):
            raise InvalidParam(f"model file: {key}[{i}] must contain numbers, got a boolean")
    return tuple(matrices)


def model_from_dict(doc: dict) -> JointModel:
    if "catalog" in doc:
        entry = _get(doc, "catalog", dict)
        name, params = _get(entry, "name", str), _get(entry, "params", dict, {})
        if not all(isinstance(key, str) for key in params):
            raise InvalidParam("model file: catalog `params` keys must be strings")
        return catalog(name, **params)
    rates_doc = _get(doc, "rates", dict)
    env_doc = _get(doc, "environment", dict)
    rates = RateFamily(
        lambda_prefix=tuple(_get(rates_doc, "lambda_prefix", list, [])),
        mu_prefix=tuple(_get(rates_doc, "mu_prefix", list, [])),
        lambda_tail=tuple(_get(rates_doc, "lambda_tail", list)),
        mu_tail=tuple(_get(rates_doc, "mu_tail", list)),
    )
    env = EnvironmentSpec(
        labels=tuple(_get(env_doc, "labels", list)),
        blocked=tuple(_get(env_doc, "blocked", list, [])),
        V_prefix=_matrices(env_doc, "V_prefix", []),
        R_prefix=_matrices(env_doc, "R_prefix", []),
        V_tail=_matrices(env_doc, "V_tail"),
        R_tail=_matrices(env_doc, "R_tail"),
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
