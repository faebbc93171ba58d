"""Model files: a JSON text is read by json.loads, every other file by YAML,
and both give the document YAML gives."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import envqueue
from envqueue import modelfile
from envqueue.model import InvalidParam
from envqueue.modelfile import _parse_document, load_model, model_from_dict

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

TWO_STATE = """
rates:
  lambda_tail: [1.0]
  mu_tail: [2.0]
environment:
  labels: ["down", "up"]
  blocked: ["down"]
  V_tail:
    - [[-1.0, 1.0], [1.0, -1.0]]
  R_tail:
    - [[1.0, 0.0], [0.0, 1.0]]
"""
CATALOG = "catalog:\n  name: base_stock\n  params: {lam: 1, mu: 2, nu: 1, b: 2}\n"


def base_stock_doc(b, lam=0.7, mu=1.0, nu=3.0):
    """Base stock b as explicit matrices: replenishment k -> k+1 at nu, a
    service completion uses one item."""
    m = b + 1
    V = [[0.0] * m for _ in range(m)]
    R = [[0.0] * m for _ in range(m)]
    for k in range(m):
        if k < b:
            V[k][k + 1], V[k][k] = nu, -nu
        R[k][max(k - 1, 0)] = 1.0
    return {"name": f"base_stock_b{b}", "rates": {"lambda_tail": [lam], "mu_tail": [mu]},
            "environment": {"labels": list(range(m)), "blocked": [0], "V_tail": [V], "R_tail": [R]}}


def outcome(parse, text):
    """The document's repr (which tells int from float, -0.0 from 0.0 and shows NaN), or the error type."""
    try:
        return repr(parse(text))
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        return type(exc)


def model_outcome(build):
    try:
        return build().signature()
    except InvalidParam as exc:
        return str(exc)


def yaml_reads(text):
    return yaml.load(text, Loader=LOADER)


def assert_reads_as_yaml(text):
    assert outcome(_parse_document, text) == outcome(yaml_reads, text)


def no_yaml(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("YAML parser called")

    monkeypatch.setattr(modelfile.yaml, "load", fail)


class TestJsonPath:
    @pytest.mark.parametrize("text", [
        json.dumps(yaml.safe_load(TWO_STATE)),
        json.dumps(yaml.safe_load(TWO_STATE), indent=2),
        json.dumps(yaml.safe_load(CATALOG), separators=(",", ":")),
        json.dumps(base_stock_doc(2)),
        json.dumps(base_stock_doc(50)),
    ], ids=["two_state", "two_state_indented", "catalog_compact", "bs_b2", "bs_b50"])
    def test_same_document_and_model(self, text, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_text(text)
        signature = load_model(path).signature()
        doc = yaml_reads(text)
        no_yaml(monkeypatch)
        assert repr(_parse_document(text)) == repr(doc)
        assert load_model(path).signature() == signature

    def test_duplicate_keys_keep_the_last_value(self, monkeypatch):
        text = '{"name": "a", "catalog": {"name": "mm1_plain"}, "name": "b"}'
        assert_reads_as_yaml(text)
        no_yaml(monkeypatch)
        assert _parse_document(text) == {"name": "b", "catalog": {"name": "mm1_plain"}}

    @pytest.mark.parametrize("value", ["1e-05", "1.5e3", "1.5E+3", "2.5e-3", "NaN", "-Infinity"])
    def test_numbers_read_as_yaml_reads_them(self, value, tmp_path):
        # YAML 1.1 reads 1e-05, 1.5e3, NaN and -Infinity as strings
        text = json.dumps(base_stock_doc(2)).replace('"lambda_tail": [0.7]', f'"lambda_tail": [{value}]')
        assert value in text
        assert_reads_as_yaml(text)
        path = tmp_path / "model.json"
        path.write_text(text)
        assert model_outcome(lambda: load_model(path)) == model_outcome(lambda: model_from_dict(yaml_reads(text)))

    @pytest.mark.parametrize("text", [
        '{"a"\n: 1}',  # YAML rejects a line break before the colon
        '{"a"' + " " * 1030 + ": 1}",
        '{"' + "k" * 1023 + '": 1}',  # a YAML simple key spans at most 1024 characters
        '{"' + "k" * 200 + '": 1}',
        '{"' + r"\u0041" * 171 + '": 1}',
        '{"a": "x\x7fy"}',  # YAML rejects DEL
        '{"a": "\x85"}',  # YAML folds NEL into a space
        '{"a" : 1, "b": "é"}',
        "[" + "1" * 5000 + "]",  # past Python's integer digit limit
        "\ufeff{}",
    ], ids=["break_before_colon", "spaces_before_colon", "long_key", "key_past_hook_bound", "escaped_long_key",
            "del", "nel", "non_ascii", "long_integer", "bom"])
    def test_texts_the_parsers_disagree_on(self, text):
        assert_reads_as_yaml(text)

    def test_nesting_deeper_than_json_recurses(self):
        doc = _parse_document("[" * 3000 + "]" * 3000)
        for _ in range(2999):
            (doc,) = doc
        assert doc == []

    def test_surrogate_escape_is_not_valid_yaml(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"name": "\U0001F600", "catalog": {"name": "mm1_plain"}}))
        assert json.loads(path.read_text())["name"] == "\U0001F600"
        with pytest.raises(InvalidParam, match="not valid YAML"):
            load_model(path)

    @pytest.mark.parametrize("text", [TWO_STATE, CATALOG])
    def test_block_yaml_takes_the_yaml_path(self, text, monkeypatch):
        doc = yaml_reads(text)
        calls = []
        monkeypatch.setattr(modelfile.yaml, "load", lambda *a, **k: calls.append(a) or doc)
        assert _parse_document(text) is doc and calls

    def test_malformed_json_is_not_valid_yaml(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(base_stock_doc(3))[:-5])
        with pytest.raises(InvalidParam, match="not valid YAML"):
            load_model(path)


class TestNestingCap:
    @pytest.mark.parametrize("nest", [lambda d: "[" * d + "]" * d, lambda d: "- " * d + "x"], ids=["flow", "block"])
    def test_cap(self, nest):
        doc = _parse_document(nest(modelfile._MAX_DEPTH))
        for _ in range(modelfile._MAX_DEPTH - 1):
            (doc,) = doc
        assert doc in ([], ["x"])
        with pytest.raises(InvalidParam, match="deeper than 4096 levels"):
            _parse_document(nest(modelfile._MAX_DEPTH + 1))

    @pytest.mark.parametrize("text", [TWO_STATE, CATALOG, "? a\n: b\n", "? - x\n", "a: {b: [c, d: e]}\n",
                                      "- - - x\n", "[a: b, {c}]\n", "!!set {a, b}\n", "x: &r [1]\ny: *r\n",
                                      "- a:\n    - b: {}\n", "--- []\n"])
    def test_openers_bound_the_collections(self, text):
        # the check is skipped on texts with at most _MAX_DEPTH of these characters
        starts = sum(isinstance(event, yaml.CollectionStartEvent) for event in yaml.parse(text, Loader=LOADER))
        assert 0 < starts <= sum(map(text.count, "[{-:?"))

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "- " * 100_000 + "x"], ids=["json", "yaml"])
    def test_deep_file_exits_2(self, text, tmp_path):
        # either file overflowed the C stack in libyaml's composer and killed the interpreter (exit 139)
        path = tmp_path / "deep.yaml"
        path.write_text(text)
        pythonpath = os.pathsep.join([str(Path(envqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-m", "envqueue.cli", "validate", "--model", str(path),
                               "--out", str(tmp_path)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: InvalidParam: model file nests collections deeper than 4096 levels"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(
    value=JSON_VALUES,
    ensure_ascii=st.booleans(),
    indent=st.sampled_from([None, 0, 2, "\t"]),
    separators=st.sampled_from([None, (",", ":"), (" ,", " : ")]),
)
@settings(max_examples=300, deadline=None)
def test_any_json_text_reads_as_yaml_reads_it(value, ensure_ascii, indent, separators):
    text = json.dumps(value, ensure_ascii=ensure_ascii, indent=indent, separators=separators)
    assert_reads_as_yaml(text)
