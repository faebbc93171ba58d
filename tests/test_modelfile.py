"""Model files: a JSON text is read by json.loads, as YAML 1.2 reads it, and
every other file by YAML."""

import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import envqueue
from envqueue import modelfile
from envqueue.catalog import catalog
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

    monkeypatch.setattr(yaml, "load", fail)
    monkeypatch.setattr(yaml, "parse", fail)


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
    def test_numbers_read_as_yaml_reads_them(self, value, tmp_path, monkeypatch):
        # YAML 1.1 reads 1e-05, 1.5e3, NaN and -Infinity as strings, and the model converts them alike
        text = json.dumps(base_stock_doc(2)).replace('"lambda_tail": [0.7]', f'"lambda_tail": [{value}]')
        assert value in text
        path = tmp_path / "model.json"
        path.write_text(text)
        expected = model_outcome(lambda: model_from_dict(yaml_reads(text)))
        no_yaml(monkeypatch)
        assert model_outcome(lambda: load_model(path)) == expected

    @pytest.mark.parametrize("text", [
        '{"a"\n: 1}',  # YAML 1.1 rejects a line break before the colon
        '{"a"' + " " * 1030 + ": 1}",
        '{"' + "k" * 1023 + '": 1}',  # a YAML 1.1 simple key spans at most 1024 characters
        '{"' + "k" * 200 + '": 1}',
        '{"' + r"\u0041" * 171 + '": 1}',
        '{"a": "x\x7fy"}',  # YAML 1.1 rejects DEL
        '{"a": "\x85"}',  # YAML 1.1 folds NEL into a space
        '{"a" : 1, "b": "é"}',
    ], ids=["break_before_colon", "spaces_before_colon", "long_key", "key_past_hook_bound", "escaped_long_key",
            "del", "nel", "non_ascii"])
    def test_json_texts_read_as_json_reads_them(self, text, monkeypatch):
        no_yaml(monkeypatch)
        assert repr(_parse_document(text)) == repr(json.loads(text))

    def test_yaml_imported_only_for_a_text_json_rejects(self, tmp_path):
        # a fresh interpreter: `import envqueue.cli` and a JSON model file load no PyYAML, a YAML file does
        (tmp_path / "model.json").write_text(json.dumps(base_stock_doc(2)))
        (tmp_path / "model.yaml").write_text(TWO_STATE)
        probe = ("import sys, envqueue.cli\n"
                 "from envqueue.modelfile import load_model\n"
                 "for name in sys.argv[1:]:\n"
                 "    load_model(name)\n"
                 "    print('yaml' in sys.modules)\n")
        pythonpath = os.pathsep.join([str(Path(envqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        argv = [sys.executable, "-c", probe, str(tmp_path / "model.json"), str(tmp_path / "model.yaml")]
        proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
                              check=True)
        assert proc.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("text", [
        "[" + "1" * 5000 + "]",  # past Python's integer digit limit
        "\ufeff{}",
    ], ids=["long_integer", "bom"])
    def test_texts_json_rejects_read_as_yaml(self, text):
        assert_reads_as_yaml(text)

    def test_nesting_deeper_than_json_recurses(self):
        # json.loads gives up near 1000 levels and hands the text to YAML, where the depth cap stops it
        with pytest.raises(InvalidParam, match="deeper than 1000 levels"):
            _parse_document("[" * 3000 + "]" * 3000)

    def test_surrogate_escape_loads(self, tmp_path, monkeypatch):
        # json.dump writes the emoji as the escape pair "\\ud83d\\ude00", which YAML 1.1 rejects
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**base_stock_doc(2), "name": "\U0001F600"}))
        assert "\\ud83d\\ude00" in path.read_text()
        no_yaml(monkeypatch)
        assert load_model(path).name == "\U0001F600"

    def test_exponent_file_takes_the_json_path(self, tmp_path, monkeypatch):
        doc = base_stock_doc(50)
        doc["rates"]["mu_tail"] = [1.5e-07]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert "1.5e-07" in path.read_text()
        signature = model_from_dict(yaml_reads(path.read_text())).signature()
        no_yaml(monkeypatch)
        assert load_model(path).signature() == signature

    @pytest.mark.parametrize("text", [TWO_STATE, CATALOG])
    def test_block_yaml_takes_the_yaml_path(self, text, monkeypatch):
        doc = yaml_reads(text)
        calls = []
        monkeypatch.setattr(yaml, "load", lambda *a, **k: calls.append(a) or doc)
        assert _parse_document(text) is doc and calls

    def test_malformed_json_is_not_valid_yaml(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(base_stock_doc(3))[:-5])
        with pytest.raises(InvalidParam, match="not valid YAML"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_document_not_a_mapping_refused(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(InvalidParam) as err:
            load_model(path)
        assert str(err.value) == f"model file {path} does not contain a mapping"


@pytest.mark.parametrize("text, built", [
    ("{name: perishable_o, params: {lam: 1, mu: 2, nu: 1e0, gamma: 1e-1, b: 2}}",
     lambda: catalog("perishable_o", lam=1, mu=2, nu=1, gamma=0.1, b=2)),
    ("{name: onoff_a, params: {eta: 1e0, gamma: 2e0}}", lambda: catalog("onoff_a", eta=1, gamma=2)),
], ids=["perishable_o", "onoff_a"])
def test_catalog_numbers_yaml_reads_as_strings(text, built):
    # YAML 1.1 reads 1e0 and 1e-1 as strings; a catalog parameter is converted as a rate is
    assert model_from_dict(yaml_reads("catalog: " + text)).signature() == built().signature()


@pytest.mark.parametrize("key", ["V_prefix", "R_prefix", "V_tail", "R_tail"])
def test_boolean_matrix_entry_names_the_matrix(key):
    # numpy reads True as 1.0: an R_tail of [[yes, no], [no, yes]] was built as the identity
    doc = base_stock_doc(2)
    env = doc["environment"]
    env["V_prefix"], env["R_prefix"] = env["V_tail"] * 2, env["R_tail"] * 2
    doc = json.loads(json.dumps(doc))  # every matrix its own lists
    matrices = doc["environment"][key]
    matrices[-1][0][0] = bool(matrices[-1][0][0])
    message = rf"^model file: {key}\[{len(matrices) - 1}\] must contain numbers, got a boolean$"
    with pytest.raises(InvalidParam, match=message):
        model_from_dict(doc)


class TestNestingCap:
    @pytest.mark.parametrize("nest", [lambda d: "[" * d + "]" * d, lambda d: "- " * d + "x"], ids=["flow", "block"])
    def test_cap(self, nest):
        doc = _parse_document(nest(modelfile._MAX_DEPTH))
        for _ in range(modelfile._MAX_DEPTH - 1):
            (doc,) = doc
        assert doc in ([], ["x"])
        with pytest.raises(InvalidParam, match=f"deeper than {modelfile._MAX_DEPTH} levels"):
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
        proc = run_validate(text, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: InvalidParam: model file nests collections deeper than 1000 levels"]

    def test_cap_fits_a_1mb_stack(self, tmp_path):
        # a 4000-deep text overflowed a 1 MB stack in libyaml's composer; the limit binds only the child process
        head = '{"catalog": {"name": "mm1_plain", "params": {"lam": 1, "mu": 2}}, "x": '
        deep = [head + "[" * (d - 1) + "]" * (d - 1) + "}" for d in (modelfile._MAX_DEPTH, modelfile._MAX_DEPTH + 1)]
        assert run_validate(deep[0], tmp_path, stack_kb=1024).returncode == 0
        proc = run_validate(deep[1], tmp_path, stack_kb=1024)
        assert (proc.returncode, proc.stderr.splitlines()) == (
            2, ["error: InvalidParam: model file nests collections deeper than 1000 levels"])


def run_validate(text, tmp_path, stack_kb=None):
    """`envqueue validate` on a model file holding `text`, in a child process; with `stack_kb`, the
    child's stack is capped at that many kB."""
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    pythonpath = os.pathsep.join([str(Path(envqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "envqueue.cli", "validate", "--model", str(path), "--out", str(tmp_path)]
    if stack_kb is not None:
        argv = ["sh", "-c", f'ulimit -s {stack_kb} && exec "$@"', "sh", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})


POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
LABELS = st.lists(st.integers() | st.text(string.ascii_letters, min_size=1, max_size=8), min_size=1, max_size=3,
                  unique=True)


@st.composite
def explicit_models(draw):
    """An explicit-matrix model document: positive finite rates, each V with positive off-diagonals and
    each R with positive entries scaled to sum to one in each row."""
    labels = draw(LABELS)
    m = len(labels)
    prefix = draw(st.integers(0, 2))

    def generator():
        rows = [draw(st.lists(POSITIVE, min_size=m, max_size=m)) for _ in range(m)]
        for k, row in enumerate(rows):
            row[k] = 0.0
            row[k] = -sum(row)
        return rows

    def stochastic():
        rows = [draw(st.lists(POSITIVE, min_size=m, max_size=m)) for _ in range(m)]
        return [[p / sum(row) for p in row] for row in rows]

    return {"name": draw(st.text(string.ascii_letters, max_size=8)),
            "rates": {"lambda_prefix": draw(st.lists(POSITIVE, min_size=prefix, max_size=prefix)),
                      "mu_prefix": draw(st.lists(POSITIVE, min_size=prefix, max_size=prefix)),
                      "lambda_tail": [draw(POSITIVE)], "mu_tail": [draw(POSITIVE)]},
            "environment": {"labels": labels, "blocked": labels[:draw(st.integers(0, m - 1))],
                            "V_tail": [generator()], "R_tail": [stochastic()]}}


@given(doc=explicit_models(), ensure_ascii=st.booleans(), indent=st.sampled_from([None, 2, "\t"]))
@settings(max_examples=200, deadline=None)
def test_explicit_model_files_take_the_json_path(tmp_path_factory, doc, ensure_ascii, indent):
    text = json.dumps(doc, ensure_ascii=ensure_ascii, indent=indent)
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(text)
    expected = model_outcome(lambda: model_from_dict(yaml_reads(text)))
    with pytest.MonkeyPatch.context() as patch:
        no_yaml(patch)
        assert model_outcome(lambda: load_model(path)) == expected
