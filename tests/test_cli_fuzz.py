"""Property test of the CLI's exit-code contract.

``main`` must answer every input with 0 (success), 2 (config error), 3 (data
error) or 4 (invariant violation), never with a traceback, and must not get
there through a numpy ``RuntimeWarning``. The inputs are configs mutated from
``DEFAULT_CONFIG`` at a tiny shape, generated logit tables, and the config and
records of tiny runs mutated before ``replay`` audits them.
"""

import csv
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shiftcp.cli import DEFAULT_CONFIG, main
from shiftcp.synthetic import SPLIT_TAGS

TINY = {"n_train": 300, "n_cal": 60, "n_test": 80, "trials": 1, "sigma_grid": [0.0, 0.8]}

# Every key of the schema: top-level keys, whole sections and section fields.
KEYS = sorted(
    [*DEFAULT_CONFIG]
    + [f"{section}.{field}" for section, value in DEFAULT_CONFIG.items() if isinstance(value, dict) for field in value]
)

# A run's cost grows with these; a large value is a large run, not a malformed one.
COUNTS = {"n_train", "n_cal", "n_test", "trials", "train.epochs"}

plain = st.floats(min_value=0, max_value=10) | st.integers(min_value=0, max_value=10)
extreme = st.integers(min_value=-(2**70), max_value=2**70) | st.floats() | st.sampled_from([1e308, -1e308, 1e160, 5e-324])
# Mostly values a run can take, often values at the edge of float range.
numbers = st.one_of(plain, plain, extreme)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _near(default):
    """Values shaped like ``default``: numbers for a number, (ragged) number lists for a list."""
    if isinstance(default, bool) or default is None or isinstance(default, str):
        return json_values
    if isinstance(default, (int, float)):
        return numbers
    if isinstance(default, list) and default and isinstance(default[0], list):
        return st.lists(st.lists(numbers, min_size=1, max_size=3), min_size=1, max_size=4)
    if isinstance(default, list):
        return st.lists(numbers, max_size=5)
    return st.fixed_dictionaries({}, optional={field: _near(value) for field, value in default.items()})


def _lookup(config: dict, key: str):
    """The value at ``key`` ("section" or "section.field"), or None where ``config`` has none."""
    section, _, field = key.partition(".")
    value = config.get(section)
    if field:
        value = value.get(field) if isinstance(value, dict) else None
    return value


# Near-valid values keep most runs going; any JSON value of any type is drawn too.
mutation = st.sampled_from(KEYS).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(*[_near(_lookup(DEFAULT_CONFIG, key))] * 2, json_values))
)


def _affordable(raw: dict) -> bool:
    """Whether every count of the config is small or not a number at all."""
    for key in COUNTS:
        value = _lookup(raw, key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and 1_000 < value < math.inf:
            return False
    return True


def _mutated(mutations, base: dict = TINY) -> dict:
    raw = json.loads(json.dumps(base))
    for key, value in mutations:
        section, _, field = key.partition(".")
        if field:
            if not isinstance(raw.get(section), dict):
                raw[section] = {}
            raw[section][field] = value
        else:
            raw[section] = value
    return raw


def _exit_code_without_runtime_warning(argv) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(
    command=st.sampled_from(["sweep", "tau", "bounds", "tune"]),
    mutations=st.lists(mutation, min_size=1, max_size=2),
)
def test_mutated_config_keeps_the_exit_code_contract(tmp_path, command, mutations):
    raw = _mutated(mutations)
    assume(_affordable(raw))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = _exit_code_without_runtime_warning([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3, 4)


@FUZZ
@given(
    command=st.sampled_from(["sweep", "bounds"]),
    k=st.integers(min_value=1, max_value=3),
    tau_kind=st.sampled_from(["none", "fixed", "tau_design"]),
    data=st.data(),
)
def test_generated_logit_table_keeps_the_exit_code_contract(tmp_path, command, k, tau_kind, data):
    rows = []
    for tag in SPLIT_TAGS:
        label = st.integers(min_value=1, max_value=k)
        if tag == "target_cal":
            label |= st.just("MISSING")
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            rows.append([tag, data.draw(label)] + data.draw(st.lists(plain, min_size=k, max_size=k)))
    # Up to two cells become an out-of-range label or an extreme logit.
    for _ in range(data.draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        i, j = data.draw(st.integers(min_value=0, max_value=len(rows) - 1)), data.draw(st.integers(1, k + 1))
        rows[i][j] = data.draw(st.sampled_from([0, k + 1, "MISSING"]) if j == 1 else extreme)
    table = tmp_path / "table.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["split", "label"] + [f"logit_{i}" for i in range(k)])
        writer.writerows([tag, y] + [repr(v) for v in logits] for tag, y, *logits in rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "tau_policy": {"kind": tau_kind, "value": 0.5}}))
    argv = [command, "--logits", str(table), "--config", str(config), "--out", str(tmp_path / "out")]
    assert _exit_code_without_runtime_warning(argv) in (0, 2, 3, 4)


# What replay reads besides the records: a run's config may also name its logit table.
replay_mutation = mutation | st.tuples(st.just("logits"), json_values)
RECORDS = {"sweep": "records.csv", "tau": "tau_records.csv"}
csv_cells = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "-0", "MISSING"]) | numbers.map(repr) | st.text(max_size=4)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """A tiny sweep's and a tiny tau run's output directories, both of which pass replay."""
    root = tmp_path_factory.mktemp("runs")
    (root / "config.json").write_text(json.dumps(TINY))
    for command in RECORDS:
        assert main([command, "--config", str(root / "config.json"), "--out", str(root / command)]) == 0
    return root


def _with_byte_replaced(data, raw: bytes) -> bytes:
    i = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    return raw[:i] + bytes([data.draw(st.integers(min_value=0, max_value=255))]) + raw[i + 1 :]


def _json_document(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError:
        return None


@FUZZ
@given(run=st.sampled_from(sorted(RECORDS)), in_config=st.booleans(), as_bytes=st.booleans(), data=st.data())
def test_mutated_run_keeps_the_replay_exit_code_contract(tmp_path, tiny_runs, run, in_config, as_bytes, data):
    config = (tiny_runs / run / "config.json").read_bytes()
    records = (tiny_runs / run / RECORDS[run]).read_bytes()
    if as_bytes and in_config:
        config = _with_byte_replaced(data, config)
    elif as_bytes:
        records = _with_byte_replaced(data, records)
    elif in_config:
        mutations = data.draw(st.lists(replay_mutation, min_size=1, max_size=2))
        config = json.dumps(_mutated(mutations, json.loads(config))).encode()
    else:
        rows = [line.split(",") for line in records.decode().splitlines()]
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(min_value=0, max_value=len(row) - 1))] = data.draw(csv_cells)
        records = "".join(",".join(row) + "\n" for row in rows).encode()
    document = _json_document(config)
    assume(not isinstance(document, dict) or _affordable(document))
    out = tmp_path / run
    out.mkdir(exist_ok=True)
    (out / "config.json").write_bytes(config)
    (out / RECORDS[run]).write_bytes(records)
    assert _exit_code_without_runtime_warning(["replay", "--out", str(out)]) in (0, 2, 3, 4)
