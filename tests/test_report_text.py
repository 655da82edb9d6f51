"""The report writer: its text is json.dumps(indent=2, sort_keys=True,
default=str)'s, byte for byte, for any tree and for every command."""

import collections
import enum
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mto1.cli as cli
from mto1.galois import parse_field
from mto1.harness import canonical_json
from mto1.search import search_forms


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Named:
    def __str__(self):
        return 'named "obj"\né'


def reference(obj):
    return json.JSONEncoder(indent=2, sort_keys=True, default=str).encode(obj)


def written(obj, sinks=1):
    outs = [io.StringIO() for _ in range(sinks)]
    cli.write_json(obj, outs)
    texts = {out.getvalue() for out in outs}
    assert len(texts) == 1  # every sink gets the same text
    return texts.pop()


TEXT = st.text() | st.sampled_from(
    ['', '"', '\\', '\x00\x1f\x7f', 'a"b\\c\n\t', 'é中\U0001f600'])
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = (TEXT | st.integers() | FLOATS | st.booleans() | st.none()
           | st.sampled_from(Colour)
           | FLOATS.map(np.float64)
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.booleans().map(np.bool_)
           | st.builds(Named))
# the keys of one dict must sort against each other: all str, all numbers
# (bools and IntEnums included) or one None
NUMBER_KEYS = (st.integers() | FLOATS | st.booleans()
               | st.sampled_from(Colour))


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(NUMBER_KEYS, children, max_size=4)
            | st.dictionaries(st.none(), children, max_size=1)
            | st.dictionaries(TEXT, st.integers(), max_size=4).map(
                collections.Counter))


TREES = st.recursive(SCALARS, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_text_is_the_indent_encoders(tree):
    assert written(tree) == reference(tree) + "\n"


@settings(max_examples=100, deadline=None)
@given(TREES, st.integers(2, 3))
def test_writer_text_is_the_same_in_every_batch_and_sink(tree, sinks):
    # a batch of one part flushes after every item of a nested container
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BATCH", 1)
        assert written(tree, sinks) == reference(tree) + "\n"


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_writer_streams_nested_items_and_writes_flat_containers_whole(
        monkeypatch):
    monkeypatch.setattr(cli, "_BATCH", 8)
    flat = list(range(1000))
    tree = {"flat": flat, "rows": [{"a": i, "b": [i]} for i in range(100)]}
    sink = Recorder()
    cli.write_json(tree, [sink])
    assert "".join(sink.writes) == reference(tree) + "\n"
    # 7 parts per row and 8 per batch: a write about every row, none long
    assert len(sink.writes) >= 50
    assert max(map(len, sink.writes[1:])) < 200
    # the 1,000-int list is one C encoder text inside one write
    assert reference(flat).replace("\n", "\n  ")[1:-1] in sink.writes[0]


# lists of flat dicts are written as batches of C encoder texts, re-indented
# where one item ends and the next begins: strings that look like that seam
SEAMS = TEXT | st.sampled_from(
    ['},', '{', '}', '},\n    {', '\n', '"}, {"', 'é\n}', '\\"},'])
FLAT_VALUES = SEAMS | st.integers() | FLOATS | st.booleans() | st.none()
FLAT_DICTS = (st.dictionaries(SEAMS, FLAT_VALUES, min_size=1, max_size=4)
              | st.dictionaries(NUMBER_KEYS, FLAT_VALUES, min_size=1,
                                max_size=4))
# an empty dict, a scalar, dicts made non-flat by an np scalar and dicts
# that hold a container
ODD_ITEMS = st.sampled_from([{}, 7, "},", None, {"k": np.int64(3)},
                             {"a": np.float64(0.5), "b": "},\n{"},
                             {2: np.bool_(True)}, {"k": [1, "},"]},
                             {"a": {"b": None}, "c": 1}, {"t": ()}])


def _insert(items, odd, at):
    return items[:at] + [odd] + items[at:]


FLAT_DICT_LISTS = (st.lists(FLAT_DICTS, min_size=1, max_size=12)
                   | st.builds(_insert, st.lists(FLAT_DICTS, max_size=12),
                               ODD_ITEMS, st.integers(0, 12)))


def _nest(items, depth, as_tuple):
    tree = tuple(items) if as_tuple else items
    for level in range(depth):
        tree = {"hits": tree, "count": level} if level % 2 else [tree, 1]
    return tree


@settings(max_examples=300, deadline=None)
@given(st.builds(_nest, FLAT_DICT_LISTS, st.integers(0, 3), st.booleans()),
       st.sampled_from([1, 2, cli._BATCH]), st.integers(1, 2))
def test_lists_of_flat_dicts_are_the_indent_encoders_in_any_batch(
        tree, batch, sinks):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BATCH", batch)
        assert written(tree, sinks) == reference(tree) + "\n"


@pytest.mark.parametrize("batch", [1, 2, 8, cli._BATCH])
def test_a_list_of_flat_dicts_reaches_the_sinks_batch_by_batch(monkeypatch,
                                                               batch):
    # longer than two batches of the default: each full batch is one write
    hits = [{"r": i, "h": ["1", "},", "\u00e9\n{"][i % 3], "ok": i % 5 == 0,
             "x": i / 7} for i in range(cli._BATCH // 2 + 3)]
    tree = {"count": len(hits), "hits": hits}
    monkeypatch.setattr(cli, "_BATCH", batch)
    sink = Recorder()
    cli.write_json(tree, [sink])
    assert "".join(sink.writes) == reference(tree) + "\n"
    step = max(1, batch // 4)
    full, rest = divmod(len(hits), step)
    assert [n for n in (w.count('"r": ') for w in sink.writes) if n] == (
        [step] * full + [rest] * bool(rest))


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_canonical_json_is_compact_dumps(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True,
                                              default=str)


@pytest.mark.parametrize("make", [
    lambda: {1: 0, "a": 0},                # mixed keys in a flat dict
    lambda: {"x": {1: [], "a": [2]}},      # ... and in a nested one
    lambda: [{None: 1, 2: 1}],
    lambda: {(1, 2): 0},                   # a key json cannot convert
    lambda: {"x": {(1, 2): [3]}},
    lambda: {"x": {1.5: [3], 2: {}}, "y": [{b"k": None}]},
])
def test_writer_raises_what_the_encoder_raises(make):
    with pytest.raises(Exception) as want:
        reference(make())
    with pytest.raises(type(want.value)):
        written(make())


COMMANDS = [
    ("analyze", "5^1", "0,1,0,1"),
    ("analyze", "7^1", "0,0,1", "--star"),
    ("analyze", "2^6", "0,1", "--m", "2"),
    ("search", "13^1", "--s", "4", "--deg", "2", "--m", "3"),
    ("search", "2^4", "--s", "5", "--deg", "1", "--m", "3"),
    ("search", "2^6", "--s", "21", "--deg", "2", "--m", "3"),
    ("count", "--q", "2..4", "--check"),
    ("verify", "main", "--q", "5,7", "--hcount", "2"),
    ("verify", "small", "--q", "7", "--hcount", "1"),
    ("verify", "ell", "--q", "7", "--hcount", "1"),
    ("verify", "monomial", "--q", "3"),
    ("verify", "hd"),
    ("verify", "lift", "--q", "9"),
    ("verify", "g3"),
    ("verify", "g5"),
    ("verify", "split"),
    ("verify", "lemmas"),
    ("verify", "transfer"),
    ("verify", "towers", "--q", "3", "--draws", "5"),
    ("verify", "criteria", "--count", "20"),
    ("verify", "count", "--q", "2..3"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_text_round_trips_and_out_equals_stdout(capsys, tmp_path,
                                                        argv):
    # the pins digest parsed records; this pins the text itself
    out_path = tmp_path / "report.json"
    extra = ("--jobs", "1") if argv[0] == "verify" else ()
    code = cli.main([*argv, *extra, "--json", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert out_path.read_text() == out


class Discard:
    size = 0

    def write(self, text):
        self.size += len(text)


def _old_batched_encoder(payload, sink):
    # the indent encoder's tokens joined in batches, then the whole text
    chunks = json.JSONEncoder(indent=2, sort_keys=True,
                              default=str).iterencode(payload)
    text = "".join(iter(lambda: "".join(itertools.islice(chunks, 1 << 14)),
                        ""))
    sink.write(text + "\n")


def _peak(write, payload):
    sink = Discard()
    tracemalloc.start()
    try:
        write(payload, sink)
        return tracemalloc.get_traced_memory()[1], sink.size
    finally:
        tracemalloc.stop()


def test_writer_peak_is_below_the_batched_encoders():
    # the F_64 search of the benchmark: 64,092 hits, 6.75 MB of text
    hits = search_forms(parse_field("2^6"), 21, 2, 3)
    payload = {"field": "2^6", "s": 21, "deg": 2, "m": 3, "hits": hits,
               "count": len(hits)}
    assert len(hits) == 64092
    new_peak, new_size = _peak(lambda p, s: cli.write_json(p, [s]), payload)
    old_peak, old_size = _peak(_old_batched_encoder, payload)
    assert new_size == old_size
    assert new_peak <= old_peak
