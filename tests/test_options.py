"""verify options: each family's one table of defaults, and the refusals
that build_instances shares between the CLI and the API."""

import json
import re
from pathlib import Path

import pytest

import mto1.cli as cli
import mto1.harness as harness
from mto1.harness import (FAMILIES, FLOORS, VerifyJob, build_instances,
                          run_job)
from mto1.multiplicity import ENUMERATION_MAX_Q

README = Path(__file__).resolve().parents[1] / "README.md"


def _no_item(item):
    raise harness.EvaluatorError(f"the work item {item[0]} ran")


def _verify(capsys, monkeypatch, *argv):
    """Exit code, report (None without one) and stderr of a serial verify
    run in which every work item crashes, so that a refusal must come before
    the first item."""
    monkeypatch.setattr(harness, "_run_item", _no_item)
    code = cli.main(["verify", *argv, "--seed", "0", "--jobs", "1", "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, \
        captured.err


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unknown_key_exits_2_in_every_family(capsys, monkeypatch, family):
    code, report, err = _verify(capsys, monkeypatch, family,
                                "--grid", "bogus=1")
    assert code == cli.EXIT_PARSE and report is None
    assert "bogus" in err and "work item" not in err
    assert all(key in err for key in FAMILIES[family].options)


# the keys and flags that used to be recorded in a report's options and
# ignored, or to crash a run: each now exits 2 and names its key
@pytest.mark.parametrize("argv, key", [
    (("g3", "--q", "4"), "qs"),
    (("g3", "--hcount", "5"), "hcount"),
    (("hd", "--grid", "mcap=3"), "mcap"),
    (("hd", "--grid", "rmax=2"), "rmax"),
    (("monomial", "--grid", "mcap=2"), "mcap"),
    (("towers", "--grid", "kmax=1"), "kmax"),
    (("transfer", "--grid", "ds=3"), "ds"),
    (("towers", "--grid", "families=1"), "families"),
    (("criteria", "--grid", "kinds=1"), "kinds"),
    (("g3", "--n", "0"), "ns"),
    (("g3", "--n", "-2"), "ns"),
    (("count", "--q", "0"), "qs"),
    (("count", "--q", "-1"), "qs"),
    (("main", "--q", "5,0"), "qs"),
    (("hd", "--grid", "scan_qs=0"), "scan_qs"),
    (("small", "--grid", "corollary_qs=-13"), "corollary_qs"),
])
def test_undeclared_keys_and_elements_below_1_exit_2(capsys, monkeypatch,
                                                     argv, key):
    code, report, err = _verify(capsys, monkeypatch, *argv)
    assert code == cli.EXIT_PARSE and report is None
    assert key in err and "work item" not in err


# the small corollary's closed form needs 6 | q - 1 and the ell corollary
# odd q; at any other q the corollary states nothing to check
@pytest.mark.parametrize("family, q", [("small", 4), ("small", 5),
                                       ("small", 8), ("small", 16),
                                       ("small", 64), ("ell", 4), ("ell", 8)])
def test_corollary_qs_outside_the_theorem_exit_2(capsys, monkeypatch,
                                                 family, q):
    code, report, err = _verify(capsys, monkeypatch, family, "--q", "7",
                                "--hcount", "1", "--grid", f"corollary_qs={q}")
    assert code == cli.EXIT_PARSE and report is None
    assert "corollary_qs" in err and str(q) in err and "work item" not in err


@pytest.mark.parametrize("family, options", [
    ("towers", {"chunk": 0}),
    ("criteria", {"chunk": 0}),
    ("main", {"hcount": -3}),
    ("lift", {"draws": -1}),
    ("main", {"qs": 5}),
    ("main", {"hcount": (1, 2)}),
    ("main", {"hcount": "2"}),
    ("towers", {"families": ("r1l1", "bogus")}),
    ("towers", {"families": "r1l1"}),
    ("hd", {"towers": ((3, 2),)}),
    ("criteria", {"kinds": ("local",)}),
])
def test_build_instances_refuses_bad_options(family, options):
    key = next(iter(options))
    with pytest.raises(ValueError, match=key):
        build_instances(VerifyJob(family, options))


def test_a_refused_api_option_runs_nothing(monkeypatch):
    monkeypatch.setattr(harness, "_run_item", _no_item)
    with pytest.raises(ValueError, match="chunk"):
        run_job(VerifyJob("towers", {"chunk": 0}, jobs=1))


def test_declared_options_are_honoured_through_the_api():
    items = build_instances(VerifyJob("towers", {
        "families": ["rk"], "qs": [3], "draws": 7, "chunk": 5}))
    assert [(p["family"], p["draws"]) for _, p in items] == [("rk", 5),
                                                            ("rk", 2)]
    assert build_instances(VerifyJob("g3", {"ns": range(2, 4)})) \
        == build_instances(VerifyJob("g3", {"ns": (2, 3)}))


class _Recording(dict):
    """A mapping that notes every key read through [key]."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_declared_option_is_read(family):
    # a declared option that the generator never reads would be accepted and
    # ignored, as the evaluators' unfed defaults once were
    options = _Recording(FAMILIES[family].options)
    assert list(FAMILIES[family].generator(options, 0))
    assert options.read == set(FAMILIES[family].options)


def test_every_floor_belongs_to_a_declared_int_option():
    declared = {key: default for fam in FAMILIES.values()
                for key, default in fam.options.items()}
    for key in FLOORS:
        default = declared[key]
        assert all(isinstance(v, int) and v >= FLOORS[key] for v in
                   (default if isinstance(default, tuple) else (default,)))


@pytest.mark.parametrize("family, has_draws", [("main", False),
                                               ("lift", True)])
def test_all_sets_only_declared_keys(capsys, monkeypatch, family, has_draws):
    monkeypatch.setattr(harness, "_run_item", lambda item: [])
    code = cli.main(["verify", family, "--all", "--jobs", "1", "--json"])
    options = json.loads(capsys.readouterr().out)["options"]
    assert code == cli.EXIT_VACUOUS  # no item ran, so nothing was checked
    assert ("draws" in options) == has_draws
    assert options.get("draws", 500) == 500
    assert options.get("hcount", 200) == 200
    assert ("hcount" in options) == ("hcount" in FAMILIES[family].options)


@pytest.mark.parametrize("q", [ENUMERATION_MAX_Q + 1, 9])
def test_verify_count_refuses_q_above_the_enumeration_cap(capsys,
                                                           monkeypatch, q):
    code, report, err = _verify(capsys, monkeypatch, "count",
                                "--q", f"2,{q}")
    assert code == cli.EXIT_SCALE and report is None
    assert str(q) in err and "work item" not in err


def test_verify_count_builds_items_up_to_the_enumeration_cap():
    items = build_instances(VerifyJob("count", {"qs": (ENUMERATION_MAX_Q,)}))
    assert items == [("count", {"q": ENUMERATION_MAX_Q})]


def _cell(default):
    if isinstance(default, tuple):
        return ", ".join(map(str, default))
    return "q + 1" if default is None else str(default)


def test_readme_option_table_is_the_family_table():
    rows = [f"| `{family}` | `{key}` | {_cell(default)} | "
            f"{FLOORS.get(key, '—')} |"
            for family, fam in FAMILIES.items()
            for key, default in fam.options.items()]
    text = README.read_text()
    table = re.findall(r"^\| `\w+` \| `\w+` \|.*\|$", text, re.M)
    assert table == rows
