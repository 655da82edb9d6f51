"""CLI contract: the analyze fixtures, exit codes, and report determinism."""

import argparse
import collections
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mto1.cli as cli
import mto1.cyclotomic as cyclotomic
import mto1.harness as harness
from mto1.harness import FAMILIES, VerifyJob, build_instances, pool_size


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_f5_paper_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5^1", "0,1,0,1")
    assert code == 0
    assert "m=3" in out and "verdict=True" in out
    assert "['1', '4']" in out


def test_analyze_f7_star(capsys):
    code, out, _ = run_cli(capsys, "analyze", "7^1", "0,0,1", "--star")
    assert code == 0
    assert "m=2" in out and "verdict=True" in out and "exceptional=[]" in out


def test_analyze_constant_f4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2^2", "1")
    assert code == 0
    assert "m=4" in out and "verdict=True" in out


def test_analyze_json_shape(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5^1", "0,1,0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["histogram"] == [1, 1, 3]
    assert payload["admissible_m"] == [3]
    assert payload["reports"][0]["exceptional_set"] == ["1", "4"]


def test_parse_failures_exit_2(capsys):
    assert run_cli(capsys, "analyze", "nonsense", "1,1")[0] == 2
    assert run_cli(capsys, "analyze", "5^1", "1,x,2")[0] == 2
    assert run_cli(capsys, "analyze", "4^1", "1,1")[0] == 2


def test_scale_exit_3(capsys):
    assert run_cli(capsys, "analyze", "2^17", "1,1")[0] == 3


def test_budget_exit_4(capsys):
    code, _, err = run_cli(capsys, "search", "29^1", "--s", "4", "--deg", "5",
                           "--m", "12", "--budget", "1000")
    assert code == 4
    assert "budget" in err


def test_search_small_and_verified(capsys):
    code, out, _ = run_cli(capsys, "search", "13^1", "--s", "4", "--deg", "2",
                           "--m", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] > 0
    assert all(hit["verified"] for hit in payload["hits"])


def test_search_out_of_range_m_is_empty(capsys):
    # m > ell * m1 for every r: no admissible r, empty hit list
    code, out, _ = run_cli(capsys, "search", "13^1", "--s", "12", "--deg", "1",
                           "--m", "5", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("extra", [
    ("--s", "0", "--deg", "1", "--m", "3"),
    ("--s", "4", "--deg", "1", "--m", "0"),
    ("--s", "4", "--deg", "-1", "--m", "3"),
    ("--s", "4", "--deg", "1", "--m", "-2"),
    ("--s", "4", "--deg", "1", "--m", "3", "--r", "0"),
    ("--s", "4", "--deg", "1", "--m", "3", "--r=-1"),
    ("--s", "4", "--deg", "1", "--m", "3", "--r", "13"),
    ("--s", "4", "--deg", "1", "--m", "3", "--r", "2,99"),
    ("--s", "4", "--deg", "1", "--m", "3", "--r", "1,1"),
    ("--s", "4", "--deg", "2", "--m", "3", "--r", "5..3"),
    ("--s", "4", "--deg", "2", "--m", "3", "--r", "1,,2"),
    ("--s", "4", "--deg", "2", "--m", "3", "--r", ""),
    ("--s", "4", "--deg", "1", "--m", "13"),
])
def test_search_rejects_out_of_range_inputs_exit_2(capsys, extra):
    # s >= 1 dividing q-1, deg >= 0, m in [1, q-1] and every r in [1, q-1]; a
    # reversed range, an empty item or an empty list is not read as no r or
    # as every r
    code, out, err = run_cli(capsys, "search", "13^1", *extra)
    assert code == 2
    assert out == "" and err.startswith("error: ")


# sha256 of each query's hit list: a kernel change must reproduce these hits,
# over prime and extension fields, byte for byte
SEARCH_PINS = {
    ("13^1", "--s", "4", "--deg", "2", "--m", "3"):
        "fb22fa9ef2e28f085623345ded23a2b32dc58a8dad87015d7b1653b6aa3d38a1",
    ("2^4", "--s", "5", "--deg", "2", "--m", "3"):
        "52dd87a5cb214573bba2d70ea1d00b02cce317c1587f0edcf22371c1fd86ccac",
    ("5^2", "--s", "4", "--deg", "2", "--m", "2"):
        "5f04c09f79ab92520cd5f58efc4e7ba7657788ca0dbb093acb68958c93d433f6",
    ("3^3", "--s", "2", "--deg", "2", "--m", "2"):
        "e280f73ac80bce302daf1593b90ffa2f3adddce4ced7a097a3d7196ec03904d2",
    ("2^6", "--s", "21", "--deg", "1", "--m", "3"):
        "42c1b6fb6fac99311e458a6f2f7b68c44b4958dcebfb4381294e5323398ec9bd",
}


@pytest.mark.parametrize("argv", sorted(SEARCH_PINS))
def test_search_hits_match_pinned_digests(capsys, argv):
    code, out, _ = run_cli(capsys, "search", *argv, "--json")
    assert code == 0
    hits = json.loads(out)["hits"]
    assert all(hit["verified"] for hit in hits)
    digest = hashlib.sha256(
        json.dumps(hits, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_PINS[argv]


@pytest.mark.parametrize("argv", [
    ("search", "13^1", "--s", "4", "--deg", "2", "--m", "3"),
    ("verify", "count", "--q", "2..4"),
])
def test_plain_output_encodes_no_json(capsys, monkeypatch, argv):
    # without --json or --out the JSON text would be thrown away, so it is
    # never encoded: an encoder that raises changes nothing
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and want

    def refuse(*args, **kwargs):
        raise AssertionError("JSON encoded for a plain run")
    monkeypatch.setattr(cli, "write_json", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    with pytest.raises(AssertionError, match="plain run"):
        cli.main([*argv, "--json"])


@pytest.mark.parametrize("argv, flag", [
    (("analyze", "5^1", "0,1,0,1"), "--out"),
    (("search", "13^1", "--s", "4", "--deg", "2", "--m", "3"), "--out"),
    (("count", "--q", "2..4"), "--out"),
    (("verify", "count", "--q", "2..3"), "--out"),
    (("verify", "count", "--q", "2..3"), "--csv"),
])
def test_unwritable_output_path_exits_2_before_any_work(capsys, monkeypatch,
                                                        tmp_path, argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the output path was opened")
    for name in ("eval_powers", "search_forms", "count_formula", "run_job"):
        monkeypatch.setattr(cli, name, refuse)
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, *argv, flag, path)
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err and path in err


def test_count_cli(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "2..4", "--check")
    assert code == 0
    assert "q=3 m=2 count=18" in out


@pytest.mark.parametrize("qs", ["0", "-2", "3..1"])
def test_count_refuses_an_empty_or_nonpositive_q_list(capsys, qs):
    # a list with no q >= 1 gives no rows: nothing would be counted
    code, out, err = run_cli(capsys, "count", "--q", qs, "--json")
    assert code == cli.EXIT_PARSE and out == ""
    assert "--q" in err and qs in err


@pytest.mark.parametrize("argv, named", [
    (("main", "--q", "7..5"), "qs is empty"),
    (("main", "--grid", "qs=7..5"), "qs is empty"),
    (("small", "--grid", "corollary_qs=7..5"), "corollary_qs is empty"),
    (("main", "--q", "5,,7"), "--q '5,,7'"),
    (("main", "--q", ""), "--q ''"),
    (("g3", "--n", "1..2,"), "--n '1..2,'"),
    (("main", "--grid", "qs=5;fixtures="), "--grid fixtures ''"),
])
def test_verify_refuses_an_empty_item_or_list_exit_2(capsys, argv, named):
    # an empty item is a parse error, and a list left empty (a reversed
    # range) while other items still run is refused before any item runs:
    # it is never read as a grid of only the fixtures; a list whose emptiness
    # leaves nothing to run is vacuous instead (test_vacuous_verify_exit_5)
    code, out, err = run_cli(capsys, "verify", *argv, "--hcount", "2",
                             "--jobs", "1")
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and named in err


def test_verify_exit_zero_and_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "count", "--q", "2..4")
    assert code == 0
    assert "disagreements=0" in out


def test_verify_exit_one_on_disagreement(monkeypatch, capsys):
    fake = {"family": "count", "options": {}, "seed": 0,
            "summary": {"total": 1, "agreements": 0, "disagreements": 1,
                        "skipped": 0},
            "records": [{"evaluator": "count", "params": {"q": 2, "m": 1},
                         "predicted": 2, "observed": 3, "agree": False,
                         "skipped": None, "exceptional_set": None,
                         "elapsed": 0.0}],
            "elapsed": 0.0}
    monkeypatch.setattr(cli, "run_job", lambda job: fake)
    code, out, _ = run_cli(capsys, "verify", "count")
    assert code == 1
    assert "DISAGREEMENT" in out


def _strip_elapsed(text):
    return re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": X', text)


def test_verify_reports_byte_identical(tmp_path, capsys):
    args = ["verify", "g5", "--n", "1..3", "--jobs", "1", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert _strip_elapsed(out1) == _strip_elapsed(out2)
    # parallel run agrees with the serial one as well
    code3, out3, _ = run_cli(capsys, "verify", "g5", "--n", "1..3",
                             "--jobs", "2", "--json")
    assert code3 == 0
    assert _strip_elapsed(out1) == _strip_elapsed(out3)


def test_verify_csv_and_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "verify", "count", "--q", "2..3",
                         "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0
    saved = json.loads(out_path.read_text())
    assert saved["summary"]["disagreements"] == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("evaluator,")
    assert len(lines) == saved["summary"]["total"] + 1


def test_analyze_with_explicit_m(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5^1", "0,1,0,1", "--m", "2")
    assert code == 0
    assert "m=2" in out and "verdict=False" in out


# sha256 of the whole `analyze --json` output, computed before analyze read
# one census over index arrays (the 2^16 query took about 2 min then)
ANALYZE_PINS = {
    ("2^14", "0,1"):
        "0ae8dcb04c28157ff1fe3c45f7c7f7f367a4303a4701fef29d6cb6e84b959761",
    ("8191^1", "0,0,1,0,1", "--star"):
        "68be55744f5ced6d42c5552be0283b52378536040146e1ef19573e9dbabb434f",
    ("3^8", "0,1,0,1"):
        "5f8ee78869e8ad291fe4227a4b5fded2771227ac623d6a7c95c8c9766a282aba",
    ("2^16", "0,1"):
        "fe7ce521ff18727893a943b810a1e8a90325313fedb001d5bcdbb084cdc20f65",
}


@pytest.mark.parametrize("argv", sorted(ANALYZE_PINS))
def test_analyze_output_matches_pinned_digest(capsys, argv):
    code, out, _ = run_cli(capsys, "analyze", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_PINS[argv]


def test_analyze_builds_no_field_element_per_point(capsys, monkeypatch):
    # elements are made only for tokens parsed and exceptional points printed
    from mto1.galois import FieldElement
    made = []
    init = FieldElement.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    code, out, _ = run_cli(capsys, "analyze", "2^16", "0,1", "--json")
    assert code == 0 and json.loads(out)["size"] == 1 << 16
    assert len(made) < 64


def test_flag_aliases_match_positionals(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "5^1", "0,1,0,1", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "--field", "5^1",
                         "--poly", "0,1,0,1", "--json")
    assert out1 == out2
    assert run_cli(capsys, "analyze", "--poly", "0,1")[0] == 2  # no field
    code, out3, _ = run_cli(capsys, "verify", "--family", "count",
                            "--grid", "qs=2,3")
    assert code == 0 and "disagreements=0" in out3


def test_m_zero_is_rejected(capsys):
    assert run_cli(capsys, "analyze", "5^1", "0,1,0,1", "--m", "0")[0] == 2
    assert run_cli(capsys, "count", "--q", "3", "--m", "0")[0] == 2


def test_vacuous_verify_exit_5(capsys):
    code, out, err = run_cli(capsys, "verify", "g3", "--n", "3..1")
    assert code == 5
    assert "total=0" in out and "zero checks" in err
    code, _, _ = run_cli(capsys, "verify", "main", "--q", "5..2",
                         "--grid", "fixtures=0")
    assert code == 5


def test_negative_jobs_exit_2(capsys):
    assert run_cli(capsys, "verify", "count", "--q", "2", "--jobs", "-1")[0] == 2


def test_pool_size():
    assert pool_size(0, 4, 100) == 4     # 0 means every core
    assert pool_size(3, 4, 100) == 3
    assert pool_size(64, 4, 100) == 4    # never more workers than cores
    assert pool_size(0, 4, 2) == 2       # nor more than work items
    assert pool_size(0, 4, 0) == 0
    with pytest.raises(ValueError):
        pool_size(-1, 4, 100)


def test_verify_choices_are_the_family_table():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    verify = sub.choices["verify"]
    choices = [tuple(a.choices) for a in verify._actions
               if a.dest in ("family", "family_flag")]
    assert choices == [tuple(FAMILIES)] * 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_builds_items_at_defaults(family):
    assert build_instances(VerifyJob(family))


@pytest.mark.parametrize("degmax, hcount, have", [(0, 5, 4), (1, 10, 8)])
def test_main_cell_with_too_few_rootless_h_exits_2(degmax, hcount, have):
    # F_5 has 4 nonzero constants, and 8 h of degree <= 1 have no root on
    # U_4: asking a cell for more distinct h once drew forever
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-m", "mto1.cli", "verify", "main", "--q", "5",
         "--hcount", str(hcount), "--grid", f"degmax={degmax};fixtures=0",
         "--jobs", "1"], capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 2
    assert not run.stdout
    assert (f"q = 5, s = 1 has {have} rootless h of degree <= {degmax}, "
            f"fewer than hcount = {hcount}") in run.stderr


def _crash(params):
    raise RuntimeError("commuting square failed; arithmetic bug")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluator_crash_exit_6(capsys, monkeypatch, jobs):
    monkeypatch.setitem(harness.EVALUATORS, "count", _crash)
    result = []
    argv = ["verify", "count", "--q", "2,3", "--jobs", jobs]
    runner = threading.Thread(target=lambda: result.append(cli.main(argv)))
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "the crashed run did not return"
    err = capsys.readouterr().err
    assert result == [6]
    assert len(err.splitlines()) == 1
    assert "count" in err and '"q": ' in err and "RuntimeError" in err
    assert "arithmetic bug" in err


# sha256 of each report's records with "elapsed" stripped: any change to the
# cyclotomic grid evaluators must reproduce these reports byte for byte
REPORT_PINS = {
    ("main", "--q", "5,7,8,9", "--hcount", "4"):
        "1d78c5c71d45e29994e95463a195acf4a35af67350819cb7ba08f53afaf01395",
    ("small", "--q", "7,13", "--hcount", "2"):
        "b17a626473e3abe54d5130d1d431d553bf9e4be1ad7044c509d57d0a965a8208",
    ("ell", "--q", "7,13", "--hcount", "2"):
        "4a2dbe58b39f427123385b4811e49549d323059fdeb1f288361924d65e809087",
    ("monomial", "--q", "3,4"):
        "9a3e87e1fc81a0ceab3e05d1c9b4163d37bc7637948553578c8139729ca5ff48",
    ("criteria", "--count", "100"):
        "2243673ce6c8f5a5958dafc7ac09b8fe6e922f583d8cf294bec5982f2caa9e1f",
    ("lift", "--q", "9,13"):
        "aa633812fc9312f6d47c3483b2d9c7d78aa75346c992de57d1552286bbe6fa57",
    ("hd",):
        "d827e2f0e39223d480df30926aca37e8e111a92adece599e25f6caa1cefc8810",
    ("g3",):
        "301380a0b065dd30d07468b521c87d4127bd48c1a5941ae7b60a8b6f95b48a42",
    ("g5",):
        "d2f6af27f24434043173c7dd60858848af8ff31a69bf607e4d2423fa10b1dda5",
    ("lemmas",):
        "1cf1963166983ca7ffa6cf4c77428f29edb586acef5550daae2dc142e94e1479",
    ("transfer",):
        "3f4a036173d0e601410085e9417380f2348034f7cf270aeadad7ac8797a467d7",
    ("towers", "--q", "3,4", "--draws", "50"):
        "bf6950b802de99ca2816e7288a9d4315faaa0cde5f4b43e8588c2f6f55a112ac",
    ("split",):
        "6043a71b22e9a7f74fee1159d69229f03a1beffc0c6a7e81acc7e623f38fd4d7",
    ("towers", "--q", "5,7,8", "--draws", "50"):
        "5533f4ba3953a32503954426a5fadbc56b81e0db8efe72b0ccfa41f3f3136587",
}


@pytest.mark.parametrize("argv", sorted(REPORT_PINS))
def test_grid_reports_match_pinned_digests(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--seed", "0",
                           "--jobs", "1", "--json")
    assert code == 0
    records = json.loads(out)["records"]
    for rec in records:
        del rec["elapsed"]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_PINS[argv]


@pytest.mark.parametrize("family", ["small", "ell"])
def test_worker_drawn_reports_do_not_depend_on_the_pool(capsys, family):
    # small and ell cells draw their h in the worker: two workers must give
    # the pinned serial report
    argv = (family, "--q", "7,13", "--hcount", "2")
    code, out, _ = run_cli(capsys, "verify", *argv, "--seed", "0",
                           "--jobs", "2", "--json")
    assert code == 0
    records = json.loads(out)["records"]
    for rec in records:
        del rec["elapsed"]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_PINS[argv]


# the reduction_chunks families at seeds 1 and 7, on the argv of REPORT_PINS,
# computed before the grids shared one chunk engine; towers at seeds 1, 2
# and 7, computed before its forms were interpolated from values on U
SEED_PINS = {
    ("main", "--q", "5,7,8,9", "--hcount", "4", "--seed", "1"):
        "daf6215415dbbabbfb4aa21cff6a4ecbc781077fb6954ea403f9d23e5589d3a6",
    ("main", "--q", "5,7,8,9", "--hcount", "4", "--seed", "7"):
        "53d78eec1e6a92d2a3026fb46ec907e0218a7fcc7055770ae1e440553f0a865b",
    ("small", "--q", "7,13", "--hcount", "2", "--seed", "1"):
        "4491a074e2557737ce3cb1295a09107961b0855496b6da4e541a0dd316753a6b",
    ("small", "--q", "7,13", "--hcount", "2", "--seed", "7"):
        "02e97c262991a37c334a8492c2b95134df798dea550139bf2ac785c86e7f852d",
    ("ell", "--q", "7,13", "--hcount", "2", "--seed", "1"):
        "e38eeb3df4abac7813f7a0bfb7c68c1c7fbc8bb2d246d0ee59da8114003dc88b",
    ("ell", "--q", "7,13", "--hcount", "2", "--seed", "7"):
        "8a5a91173810904f82a57d68f96bde235cb460e53b18749c23b99bbd4e7219b2",
    ("monomial", "--q", "3,4", "--seed", "1"):
        "9a3e87e1fc81a0ceab3e05d1c9b4163d37bc7637948553578c8139729ca5ff48",
    ("monomial", "--q", "3,4", "--seed", "7"):
        "9a3e87e1fc81a0ceab3e05d1c9b4163d37bc7637948553578c8139729ca5ff48",
    ("towers", "--q", "3,4", "--draws", "50", "--seed", "1"):
        "49b5d3eac7a669cee9a05a257f3a8dea39fde7aa8af8908acbe84fdce8cc63fc",
    ("towers", "--q", "3,4", "--draws", "50", "--seed", "2"):
        "94f7eb5ece09067094a061bf8f27320d93b31fd6f21cef17a3de20b70bebe4c3",
    ("towers", "--q", "3,4", "--draws", "50", "--seed", "7"):
        "4cee36a18f1dd31c65757c6f10d3545b5fbd9fb0e4276f77a0e5390547efe046",
    ("towers", "--q", "5,7,8", "--draws", "50", "--seed", "1"):
        "ccf032ffc9c76dff4114b40eb6b705fd3d3321e9c456382928f1a3e529efebdb",
    ("towers", "--q", "5,7,8", "--draws", "50", "--seed", "2"):
        "3d77cd6cf185737153f6820e2ce631252f2101b2e18a8bfd65f73a05821c9508",
    ("towers", "--q", "5,7,8", "--draws", "50", "--seed", "7"):
        "a2543f517dacdcdd4a2ee08934df1d7b04e495db51cec3e49425fd67f71a7407",
}


def _records_digest(capsys, *argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--jobs", "1", "--json")
    assert code == 0
    records = json.loads(out)["records"]
    for rec in records:
        del rec["elapsed"]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()
                          ).hexdigest()


@pytest.mark.parametrize("argv", sorted(SEED_PINS))
def test_engine_reports_match_pins_at_other_seeds(capsys, argv):
    assert _records_digest(capsys, *argv) == SEED_PINS[argv]


def test_grid_record_with_no_checks_is_skipped(capsys):
    # towers at q = 3, one draw per family: the rk draw is a hypothesis skip,
    # so its record checked nothing and is skipped, not an agreement
    code, out, _ = run_cli(capsys, "verify", "towers", "--q", "3", "--draws",
                           "1", "--seed", "0", "--jobs", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"total": 3, "agreements": 2,
                                 "disagreements": 0, "skipped": 1}
    rk, = [r for r in report["records"] if r["params"]["family"] == "rk"]
    assert rk["params"]["checked"] == 0
    assert rk["params"]["hypothesis_skips"] == 1
    assert rk["agree"] is None
    assert rk["skipped"] == "no checks: 1 hypothesis skip(s)"


def test_tally_record_with_failures_and_no_checks_disagrees():
    # a stage error fails a grid before any check: a disagreement, not a skip
    failed = harness._Tally()
    failed.bad.append({"stage": "lift", "error": "no lift"})
    rec = failed.record({"q": 9})
    assert rec["agree"] is False and rec["skipped"] is None
    assert rec["params"] == {"q": 9, "checked": 0}
    empty = harness._Tally()
    rec = empty.record({"q": 9})
    assert rec["agree"] is None
    assert rec["skipped"] == "no checks: 0 hypothesis skip(s)"
    checked = harness._Tally()
    checked.check(True)
    checked.skipped = 2
    rec = checked.record({"q": 9})
    assert rec["agree"] is True and rec["skipped"] is None
    assert rec["params"] == {"q": 9, "checked": 1, "hypothesis_skips": 2}


@pytest.mark.parametrize("family", ["main", "small", "ell", "monomial"])
def test_engine_reports_do_not_depend_on_the_chunk_size(capsys, monkeypatch,
                                                        family):
    # one form per chunk: every chunk calls the oracle and checks its own
    # square, and the seed-0 report stays the pinned one
    monkeypatch.setattr(cyclotomic, "REDUCTION_CELLS", 1)
    argv = next(a for a in REPORT_PINS if a[0] == family)
    assert _records_digest(capsys, *argv, "--seed", "0") == REPORT_PINS[argv]


def test_each_form_is_predicted_and_counted_once(capsys, monkeypatch):
    # serial seed-0 runs, counted at the harness and cyclotomic bindings (the
    # corollary cells call the oracle from harness, the case-list cells
    # through cyclotomic.reduction_chunks): one oracle call per small/ell
    # cell, one h_d prediction per (s, d, e, t, r) and one
    # transfer_equivalence call per lift transfer draw, none per m
    calls = collections.defaultdict(list)

    def count(name, module=harness):
        fn = getattr(module, name)

        def counted(*args):
            calls[name].append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    for name in ("rootless_censuses", "hd_family_predict",
                 "transfer_equivalence"):
        count(name)
    count("rootless_censuses", cyclotomic)
    for family in ("small", "ell"):
        calls.clear()
        assert _verify_records(capsys, family)[0] == cli.EXIT_OK
        assert (len(calls["rootless_censuses"])
                == len(build_instances(VerifyJob(family))))
    calls.clear()
    assert _verify_records(capsys, "hd")[0] == cli.EXIT_OK
    keys = [(spec.q, r, s, d, e, t)
            for spec, _, r, s, d, e, t in calls["hd_family_predict"]]
    towers = [params["field"] for name, params
              in build_instances(VerifyJob("hd")) if name == "hd_family"]
    # (d, e, t, r) in 6 x 3 x 2 x 6 for every s dividing q-1
    assert len(set(keys)) == len(keys) == 6 * 3 * 2 * 6 * sum(
        len(harness._divisors(p ** n - 1)) for p, n, _ in towers)
    calls.clear()
    assert _verify_records(capsys, "lift")[0] == cli.EXIT_OK
    forms = [args[0] for args in calls["transfer_equivalence"]]
    assert 0 < len(forms) <= 4 * 30  # at most one per draw
    assert len({id(form) for form in forms}) == len(forms)


def _no_item(item):
    raise harness.EvaluatorError(f"the work item {item[0]} ran")


# a count flag means what its --grid key means, 0 included; a value below
# the option's floor exits 2, naming the option, before any work item runs
@pytest.mark.parametrize("flag, grid, code", [
    (("main", "--q", "5", "--hcount", "0"),
     ("main", "--q", "5", "--grid", "hcount=0"), cli.EXIT_OK),
    (("lift", "--q", "9", "--draws", "0"),
     ("lift", "--q", "9", "--grid", "draws=0"), cli.EXIT_VACUOUS),
    (("criteria", "--count", "0"), ("criteria", "--grid", "count=0"),
     cli.EXIT_VACUOUS),
    (("main", "--hcount", "-2"), ("main", "--grid", "hcount=-2"),
     cli.EXIT_PARSE),
    (("towers", "--draws", "-1"), ("towers", "--grid", "draws=-1"),
     cli.EXIT_PARSE),
    (("criteria", "--count", "-1"), ("criteria", "--grid", "count=-1"),
     cli.EXIT_PARSE),
    (None, ("main", "--grid", "degmax=-1"), cli.EXIT_PARSE),
    (None, ("main", "--grid", "mcap=0"), cli.EXIT_PARSE),
    (None, ("towers", "--grid", "chunk=0"), cli.EXIT_PARSE),
], ids=["hcount-0", "draws-0", "count-0", "hcount-neg", "draws-neg",
        "count-neg", "degmax-neg", "mcap-0", "chunk-0"])
def test_count_options_are_honoured_or_refused(capsys, monkeypatch, flag,
                                               grid, code):
    if code == cli.EXIT_PARSE:
        monkeypatch.setattr(harness, "_run_item", _no_item)
    runs = [_verify_records(capsys, *argv) for argv in (flag, grid) if argv]
    for got, records, err in runs:
        assert got == code
        if code == cli.EXIT_PARSE:
            assert records is None and grid[-1].split("=")[0] in err
    assert runs[0][1] == runs[-1][1]


@pytest.mark.parametrize("family", ["main", "small", "ell"])
def test_verify_q_over_the_scale_exits_3(capsys, family):
    # the cells build their fields in the workers, so the parent refuses a
    # q over 2^16 before any item runs
    code, _, err = run_cli(capsys, "verify", family, "--q", "131072",
                           "--jobs", "1")
    assert code == cli.EXIT_SCALE and "131072" in err


def _verify_records(capsys, *argv):
    """Exit code, records (elapsed removed; None without a report) and
    stderr of one serial seed-0 verify run."""
    code, out, err = run_cli(capsys, "verify", *argv, "--seed", "0",
                             "--jobs", "1", "--json")
    records = json.loads(out)["records"] if out else None
    for rec in records or ():
        del rec["elapsed"]
    return code, records, err


# a one-value list option given through --grid stays a list, so the run
# gives the same records as its flag (or exits 0 where there is no flag);
# towers takes (base_q, n0) pairs, which --grid cannot write, so it is
# refused by name
@pytest.mark.parametrize("grid, flag, code", [
    (("small", "--grid", "qs=7"), ("small", "--q", "7"), cli.EXIT_OK),
    (("g3", "--grid", "ns=3"), ("g3", "--n", "3"), cli.EXIT_OK),
    (("hd", "--grid", "scan_qs=4"), None, cli.EXIT_OK),
    (("hd", "--grid", "towers=3,2"), None, cli.EXIT_PARSE),
], ids=["small-qs", "g3-ns", "hd-scan_qs", "hd-towers"])
def test_one_value_grid_options(capsys, grid, flag, code):
    got, records, err = _verify_records(capsys, *grid)
    assert got == code
    if code == cli.EXIT_PARSE:
        assert records is None and "towers" in err
        return
    assert records
    if flag is not None:
        assert _verify_records(capsys, *flag)[:2] == (code, records)


# the acceptance-scale main grid (every q of the grid, the extension fields
# q = 16..64 included), computed before the grid was batched per (q, s)
MAIN_REPORT_PIN = \
    "344cc361bd469857ec6c6d2d8e3225cac687292b787943261eaa79c2d7843f72"


def test_main_report_at_acceptance_scale_matches_pin(capsys):
    code, out, _ = run_cli(capsys, "verify", "main", "--hcount", "200",
                           "--seed", "0", "--jobs", "1", "--json")
    assert code == 0
    records = json.loads(out)["records"]
    for rec in records:
        del rec["elapsed"]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == MAIN_REPORT_PIN


def _perturb_hlogs(monkeypatch):
    """Make every CycloForm carry one wrong value of h on U_ell (hlogs)."""
    from mto1.cyclotomic import CycloForm
    init = CycloForm.__init__

    def perturbed(self, *args):
        init(self, *args)
        q1 = self.spec.q - 1
        self.hlogs = ((self.hlogs[0] + 1) % q1,) + self.hlogs[1:]

    monkeypatch.setattr(CycloForm, "__init__", perturbed)


# families whose prediction reads hlogs, and families that predict from
# formulas; both check against the oracle built from h's coefficients
HLOGS_PREDICTIONS = {"main": ("--q", "7", "--hcount", "2"),
                     "small": ("--q", "7,13", "--hcount", "2"),
                     "ell": ("--q", "7,13", "--hcount", "2"),
                     "monomial": ("--q", "3,4")}
FORMULA_PREDICTIONS = {"hd": ("--grid", "scan_qs=4,8"),
                       "lift": ("--q", "9,13")}


@pytest.mark.parametrize("family", sorted(HLOGS_PREDICTIONS))
def test_main_grid_catches_a_wrong_h_value_on_u_ell(capsys, monkeypatch,
                                                     family):
    # one wrong entry of h's values on U_ell corrupts the prediction; the
    # oracle must still tell them apart
    _perturb_hlogs(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", family, *HLOGS_PREDICTIONS[family],
                         "--jobs", "1")
    assert code in (cli.EXIT_DISAGREE, cli.EXIT_CRASH)


@pytest.mark.parametrize("family", sorted(FORMULA_PREDICTIONS))
def test_formula_families_ignore_a_wrong_h_value_on_u_ell(capsys, monkeypatch,
                                                          family):
    # no prediction or oracle of these families reads hlogs, so the report
    # stays byte for byte the same
    argv = ("verify", family, *FORMULA_PREDICTIONS[family], "--seed", "0",
            "--jobs", "1", "--json")

    def records():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        recs = json.loads(out)["records"]
        for rec in recs:
            del rec["elapsed"]
        return json.dumps(recs, sort_keys=True)

    clean = records()
    _perturb_hlogs(monkeypatch)
    assert records() == clean


# families whose forms come from cyclotomic.forms_from_logs, each with a
# small grid
INTERPOLATED = {"hd": ("--grid", "scan_qs=4"), "lift": ("--q", "9"),
                "monomial": ("--q", "3"), "transfer": (),
                "towers": ("--q", "3", "--draws", "10")}


@pytest.mark.parametrize("family", sorted(INTERPOLATED))
def test_a_corrupted_interpolated_coefficient_exits_6(capsys, monkeypatch,
                                                      family):
    # the step checks every interpolant through u_ell_values: one wrong
    # coefficient is an arithmetic bug, not a disagreement or a skip
    evaluate = cyclotomic.eval_powers

    def corrupted(spec, coeffs, step, count=None):
        out = evaluate(spec, coeffs, step, count)
        if count is not None:  # the step's call; the oracle's has no count
            out[0, 0] = (out[0, 0] + 1) % spec.q
        return out

    monkeypatch.setattr(cyclotomic, "eval_powers", corrupted)
    code, _, err = run_cli(capsys, "verify", family, *INTERPOLATED[family],
                           "--jobs", "1")
    assert code == cli.EXIT_CRASH
    assert "arithmetic bug" in err


def test_formula_families_build_no_poly_product_or_point_scan(capsys,
                                                              monkeypatch):
    # serial seed-0 monomial, hd, lift and transfer build h from value logs
    # through forms_from_logs: no Poly product, power or per-point scan
    from mto1.galois import Poly, build_field
    calls = collections.Counter()
    for name in ("__mul__", "__pow__", "eval_index"):
        def counted(*args, name=name, fn=getattr(Poly, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(Poly, name, counted)
    Poly.x(build_field(5)) ** 2
    assert calls["__pow__"] == 1 and calls["__mul__"]  # the counters count
    calls.clear()
    for family in ("monomial", "hd", "lift", "transfer"):
        assert _verify_records(capsys, family)[0] == cli.EXIT_OK
        assert not calls, (family, calls)


def _count_calls(monkeypatch, owners, name):
    """Wrap the attribute name of every owner with one shared call count."""
    calls = collections.Counter()
    for owner in owners:
        def counted(*args, fn=getattr(owner, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_towers_interpolate_once_per_item_on_indices(capsys, monkeypatch):
    # serial seed-0 towers: one values -> forms step per work item, draws
    # and scans on element indices (no Poly.eval_index, few FieldElements)
    import mto1.unitline as unitline
    from mto1.galois import FieldElement, Poly, build_field
    steps = _count_calls(monkeypatch, (unitline,), "forms_from_logs")
    evals = _count_calls(monkeypatch, (Poly,), "eval_index")
    made = _count_calls(monkeypatch, (FieldElement,), "__init__")
    spec = build_field(3, 2)
    Poly.x(spec).eval_index(spec.one.index)
    assert evals["eval_index"] == 1 and made["__init__"] == 1  # they count
    evals.clear()
    made.clear()
    items = build_instances(VerifyJob("towers"))
    assert len(items) == 190
    code, records, _ = _verify_records(capsys, "towers")
    assert code == cli.EXIT_OK and len(records) == len(items)
    assert 0 < steps["forms_from_logs"] <= len(items)
    assert evals["eval_index"] == 0
    assert made["__init__"] < 10_000


def test_monomial_makes_one_engine_pass_per_q_and_r(capsys, monkeypatch):
    # one work item per (q, r) at the default grid, each with one values ->
    # forms step and one reduction_chunks call over every (d, k)
    items = build_instances(VerifyJob("monomial"))
    assert len(items) == 60
    assert {(p["q"], p["r"]) for _, p in items} == {
        (q, r) for q in harness.Q2_GRID for r in range(1, 13)}
    counts = [_count_calls(monkeypatch, (harness,), name)
              for name in ("forms_from_logs", "reduction_chunks")]
    code, records, _ = _verify_records(capsys, "monomial", "--q", "3,5")
    assert code == cli.EXIT_OK
    assert [c[name] for c, name in zip(counts, (
        "forms_from_logs", "reduction_chunks"))] == [2 * 12, 2 * 12]
    # still one record per (q, d, k, r): d <= q + 1, k <= 4, r <= 12
    assert len(records) == (4 * 4 + 6 * 4) * 12


# the (q, d, k, r) records of one small monomial grid, elapsed removed, as
# one work item per (q, d, k, r) reported them
MONOMIAL_GRID_DIGEST = ("f359a7e3334b3950d1e69cd2201e8b424db8706677aeb71e6e2"
                        "8b0b0c76626b1")


def test_monomial_items_keep_one_record_per_grid_cell(capsys):
    code, records, _ = _verify_records(capsys, "monomial", "--q", "3,4",
                                       "--grid", "dmax=2;kmax=2;rmax=3")
    assert code == cli.EXIT_OK
    cells = [(rec["params"]["q"], rec["params"]["d"], rec["params"]["k"],
              rec["params"]["r"]) for rec in records]
    assert sorted(cells) == [(q, d, k, r) for q in (3, 4) for d in (1, 2)
                             for k in (1, 2) for r in (1, 2, 3)]
    # d = 1, and d = 2 at q = 4, admit no a with a^t != 1: skipped records
    for (q, d, k, r), rec in zip(cells, records):
        if d == 1 or q == 4:
            assert rec["params"] == {"q": q, "d": d, "k": k, "r": r}
            assert rec["skipped"] == ("hypothesis: no a with a^(q+1)=1 "
                                      "and a^t != 1")
        else:
            assert rec["agree"] and rec["params"]["checked"] > 0
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == MONOMIAL_GRID_DIGEST


@pytest.mark.parametrize("coeffs, text", [((1, 0, 0), "1"),
                                          ((1, 12, 0), "1,12")],
                         ids=["non-hit", "root"])
def test_search_exits_1_when_a_hit_fails_reverification(capsys, monkeypatch,
                                                        coeffs, text):
    # x is 1-to-1, and 1 - x has the root 1 in U_3: the re-verification
    # must fail that hit alone, and the run must say so by its exit code
    import mto1.search as search
    kernel = search._kernel
    monkeypatch.setattr(search, "_kernel",
                        lambda *args: kernel(*args) + [(coeffs, 1)])
    code, out, _ = run_cli(capsys, "search", "13^1", "--s", "4", "--deg", "2",
                           "--m", "3", "--json")
    assert code == cli.EXIT_DISAGREE
    hits = json.loads(out)["hits"]
    assert len(hits) > 1
    assert [h for h in hits if not h["verified"]] == [
        {"r": 1, "h": text, "m": 3, "m1": 1, "verified": False}]


def test_disagreement_line_lists_failed_checks(capsys, monkeypatch):
    # a rule that predicts no m-to-1 map at all disagrees with the oracle
    monkeypatch.setattr(cyclotomic, "conjunct_rule", lambda *args: 3)
    code, out, _ = run_cli(capsys, "verify", "main", "--q", "7", "--hcount",
                           "2", "--grid", "fixtures=0", "--jobs", "1")
    assert code == cli.EXIT_DISAGREE
    lines = [ln for ln in out.splitlines() if ln.startswith("DISAGREEMENT: ")]
    assert lines
    for line in lines:
        params, bad = line[len("DISAGREEMENT: "):].split("} [", 1)
        assert json.loads(params + "}")["checked"] > 0
        for entry in json.loads("[" + bad):
            assert entry["predicted"] is False and entry["observed"] is True
            assert entry["failed_conjunct"] == "s*(ell mod m2) < m"
            assert {"r", "m"} <= set(entry)
    # the case-list and monomial grids read the same rule, through
    # cyclotomic.reduction_chunks, in their "main" column
    for family in ("small", "ell", "monomial"):
        code, _, _ = run_cli(capsys, "verify", family,
                             *HLOGS_PREDICTIONS[family], "--jobs", "1")
        assert code == cli.EXIT_DISAGREE
