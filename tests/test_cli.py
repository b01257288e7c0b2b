import argparse
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gfekit import cli, errors
from gfekit.campaign import CampaignPlan, explicit_box_task
from gfekit.catalog import _closure, load_registry
from gfekit.cli import command_dispatch

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = command_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "2", "4", "4")
    assert code == 0
    assert "Euclidean" in out


def test_verify_known(capsys):
    code, out, _ = run(capsys, "verify-known")
    assert code == 0
    assert out.count("ok") == 10


def test_count_ge4(capsys):
    code, out, _ = run(capsys, "count", "ge4")
    assert code == 0
    assert out.strip() == "244"


def test_count_beal_mentions_discrepancy(capsys):
    code, out, _ = run(capsys, "--json", "count", "beal")
    assert code == 0
    payload = json.loads(out)
    if not payload["matches_expected"]:
        assert "discrepancy" in payload
        assert payload["discrepancy"]["expected"] == 2446


# SHA-256 of the stdout of `--json count beal --ledger F` and of the file F.
COUNT_BEAL_STDOUT = "122c331696938bd204ebe2d8203738f2e6678365cd4da6c13d008e86e21b92f8"
COUNT_BEAL_LEDGER = "183c65851b00a9ed66b29f16c77e4761400a2fc4b4ff13c835a796c87962545d"


def test_count_beal_ledger_bytes_pinned(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    code, out, _ = run(capsys, "--json", "count", "beal", "--ledger", str(ledger))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_BEAL_STDOUT
    assert hashlib.sha256(ledger.read_bytes()).hexdigest() == COUNT_BEAL_LEDGER


def test_count_beal_ledger_computes_each_closure_once(capsys, tmp_path):
    _closure.cache_clear()  # start from cold closures
    code, _, _ = run(capsys, "count", "beal", "--ledger", str(tmp_path / "ledger.json"))
    assert code == 0
    assert _closure.cache_info().misses == 2  # the full and the published closure


@pytest.mark.parametrize("module", ["gfekit", "gfekit.cli"])
def test_python_dash_m_runs_the_cli(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, "count", "ge4"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "244\n"


def test_curve_and_dataset(capsys):
    code, out, _ = run(capsys, "--json", "curve", "general", "--", "-1", "16", "-15")
    assert code == 0
    payload = json.loads(out)
    assert payload["c4"] == 241
    assert payload["denominator"] == 225
    code, out, _ = run(capsys, "dataset", "general", "1", "11")
    assert code == 0
    assert "e0=3" in out
    code, out, err = run(capsys, "dataset", "general", "9", "11")
    assert code == 1
    assert "catalog" in err


def test_profile(capsys):
    code, out, _ = run(capsys, "--json", "profile", "4", "5", "7", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"]["x"]["lpart_candidates"] == [1, 3, 5]


def test_bounds_without_vol_table_is_domain_error(capsys):
    code, out, err = run(capsys, "bounds", "general", "5", "7", "11",
                         "--set", "11", "13")
    assert code == 1
    assert "Vol constant not configured" in err


def test_bounds_with_config(capsys, tmp_path):
    cfg = {
        "schema_version": 1,
        "vol_tables": [
            {"family": "GENERAL_ABC", "kind": 1, "l": 11, "value": "0.25",
             "provenance": "synthetic test value"},
            {"family": "GENERAL_ABC", "kind": 1, "l": 13, "value": "0.25"},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "--json", "--config", str(path), "bounds",
                       "general", "5", "7", "11", "--set", "11", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] in ("excluded-interval", "not-applicable")
    assert "constants" in payload


# Each call below has its Vol constants configured, so only the check it names
# stops it: a composite element of S or q, or a situation or variant the case
# does not use.
_VOL_ENTRIES = (
    [{"family": "GENERAL_ABC", "kind": 1, "l": l, "value": "0.25"} for l in (11, 13, 15, 25)]
    + [{"family": "GENERAL_ABC", "kind": 3, "l": l, "value": "0.25"} for l in (17, 19)]
    + [{"family": "TWO_THREE", "kind": 2, "l": l, "q": 9, "value": "0.25"} for l in (17, 19)]
)


@pytest.mark.parametrize("argv, message", [
    (("general", "5", "7", "11", "--set", "11", "15"), "every element of S must be prime"),
    (("general", "5", "7", "11", "--set", "15", "25", "--situation", "c", "--variant", "rst"),
     "every element of S must be prime"),
    (("twothree-q", "45", "--set", "17", "19", "--q", "9"), "need a prime q >= 5 dividing t"),
    (("general-2tor", "5", "7", "11", "--set", "17", "19", "--situation", "c",
      "--variant", "rs"), "general-2tor has no primed block; situation must be 'a'"),
    (("general", "5", "7", "11", "--set", "11", "13", "--situation", "b", "--variant", "zz"),
     "variant 'zz' applies only to situation c"),
])
def test_bounds_rejects_composite_and_ignored_options(capsys, tmp_path, argv, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "vol_tables": _VOL_ENTRIES}))
    code, out, err = run(capsys, "--config", str(path), "bounds", *argv)
    assert code == 1 and out == ""
    assert message in err


# Every Vol constant these calls read, so each would run without the option
# that the case ignores; with it, each ends in one error line.
_IGNORED_OPTION_VOLS = (
    [{"family": "GENERAL_ABC", "kind": 1, "l": l, "value": "0.25"} for l in (11, 13)]
    + [{"family": "GENERAL_ABC", "kind": 3, "l": l, "value": "0.25"} for l in (17, 19)]
    + [{"family": "TWO_THREE", "kind": 1, "l": l, "value": "0.25"} for l in (11, 17)]
    + [{"family": "TWO_THREE", "kind": 2, "l": l, "q": 5, "value": "0.25"} for l in (17, 19)]
    + [{"family": "THREE_RS", "kind": 1, "l": l, "value": "0.25"} for l in (11, 17)]
)


@pytest.mark.parametrize("argv, message", [
    (("twothree-t", "23", "--set", "11", "17", "--u0", "12"), "twothree-t does not use u0"),
    (("twothree-q", "55", "--set", "17", "19", "--q", "5", "--u0", "11"),
     "twothree-q does not use u0"),
    (("general-2tor", "5", "7", "11", "--set", "17", "19", "--u0", "12"),
     "general-2tor does not use u0"),
    (("general", "5", "7", "11", "--set", "11", "13", "--situation", "b", "--u0", "12"),
     "general uses u0 only in situation a"),
    (("general", "5", "7", "11", "--set", "11", "13", "--q", "5"),
     "general does not use q; only twothree-q does"),
    (("threers", "7", "11", "--set", "11", "17", "--q", "5"),
     "threers does not use q; only twothree-q does"),
    (("general", "5", "7", "11", "--set", "11", "13", "--u0", "0"), "need u0 >= 1, got u0=0"),
])
def test_bounds_rejects_an_option_its_case_does_not_read(capsys, tmp_path, argv, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "vol_tables": _IGNORED_OPTION_VOLS}))
    code, out, err = run(capsys, "--config", str(path), "bounds", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # The last option and its value are the ones at fault: without them it runs.
    code, out, err = run(capsys, "--config", str(path), "bounds", *argv[:-2])
    assert code == 0 and err == "", err


def test_bounds_choices_are_the_case_table():
    from gfekit.bounds import _CASES

    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    scenario_arg = next(a for a in commands.choices["bounds"]._actions if a.dest == "scenario")
    assert list(scenario_arg.choices) == list(_CASES)


@pytest.mark.parametrize("argv, message", [
    (("threers", "7", "11", "--set", "17", "19"), "need 7 <= u0 <= min(3r, s), got u0="),
    (("twothree-u0", "23", "--set", "11", "17"), "need 11 <= u0 <= t, got u0="),
])
@pytest.mark.parametrize("u0", ["0", "3"])
def test_bounds_u0_below_the_range_is_rejected(capsys, argv, message, u0):
    # u0 = 0 is a value like any other, not the family default.
    code, out, err = run(capsys, "bounds", *argv, "--u0", u0)
    assert code == 1 and out == ""
    assert err == f"error: {message}{u0}\n"


def test_scan_small_z1_tiny(capsys):
    code, out, _ = run(capsys, "scan-small-z1", "--z1-bound", "2",
                       "--t-max", "9", "--height", "1000")
    assert code == 0
    assert "13^2 + 7^3 = 2^9" in out


def test_search_plan(capsys, tmp_path):
    plan = CampaignPlan("cli-test", [
        explicit_box_task("box", range(1, 20), 2, range(1, 20), 3, {9}),
    ])
    path = tmp_path / "plan.json"
    plan.save(str(path))
    code, out, _ = run(capsys, "search", str(path), "--shards", "2")
    assert code == 0
    assert "13^2 + 7^3 = 2^9" in out
    code, out, _ = run(capsys, "--json", "search", str(path))
    assert json.loads(out)["verdict"].startswith("1-records-found")


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, "--json", "count", "ge4")
    _, out2, _ = run(capsys, "--json", "count", "ge4")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "search", "/nonexistent/plan.json")
    assert code == 2


# profile 23 11 is the (2,3,t) profile below t = 60, where only the t-sieve
# applies: its text and JSON, pinned.
_PROFILE_23_11_TEXT = (
    "profile twothree (23,) l=11 exponent range (11, 121)\n"
    "  z: exp=23 log-smooth<=none l-part in [] e2<=174 e3<=110 el<=0\n")
_PROFILE_23_11_JSON = (
    '{"exponent_range": [11, 121], "exponents": [23], "family": "twothree", "l": 11, '
    '"notes": ["structure caps need t >= 60; only the t-sieve applies"], "pair_caps": {}, '
    '"variables": {"z": {"cap_e2": 174, "cap_e3": 110, "cap_el": 0, "exponent": 23, '
    '"forced_power_of_two": false, "lpart_candidates": [], "notes": [], '
    '"smooth_log_cap": null}}}\n')


def test_profile_of_twothree_below_t_60_pinned(capsys):
    assert run(capsys, "profile", "23", "11") == (0, _PROFILE_23_11_TEXT, "")
    assert run(capsys, "--json", "profile", "23", "11") == (0, _PROFILE_23_11_JSON, "")


def test_profile_with_more_than_three_exponents_is_usage_error(capsys):
    code, out, err = run(capsys, "profile", "4", "5", "7", "11", "13")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.endswith("gfekit profile: error: at most 3 exponents, got 4\n")


@pytest.mark.parametrize("argv, message", [
    (("profile", "--family", "general", "4", "5", "11"),
     "gfekit profile: error: the general family takes 3 exponents, got 2"),
    (("profile", "--family", "twothree", "61", "9", "11"),
     "gfekit profile: error: the twothree family takes 1 exponent, got 2"),
    (("bounds", "general", "5", "7", "--set", "11", "13"),
     "gfekit bounds: error: the general family takes 3 exponents, got 2"),
    (("bounds", "threers-2tor", "7", "11", "13", "--set", "17", "19"),
     "gfekit bounds: error: the threers family takes 2 exponents, got 3"),
])
def test_exponent_count_that_does_not_fit_the_family_is_usage_error(
        capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, family, tabled", [
    (("profile", "4", "5", "7", "43"), "general", "11, 13, 17, 19, 23"),
    (("profile", "--family", "threers", "7", "11", "43"), "threers",
     "17, 19, 23, 29, 31"),
])
def test_profile_l_outside_the_a2_table_is_domain_error(capsys, argv, family, tabled):
    assert run(capsys, *argv) == (
        1, "", f"error: l=43 is not in the {family} a2 table; tabled primes: {tabled}\n")


@pytest.mark.parametrize("argv, message", [
    (("profile", "61", "9"), "auxiliary prime l must be a prime >= 11, got 9"),
    (("profile", "--family", "twothree", "61", "9"),
     "auxiliary prime l must be a prime >= 11, got 9"),
    (("profile", "113", "13"),
     "auxiliary prime l must not be 13 in the (2,3,t) and cube families"),
    (("profile", "4", "5", "7", "1"),
     "l=1 is not in the general a2 table; tabled primes: 11, 13, 17, 19, 23"),
    (("profile", "4", "5", "7", "0"),  # looked up before l divides anything
     "l=0 is not in the general a2 table; tabled primes: 11, 13, 17, 19, 23"),
    (("profile", "--family", "threers", "7", "11", "13"),
     "l=13 is not in the threers a2 table; tabled primes: 17, 19, 23, 29, 31"),
])
def test_profile_checks_l_against_its_family(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@st.composite
def profile_argv(draw):
    """`profile` argv: a family or none, mostly as many exponents as it
    takes, and l from inside and outside the a2 tables or a token that does
    not parse."""
    family = draw(st.sampled_from([None, "general", "threers", "twothree"]))
    count = cli._EXPONENT_COUNT.get(family)
    if count is None or not draw(st.integers(min_value=0, max_value=3)):
        count = draw(st.integers(min_value=1, max_value=4))
    exponents = draw(st.lists(st.integers(min_value=-3, max_value=130),
                              min_size=count, max_size=count))
    l = draw(st.sampled_from([0, 1, 9, 11, 13, 17, 19, 23, 29, 31, 43, "x", "7.5"])
             | st.integers(min_value=-3, max_value=130))
    return (["profile"] + (["--family", family] if family else [])
            + [str(v) for v in exponents + [l]])


@given(profile_argv())
@settings(max_examples=150, deadline=None)
def test_profile_exits_with_a_code_and_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = command_dispatch(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("error:") == 1, err.getvalue()


@pytest.mark.parametrize("height", ["-5", "0"])
def test_scan_height_below_one_is_empty_box(capsys, height):
    assert run(capsys, "scan-small-z1", "--height", height) == (
        1, "", "error: empty scan box\n")


PAIR_PARAMS = {"a": {"values": [1]}, "b": {"values": [2]}, "r": 2, "s": 3, "t_set": [2]}


@pytest.mark.parametrize("plan, message", [
    ([1], "plan must be a JSON object, got list"),
    ({"name": "x"}, "plan has no 'tasks'"),
    ({"tasks": []}, "plan has no 'name'"),
    ({"name": "x", "tasks": {}}, "plan 'tasks' must be a list"),
    ({"name": "x", "tasks": [1]}, "plan task 0 must be a JSON object"),
    ({"name": "x", "tasks": [{"kind": "pair", "params": PAIR_PARAMS}]},
     "plan task 0 has no 'task_id'"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "box", "params": {}}]},
     "unknown task kind 'box'"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": [1]}]},
     "plan task 0 params must be a JSON object"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": {
        k: v for k, v in PAIR_PARAMS.items() if k != "b"}}]},
     "plan task 0 (pair) has no param 'b'"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": PAIR_PARAMS},
                             {"task_id": "u", "kind": "tail", "params": {
                                 "spec": [3], "s": 3, "r_set": [2], "m_lo": 70}}]},
     "plan task 1 (tail) has no param 'm_hi'"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": {
        **PAIR_PARAMS, "r": "2"}}]},
     "plan task 0 (pair) param 'r' must be an int, got '2'"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": {
        **PAIR_PARAMS, "t_set": 9}}]},
     "plan task 0 (pair) param 't_set' must be a list of ints, got 9"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "pair", "params": {
        **PAIR_PARAMS, "b": {"values": "x"}}}]},
     "plan task 0 (pair) param 'b' must be {\"values\": [int, ...]} or a generator "
     "spec of int smooth, l, e2_cap, e3_cap, el_cap and int list lparts, "
     "got {'values': 'x'}"),
    ({"name": "x", "tasks": [{"task_id": "t", "kind": "tail", "params": {
        "spec": {"values": [1, 3, 5]}, "s": 3, "r_set": [2], "m_lo": 0,
        "m_hi": 3}}]},
     "2-power window [0,3] must start at m >= 1"),
])
def test_malformed_plan_is_domain_error(capsys, tmp_path, plan, message):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run(capsys, "search", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("count", "ge4", "--ledger"), ("search",)])
def test_directory_as_path_is_config_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert err.startswith("configuration error:")


@pytest.mark.parametrize("text", [
    json.dumps({"schema_version": 2}),
    json.dumps({"schema_version": 1, "vol_tables": [
        {"family": "GENERAL_ABC", "kind": 1, "value": "0.25"}]}),  # no "l"
    '{"schema_version": 1,',
    "[]",
    json.dumps({"schema_version": 1, "precision": [128]}),
    json.dumps({"schema_version": 1, "precision": {"initial": "x"}}),
    json.dumps({"schema_version": 1, "vol_tables": [
        {"family": "GENERAL_ABC", "kind": 1, "l": 11, "value": "abc"}]}),
    json.dumps({"schema_version": 1, "search_budget": {"max_tasks": "3"}}),
    json.dumps({"schema_version": 1, "registry_path": 5}),
    json.dumps({"schema_version": 1, "vol_table": [
        {"family": "GENERAL_ABC", "kind": 1, "l": 11, "value": "0.25"}]}),
])
def test_malformed_config_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, _, err = run(capsys, "--config", str(path), "bounds", "general",
                       "5", "7", "11", "--set", "11", "13")
    assert code == 2
    assert err.startswith("configuration error:")


def test_unknown_config_key_is_named(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "vol_table": []}))
    code, _, err = run(capsys, "--config", str(path), "count", "ge4")
    assert code == 2
    assert err == "configuration error: unknown config key 'vol_table'\n"


def test_null_config_keys_count_as_absent(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **dict.fromkeys(
        ("precision", "vol_tables", "search_budget", "registry_path", "output_path"))}))
    code, _, err = run(capsys, "--config", str(path), "bounds", "general",
                       "5", "7", "11", "--set", "11", "13")
    assert code == 1 and "Vol constant not configured" in err


def _run_against_registry(capsys, tmp_path, registry_text,
                          signature=("4", "5", "11")):
    """(exit code, stderr) of classify and count ge4 with this registry text."""
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(registry_text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "registry_path": str(reg_path)}))
    out = []
    for argv in (("classify", *signature), ("count", "ge4")):
        code, _, err = run(capsys, "--config", str(cfg), *argv)
        out.append((code, err))
    return out


# ledger_hash of `count ge4` on the shipped registry.
COUNT_GE4_LEDGER_HASH = "a126315844542bc339633bf1de3f2918ad3d4cc9e079e22ee4d0bdc582a76bc4"


def test_registry_config_does_not_reach_the_next_call(capsys, tmp_path):
    reg = load_registry()
    trimmed = dict(reg, remaining_families=[
        fam for fam in reg["remaining_families"] if fam["id"] != "f-45n"])
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(trimmed))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "registry_path": str(reg_path)}))
    code, out, _ = run(capsys, "--config", str(cfg), "count", "ge4")
    assert (code, out.split()[0]) == (0, "148")
    code, out, _ = run(capsys, "--json", "count", "ge4")
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["ledger_hash"]) == (244, COUNT_GE4_LEDGER_HASH)


def test_unknown_family_kind_is_domain_error(capsys, tmp_path):
    reg = load_registry()
    bad = dict(reg, remaining_families=reg["remaining_families"] + [
        {"id": "f-4mn", "kind": "4mn", "clause": "(4,m,n)"}])
    for code, err in _run_against_registry(capsys, tmp_path, json.dumps(bad),
                                           ("4", "5", "400")):
        assert code == 1
        assert "error: unknown remaining-family kind" in err


@pytest.mark.parametrize("key", ["clause", "n_max"])
def test_registry_missing_key_is_domain_error(capsys, tmp_path, key):
    reg = load_registry()
    first = {k: v for k, v in reg["remaining_families"][0].items() if k != key}
    bad = dict(reg, remaining_families=[first, *reg["remaining_families"][1:]])
    for code, err in _run_against_registry(capsys, tmp_path, json.dumps(bad)):
        assert code == 1
        assert err.startswith("error: registry remaining_families[0]")
        assert f"has no key {key!r}" in err


def test_registry_that_is_not_json_is_config_error(capsys, tmp_path):
    for code, err in _run_against_registry(capsys, tmp_path, '{"solved_rules": ['):
        assert code == 2
        assert err.startswith("configuration error: registry")


# Each typed error under the layer that raises it.
TYPED_ERRORS = [("arith", "FactorizationBudgetExceeded"), ("bounds", "ConfigError"),
                ("campaign", "CheckpointMismatch"), ("freycurves", "InvalidTriple"),
                ("linlog", "PrecisionExhausted"), ("ramification", "VolNotConfigured")]


@pytest.mark.parametrize("module, name", TYPED_ERRORS)
def test_typed_error_exits_1(capsys, monkeypatch, module, name):
    error = getattr(importlib.import_module(f"gfekit.{module}"), name)

    def handler(args, cfg):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "_cmd_classify", handler)
    code, out, err = run(capsys, "classify", "3", "5", "7")
    assert (code, out, err) == (1, "", "error: raised by the handler\n")


@pytest.mark.parametrize("module, name", TYPED_ERRORS)
def test_typed_error_is_the_errors_class(module, name):
    assert getattr(importlib.import_module(f"gfekit.{module}"), name) is getattr(errors, name)


def _loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running code with argv."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_catalog_does_not_import_structure():
    # structure loads mpmath, which `count` must never pay for.
    loaded = _loaded_after("import gfekit.catalog")
    assert "gfekit.structure" not in loaded and "mpmath" not in loaded


def test_importing_the_cli_loads_no_layer():
    loaded = _loaded_after("import gfekit.cli")
    assert {m for m in loaded if m.startswith("gfekit")} == {
        "gfekit", "gfekit.cli", "gfekit.errors"}
    assert "mpmath" not in loaded


# Each command's argv, and the modules it must not load.
_NO_LOG_CODE = {"mpmath", "gfekit.bounds", "gfekit.campaign", "gfekit.structure"}
LEAN_COMMANDS = [
    (("count", "ge4"), _NO_LOG_CODE),
    (("count", "beal"), _NO_LOG_CODE),
    (("verify-known",), _NO_LOG_CODE),
    (("scan-small-z1",), _NO_LOG_CODE),
    (("classify", "3", "5", "7"), _NO_LOG_CODE),
    (("profile", "4", "5", "7", "11"), {"gfekit.bounds", "gfekit.campaign", "gfekit.catalog"}),
]


@pytest.mark.parametrize("argv, unused", LEAN_COMMANDS,
                         ids=["-".join(argv) for argv, _ in LEAN_COMMANDS])
def test_command_loads_only_its_layers(argv, unused):
    loaded = _loaded_after("import sys\nfrom gfekit.cli import command_dispatch\n"
                           "assert command_dispatch(sys.argv[1:]) == 0", *argv)
    assert not loaded & unused


def test_indent1_json_matches_the_json_module():
    samples = [{}, [], (), 0, -7, 2.5, True, None, "é\n\"]",
               {"b": [1, 2, [3, []]], "a": {"z": (True, None, "x"), "y": {}},
                "c": [{"k": 1.0}, 3, "s"], "d": [False, 1]},
               # Lists of one shape, which go through one template per list.
               [{"citation": "(2,3,n), n in {7,8}", "signature": [3, 8, 25]},
                {"signature": (3, 8, 55), "citation": "x"}],
               [{"k{}": 1, "z": [1, 2]}, {"z": [3, 4], "k{}": -2}],
               [{"a": {"b": [1]}}, {"a": {"b": [2, 3]}}], [{"a": 1.5}, {"a": 2}],
               [{"a": []}, {"a": [1]}], [{}, {}], [[], []], [[1, 2], (3, 4), [-5, 10**20]],
               [[1, True], [2, 3]], [[1, 2], [3]], ["x", "é{}"], [1, True], [True, False]]
    # One container met at three depths, as the ledger meets its exclusions.
    shared = [{"c": "x", "s": [1, 2]}, {"c": "y", "s": [3, 4]}, "z"]
    samples.append({"b": {"d": shared, "e": [shared]}, "a": shared})
    for obj in samples:
        assert cli._indent1_json(obj) == json.dumps(obj, indent=1, sort_keys=True)


_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=25)
@given(st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=4),
    st.lists(st.fixed_dictionaries({"{c}": inner, "s": st.lists(st.integers(), max_size=2)}),
             max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=8))
def test_indent1_json_matches_the_json_module_on_any_document(obj):
    assert cli._indent1_json(obj) == json.dumps(obj, indent=1, sort_keys=True)
