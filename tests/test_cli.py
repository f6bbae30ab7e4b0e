import io
import json

import pytest

from bvq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "[[~a;~b]; fo c.~c]")
    assert code == 0 and out.strip() == "[~a;~b;fo c.~c]"


def test_congruent_exit_codes(capsys):
    code, out, _ = run(capsys, "congruent", "[a;b]", "[b;a]")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "congruent", "<a;b>", "<b;a>")
    assert code == 1 and out.strip() == "false"


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "canon", "[a;")
    assert code == 2 and err


def test_prove_exit_codes(capsys):
    code, _, _ = run(capsys, "prove", "[a;~a]")
    assert code == 0
    code, out, _ = run(capsys, "prove", "[<a;b>;<~b;~a>]")
    assert code == 1 and "state space closed" in out


def test_reach_worked_example(capsys):
    code, out, _ = run(capsys, "reach", "nu a.(a.b.0|~a.0)", "nu a.(0|0)", "b")
    assert code == 0 and out.startswith("proved")


def test_reach_not_found(capsys):
    code, out, _ = run(capsys, "reach", "a.0", "0", "b")
    assert code == 1


def test_reach_has_no_via_inversion_option(capsys):
    code, out, err = run(capsys, "reach", "nu a.(a.b.0|~a.0)", "nu a.(0|0)",
                         "b", "--via-inversion")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --via-inversion" in err


def test_milner_contrast(capsys):
    code, _, _ = run(capsys, "lts", "(nu a.a.b.0)|(nu a.~a.0)",
                     "nu a.(0|0)", "b", "--depth", "4")
    assert code == 0
    code, _, _ = run(capsys, "lts", "(nu a.a.b.0)|(nu a.~a.0)",
                     "nu a.(0|0)", "b", "--depth", "4", "--milner")
    assert code == 1


def test_emitted_derivations_revalidate(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "[<a;b>;<~a;~b>]", "--json")
    payload = json.loads(out)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload["derivation"]))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out.strip() == "valid"


def test_reach_json_pipes_into_check(capsys, tmp_path):
    code, out, _ = run(capsys, "reach", "nu a.(a.b.0|~a.0)", "nu a.(0|0)", "b",
                       "--json")
    v = json.loads(out)
    assert v["status"] == "proved"
    assert "elapsed_ms" not in v["stats"]
    for key in ("proof", "standardDerivation"):
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(v[key]))
        code, out, _ = run(capsys, "check", str(p))
        assert code == 0, key
    w = tmp_path / "witness.json"
    w.write_text(json.dumps(v["ltsWitness"]))
    code, out, _ = run(capsys, "check", str(w), "--lts")
    assert code == 0


def test_reach_reports_why_it_stopped_only_under_timings(capsys):
    argv = ("reach", "a.a.0", "0", "a", "--json")
    code, out, _ = run(capsys, *argv)
    stats = json.loads(out)["stats"]
    assert code == 1 and stats == {"steps": 0, "visited": 1}
    code, out, _ = run(capsys, *argv, "--timings")
    stats = json.loads(out)["stats"]
    assert code == 1 and stats["stoppedBy"] == "refuted"
    code, out, _ = run(capsys, *argv[:-1])
    assert code == 1 and out == "not found (state space closed)\n"
    code, out, _ = run(capsys, "reach", "a.0", "0", "a", "--json", "--timings")
    assert code == 0 and json.loads(out)["stats"]["stoppedBy"] == "goal"
    # so is the count of states not expanded because they cannot pair
    argv = ("reach", "x.y.0", "0", "x;y", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["stats"] == {"steps": 13, "visited": 14}
    code, out, _ = run(capsys, *argv, "--timings")
    assert code == 0 and json.loads(out)["stats"]["pruned"] == 6


def test_check_rejects_tampered_derivation(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "[a;~a]", "--json")
    payload = json.loads(out)["derivation"]
    payload["premise"] = "[a;~a]"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 1


def test_byte_identical_output(capsys):
    runs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "reach", "nu a.(a.b.0|~a.0)",
                           "nu a.(0|0)", "b", "--json")
        runs.add(out)
    assert len(runs) == 1


def test_classify_and_compile(capsys):
    code, out, _ = run(capsys, "classify", "[a;~b]")
    assert code == 0
    assert out == ("isEnvironment=false isProcess=true isSimple=true "
                   "isTensorFree=true\n")
    code, out, _ = run(capsys, "classify", "[a;~b]", "--json")
    assert code == 0 and out == (
        '{\n  "isEnvironment": false,\n  "isProcess": true,\n'
        '  "isSimple": true,\n  "isTensorFree": true\n}\n')
    code, out, _ = run(capsys, "compile", "nu a.(a.b.0|~a.0)")
    assert code == 0 and out.strip() == "fo a.[~a;<a;b>]"


def test_standardize_verb(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "[a;fo b.<~a;[b;~b]>]", "--json")
    payload = json.loads(out)["derivation"]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "standardize", str(p))
    assert code == 0
    result = json.loads(out)
    assert result["afterSeqNumbers"] == [] or all(
        n == 0 for _, n in result["afterSeqNumbers"])


def test_budget_flag(capsys):
    code, out, _ = run(capsys, "prove", "[<a;b>;<~b;~a>]", "--json",
                       "--budget", "3")
    assert code == 1 and json.loads(out)["exhausted"] is True


def test_zero_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "prove", "[a;~a]", "--budget", "0")
    assert code == 2 and out == ""
    assert err == "bvq: budget bounds must be positive\n"


def test_lts_target_without_actions_is_usage_error(capsys):
    code, out, err = run(capsys, "lts", "a.0", "0")
    assert code == 2 and out == ""
    assert err == "bvq: lts reachability needs both a target and actions\n"


def test_selftest_verb(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--processes", "4",
                       "--proofs", "4", "--depth", "4")
    assert code == 0 and "PASS" in out


def test_deep_structure_is_usage_error(capsys):
    deep = "<a;" * 1200 + "b" + ">" * 1200
    code, out, err = run(capsys, "canon", deep)
    assert code == 2 and not out
    assert err.strip() == "bvq: input nests too deeply"


def test_deep_process_is_usage_error(capsys):
    code, out, err = run(capsys, "reach", "a." * 1500 + "0", "0", "a")
    assert code == 2 and not out
    assert err.strip() == "bvq: input nests too deeply"


@pytest.mark.parametrize("argv, message", [
    # fo is a word of the structure grammar: a process prefix fo compiled
    # to an atom fo that no structure parser reads back
    (("reach", "fo.0", "0", "fo", "--json"), "'fo' is reserved"),
    (("compile", "fo.0"), "'fo' is reserved"),
    (("compile", "~fo.0"), "'fo' is reserved"),
    # every label is tau or [~]name, and no name is a reserved word
    (("reach", "a.0", "0", "~"), "expected a name"),
    (("reach", "a.0", "0", "a b"), "expected ';'"),
    (("reach", "a.0", "0", "nu"), "'nu' is reserved"),
    (("reach", "a.0", "0", "~tau"), "'tau' is reserved"),
    (("lts", "a.0", "0", "A"), "expected a name"),
    (("reach", "a.0", "0", "a;"), "empty action"),
])
def test_reserved_words_and_malformed_labels_are_usage_errors(
        capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("bvq: ") and message in err


def test_labels_may_be_spaced_around_their_separators(capsys):
    code, out, _ = run(capsys, "reach", "a.b.0", "0", " a ; tau;b ")
    assert code == 0 and out.startswith("proved")


GOOD_STEP = {"rule": "ai_down", "path": [], "redexBefore": "[a;~a]",
             "redexAfter": "1"}


@pytest.mark.parametrize("verb,data,field", [
    ("check", {}, "conclusion"),
    ("standardize", {}, "conclusion"),
    ("check", {"conclusion": "[a;~a]"}, "steps"),
    ("standardize", {"conclusion": "[a;~a]"}, "steps"),
    ("check", {"conclusion": "[a;~a]", "steps": "x"}, "steps"),
    ("standardize", {"conclusion": "[a;~a]", "steps": "x"}, "steps"),
    ("check", {"conclusion": "[a;~a]", "steps": [
        {k: v for k, v in GOOD_STEP.items() if k != "path"}]}, "path"),
    ("standardize", {"conclusion": "[a;~a]", "steps": [
        {k: v for k, v in GOOD_STEP.items() if k != "path"}]}, "path"),
    ("check", {"conclusion": "[a;~a]", "steps": [
        dict(GOOD_STEP, path=[["par"]])]}, "path"),
    ("check", {"conclusion": "[a;~a]", "steps": [
        dict(GOOD_STEP, consumedIds="01")]}, "consumedIds"),
    ("check", {"conclusion": "[a;~a]", "steps": [GOOD_STEP], "premise": 1},
     "premise"),
    ("check", [GOOD_STEP], "derivation"),
    ("check --lts", {}, "judgment"),
    ("check --lts", {"rule": "act", "judgment": {"from": "a.0", "to": "0"}},
     "label"),
    ("check --lts", {"rule": "act", "children": {},
                     "judgment": {"from": "a.0", "to": "0", "label": "a"}},
     "children"),
])
def test_malformed_json_is_usage_error(capsys, monkeypatch, verb, data, field):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    code, out, err = run(capsys, *verb.split(), "-")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and err.startswith("bvq: ")
    assert field in err


def test_well_formed_json_still_checks(capsys, monkeypatch):
    data = {"conclusion": "[a;~a]", "steps": [GOOD_STEP], "premise": "1"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run(capsys, "check", "-")[:2] == (0, "valid\n")
    data["steps"][0] = dict(GOOD_STEP, consumedIds=[0, 7])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    code, out, _ = run(capsys, "check", "-")
    assert code == 1 and "no matching ai_down instance" in out


@pytest.mark.parametrize("rule", ["ai_up", "q_up", "u_up", "cut"])
def test_check_names_a_rule_outside_the_down_fragment(capsys, monkeypatch, rule):
    data = {"conclusion": "[a;~a]", "steps": [dict(GOOD_STEP, rule=rule)]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    code, out, _ = run(capsys, "check", "-")
    assert (code, out) == (1, f"step 0: unknown rule '{rule}'\n")
    code, out, _ = run(capsys, "check", "-", "--system", "full")
    assert code == 2 and not out


@pytest.mark.parametrize("argv", [
    ("lts", "a.0", "0", "a", "--depth", "-1"),
    ("selftest", "--processes", "-1"),
    ("selftest", "--proofs", "-1"),
    ("selftest", "--depth", "-1"),
    ("selftest", "--proofs", "x"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "non-negative integer" in err


def test_zero_depth_is_a_count(capsys):
    code, out, _ = run(capsys, "lts", "a.0", "0", "a", "--depth", "0")
    assert code == 1 and out.strip() == "unreachable"
