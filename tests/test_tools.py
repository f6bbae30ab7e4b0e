import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIFF = os.path.join(ROOT, "tools", "corpus_diff.py")
BENCH_PAIRS = os.path.join(ROOT, "tools", "bench_pairs.py")


def _corpus_diff(against: str, *workloads: str) -> subprocess.CompletedProcess:
    """Every 100th op of ``workloads`` (default ``prove_closure``), each
    passed with a ``--workload`` flag of its own."""
    flags = [f for w in workloads or ("prove_closure",) for f in ("--workload", w)]
    return subprocess.run(
        [sys.executable, CORPUS_DIFF, "--against", against, *flags,
         "--every", "100"],
        capture_output=True, text=True, timeout=300)


def _copy_src(tmp_path) -> None:
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_corpus_diff_of_a_tree_against_itself_reports_no_difference():
    out = _corpus_diff(ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2] == "6 ops compared, 0 differ"
    assert lines[-1].startswith("total prove_closure: ")


def test_corpus_diff_runs_every_workload_of_repeated_flags():
    # 6 prove_closure ops, 16 reach_oracle ops, 1 of the merge group and
    # 3 of the lts group: each flag adds its workload to the ones named
    # before it
    out = _corpus_diff(ROOT, "prove_closure", "reach_oracle")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-5] == "26 ops compared, 0 differ"
    assert [ln.split(":")[0] for ln in lines[-4:]] == [
        "total prove_closure", "total reach_oracle", "total merges", "total lts"]


def test_every_judgment_of_the_merge_group_is_proved_by_a_merge(capsys):
    from bvq.cli import main

    name, group = _tool(CORPUS_DIFF).merge_group()
    assert name == "merges" and len(group) == 24
    assert len({tuple(op["argv"]) for op in group}) == 24
    for op in group:
        assert main(op["argv"]) == 0, op["argv"]
        witness = json.loads(capsys.readouterr().out)["ltsWitness"]
        assert '"res_merge"' in json.dumps(witness), op["argv"]


def test_corpus_diff_compares_merge_witnesses_no_corpus_op_holds(tmp_path):
    # the copy prints the rule res_merge under another name: of every
    # 100th reach corpus op, merge judgment and lts op, only the merge
    # differs (lts op 200 is a merge judgment the oracle does not reach)
    _copy_src(tmp_path)
    ccsr = tmp_path / "src" / "bvq" / "ccsr.py"
    text = ccsr.read_text()
    line = 'RULE_RES_MERGE = "res_merge"'
    assert text.count(line) == 1
    ccsr.write_text(text.replace(line, 'RULE_RES_MERGE = "res_merge_"'))
    out = _corpus_diff(str(tmp_path), "reach_oracle")
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("merges 0: digest ")
    assert lines[0].endswith("; output fields ltsWitness")
    assert lines[1:-3] == ["field ltsWitness differs in 1 ops",
                           "20 ops compared, 1 differ"]


def test_corpus_diff_names_the_ops_whose_certificate_changed(tmp_path):
    # list each interaction's consumed ids in reverse: every proof's
    # certificate changes, no verdict or search count does
    _copy_src(tmp_path)
    calculus = tmp_path / "src" / "bvq" / "calculus.py"
    text = calculus.read_text()
    line = '"consumedIds": sorted(st.instance.consumed_ids),'
    assert line in text
    calculus.write_text(text.replace(
        line, '"consumedIds": sorted(st.instance.consumed_ids, reverse=True),'))
    out = _corpus_diff(str(tmp_path))
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    named = {ln.split(":")[0] for ln in lines if ln.startswith("prove_closure ")}
    # ops 301 and 401 are not proved, so they print no certificate
    assert named == {"prove_closure 0", "prove_closure 100", "prove_closure 200",
                     "prove_closure 502"}
    assert all("digest" in ln and "steps" not in ln for ln in lines
               if ln.startswith("prove_closure "))
    assert lines[-2] == "6 ops compared, 4 differ"


def test_corpus_diff_runs_both_random_proof_groups_with_standardize(tmp_path):
    # every 100th of the 600 battery ops, the 200 criterion-5 proofs and
    # the 1,000 sweep proofs; a renamed output field changes all 18
    cli = tmp_path / "src" / "bvq" / "cli.py"
    _copy_src(tmp_path)
    text = cli.read_text()
    assert text.count('"afterSeqNumbers"') == 1
    cli.write_text(text.replace('"afterSeqNumbers"', '"seqNumbersAfter"'))
    out = _corpus_diff(str(tmp_path), "standardize_battery")
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    groups = [ln.split()[0] for ln in lines[:-6]]
    assert {g: groups.count(g) for g in set(groups)} == {
        "standardize_battery": 6, "criterion_5": 2, "random_proofs": 10}
    assert lines[-6:-3] == ["field afterSeqNumbers differs in 18 ops",
                            "field seqNumbersAfter differs in 18 ops",
                            "18 ops compared, 18 differ"]
    # standardize runs no search: every total is 0
    assert lines[-3:] == [f"total {g}: steps 0 (here) vs 0; visited 0 (here) vs 0"
                          for g in ("standardize_battery", "criterion_5",
                                    "random_proofs")]


def test_corpus_diff_ends_with_each_workloads_search_totals(tmp_path):
    # the copy counts one step more in every search it runs to its end
    # (not in a refuted one): each workload's steps total there exceeds
    # the total here by the number of ops that differ
    _copy_src(tmp_path)
    search = tmp_path / "src" / "bvq" / "search.py"
    text = search.read_text()
    line = "return SearchOutcome(d, stopped_by, steps, visited, pruned)"
    assert text.count(line) == 1
    search.write_text(text.replace(
        line, "return SearchOutcome(d, stopped_by, steps + 1, visited, pruned)"))
    out = _corpus_diff(str(tmp_path), "prove_closure", "reach_oracle")
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import corpus
        import ops
    finally:
        sys.path.pop(0)
    groups = {w: corpus.load(w)["ops"] for w in ("prove_closure", "reach_oracle")}
    groups["merges"] = _tool(CORPUS_DIFF).merge_group()[1]
    # the lts group runs no search
    assert lines[-1] == "total lts: steps 0 (here) vs 0; visited 0 (here) vs 0"
    for (w, group), total in zip(groups.items(), lines[-4:-1]):
        stats = [json.loads(ops.execute(op).out)["stats"] for op in group[::100]]
        steps = sum(s["steps"] for s in stats)
        visited = sum(s["visited"] for s in stats)
        moved = sum(ln.startswith(f"{w} ") for ln in lines)
        assert moved > 0
        assert total == (f"total {w}: steps {steps} (here) vs {steps + moved}; "
                         f"visited {visited} (here) vs {visited}")


def test_lts_group_prints_the_oracles_steps_witnesses_and_translations(capsys):
    from bvq.ccsr import check_lts_derivation, lts_from_dict
    from bvq.cli import main

    name, group = _tool(CORPUS_DIFF).lts_group()
    assert name == "lts" and len(group) == 268
    verbs = [(op["argv"][0], len(op["argv"]), op["argv"][-1] == "--milner")
             for op in group]
    assert verbs == ([("lts", 3, False), ("lts", 4, True)] * 40
                     + [("compile", 3, False)] * 40
                     + [("lts", 5, False), ("lts", 6, True)] * 74)
    rules = set()
    for op in group:
        rc = main(op["argv"])
        payload = json.loads(capsys.readouterr().out)
        if op["argv"][0] == "lts" and len(op["argv"]) > 4:
            assert rc in (0, 1) and payload["reachable"] == (rc == 0)
            if rc == 0:
                rules |= set(re.findall(r'"rule": "(\w+)"',
                                        json.dumps(payload["witness"])))
        else:
            assert rc == 0, op["argv"]
    # without --milner, every drawn pair is reachable
    assert all(main(op["argv"]) == 0 for op in group[120:200:2])
    capsys.readouterr()
    # the last ten judgments are reached, in either mode, by a checking
    # witness that frames a communication beside other components
    for op in group[248:]:
        assert main(op["argv"]) == 0, op["argv"]
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert check_lts_derivation(lts_from_dict(witness)), op["argv"]
        assert re.search(r'"rule": "com"}\], "judgment": {[^}]*}, "rule": "cntxp"',
                         json.dumps(witness, sort_keys=True)), op["argv"]
    assert rules == {"act", "com", "cntxp", "res_pass", "res_merge", "refl",
                     "tran"}


def test_corpus_diff_compares_the_oracles_printed_steps(tmp_path):
    # the copy names the successors of ``bvq lts E`` otherwise: of every
    # 100th reach corpus op, merge judgment and lts op, only lts op 0
    # differs
    _copy_src(tmp_path)
    cli = tmp_path / "src" / "bvq" / "cli.py"
    text = cli.read_text()
    line = 'payload = [{"to": print_process(t), "label": print_actions(l)}'
    assert text.count(line) == 1
    cli.write_text(text.replace(line, line.replace('"to"', '"target"')))
    out = _corpus_diff(str(tmp_path), "reach_oracle")
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("lts 0: digest ")
    assert lines[1:-3] == ["field steps differs in 1 ops",
                           "20 ops compared, 1 differ"]


def _tool(path):
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(os.path.basename(path))[0], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _result_line(failed, **metrics):
    return json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "u"}
                                   for k, v in metrics.items()}})


def test_bench_pairs_summary_counts_wins_and_reads_each_direction():
    tool = _tool(BENCH_PAIRS)
    # ten pairs: the change is faster in nine, its memory 40 % higher in all
    lines = [(_result_line(0, **{"w/ops_per_s": 20 + i % 3, "w/peak_rss_mb": 30.0,
                                 "w/trace.ops": 7}),
              _result_line(1 if i == 0 else 0,
                           **{"w/ops_per_s": 20 + i % 3 + (-1 if i == 4 else 5),
                              "w/peak_rss_mb": 42.0, "w/trace.ops": 7}))
             for i in range(10)]
    pairs = [(json.loads(a), json.loads(b)) for a, b in lines]
    out = tool.summarize(pairs, tool.metric_specs())
    rows = {ln.split()[0]: ln.split() for ln in out[1:-1]}
    # parent 20, 21, 22 cycled: its interquartile range 1.75 is below
    # the gap between the medians, 4.5
    assert rows["w/ops_per_s"][1:] == ["20/21/21.75", "25/25.5/26.75", "9/10",
                                       "gain"]
    assert rows["w/peak_rss_mb"][1:] == ["30/30/30", "42/42/42", "0/10", "worse"]
    assert rows["w/trace.ops"][1:] == ["7/7/7", "7/7/7", "0/10"]
    assert out[-1] == "failed ops: parent 0, change 1"
