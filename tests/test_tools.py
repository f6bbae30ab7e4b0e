import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIFF = os.path.join(ROOT, "tools", "corpus_diff.py")


def _corpus_diff(against: str, workload: str = "prove_closure"
                 ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, CORPUS_DIFF, "--against", against,
         "--workload", workload, "--every", "100"],
        capture_output=True, text=True, timeout=300)


def _copy_src(tmp_path) -> None:
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_corpus_diff_of_a_tree_against_itself_reports_no_difference():
    out = _corpus_diff(ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "6 ops compared, 0 differ"


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
    assert lines[-1] == "6 ops compared, 4 differ"


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
    groups = [ln.split()[0] for ln in lines[:-3]]
    assert {g: groups.count(g) for g in set(groups)} == {
        "standardize_battery": 6, "criterion_5": 2, "random_proofs": 10}
    assert lines[-3:] == ["field afterSeqNumbers differs in 18 ops",
                          "field seqNumbersAfter differs in 18 ops",
                          "18 ops compared, 18 differ"]
