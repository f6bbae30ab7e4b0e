import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIFF = os.path.join(ROOT, "tools", "corpus_diff.py")


def _corpus_diff(against: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, CORPUS_DIFF, "--against", against,
         "--workload", "prove_closure", "--every", "100"],
        capture_output=True, text=True, timeout=300)


def test_corpus_diff_of_a_tree_against_itself_reports_no_difference():
    out = _corpus_diff(ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "6 ops compared, 0 differ"


def test_corpus_diff_names_the_ops_whose_certificate_changed(tmp_path):
    # list each interaction's consumed ids in reverse: every proof's
    # certificate changes, no verdict or search count does
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
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
