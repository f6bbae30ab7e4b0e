"""One benchmark operation: run a ``bvq`` verb in-process through
``bvq.cli.main`` and check its output afterwards, outside the timed
region."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Result:
    rc: int | None          # None when the verb raised
    out: str                # captured standard output
    seconds: float
    error: str = ""


def execute(op: dict) -> Result:
    """Run ``bvq <argv>`` with standard input/output captured, as the
    command a user types would run it."""
    from bvq import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.get("stdin", ""))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op["argv"]))
        error = err.getvalue()
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin = saved_stdin
    return Result(rc, out.getvalue(), seconds, error)


def output_digest(out: str) -> str:
    """Digest of an operation's output with the ``stats`` objects
    removed, so runs compare by verdicts and certificates only."""
    try:
        payload = json.loads(out)
    except ValueError:
        text = out
    else:
        if isinstance(payload, dict):
            payload.pop("stats", None)
        text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _check_reach(op: dict, rc: int, payload: dict) -> str | None:
    from bvq.ccsr import lts_reachable, parse_actions, parse_process

    if payload.get("exhausted"):
        return "budget exhausted"
    want = op["expect"]
    got = "proved" if rc == 0 else "not_found"
    if payload.get("status") != got:
        return f"exit code {rc} disagrees with status {payload.get('status')}"
    if got == want:
        return None
    if want == "not_found":
        # the oracle only looked a few steps deep; confirm deeper, as
        # acceptance criterion 6 does
        _, e, f, alpha, *_ = op["argv"]
        depth = max(6, 2 * len(payload["standardDerivation"]["steps"]) + 2)
        if lts_reachable(parse_process(e), parse_process(f),
                         parse_actions(alpha), depth) is not None:
            return None
    return f"expected {want}, got {got}"


def _check_prove(op: dict, rc: int, payload: dict) -> str | None:
    from bvq.calculus import check_derivation, derivation_from_dict
    from bvq.structures import canonical_key, parse_structure

    if payload.get("exhausted"):
        return "budget exhausted"
    got = "proved" if rc == 0 else "not_found"
    if got != op["expect"]:
        return f"expected {op['expect']}, got {got}"
    if got == "proved":
        d = derivation_from_dict(payload["derivation"])
        if not check_derivation(d) or canonical_key(d.premise) != "1":
            return "proof does not check"
        if canonical_key(d.conclusion) != canonical_key(parse_structure(op["argv"][1])):
            return "proof of another goal"
    return None


def _check_standardize(op: dict, rc: int, payload: dict) -> str | None:
    from bvq.calculus import check_derivation, derivation_from_dict
    from bvq.standardize import is_standard
    from bvq.structures import canonical_key

    if rc != 0:
        return f"exit code {rc}"
    given = derivation_from_dict(json.loads(op["stdin"]))
    after = derivation_from_dict(payload["after"])
    if not check_derivation(after):
        return "standardized derivation does not check"
    if not is_standard(after):
        return "result is not standard"
    if canonical_key(after.premise) != canonical_key(given.premise) or \
            canonical_key(after.conclusion) != canonical_key(given.conclusion):
        return "endpoints changed"
    return None


CHECKS = {
    "reach_oracle": _check_reach,
    "prove_closure": _check_prove,
    "standardize_battery": _check_standardize,
}


def check(workload: str, op: dict, res: Result) -> str | None:
    """Why the operation's result is wrong, or None when it is right."""
    if res.rc is None:
        return res.error
    if res.rc not in (0, 1):
        return f"exit code {res.rc}: {res.error.strip()}"
    try:
        payload = json.loads(res.out)
    except ValueError:
        return "output is not JSON"
    try:
        return CHECKS[workload](op, res.rc, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable certificate: {type(exc).__name__}: {exc}"
