"""Command-line front end.

Exit codes: 0 for success (proved / congruent / valid), 1 for a negative
result (not found / not congruent / invalid), 2 for usage or parse
errors and for input nested too deeply to process.  Output is deterministic for fixed inputs and flags; timing
statistics appear only under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import calculus
from .standardize import seq_numbers, standardize as standardize_derivation
from .bridge import classify_structure
from .calculus import (
    check_derivation_detail, derivation_from_dict, derivation_to_dict,
    format_derivation,
)
from .ccsr import (
    check_lts_detail, lts_from_dict, lts_reachable, lts_steps, lts_to_dict,
    parse_actions, parse_process, print_actions, print_process,
)
from .search import (
    DEFAULT_BUDGET, SearchBudget, derive, prove, reach, reduce,
    verdict_to_dict,
)
from .structures import (
    canonicalize, congruent, parse_structure, print_structure, size,
)

PROG = "bvq"


def _budget(args) -> SearchBudget:
    return SearchBudget(max_steps=max(4 * args.budget, 1),
                        max_visited=args.budget)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _read_json_arg(source: str) -> dict:
    if source == "-":
        return json.load(sys.stdin)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_canon(args) -> int:
    out = print_structure(canonicalize(parse_structure(args.structure)))
    _emit(args, {"canonical": out}, out)
    return 0


def cmd_congruent(args) -> int:
    ok = congruent(parse_structure(args.left), parse_structure(args.right))
    _emit(args, {"congruent": ok}, "true" if ok else "false")
    return 0 if ok else 1


def cmd_size(args) -> int:
    n = size(parse_structure(args.structure))
    _emit(args, {"size": n}, str(n))
    return 0


def _not_found(args, payload: dict, outcome) -> int:
    """Emit a negative search result; ``outcome`` says why it stopped."""
    _emit(args, payload,
          "not found (budget exhausted)" if outcome.exhausted
          else "not found (state space closed)")
    return 1


def _search_result(args, outcome) -> int:
    if outcome.found:
        payload = {"status": "proved",
                   "derivation": derivation_to_dict(outcome.derivation),
                   "stats": {"steps": outcome.steps,
                             "visited": outcome.visited}}
        _emit(args, payload, format_derivation(outcome.derivation))
        return 0
    payload = {"status": "not_found", "exhausted": outcome.exhausted,
               "stats": {"steps": outcome.steps, "visited": outcome.visited}}
    return _not_found(args, payload, outcome)


def cmd_prove(args) -> int:
    goal = parse_structure(args.goal)
    return _search_result(args, prove(goal, args.fragment, _budget(args)))


def cmd_derive(args) -> int:
    conclusion = parse_structure(args.conclusion)
    premise = parse_structure(args.premise)
    return _search_result(
        args, derive(conclusion, premise, args.fragment, _budget(args)))


def cmd_standardize(args) -> int:
    d = derivation_from_dict(_read_json_arg(args.derivation))
    before = derivation_to_dict(d)
    before_numbers = [[i, n] for i, n in seq_numbers(d)]
    out = standardize_derivation(d)
    payload = {
        "before": before,
        "beforeSeqNumbers": before_numbers,
        "after": derivation_to_dict(out),
        "afterSeqNumbers": [[i, n] for i, n in seq_numbers(out)],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_reduce(args) -> int:
    d = derivation_from_dict(_read_json_arg(args.derivation))
    out = reduce(d)
    payload = derivation_to_dict(out)
    _emit(args, payload, format_derivation(out))
    return 0


def cmd_classify(args) -> int:
    kinds = classify_structure(parse_structure(args.structure))
    payload = kinds.as_dict()
    text = " ".join(f"{k}={str(v).lower()}" for k, v in sorted(payload.items()))
    _emit(args, payload, text)
    return 0


def cmd_compile(args) -> int:
    s = canonicalize(parse_process(args.process))
    out = print_structure(s)
    _emit(args, {"structure": out}, out)
    return 0


def cmd_check(args) -> int:
    data = _read_json_arg(args.derivation)
    if args.lts:
        node = lts_from_dict(data)
        ok, msg = check_lts_detail(node)
    else:
        try:
            d = derivation_from_dict(data)
        except calculus.DerivationError as e:
            ok, msg = False, str(e)
        else:
            ok, msg = check_derivation_detail(d)
    _emit(args, {"valid": ok, "detail": msg}, msg if not ok else "valid")
    return 0 if ok else 1


def cmd_reach(args) -> int:
    e = parse_process(args.process)
    f = parse_process(args.target)
    alpha = parse_actions(args.actions)
    verdict = reach(e, f, alpha, _budget(args))
    payload = verdict_to_dict(verdict, args.timings)
    if verdict.proved:
        text = "\n".join([
            "proved",
            "",
            "standard derivation:",
            format_derivation(verdict.standard),
            "",
            "witness judgment: "
            f"{print_process(verdict.witness.source)} -> "
            f"{print_process(verdict.witness.target)} "
            f"with {print_actions(verdict.witness.label)}",
        ])
        _emit(args, payload, text)
        return 0
    return _not_found(args, payload, verdict)


def cmd_lts(args) -> int:
    e = parse_process(args.process)
    if args.target is None:
        steps = lts_steps(e, milner_mode=args.milner)
        payload = [{"to": print_process(t), "label": print_actions(l)}
                   for t, l, _ in steps]
        text = "\n".join(f"{print_actions(l):>8}  {print_process(t)}"
                         for t, l, _ in steps)
        _emit(args, {"steps": payload}, text)
        return 0
    if args.actions is None:
        raise ValueError("lts reachability needs both a target and actions")
    f = parse_process(args.target)
    alpha = parse_actions(args.actions)
    witness = lts_reachable(e, f, alpha, args.depth, milner_mode=args.milner)
    if witness is None:
        _emit(args, {"reachable": False}, "unreachable")
        return 1
    _emit(args, {"reachable": True, "witness": lts_to_dict(witness)},
          "reachable")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    ok, report = run_selftest(seed=args.seed, processes=args.processes,
                              depth=args.depth, proofs=args.proofs)
    print(report)
    return 0 if ok else 1


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG,
        description="Deep-inference proof search and process reachability.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, budget=False, fragment=False):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        if budget:
            p.add_argument("--budget", type=int,
                           default=DEFAULT_BUDGET.max_visited,
                           help="visited-state budget")
        if fragment:
            p.add_argument("--fragment", choices=("down", "standard"),
                           default="down")

    p = sub.add_parser("canon", help="canonical form of a structure")
    p.add_argument("structure")
    common(p)
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("congruent", help="decide congruence of two structures")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=cmd_congruent)

    p = sub.add_parser("size", help="size of a structure")
    p.add_argument("structure")
    common(p)
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("prove", help="search a cut-free proof")
    p.add_argument("goal")
    common(p, budget=True, fragment=True)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("derive", help="search a derivation between structures")
    p.add_argument("conclusion")
    p.add_argument("premise")
    common(p, budget=True, fragment=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("standardize",
                       help="standardize a derivation (JSON file or '-')")
    p.add_argument("derivation")
    common(p)
    p.set_defaults(fn=cmd_standardize)

    p = sub.add_parser("reduce", help="reduce a standard derivation")
    p.add_argument("derivation")
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("classify", help="structure classifier flags")
    p.add_argument("structure")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("compile", help="translate a process to a structure")
    p.add_argument("process")
    common(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="validate a derivation (JSON file or '-')")
    p.add_argument("derivation")
    p.add_argument("--lts", action="store_true",
                   help="validate a transition-system derivation instead")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reach", help="decide reachability by proof search")
    p.add_argument("process")
    p.add_argument("target")
    p.add_argument("actions")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed time, the stop reason and the "
                   "count of pruned states in the JSON stats")
    common(p, budget=True)
    p.set_defaults(fn=cmd_reach)

    p = sub.add_parser("lts", help="transition steps or oracle reachability")
    p.add_argument("process")
    p.add_argument("target", nargs="?")
    p.add_argument("actions", nargs="?")
    p.add_argument("--depth", type=_count, default=8)
    p.add_argument("--milner", action="store_true",
                   help="restrict restriction to its Milner reading")
    common(p)
    p.set_defaults(fn=cmd_lts)

    p = sub.add_parser("selftest", help="run the randomized self checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--processes", type=_count, default=40)
    p.add_argument("--depth", type=_count, default=5)
    p.add_argument("--proofs", type=_count, default=50)
    common(p)
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"{PROG}: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{PROG}: input nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
