"""Command-line front end.

Exit codes are part of the contract so shell pipelines can branch:
0 success (dynamics: converged), 1 parse or precondition failure,
2 search-space cap exceeded, 3 dynamics cycle, 4 dynamics step cutoff.
All output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from .analysis import (
    LEMMA_CLAIMS,
    anarchy_vs_monarchy,
    comparison_csv_rows,
    profile_text,
    verdict_csv_rows,
    verify_lemma,
    windfall_csv_rows,
    windfall_experiment,
)
from .dual import Dual, format_weight
from .equilibrium import (
    EquilibriumReport,
    SizeCapError,
    best_response_dynamics,
    brute_force_social_optimum,
    enumerate_pne,
)
from .netgame import NetGameConfig, UtilitySpec, dump_dot, load_config, load_profile
from .social_matrix import build_archetype, load_matrix, matrix_payload

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_CAP = 2
_EXIT_CYCLE = 3
_EXIT_CUTOFF = 4

_DEFAULT_NS = (2, 3, 4, 5, 6)
_DEFAULT_ALPHAS = ("1/4", "1/2", "1", "3/2", "2", "3")


def _cost_json(value: Dual | None):
    if value is None:
        return None
    return {"exact": format_weight(value), "decimal": float(value.std)}


def _profile_json(profile):
    return [sorted(targets) for targets in profile]


def _report_json(report: EquilibriumReport) -> dict:
    return {
        "n": report.n,
        "method": report.method,
        "pne_count": len(report.pne),
        "pne": [
            {"profile": _profile_json(p), "social_cost": _cost_json(c)}
            for p, c in report.pne
        ],
        "optimum": {
            "profile": _profile_json(report.optimum_profile),
            "social_cost": _cost_json(report.optimum_cost),
        },
        "worst_pne_cost": _cost_json(report.worst_pne_cost),
        "best_pne_cost": _cost_json(report.best_pne_cost),
        "topologies": [
            {
                "edges": [list(e) for e in t.edges],
                "multiplicity": t.multiplicity,
                "social_cost": _cost_json(t.social_cost),
            }
            for t in report.topologies
        ],
    }


def _emit(text: str, path: str | None):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload, path: str | None):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _emit_csv(header, rows, path: str | None):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), path)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_game(path: str) -> NetGameConfig:
    """Read a game config, refusing utilities whose values are not exact
    rationals: the reports print exact tokens, which those values lack."""
    config = load_config(_read(path))
    if not config.g.is_exact:
        raise ValueError(
            "the command line prints exact values only, so it does not "
            "support sqrt or fractional power utilities yet"
        )
    return config


def _parse_alpha(text: str) -> Fraction:
    return Fraction(text)


def _cmd_enumerate(args) -> int:
    config = _load_game(args.game)
    matrix = load_matrix(_read(args.matrix))
    report = enumerate_pne(config, matrix, n_cap=args.cap, method=args.method)
    _emit_json(_report_json(report), args.out)
    return _EXIT_OK


def _cmd_optimum(args) -> int:
    config = _load_game(args.game)
    result = brute_force_social_optimum(config)
    payload = {
        "n": config.n,
        "alpha": str(config.alpha),
        "R": config.R,
        "edges": sorted(list(e) for e in result.graph.edges),
        "profile": _profile_json(result.profile),
        "social_cost": _cost_json(result.cost),
    }
    _emit_json(payload, args.out)
    if args.dot:
        _emit(dump_dot(result.profile), args.dot)
    return _EXIT_OK


def _parse_schedule(text: str):
    if text == "round-robin":
        return "round-robin"
    return tuple(int(part) for part in text.split(","))


def _cmd_dynamics(args) -> int:
    config = _load_game(args.game)
    matrix = load_matrix(_read(args.matrix))
    initial = None
    if args.start != "empty":
        initial = load_profile(_read(args.start))
    trace = best_response_dynamics(
        config,
        matrix,
        initial=initial,
        schedule=_parse_schedule(args.schedule),
        max_steps=args.max_steps,
    )
    payload = {
        "outcome": trace.outcome,
        "cycle_index": trace.cycle_index,
        "final": _profile_json(trace.final),
        "steps": [
            {
                "player": step.player,
                "old": sorted(step.old),
                "new": sorted(step.new),
                "delta": _cost_json(step.delta),
            }
            for step in trace.steps
        ],
    }
    _emit_json(payload, args.trace)
    if args.dot:
        _emit(dump_dot(trace.final), args.dot)
    return {"converged": _EXIT_OK, "cycle": _EXIT_CYCLE, "cutoff": _EXIT_CUTOFF}[
        trace.outcome
    ]


def _comparison_json(result) -> dict:
    def society(outcome):
        return {
            "equilibrium": _profile_json(outcome.equilibrium),
            "cost": _cost_json(outcome.cost),
            "closed_form": str(outcome.closed_form),
            "matches_closed_form": outcome.matches_closed_form,
            "verified": outcome.verified,
        }

    return {
        "n": result.n,
        "alpha": str(result.alpha),
        "anarchy": society(result.anarchy),
        "monarchy": society(result.monarchy),
        "star": {
            "profile": _profile_json(result.star.profile),
            "cost": _cost_json(result.star.cost),
            "claimed_cost": str(result.star.claimed_cost),
            "is_equilibrium": result.star.is_equilibrium,
            "claim_holds": result.star.claim_holds,
        },
        "additional_equilibrium": None
        if result.additional_equilibrium is None
        else _profile_json(result.additional_equilibrium),
        "additional_note": result.additional_note,
        "optimum": {
            "profile": _profile_json(result.optimum_profile),
            "cost": _cost_json(result.optimum_cost),
            "closed_form": str(result.optimum_closed_form),
            "matches": result.optimum_matches,
        },
        "winner": result.winner,
    }


def _windfall_json(report) -> dict:
    return {
        "direction": report.direction,
        "n": report.config.n,
        "alpha": str(report.config.alpha),
        "flips": [list(flip) for flip in report.flips],
        "base_matrix": matrix_payload(report.base_matrix),
        "flipped_matrix": matrix_payload(report.flipped_matrix),
        "base": _report_json(report.base),
        "flipped": _report_json(report.flipped),
        "worst_delta": _cost_json(report.worst_delta),
        "best_delta": _cost_json(report.best_delta),
        "worst_ok": report.worst_ok,
        "best_ok": report.best_ok,
    }


def _verdict_json(verdict) -> dict:
    return {
        "claim": verdict.claim,
        "point": verdict.point,
        "precondition": verdict.precondition,
        "conclusion": verdict.conclusion,
        "ok": verdict.ok,
        "note": verdict.note,
        "counterexample": profile_text(verdict.counterexample) or None,
    }


def _parse_flips(raw_flips):
    flips = []
    for item in raw_flips:
        left, sep, right = item.partition(":")
        if not sep:
            raise ValueError(f"flip {item!r} is not of the form i:j")
        flips.append((int(left), int(right)))
    return flips


def _cmd_experiment(args) -> int:
    ns = tuple(args.n) if args.n else _DEFAULT_NS
    alphas = tuple(_parse_alpha(a) for a in (args.alpha or _DEFAULT_ALPHAS))

    if args.kind == "anarchy-monarchy":
        results = [anarchy_vs_monarchy(n, alpha) for n, alpha in product(ns, alphas)]
        if args.csv:
            header, rows = comparison_csv_rows(results)
            _emit_csv(header, rows, args.csv)
        if args.json or not args.csv:
            _emit_json([_comparison_json(r) for r in results], args.json)
        ok = all(
            r.anarchy.matches_closed_form and r.star.claim_holds and r.optimum_matches
            for r in results
        )
        return _EXIT_OK if ok else _EXIT_INPUT

    if args.kind in ("windfall", "ill-will"):
        direction = "friendship" if args.kind == "windfall" else "ill_will"
        ns = tuple(args.n) if args.n else (3,)
        flips = _parse_flips(args.flip or [])
        base = load_matrix(_read(args.matrix)) if args.matrix else None
        if not args.alpha:
            alphas = (Fraction(3, 2),) if direction == "friendship" else (Fraction(1, 2),)
        reports = []
        for n, alpha in product(ns, alphas):
            matrix = base if base is not None else build_archetype("identity", n)
            config = NetGameConfig(n, alpha, 1, UtilitySpec.linear())
            reports.append(windfall_experiment(config, matrix, flips, direction))
        if args.csv:
            header, rows = windfall_csv_rows(reports)
            _emit_csv(header, rows, args.csv)
        if args.json or not args.csv:
            _emit_json([_windfall_json(r) for r in reports], args.json)
        ok = all(r.worst_ok and r.best_ok for r in reports)
        return _EXIT_OK if ok else _EXIT_INPUT

    # verify-lemmas
    claims = tuple(args.lemma) if args.lemma else LEMMA_CLAIMS
    grid = {}
    if args.n:
        grid["ns"] = tuple(args.n)
    if args.alpha:
        grid["alphas"] = tuple(_parse_alpha(a) for a in args.alpha)
    verdicts = []
    for claim in claims:
        verdicts.extend(verify_lemma(claim, grid))
    if args.csv:
        header, rows = verdict_csv_rows(verdicts)
        _emit_csv(header, rows, args.csv)
    if args.json or not args.csv:
        _emit_json([_verdict_json(v) for v in verdicts], args.json)
    ok = all(v.ok for v in verdicts)
    return _EXIT_OK if ok else _EXIT_INPUT


def _cmd_classify(args) -> int:
    matrix = load_matrix(_read(args.matrix))
    profile = matrix.classify()
    payload = {
        "n": matrix.n,
        "selfish": profile.selfish,
        "altruistic": profile.altruistic,
        "malicious": profile.malicious,
        "monarchy_center": profile.monarchy_center,
        "benevolent_player": profile.benevolent_player,
        "one_malicious_player": profile.one_malicious_player,
        "ignorant_players": sorted(profile.ignorant_players),
        "ignored_players": sorted(profile.ignored_players),
        "colluding_pairs": [list(pair) for pair in sorted(profile.colluding_pairs)],
    }
    _emit_json(payload, args.out)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialnash",
        description="Equilibrium tools for network formation under social preference matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list every equilibrium of a game/matrix pair")
    p.add_argument("--game", required=True, help="game config JSON path")
    p.add_argument("--matrix", required=True, help="matrix JSON/CSV path")
    p.add_argument("--cap", type=int, default=5, help="player cap for full search")
    p.add_argument("--method", choices=("auto", "full", "edge-rule"), default="auto")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("optimum", help="brute-force social optimum of a game config")
    p.add_argument("--game", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="write the optimal topology as DOT")
    p.set_defaults(func=_cmd_optimum)

    p = sub.add_parser("dynamics", help="run best-response dynamics")
    p.add_argument("--game", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--start", default="empty", help='"empty" or a profile JSON path')
    p.add_argument("--schedule", default="round-robin", help='"round-robin" or e.g. "0,2,1"')
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--trace", default=None, help="trace JSON path (default stdout)")
    p.add_argument("--dot", default=None, help="write the final topology as DOT")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("experiment", help="run a scenario study over a parameter grid")
    p.add_argument(
        "--kind",
        required=True,
        choices=("anarchy-monarchy", "windfall", "ill-will", "verify-lemmas"),
    )
    p.add_argument("--n", type=int, action="append", help="player count (repeatable)")
    p.add_argument("--alpha", action="append", help="link price as a fraction (repeatable)")
    p.add_argument("--flip", action="append", help='matrix entry "i:j" to flip (repeatable)')
    p.add_argument("--matrix", default=None, help="base matrix path (windfall/ill-will)")
    p.add_argument("--lemma", action="append", help="claim name or number (repeatable)")
    p.add_argument("--csv", default=None, help="write rows as CSV")
    p.add_argument("--json", default=None, help="write full results as JSON")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("classify", help="report a matrix's structural features")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CAP
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
