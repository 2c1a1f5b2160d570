"""``python -m repro scenarios``: the scenario library on the command line.

Subcommands::

    python -m repro scenarios list [--tag TAG]
    python -m repro scenarios show <id>
    python -m repro scenarios replay <id> [--json]
    python -m repro scenarios gen <profile> -o FILE [--seed S] [--n N]
    python -m repro scenarios info <trace-file> [--interval N]
    python -m repro scenarios champ [NAME] [--output F]

``replay`` prints the scenario's deterministic digest — the same value
the golden suite pins — so "did my change alter simulation behavior?"
is one command.  ``champ`` runs the championship harness and renders
the scored leaderboard (optionally writing the JSON artifact CI diffs
against its committed baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import championship, library

__all__ = ["main"]


def _cmd_list(args: argparse.Namespace) -> int:
    ids = library.list_ids(tag=args.tag)
    if not ids:
        print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(i) for i in ids)
    for scenario_id in ids:
        s = library.get(scenario_id)
        print(f"{scenario_id:<{width}}  [{s.sink}] {s.description}")
    print(f"\n{len(ids)} scenarios")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        s = library.get(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(json.dumps(s.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        result = library.run(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"scenario : {library.get(args.id).id}")
    print(f"sink     : {result.sink}")
    print(f"records  : {result.records}")
    print(f"digest   : sha256:{result.digest()}")
    for key in sorted(result.outputs):
        print(f"  {key}: {result.outputs[key]}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from ..traces.generators import generate_trace, profile_names

    params = {}
    if args.n is not None:
        params["n"] = args.n
    try:
        count = generate_trace(
            args.output, args.profile, seed=args.seed, **params
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        print(f"profiles: {', '.join(profile_names())}", file=sys.stderr)
        return 2
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from ..traces.format import TraceError, TraceReader, kind_name
    from ..traces.stats import IntervalStats

    stats = IntervalStats(args.interval)
    kinds: dict = {}
    try:
        with TraceReader(args.file) as reader:
            meta = reader.meta
            for kind, arr in reader.blocks():
                stats.feed(kind, arr)
                kinds[kind_name(kind)] = kinds.get(kind_name(kind), 0) + len(arr)
    except TraceError as exc:
        print(f"bad trace: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    summary = stats.finish()
    print(f"meta     : {json.dumps(meta, sort_keys=True)}")
    print(f"records  : {summary['records']} "
          f"({', '.join(f'{v} {k}' for k, v in sorted(kinds.items()))})")
    print(f"intervals: {summary['intervals']} x {summary['interval']}")
    for key in ("request", "memory", "instruction"):
        if key in summary:
            print(f"  {key}: {summary[key]}")
    return 0


def _cmd_champ(args: argparse.Namespace) -> int:
    if args.name:
        board = {
            "championships": {
                args.name: championship.run_championship(args.name)
            }
        }
        board["digest"] = championship.leaderboard_digest(board)
    else:
        board = championship.run_all()
    for name in sorted(board["championships"]):
        comp = board["championships"][name]
        print(f"== {name} — {comp['metric']}")
        print(f"   scenario: {comp['scenario']}")
        for row in comp["entries"]:
            print(f"   #{row['rank']}  {row['policy']:<14} "
                  f"score={row['score']:.6g}")
    print(f"digest: sha256:{board['digest']}")
    if args.output:
        with open(args.output, "w") as f:
            json.dump(board, f, indent=2, sort_keys=True)
        print(f"leaderboard written to {args.output}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description="Standard scenario library: named, versioned, "
                    "digest-pinned workload bundles plus the "
                    "championship harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenario ids")
    p_list.add_argument("--tag", default=None, help="filter by tag")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="print one scenario's bundle")
    p_show.add_argument("id")
    p_show.set_defaults(func=_cmd_show)

    p_replay = sub.add_parser(
        "replay", help="generate + replay a scenario, print its digest"
    )
    p_replay.add_argument("id")
    p_replay.add_argument(
        "--json", action="store_true", help="full result as JSON"
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_gen = sub.add_parser(
        "gen", help="generate a profile into a trace file"
    )
    p_gen.add_argument("profile")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=None,
                       help="record count (profile default otherwise)")
    p_gen.set_defaults(func=_cmd_gen)

    p_info = sub.add_parser(
        "info", help="validate a trace file and print interval stats"
    )
    p_info.add_argument("file")
    p_info.add_argument("--interval", type=int, default=10_000)
    p_info.set_defaults(func=_cmd_info)

    p_champ = sub.add_parser(
        "champ", help="run the championship harness / leaderboard"
    )
    p_champ.add_argument(
        "name", nargs="?", default=None,
        help=f"one of: {', '.join(sorted(championship.COMPETITIONS))} "
             "(default: all)",
    )
    p_champ.add_argument(
        "--output", default=None, help="write the JSON leaderboard here"
    )
    p_champ.set_defaults(func=_cmd_champ)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
