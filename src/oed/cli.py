"""Command-line front end.

Commands: ``delta`` (census of one graph), ``count`` (vertex covers by a
chosen method), ``verify`` (identity cross-checks), ``gen`` (instance
families), ``bench`` (engine timing). Results go to stdout as JSON (CSV
for profiles on request); diagnostics go to stderr. Exit codes: 0
success, 2 input error, 3 resource cap exceeded or memory exhausted, 4
internal cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .covers import (
    brute_force_vc_count,
    independent_set_count,
    vc_count_reduction,
)
from .delta import ENGINES, profile_to_json_dict
from .errors import CapError, EngineDisagreement, ParseError
from .graph import FAMILY_NAMES, gen_family, load_graph, to_edge_list
from .verify import run_bench, run_verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CROSSCHECK = 4


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def cmd_delta(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    profile = ENGINES[args.engine](g)
    if args.format == "json":
        _emit_json(profile_to_json_dict(profile))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "odd", "even", "delta"])
        for k in range(profile.n + 1):
            odd = "" if profile.odd_counts is None else str(profile.odd_counts[k])
            even = "" if profile.even_counts is None else str(profile.even_counts[k])
            writer.writerow([k, odd, even, str(profile.delta[k])])
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    isolated = g.n - len(g.endpoints())
    if args.method == "reduction":
        count = vc_count_reduction(g)
    elif args.method == "brute":
        count = brute_force_vc_count(g)
    else:
        count = independent_set_count(g)
    _emit_json(
        {
            "count": str(count),
            "method": args.method,
            "n": g.n,
            "m": g.m,
            "isolated": isolated,
        }
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(
        exhaustive_n=args.exhaustive_n,
        n_max=args.n_max,
        m_max=args.m_max,
        trials=args.trials,
        seed=args.seed,
    )
    _emit_json(report.to_json_dict())
    if not report.passing:
        print(f"oed: verify: {len(report.failures)} identity violation(s)", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    g = gen_family(args.family, args.size)
    text = to_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    records = run_bench(g, engines, repeats=args.repeats)
    _emit_json([r.to_json_dict() for r in records])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oed",
        description="Exact odd/even edge-subset census and vertex cover counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", help="compute a graph's census profile")
    p_delta.add_argument("--input", required=True, help="edge-list or DIMACS file")
    p_delta.add_argument("--engine", choices=sorted(ENGINES), default="frontier")
    p_delta.add_argument("--format", choices=["json", "csv"], default="json")
    p_delta.set_defaults(func=cmd_delta)

    p_count = sub.add_parser("count", help="count vertex covers")
    p_count.add_argument("--input", required=True, help="edge-list or DIMACS file")
    p_count.add_argument(
        "--method", choices=["reduction", "brute", "independent"], default="reduction"
    )
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="cross-check the counting identities")
    p_verify.add_argument("--exhaustive-n", type=int, default=0, dest="exhaustive_n")
    p_verify.add_argument("--n-max", type=int, default=0, dest="n_max")
    p_verify.add_argument("--m-max", type=int, default=0, dest="m_max")
    p_verify.add_argument("--trials", type=int, default=0)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a named instance family")
    p_gen.add_argument("family", choices=list(FAMILY_NAMES))
    p_gen.add_argument("size", type=int, nargs="?", default=None)
    p_gen.add_argument("--output", help="write to this path instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time census engines on one input")
    p_bench.add_argument("--input", required=True, help="edge-list or DIMACS file")
    p_bench.add_argument("--engines", default="naive,gray", help="comma-separated engine ids")
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Counts print in full at any length: lift the interpreter's int-to-str
    # digit limit, where it has one, while the command runs.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped reading, which is not an error. Point stdout at
        # devnull so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CapError as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("oed: error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except EngineDisagreement as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ParseError, ValueError, OSError) as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if set_digits is not None:
            set_digits(old_digits)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
