"""Command-line front end.

Commands: ``delta`` (census of one graph), ``count`` (vertex covers by a
chosen method), ``verify`` (identity cross-checks), ``gen`` (instance
families), ``bench`` (engine timing). Results go to stdout as JSON (CSV
for profiles on request); diagnostics go to stderr. Exit codes: 0
success, 2 input error (stdout closed or full too), 3 resource cap
exceeded or memory exhausted, 4 internal cross-check failure, 130
interrupted (Ctrl-C). ``entry()`` ends the process right after its last
flush, so no ``atexit`` hook runs (coverage's subprocess mode, ``python
-m cProfile -m oed``): profile through ``main()`` in-process.

The command line is read against one table, ``COMMANDS``; a line it does
not admit exits 2 with one ``oed: error:`` line, and ``-h`` prints the
usage the table gives. ``delta`` and ``count`` write their JSON and CSV
directly, so neither loads a JSON, CSV or argument-parsing module.
``delta`` writes a profile one count at a time, and stdout's text layer
gathers the writes into 8 KiB chunks (``entry()`` keeps it doing so under
-u), so memory holds one chunk and one count however long the profile;
``gen`` writes its edge list through ``oed.graph.write_edge_list``,
which puts out a bounded number of lines per write.
"""

from __future__ import annotations

import os
import sys
from itertools import repeat
from types import SimpleNamespace

from .covers import brute_force_vc_count, independent_set_count
from .delta import ENGINES, DeltaProfile, vc_count_reduction
from .errors import CapError, EngineDisagreement
from .graph import FAMILY_NAMES, gen_family, load_graph, write_edge_list

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CROSSCHECK = 4
EXIT_INTERRUPT = 130  # 128 + SIGINT, as a shell reports a process ended by Ctrl-C


def _emit_json(obj) -> None:
    import json

    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _write_json_profile(profile: DeltaProfile) -> None:
    """The profile as ``json.dumps(..., indent=2)`` lays it out, counts as strings."""
    write = sys.stdout.write
    write(f'{{\n  "n": {profile.n},\n')
    arrays = (("O", profile.odd_counts), ("E", profile.even_counts), ("delta", profile.delta))
    for key, values in arrays:
        end = "\n" if key == "delta" else ",\n"
        if values is None:
            write(f'  "{key}": null{end}')
            continue
        sep = f'  "{key}": [\n    "'
        for value in values:
            write(f"{sep}{value}")
            sep = '",\n    "'
        write(f'"\n  ]{end}')
    write("}\n")


def _write_csv_profile(profile: DeltaProfile) -> None:
    """One ``k,odd,even,delta`` row per k; counts the engine leaves out are empty."""
    write = sys.stdout.write
    write("k,odd,even,delta\n")
    odd, even = profile.odd_counts, profile.even_counts
    counts = repeat(("", "")) if odd is None else zip(odd, even)
    for k, ((o, e), d) in enumerate(zip(counts, profile.delta)):
        write(f"{k},{o},{e},{d}\n")


def cmd_delta(args: SimpleNamespace) -> int:
    # The graph is held by the engine alone, which can free it before the
    # profile is written.
    profile = ENGINES[args.engine](load_graph(args.input))
    if args.format == "json":
        _write_json_profile(profile)
    else:
        _write_csv_profile(profile)
    return EXIT_OK


# ``oed count``'s methods. Each looks its function up in this module when it
# runs, so a wrapper set on the module's name (perfbench/spans.py sets one)
# is the one called.
METHODS = {
    "reduction": lambda g: vc_count_reduction(g),
    "brute": lambda g: brute_force_vc_count(g),
    "independent": lambda g: independent_set_count(g),
}


def cmd_count(args: SimpleNamespace) -> int:
    g = load_graph(args.input)
    count = METHODS[args.method](g)
    # Counted after the count, so that this set of endpoints is not made
    # and freed before the planner's own: on prism 300000 that order left
    # the refusal's peak 10 MB higher.
    isolated = g.n - len(g.endpoints())
    sys.stdout.write(
        f'{{\n  "count": "{count}",\n  "method": "{args.method}",\n'
        f'  "n": {g.n},\n  "m": {g.m},\n  "isolated": {isolated}\n}}\n'
    )
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    from .verify import run_verification

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


def cmd_gen(args: SimpleNamespace) -> int:
    g = gen_family(args.family, args.size)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_edge_list(fh.write, g)
    else:
        write_edge_list(sys.stdout.write, g)
    return EXIT_OK


def cmd_bench(args: SimpleNamespace) -> int:
    from .verify import run_bench

    g = load_graph(args.input)
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    records = run_bench(g, engines, repeats=args.repeats)
    _emit_json([r.to_json_dict() for r in records])
    return EXIT_OK


def _print_usage(args: SimpleNamespace) -> int:
    sys.stdout.write(args.usage)
    return EXIT_OK


REQUIRED = object()

# command: (handler, summary, arguments). An argument named ``--name`` is
# an option and any other name a positional, taken in order. Each maps to
# (kind, default): kind is a tuple of choices, int or str, and default is
# the value when the argument is absent, or REQUIRED.
COMMANDS = {
    "delta": (cmd_delta, "compute a graph's census profile", {
        "--input": (str, REQUIRED),
        "--engine": (tuple(sorted(ENGINES)), "frontier"),
        "--format": (("json", "csv"), "json"),
    }),
    "count": (cmd_count, "count vertex covers", {
        "--input": (str, REQUIRED),
        "--method": (tuple(METHODS), "reduction"),
    }),
    "verify": (cmd_verify, "cross-check the counting identities", {
        "--exhaustive-n": (int, 0),
        "--n-max": (int, 0),
        "--m-max": (int, 0),
        "--trials": (int, 0),
        "--seed": (int, 0),
    }),
    "gen": (cmd_gen, "generate a named instance family", {
        "family": (FAMILY_NAMES, REQUIRED),
        "size": (int, None),
        "--output": (str, None),
    }),
    "bench": (cmd_bench, "time census engines on one input", {
        "--input": (str, REQUIRED),
        "--engines": (str, "naive,gray"),
        "--repeats": (int, 1),
    }),
}
_TOP = {"command": (tuple(COMMANDS), REQUIRED)}


class UsageError(Exception):
    """A command line that COMMANDS does not admit."""


def _flag(token: str, names: list[str]) -> tuple[str, str | None] | None:
    """The option a token names and its ``=`` value; None for a value token.

    Options match by unique prefix. A token that looks like an option but
    names none gives ``("", None)``. A lone ``-``, a negative number and a
    token with a space in it are values.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token[:2] == "--":
        key, eq, value = token[2:].partition("=")
        found = [key] if key in names else [n for n in names if key and n.startswith(key)]
        if len(found) > 1:
            matches = ", ".join("--" + n for n in found)
            raise UsageError(f"ambiguous option: {token} could match {matches}")
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":
        return "help", token[2:] or None
    whole, dot, frac = token[1:].partition(".")
    if dot and frac.isdecimal() and (not whole or whole.isdecimal()):
        return None
    if not dot and whole.isdecimal():
        return None
    return None if " " in token else ("", None)


def _convert(key: str, kind, token: str):
    if kind is int:
        try:
            return int(token)
        except ValueError:
            raise UsageError(f"argument {key}: invalid int value: {token!r}") from None
    if kind is not str and token not in kind:
        choices = ", ".join(kind)
        raise UsageError(f"argument {key}: invalid choice: {token!r} (choose from {choices})")
    return token


def _attribute(key: str) -> str:
    """The handlers' name for an argument: ``--n-max`` is ``n_max``."""
    return key.lstrip("-").replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        lines = "".join(f"  {name:<7} {spec[1]}\n" for name, spec in COMMANDS.items())
        return f"usage: oed [-h] {{{','.join(COMMANDS)}}} ...\n\n{lines}"
    parts = ["[-h]"]
    _, summary, table = COMMANDS[command]
    for key, (kind, default) in table.items():
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _attribute(key).upper()
        part = f"{key} {meta}" if key[:2] == "--" else meta
        parts.append(part if default is REQUIRED else f"[{part}]")
    return f"usage: oed {command} {' '.join(parts)}\n\n{summary}\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line read against COMMANDS, as the handlers' arguments.

    Options take ``--name value`` or ``--name=value``, match by unique
    prefix, and the last of a repeated option wins; after ``--`` every
    token is a value. A bad value is reported where it stands; unknown
    tokens and missing arguments only once the line is read, so a ``-h``
    after them still prints the usage. Raises UsageError.
    """
    table, values, unknown, rest = _TOP, {}, [], False
    tokens = iter(argv)
    for token in tokens:
        names = [key[2:] for key in table if key[:2] == "--"] + ["help"]
        if token == "--" and not rest:
            rest = True
            continue
        flag = None if rest else _flag(token, names)
        if flag is None:
            slot = next((key for key in table if key[:1] != "-" and key not in values), None)
            if slot is None:
                unknown.append(token)
            else:
                values[slot] = _convert(slot, table[slot][0], token)
                if table is _TOP:
                    table = COMMANDS[token][2]
            continue
        name, value = flag
        if not name:
            unknown.append(token)
            continue
        if name == "help":
            if value is not None:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            return SimpleNamespace(func=_print_usage, usage=_usage(values.get("command")))
        if value is None:
            value = next(tokens, None)
            if value is None or _flag(value, names) is not None:
                raise UsageError(f"argument --{name}: expected one argument")
        values["--" + name] = _convert("--" + name, table["--" + name][0], value)
    missing = [key for key, spec in table.items() if spec[1] is REQUIRED and key not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    command = values["command"]
    return SimpleNamespace(
        command=command,
        func=COMMANDS[command][0],
        **{_attribute(key): values.get(key, default) for key, (_, default) in table.items()},
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # Counts print in full at any length: lift the interpreter's int-to-str
    # digit limit, where it has one, while the command runs.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        if sys.stdout is None and getattr(args, "output", None) is None:
            raise OSError("stdout is closed")  # fd 1 was closed at start-up
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except BrokenPipeError:
        return EXIT_OK  # the reader stopped reading, which is not an error
    except CapError as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("oed: error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except EngineDisagreement as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ValueError, OSError) as exc:
        print(f"oed: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("oed: error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    finally:
        if set_digits is not None:
            set_digits(old_digits)


def entry() -> None:
    """Run main(), flush stdout and stderr, and end with no teardown or atexit."""
    # ``delta`` writes one count at a time and leaves the batching to the
    # text layer, which under -u or PYTHONUNBUFFERED would make each write
    # a syscall: the profile of a million isolated vertices then took 6 s
    # to write, against 0.5 s.
    if hasattr(sys.stdout, "reconfigure"):  # not when fd 1 was closed at start-up
        sys.stdout.reconfigure(write_through=False)
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            pass  # main kept its code and has already reported the error
    os._exit(code)


if __name__ == "__main__":
    entry()
