"""A seeded fuzz test of the command line's error contract.

Every argv is built from ``build_parser()``'s own option table, so a new
subcommand or option is covered without editing this file.  Each option
gets a text from a pool of extreme inputs.  Whatever the argv, ``main``
must exit 0, 1 or 2; an exit 2 prints exactly one error line of bounded
length; and no exception reaches a traceback.
"""

from __future__ import annotations

import argparse
import random
import signal

import pytest

from rwa_semicircle.cli import build_parser, main

# The longest error line a usage error may print.
_LINE_CHARS = 200
# Texts for options that take a value: signed zeros, subnormals, the float
# extremes, sizes beyond int64 and beyond float, non-finite values, empty
# and blank texts, other bases, digit separators, non-ASCII digits, lists,
# fractions and long junk.  Valid integers stay small, so that no case
# draws more than 100 values or forms a long exact table; a large valid
# --k-max or --r-max is a long run by design (the CLI warns), not an error.
_TEXTS = [
    "0", "-0", "1", "3", "100", "-1", "+2", "1_0", "٣", "0x10", "1e3", "2.5", "0.5",
    "0.0", "-0.0", "5e-324", "1e-320", "2.2250738585072014e-308", "1e308", "1e400", "-1e400",
    "inf", "-inf", "nan", "NaN", "", " ", "-", "--", "1/2", "3/2", "1/3", "1/2,,1", ",", "1/2,1,3/2",
    "10000000000000000000", "-9223372036854775809", "1" + "0" * 400, "-1" + "0" * 400, "x" * 300,
]
# Plain texts, so that many argvs pass the parser and reach the library's
# own checks, or run.
_PLAIN = ["1", "2", "3", "100", "0.5", "2.5", "1/2,1,3/2"]
# The same texts as a work size: never a large valid one.
_SMALL = [text for text in _TEXTS if text not in ("10000000000000000000", "1" + "0" * 400, "1e3")]
_WORK_SIZES = {"--k-max", "--r-max"}


def _commands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(argv prefix, options) of every runnable command in the parser tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subparsers:
        for name, child in subparsers[0].choices.items():
            yield from _commands(child, path + (name,))
    else:
        yield list(path), [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _argv(rng: random.Random, prefix: list[str], options, paths: list[str]) -> list[str]:
    argv = list(prefix)
    if rng.random() < 0.05:
        argv[rng.randrange(len(argv))] = rng.choice(_TEXTS)  # no such command
    for action in options:
        if rng.random() < 0.15:
            continue  # leave it out, required or not
        flag = rng.choice(action.option_strings)
        if rng.random() < 0.05:
            flag = flag[: rng.randint(2, len(flag))]  # a prefix: unique, ambiguous or "--"
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.type is None:  # a path to write
            text = rng.choice(paths)
        else:
            extreme = _SMALL if _WORK_SIZES & set(action.option_strings) else _TEXTS
            text = rng.choice(_PLAIN if rng.random() < 0.75 else extreme)
        argv.extend([f"{flag}={text}"] if rng.random() < 0.3 else [flag, text])
    if rng.random() < 0.1:
        argv.append(rng.choice(_TEXTS))  # a stray argument
    return argv


class _TooSlow(Exception):
    pass


def _raise_too_slow(signum, frame):
    raise _TooSlow()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_argv_keeps_the_error_contract(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    paths = [str(tmp_path / "out.csv"), str(tmp_path / "dir"), str(tmp_path / "missing" / "out.csv"), ""]
    rng = random.Random(seed)
    commands = list(_commands(build_parser()))
    previous = signal.signal(signal.SIGALRM, _raise_too_slow)
    try:
        for _ in range(120):
            argv = _argv(rng, *rng.choice(commands), paths)
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _TooSlow:
                pytest.fail(f"still running after 5 s: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code == 2:
                errors = [line for line in err.splitlines() if ": error: " in line]
                assert len(errors) == 1 and err.splitlines()[-1] == errors[0], (argv, err)
                assert len(errors[0]) <= _LINE_CHARS, (argv, errors[0])
            elif code == 1:
                assert sum(line.startswith("error: ") for line in err.splitlines()) <= 1, (argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
