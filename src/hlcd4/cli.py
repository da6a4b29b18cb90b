"""Command-line front end.

Generator matrices travel in a plain text format: optional ``#`` comment
lines, then k rows of n symbols from {0, 1, w, W} (w is the primitive
element, W its square), whitespace between symbols optional.  The zero
code (k = 0) of length n is written as a comment and one all-zero row of n
symbols: a body whose rows are all zero reads as the zero code.
``LinearCode.from_symbols`` reads the full format and is the package's one
reader; ``parse_code_file`` calls it, so every file a subcommand writes
reads back to the code it holds.  Every file a subcommand writes, search's
included, carries a ``#`` provenance header built by one rule: the command
and the options it records, under their first flag (search records ``--n``
through ``--strategy``, seed included, and never ``--base``, ``--threads``
or ``-o``), then the SHA-256 of the parent file (search's base, if any);
search also records the candidates it tried.  Timing never enters the
header, so reruns of a seeded command are byte-identical.
Search is serial and its result depends only on the seed and the candidate
index; ``search --threads`` is accepted and ignored.
Each ``main`` call builds a parser that lists every subcommand by name and
help line, and gives only the one it runs its options and its ``-h``;
those are most of the parser's cost.  The parser is not cached (ROADMAP
item 1).

Exit codes: 0 success, 1 domain error (a JSON object describing it goes to
standard error; a search that uses its budget without a hit is a
``TargetNotReached`` with ``candidates_tried``), 2 usage error.
``pair-check`` also exits 1 for a pair that is not a valid isotropic pair;
that exit is its verdict, and its report goes to standard output either
way.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .code import _DEFAULT_BUDGET, CodeSummary, LinearCode
from .errors import Hlcd4Error, TargetNotReached
from .gf4 import from_symbols, to_symbols
from .search import SearchConfig, Strategy, VerifyStatus, search, verify_bounds
from .tables import BoundsTable
from .transform import (
    _weight_hypothesis_failure,
    axy_construct,
    check_isotropic,
    lcd_column_parity,
    orthonormalize,
    puncture,
    shorten,
)


def parse_code_file(text: str) -> LinearCode:
    """Parse the code-file format into a LinearCode; see ``LinearCode.from_symbols``.

    Raises:
        CodeFileError: on bad symbols (with line and column), unequal row
            lengths, or an empty body.
        RankDeficientError: when the rows are dependent and not all zero.
    """
    return LinearCode.from_symbols(text)


def emit_code_file(matrix: np.ndarray, header: Optional[list] = None) -> str:
    """Render a generator matrix in the code-file format; a k = 0 matrix is
    written as one all-zero row, which reads back as the zero code."""
    lines = [f"# hlcd4 {__version__}"]
    for h in header or []:
        lines.append(f"# {h}")
    if matrix.shape[0] == 0:
        lines.append("# zero code (k = 0): one all-zero row")
        matrix = np.zeros((1, matrix.shape[1]), dtype=np.uint8)
    for row in matrix:
        lines.append(to_symbols(row))
    return "\n".join(lines) + "\n"


def emit_summary(summary: CodeSummary, fmt: str = "text") -> str:
    """Render a summary as 'text' or 'json'."""
    if fmt == "json":
        return json.dumps(summary.to_dict(), sort_keys=True)

    def weight(value: int, exact: bool) -> str:
        return str(value) if exact else f"<= {value} (budget exceeded)"

    return "\n".join(
        [
            f"[{summary.n},{summary.k}] code",
            f"d: {weight(summary.d, summary.d_exact)}",
            f"d_dual: {weight(summary.d_dual, summary.d_dual_exact)}",
            f"hull_dim: {summary.hull_dim}",
            f"LCD: {'yes' if summary.is_lcd else 'no'}",
            f"even: {'yes' if summary.is_even else 'no'}",
        ]
    )


def _read_code(path: str) -> tuple[LinearCode, str]:
    """The code in a file, and the file's text for a provenance digest."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_code_file(text), text


def _digest(text: str) -> str:
    """The SHA-256 a provenance header records for a parent file's text."""
    return hashlib.sha256(text.encode()).hexdigest()


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _coords(spec: str) -> list:
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad coordinate list {spec!r}; expected i[,j...]") from None


def _cmd_info(args) -> int:
    code, _ = _read_code(args.file)
    budget = None if args.exact_d else args.budget
    print(emit_summary(code.summarize(budget=budget), "json" if args.json else "text"))
    return 0


def _recorded(args, options) -> tuple[dict, str]:
    """The values of ``options`` in ``args``, keyed as argparse stores them
    (the long flag, ``-`` as ``_``), and the ``command:`` header line that
    records them under their first flag."""
    keys = [flags[-1].lstrip("-").replace("-", "_") for flags, _ in options]
    values = {key: getattr(args, key) for key in keys}
    words = [args.command] + [f"{f[0]} {values[key]}" for (f, _), key in zip(options, keys)]
    return values, f"command: {' '.join(words)}"


def _cmd_derive(derive, options, args) -> int:
    code, text = _read_code(args.file)
    values, command = _recorded(args, options)
    gen = derive(code, *values.values())
    header = [command, f"parent: sha256 {_digest(text)}"]
    _write_output(emit_code_file(gen, header), args.output)
    return 0


def _cmd_parity(args) -> int:
    code, _ = _read_code(args.file)
    reports = lcd_column_parity(code)
    # Outside the dichotomy's hypothesis a verdict can be wrong: both
    # derivatives can be LCD.  Say so on stderr; the verdicts still print.
    failure = _weight_hypothesis_failure(code)
    if failure is not None:
        warning = {
            "warning": "OutsideHypothesis",
            "message": f"{failure}; the verdicts can be wrong",
        }
        print(json.dumps(warning), file=sys.stderr)
    if args.json:
        print(json.dumps([asdict(r) for r in reports]))
    else:
        for r in reports:
            parity = "even" if r.column_weight % 2 == 0 else "odd"
            kept = "puncture" if r.puncture_is_lcd else "shorten"
            print(
                f"coordinate {r.coordinate}: column weight {r.column_weight} "
                f"({parity}) -> {kept} is LCD"
            )
    return 0


def _cmd_pair_check(args) -> int:
    report = check_isotropic(from_symbols(args.x), from_symbols(args.y))
    print(json.dumps({**asdict(report), "isotropic": report.isotropic, "valid": report.valid}))
    return 0 if report.valid else 1


def _cmd_search(args) -> int:
    base, text = _read_code(args.base) if args.base else (None, None)
    values, command = _recorded(args, _SEARCH)
    result = search(SearchConfig(**values, base=base, threads=args.threads))
    if result.found is None:
        raise TargetNotReached(
            f"no [{args.n},{args.k}] code with d >= {args.target_d} "
            f"within {result.candidates_tried} candidates",
            candidates_tried=result.candidates_tried,
        )
    header = [command, f"candidates tried: {result.candidates_tried}"]
    if text is not None:
        header.append(f"parent: sha256 {_digest(text)}")
    _write_output(emit_code_file(result.found.gen, header), args.output)
    if args.output is not None:
        print(
            json.dumps(
                {
                    "found": True,
                    "candidates_tried": result.candidates_tried,
                    "summary": result.summary.to_dict(),
                },
                sort_keys=True,
            )
        )
    return 0


def _cmd_verify_table(args) -> int:
    table = BoundsTable.load(args.bounds)
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise ValueError(f"not a directory: {args.results}")
    budget = None if args.exact_d else args.budget
    summaries = []
    names = []
    for path in sorted(results_dir.iterdir()):
        if not path.is_file() or path.name.startswith("."):
            continue
        try:
            code = parse_code_file(path.read_text(encoding="utf-8"))
            table.entry(code.n, code.k)  # no summary for a code outside the table
        except Hlcd4Error as e:
            # One file of many: the error report names it.
            e.file = e.fields["file"] = path.name
            raise
        summaries.append(code.summarize(budget=budget))
        names.append(path.name)
    records = verify_bounds(summaries, table)
    ok = True
    for name, rec in zip(names, records):
        print(
            f"{name}: [{rec.n},{rec.k}] d={rec.d} "
            f"bounds {rec.lower}..{rec.upper} -> {rec.status.value}"
        )
        if rec.status in (VerifyStatus.CONTRADICTION, VerifyStatus.NOT_LCD):
            ok = False
    return 0 if ok else 1


def _int_at_least(low: int):
    """An argparse type for integers >= low, named ``int`` in argparse's
    error text when the text is not an integer."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)

# Options as (flags, ``add_argument`` keywords), in the order a subparser adds them.
_FILE = (("file",), {})
_JSON = (("--json",), dict(action="store_true"))
_OUTPUT = (("-o", "--output"), dict(help="write the code file here instead of stdout"))
_BUDGET = (
    (("--exact-d",), dict(action="store_true", help="never truncate the weight scan")),
    (
        ("--budget",),
        dict(
            type=_positive_int,
            default=_DEFAULT_BUDGET,
            help="max enumerated codewords for min weight (default %(default)s)",
        ),
    ),
)
_COORDS = ((("-t", "--coords"), dict(required=True, help="1-based, comma separated")),)
_XY = tuple(((f,), dict(required=True, help="symbols, length n-k")) for f in ("--x", "--y"))

# The search options a provenance header records, in the header's order;
# argparse keys their values by SearchConfig's field names.
_SEARCH = (
    (("--n",), dict(type=_positive_int, required=True)),
    (("--k",), dict(type=_positive_int, required=True, help="at most --n")),
    (("--target-d",), dict(type=_positive_int, required=True)),
    (
        ("--seed",),
        dict(type=_nonnegative_int, required=True, help="explicit seed >= 0; no default"),
    ),
    (("--budget",), dict(type=_positive_int, default=100000, help="max candidates")),
    (("--strategy",), dict(choices=[s.value for s in Strategy], default=Strategy.RANDOM.value)),
)

def _derived(help_text: str, derive, *options) -> tuple:
    """The ``_COMMANDS`` row of a code-writing subcommand.  Each of its
    ``options`` is required; ``derive`` takes the parsed code and their
    values in order and returns a generator matrix, and the provenance
    header records them."""
    return help_text, functools.partial(_cmd_derive, derive, options), (_FILE, *options, _OUTPUT)


# The subcommands in listing order: name -> (help, handler, options).
_COMMANDS = {
    "info": ("summarize a code file", _cmd_info, (_FILE, _JSON, *_BUDGET)),
    "dual": _derived("Hermitian dual code", lambda code: code.hermitian_dual().gen),
    "puncture": _derived(
        "delete coordinates", lambda code, t: puncture(code, _coords(t)).gen, *_COORDS
    ),
    "shorten": _derived(
        "restrict to zero coordinates, then delete",
        lambda code, t: shorten(code, _coords(t)).gen,
        *_COORDS,
    ),
    "orthonormalize": _derived("generator with identity Gram matrix", orthonormalize),
    "parity": ("column-parity LCD report per coordinate", _cmd_parity, (_FILE, _JSON)),
    "axy": _derived(
        "two-vector update of a standard-form code",
        lambda code, x, y: axy_construct(code, from_symbols(x), from_symbols(y)).gen,
        *_XY,
    ),
    "pair-check": (
        "isotropy report for a vector pair",
        _cmd_pair_check,
        ((("--x",), dict(required=True)), (("--y",), dict(required=True))),
    ),
    "search": (
        "seeded search for an LCD code",
        _cmd_search,
        (
            *_SEARCH,
            (("--base",), dict(help="base code file (axy / puncture-shorten)")),
            (
                ("--threads",),
                dict(
                    type=_positive_int,
                    default=1,
                    help="accepted and ignored: search is serial, and its result depends "
                    "only on the seed and the candidate index",
                ),
            ),
            _OUTPUT,
        ),
    ),
    "verify-table": (
        "check result codes against the bounds table",
        _cmd_verify_table,
        (
            (("--results",), dict(required=True, help="directory of code files")),
            (("--bounds",), dict(help="bounds CSV (packaged table by default)")),
            *_BUDGET,
        ),
    ),
}


# Every subcommand is registered with its help line, so the top-level help,
# the choices and the usage errors are the full parser's.  Only the invoked
# one gets its options and a -h action, which are most of the cost of
# building the parser: argparse dispatches on the token _parser_for picked,
# or on one that names no subcommand, which the top-level parser reports as
# an invalid choice.  It is not cached yet: faster calls fit more passes into
# a perfbench run, whose harness keeps every pass's outputs, and
# peak_rss_mib would pass its bound (ROADMAP item 1).
def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hlcd4",
        description="Hermitian LCD codes over the four-element field.",
    )
    p.add_argument("--version", action="version", version=f"hlcd4 {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            for flags, keywords in options:
                sp.add_argument(*flags, **keywords)
            sp.set_defaults(func=handler)
            # For the usage errors main finds after parsing, which read as
            # the subcommand's; kept off the Namespace, which holds only
            # what was parsed.
            p.invoked = sp
    return p


def _parser_for(argv: list) -> argparse.ArgumentParser:
    # The top-level options (-h, --version) take no value, so the first
    # token that is not an option is the one argparse dispatches on.
    return _build_parser(next((a for a in argv if not a.startswith("-")), None))


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser_for(argv)
    args = parser.parse_args(argv)
    if args.command == "search" and args.k > args.n:
        parser.invoked.error(f"--k ({args.k}) must not exceed --n ({args.n})")
    try:
        return args.func(args)
    except (Hlcd4Error, ValueError, OSError) as e:
        err = {"error": type(e).__name__, "message": str(e), **getattr(e, "fields", {})}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
