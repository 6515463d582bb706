"""The package size that the ROADMAP's north star tracks.

Usage, from anywhere:

    python3 scripts/package_size.py

Prints the code lines of each ``src/smf/*.py`` and their total: the lines
left after blank lines, comments and docstrings (module, class and
function) are taken out.  Then the knobs: SolverConfig's fields and each
subcommand's optional flags, with the distinct flag names counted once;
then the number of public names, ``len(smf.__all__)``.  It imports the
``smf`` of the checkout it lies in and only prints.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def _leaves(parser, name):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield name, parser
    for action in subs:
        for key, sub in action.choices.items():
            yield from _leaves(sub, f"{name} {key}".strip())


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "smf").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7d} {path.relative_to(ROOT).as_posix()}")
    print(f"{total:7d} code lines")

    sys.path.insert(0, str(ROOT / "src"))
    import smf
    from smf.cli import _build_parser
    from smf.solver import SolverConfig

    fields = len(dataclasses.fields(SolverConfig))
    print(f"{fields:7d} SolverConfig fields")
    names = set()
    for name, parser in _leaves(_build_parser(), ""):
        flags = [a.option_strings[-1] for a in parser._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        names.update(flags)
        print(f"{len(flags):7d} flags of {name}: {' '.join(flags)}")
    print(f"{fields + len(names):7d} knobs ({len(names)} distinct flags)")
    print(f"{len(smf.__all__):7d} public names in smf.__all__")
    return 0


if __name__ == "__main__":
    sys.exit(main())
