"""The size of the package source, as ROADMAP's State reports it:

    python tests/src_size.py [SRC] [--against OTHER_SRC]

SRC (default: this tree's ``src/rdagg``) and OTHER_SRC are package
directories, or ``src`` directories that hold ``rdagg``. For each file and
in total it prints four counts:

- lines: every line of the file;
- code lines: the lines outside docstrings (the first statement of a module,
  class or function body when it is a string);
- statements: AST statement nodes, docstrings and nested ones included;
- tokens: names, operators and numbers; strings (f-strings whole), comments,
  line ends, indentation and the end marker are not counted.

With ``--against`` it prints the counts of OTHER_SRC, then those of SRC, then
SRC minus OTHER_SRC; a file in one tree only counts zero in the other.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

COLUMNS = ("lines", "code lines", "statements", "tokens")
NOT_CODE = {tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
# Python 3.12 splits an f-string into tokens; everything from its start to
# its end is one string here, as it is one STRING token before 3.12
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def counts(source: str) -> tuple:
    """(lines, code lines, statements, tokens) of one file's source."""
    tree = ast.parse(source)
    docstring_lines = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines += first.end_lineno - first.lineno + 1
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    tokens = depth = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == FSTRING_START:
            depth += 1
        elif token.type == FSTRING_END:
            depth -= 1
        elif not depth and token.type not in NOT_CODE:
            tokens += 1
    lines = len(source.splitlines())
    return lines, lines - docstring_lines, statements, tokens


def package(path: str) -> Path:
    root = Path(path)
    return root / "rdagg" if (root / "rdagg").is_dir() else root


def tree_counts(root: Path) -> dict:
    """File name -> counts, for every ``.py`` file of the package at ``root``."""
    return {f.name: counts(f.read_text(encoding="utf-8")) for f in sorted(root.glob("*.py"))}


def table(title: str, rows: dict, signed: bool = False) -> str:
    sign = "+" if signed else ""
    out = [title, f"{'file':<18}" + "".join(f"{c:>12}" for c in COLUMNS)]
    total = [sum(col) for col in zip(*rows.values())] if rows else [0] * len(COLUMNS)
    for name, row in [*rows.items(), ("total", total)]:
        out.append(f"{name:<18}" + "".join(f"{v:>{sign}12,}" for v in row))
    return "\n".join(out)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).parents[1] / "src"))
    parser.add_argument("--against", metavar="OTHER_SRC")
    args = parser.parse_args(argv)
    this = tree_counts(package(args.src))
    if args.against is None:
        print(table(str(package(args.src)), this))
        return
    other = tree_counts(package(args.against))
    zero = (0,) * len(COLUMNS)
    names = sorted(this.keys() | other.keys())
    diff = {name: tuple(a - b for a, b in zip(this.get(name, zero), other.get(name, zero)))
            for name in names}
    print(table(str(package(args.against)), other), end="\n\n")
    print(table(str(package(args.src)), this), end="\n\n")
    print(table("difference", diff, signed=True))


if __name__ == "__main__":
    main()
