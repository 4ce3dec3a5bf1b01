"""Count the code lines of the owlcrawler_ray package.

A code line holds at least one token that is not a comment and not part
of a docstring (the leading string of a module, class or function).
Blank lines, comment-only lines and docstring lines do not count.

    python3 loc.py            # per file, then the total
    python3 loc.py --total    # the total only
"""
import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent / "owlcrawler_ray"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    src = path.read_text()
    doc = _docstring_lines(ast.parse(src))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIP:
                continue
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in doc)
    return len(lines)


def main() -> None:
    counts = {p.relative_to(ROOT.parent): code_lines(p)
              for p in sorted(ROOT.rglob("*.py"))}
    if "--total" not in sys.argv[1:]:
        for path, n in counts.items():
            print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
