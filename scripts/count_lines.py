"""Count the lines of code in each orbitmc module.

For each module under ``--root`` and for all of them together, prints
two figures:

* ``lines``: the lines that are neither blank nor only a ``#`` comment;
* ``code``: the same lines less those of docstrings (the string that
  opens a module, class or function body).

Prints one JSON object, modules by path relative to ``--root``, then
``total``.

Usage: python scripts/count_lines.py [--root src/orbitmc]
"""

import argparse
import ast
import json
import pathlib

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitmc"


def docstring_lines(tree):
    """The numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    kept = [
        number
        for number, line in enumerate(text.split("\n"), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return {"lines": len(kept), "code": sum(number not in docs for number in kept)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(PACKAGE), help="package directory (default: this repo's)")
    root = pathlib.Path(parser.parse_args(argv).root)
    counts = {str(path.relative_to(root)): count(path) for path in sorted(root.rglob("*.py"))}
    counts["total"] = {key: sum(c[key] for c in counts.values()) for key in ("lines", "code")}
    print(json.dumps(counts, indent=2))


if __name__ == "__main__":
    main()
