"""Count the code lines of the effsim sources.

A code line is a line that holds some token other than a comment and is not
part of a docstring (the string that opens a module, class or function body);
blank lines do not count.

    python tools/code_lines.py

prints one `module count` line per module of src/effsim, sorted by name, then
`total count`.
"""

import ast
import io
import os
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_modules(directory):
    """{module name: code lines} for every .py file directly in `directory`."""
    counts = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                counts[name[:-3]] = code_lines(f.read())
    return counts


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    counts = count_modules(os.path.join(root, "src", "effsim"))
    for name, n in counts.items():
        print("%s %d" % (name, n))
    print("total %d" % sum(counts.values()))


if __name__ == "__main__":
    main()
