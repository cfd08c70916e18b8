"""A fresh interpreter for the three checks that need one, and the loader
of the tools the tests read.

- The long-input table (test_long_inputs): its rows must run under the
  default recursion limit, 1000, from a near-empty stack.  In the test
  process the limit is whatever was set last, and pytest's own frames sit
  below each test.  A row that raises fails alone: the child prints the
  error in its line and goes on.
- A 20 000-deep tree turned into text (test_core): a text that recursed
  would overflow the C stack, which kills the process instead of raising.
- What importing the package changes (test_core): only a process that has
  not imported it yet shows that.

The CLI tests also run the CLI as a process, through child_env."""

import importlib.util
import os
import subprocess
import sys

import effsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(effsim.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
TOOLS = os.path.join(os.path.dirname(TESTS), "tools")


def load_tool(name):
    """tools/<name>.py as a module, loaded anew."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def child_env():
    """The environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(code, limit=1000):
    """Run code in a child interpreter with the package and the test modules
    on its path and the recursion limit set to limit first; check that it
    exits 0, and return what it printed."""
    prelude = ("import sys\nsys.setrecursionlimit(%d)\n"
               "sys.path.insert(0, %r)\n" % (limit, TESTS))
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout
