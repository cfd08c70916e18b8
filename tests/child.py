"""A fresh interpreter for the tests that need one: deep inputs under the
default recursion limit, what importing the package changes, and the CLI
run as a process."""

import os
import subprocess
import sys

import effsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(effsim.__file__)))


def child_env():
    """The environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(code, limit=1000):
    """Run code in a child interpreter with the package on its path and the
    recursion limit set to limit first; check that it exits 0, and return
    what it printed."""
    prelude = "import sys\nsys.setrecursionlimit(%d)\n" % limit
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout
