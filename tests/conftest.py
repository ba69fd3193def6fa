"""Make this checkout's ``src/`` importable by the subprocesses tests start.

``pythonpath = ["src"]`` in pyproject.toml covers the test process itself;
the CLI, acceptance and demo tests also run ``python -m circledirac`` or a
demo script in a fresh interpreter, which reads ``PYTHONPATH`` instead.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
