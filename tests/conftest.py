"""Point `python -m weierdim.cli` subprocesses at the package under test.

pytest's `pythonpath` setting reaches only its own process, so a plain
`pytest` run from a checkout exports the same source root to children.
"""

import os

import weierdim


def pytest_configure(config):
    src = os.path.dirname(os.path.dirname(os.path.abspath(weierdim.__file__)))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
