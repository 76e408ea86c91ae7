"""Point `python -m weierdim.cli` subprocesses at the package under test, and
cap the address space so that a guard regression fails a test with
MemoryError instead of exhausting the host.

pytest's `pythonpath` setting reaches only its own process, so a plain
`pytest` run from a checkout exports the same source root to children.
Children also inherit the address-space limit.

traced_peak is the memory tests' one probe: `from conftest import traced_peak`;
counted_trig is the work-count tests' one probe.
"""

import os
import resource
import tracemalloc

import numpy as np

import weierdim

_MAX_ADDRESS_SPACE = 4 << 30  # bytes; the heaviest test modules peak near 0.55 GB


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy allocations reach while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted_trig(monkeypatch) -> dict:
    """{"sin": n, "cos": n}: elements that np.sin and np.cos receive from here on."""
    calls = {"sin": 0, "cos": 0}
    for name, fn in [(name, getattr(np, name)) for name in calls]:
        def counted(u, *args, _fn=fn, _name=name, **kwargs):  # forwards out= and the like
            calls[_name] += np.size(u)
            return _fn(u, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


def pytest_configure(config):
    src = os.path.dirname(os.path.dirname(os.path.abspath(weierdim.__file__)))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    # lower the soft limit only: never above the hard limit or an existing soft limit
    cap = min([_MAX_ADDRESS_SPACE, *(v for v in (soft, hard) if v != resource.RLIM_INFINITY)])
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
