import sys
import time

import pytest

from qefilters import projection


@pytest.fixture
def under_workers(monkeypatch):
    """``run(fn)`` returns the results of ``fn()`` under several worker counts.

    It calls ``fn`` under 1, 2 and 3 workers (the monkeypatched count of
    usable CPUs), with any work sent to the pool so that small test shapes
    still split, then, with ``first_last``, under 2 and 3 workers with the
    calling thread's block held back until the pool's blocks are done, so a
    sum taken in completion order instead of image order would differ.
    Threads switch often, so overlapping writes would show.
    """
    run_block = projection._run_block

    def first_block_last(fn, lo, hi):
        if lo == 0:
            time.sleep(0.005)
        return run_block(fn, lo, hi)

    def run(fn, first_last=True):
        settings = [(1, run_block), (2, run_block), (3, run_block)]
        if first_last:
            settings += [(2, first_block_last), (3, first_block_last)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        results = []
        monkeypatch.setattr(projection, "_POOL_WORK", 0)
        try:
            for cpus, block_runner in settings:
                monkeypatch.setattr(projection, "_usable_cpus", lambda cpus=cpus: cpus)
                monkeypatch.setattr(projection, "_run_block", block_runner)
                results.append(fn())
        finally:
            sys.setswitchinterval(interval)
        return results

    return run
