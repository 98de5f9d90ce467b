"""The three search kernels: bipartite-hole search, Hamilton backtracking
and independence branch and bound, all implemented once, in ``_pure``.

Callers reach them through this package, so code that wraps
``_kernels.hole_search`` and its siblings sees every call to them.  The
one exception: the edge-disjoint oracle's middle levels enumerate cycles
through ``_pure.hamilton_cycles``, which no wrapper on this package sees.
"""

from __future__ import annotations

from hamholes._kernels._pure import (
    FOUND,
    hamilton_cycle_search,
    hole_search,
    independence_number,
)

# perfbench/ reads these names and tests/test_api.py pins them; no compiled
# backend exists.
BACKEND = "pure"
_native = None
