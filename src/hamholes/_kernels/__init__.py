"""Kernel dispatch: compiled extension when available, pure Python otherwise.

The compiled backend covers graphs that fit a single 64-bit word; larger
inputs always go through the pure implementation, whose Python-int bitmasks
have no size limit.  Both backends implement identical search orders, so
which one runs is unobservable apart from speed.  The compiled backend runs
when the extension is built; the equivalence tests call ``_pure`` directly.
"""

from __future__ import annotations

from hamholes._kernels import _pure
from hamholes._kernels._pure import EXHAUSTED, FOUND, OVER_BUDGET

try:
    from hamholes._kernels import _speedups as _native
except ImportError:
    _native = None

BACKEND = "cython" if _native is not None else "pure"
_NATIVE_MAX_N = 64


def hole_search(adj, n, a, b):
    if _native is not None and n <= _NATIVE_MAX_N:
        return _native.hole_search(list(adj), n, a, b)
    return _pure.hole_search(adj, n, a, b)


def hamilton_cycle_search(adj, n, max_nodes):
    if _native is not None and n <= _NATIVE_MAX_N:
        return _native.hamilton_cycle_search(list(adj), n, max_nodes)
    return _pure.hamilton_cycle_search(adj, n, max_nodes)


def independence_number(adj, n, max_nodes):
    if _native is not None and n <= _NATIVE_MAX_N:
        return _native.independence_number(list(adj), n, max_nodes)
    return _pure.independence_number(adj, n, max_nodes)
