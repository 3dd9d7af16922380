"""The involute ladder under its benchmark name.

Both backends iterate through one loop, ``iterate._ladder``.  The per-layer
tracer of ``perfbench/`` times that loop as ``kernels.iterate_float`` and
counts the first element of its result, the number of steps taken.  This
module keeps the name for the tracer and holds no code of its own.
"""
from .iterate import _ladder as iterate_float  # noqa: F401
