"""Exact Tate hypercohomology of finite groups and class-formation checking.

All computation is over Z and every result is an exact integer, with no
tolerance anywhere in the package.  float64 is used only as exact storage
for matrix products whose every partial sum stays below 2^53.
"""

__version__ = "0.1.0"
