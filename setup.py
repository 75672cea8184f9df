"""Setuptools shim for environments without the ``wheel`` package.

``pip install -e . --no-use-pep517 --no-build-isolation`` uses this legacy
path.  The repository declares no package metadata: there is no
``pyproject.toml`` or ``setup.cfg``, and ``setup()`` below passes none.
Run from a checkout with ``PYTHONPATH=src python -m repro``.

Dependency note: the packed fast path (``repro.fastpath``) uses
``numpy.bitwise_count``, available from **NumPy >= 2.0**.  Older NumPy
still works — ``repro.fastpath.bitops`` detects the missing ufunc and
falls back to a per-byte lookup table (slower popcounts, identical
results), so no hard version pin is required.
"""

from setuptools import setup

setup()
