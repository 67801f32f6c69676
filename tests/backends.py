"""The two array backends, for tests that run one stage on each.

Every stage with a numpy route keeps an exact pure-Python one, and
:func:`repro.core.arrays.have_numpy` picks between them; its test hook
``_force_python`` forces the pure-Python route while numpy imports.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import arrays

#: The routes a stage can run on here.
ROUTES = ("numpy", "python") if arrays.have_numpy() else ("python",)

needs_numpy = pytest.mark.skipif(
    not arrays.have_numpy(), reason="needs the numpy route"
)


@contextmanager
def route(name):
    """Build on the numpy route or the pure-Python one while active."""
    saved = arrays._force_python
    arrays._force_python = name == "python"
    try:
        yield
    finally:
        arrays._force_python = saved
