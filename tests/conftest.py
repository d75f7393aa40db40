"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def hide_numpy_2_names(monkeypatch):
    """A call that deletes, until the test ends, the top-level and linalg
    names numpy 2.0 added: pyproject.toml declares numpy >= 1.24, so
    ctsbench may not need them."""

    def hide():
        for name in ("vecdot", "matvec", "vecmat", "concat", "permute_dims", "astype", "cumulative_sum"):
            monkeypatch.delattr(np, name, raising=False)
        for name in ("vecdot", "vector_norm", "matrix_norm", "matrix_transpose"):
            monkeypatch.delattr(np.linalg, name, raising=False)

    return hide
