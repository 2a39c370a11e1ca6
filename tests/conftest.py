"""Shared fixtures."""
from __future__ import annotations

import pytest

from deptrees import build_count_table


@pytest.fixture(scope="session")
def table_2048():
    """One big count table shared by everything that needs large n."""
    return build_count_table(2048)
