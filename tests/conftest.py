from __future__ import annotations

import sys
from pathlib import Path

import pytest

# tests/ for genutil; bench/ for the benchmark's independent oracles.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

from quivermoduli import GramLattice


@pytest.fixture
def mukai3() -> GramLattice:
    """Rank-3 even lattice with pairing c^2 - 2rs on (r, c, s)."""
    return GramLattice(((0, 0, -1), (0, 2, 0), (-1, 0, 0)), even=True)


@pytest.fixture
def hyperbolic() -> GramLattice:
    return GramLattice(((0, 1), (1, 0)), even=True)
