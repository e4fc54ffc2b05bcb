"""``python -m repro.multicluster``: sweep the grid of :mod:`repro.multicluster.grid`."""

from repro.multicluster.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
