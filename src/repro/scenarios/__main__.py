"""``python -m repro.scenarios``: sweep the grid of :mod:`repro.scenarios.grid`."""

from repro.scenarios.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
