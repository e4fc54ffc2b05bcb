"""``python -m repro.fleet``: sweep the grid of :mod:`repro.fleet.grid`."""

from repro.fleet.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
