"""``python -m repro.chaos``: sweep the grid of :mod:`repro.chaos.grid`."""

from repro.chaos.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
