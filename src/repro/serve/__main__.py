"""``python -m repro.serve``: sweep the grid of :mod:`repro.serve.grid`."""

from repro.serve.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
