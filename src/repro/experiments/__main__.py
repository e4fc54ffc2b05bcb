"""``python -m repro.experiments``: sweep the figures grid of :mod:`repro.experiments.grid`."""

from repro.experiments.grid import GRID
from repro.sweeps.grid import main

if __name__ == "__main__":
    raise SystemExit(main(GRID))
