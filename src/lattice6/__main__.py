"""``python -m lattice6``: the lattice6 command line."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
