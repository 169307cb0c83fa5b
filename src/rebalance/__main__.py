"""Run the command line interface: ``python -m rebalance``."""

from .cli import main

if __name__ == "__main__":
    main()
