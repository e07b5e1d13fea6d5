"""python -m crmgraph runs the command-line interface, as the crmgraph script does."""

from .cli import main

if __name__ == "__main__":
    main()
