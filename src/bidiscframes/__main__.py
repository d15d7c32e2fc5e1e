"""`python -m bidiscframes`: the `bdf` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
