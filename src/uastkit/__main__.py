"""``python -m uastkit``: the ``uast`` command line without installation."""

from .cli import entry

if __name__ == "__main__":
    entry()
