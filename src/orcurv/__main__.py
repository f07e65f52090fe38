"""`python -m orcurv`: the `orc` process, `cli.entry`. Importing this
module runs nothing."""

from .cli import entry

if __name__ == "__main__":
    entry()
