"""`python -m squelchsim`: the same command line as the `squelchsim` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
