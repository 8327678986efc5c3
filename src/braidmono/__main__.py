"""`python -m braidmono` runs the command line; importing this module does not."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
