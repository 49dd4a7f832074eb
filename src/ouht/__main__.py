"""Entry point of ``python -m ouht`` and of the ``ouht`` script."""

import sys


def main(argv=None) -> int:
    # every stream is seeded from (seed, tags, block), never from OS entropy,
    # yet numpy.random imports secrets -> hmac -> _hashlib, which maps
    # OpenSSL's libcrypto.  A None entry makes that import fail, and hashlib
    # and hmac fall back to their builtin digests; setdefault leaves a
    # _hashlib that the caller has already loaded alone
    sys.modules.setdefault("_hashlib", None)
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
