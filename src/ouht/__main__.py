"""Entry point of ``python -m ouht`` and of the ``ouht`` script."""

import os
import sys


def main(argv=None) -> int:
    # every stream is seeded from (seed, tags, block), never from OS entropy,
    # yet numpy.random imports secrets -> hmac -> _hashlib, which maps
    # OpenSSL's libcrypto.  A None entry makes that import fail, and hashlib
    # and hmac fall back to their builtin digests; setdefault leaves a
    # _hashlib that the caller has already loaded alone
    sys.modules.setdefault("_hashlib", None)
    # numpy's OpenBLAS starts nproc - 1 threads that each spin ~0.1 s of CPU,
    # for one BLAS call (density's 20-weight dot) that never runs threaded
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
