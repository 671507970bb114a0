"""Deterministic sub-seed derivation for per-stock randomness.

All random draws in this package flow through numpy Generator objects
backed by PCG64. Parallel per-stock work gets one independent stream per
stock, derived from the master seed and the ticker string by hashing, so
the execution schedule can never change a result.
"""


def derive_seed(master, *labels):
    """Fold string labels into a master seed.

    Parameters
    ----------
    master : int
        Master seed for the whole run.
    *labels
        Any values with a stable str(); typically a ticker and a purpose
        tag such as "shuffle".

    Returns
    -------
    int
        64-bit integer suitable for numpy.random.default_rng.
    """
    # imported here: hashlib loads OpenSSL, which a run that draws nothing
    # (a CSV conditional or dfa run, factors) need not carry
    import hashlib
    h = hashlib.sha256(str(int(master)).encode("ascii"))
    for lab in labels:
        h.update(b"\x1f")
        h.update(str(lab).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")
