"""Seed handling and the package's one SHA-256.

Every random choice in the package flows through a ``random.Random`` instance
(CPython's MT19937 Mersenne Twister), seeded with a 64-bit integer.  Component
sub-seeds are derived from one global seed by hashing ``"<seed>:<label>"``
with SHA-256 and keeping the first 8 bytes, so any component can be re-run in
isolation from the same global seed.

``sha256`` is CPython's built-in SHA-256 (``_sha2`` on 3.12 and later,
``_sha256`` before), so no run loads OpenSSL's libcrypto through ``hashlib``;
only an interpreter built without either falls back to ``hashlib``.  The
digests are the same either way.  ``derive_seed`` and ``graph.graph_hash``
both hash through it.
"""

import random

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["derive_seed", "make_rng", "sha256"]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 64-bit sub-seed for the named component."""
    digest = sha256(f"{seed & _MASK64}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, label: str | None = None) -> random.Random:
    if label is not None:
        seed = derive_seed(seed, label)
    return random.Random(seed & _MASK64)
