"""Fixed cryptographic primitives for the whole framework.

The hash and the authenticated cipher are named here exactly once so that
every module, every stored address and every golden test value agree on
them:

* 32-byte hash: SHA-256
* authenticated symmetric scheme: ChaCha20-Poly1305

Nothing in this package invents cryptography; this module only pins which
standard primitives are in use and gives them a stable calling surface.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

AEAD_NONCE_SIZE = 12
AEAD_TAG_SIZE = 16

_sha256 = hashlib.sha256


def digest(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts``."""
    return _sha256(b"".join(parts)).digest()


def cipher(key: bytes) -> ChaCha20Poly1305:
    """The AEAD object for ``key``; build it once per key and reuse it."""
    return ChaCha20Poly1305(key)


def encrypt(aead: ChaCha20Poly1305, nonce: bytes, plaintext: bytes,
            aad: bytes = b"") -> bytes:
    return aead.encrypt(nonce, plaintext, aad)


def decrypt(aead: ChaCha20Poly1305, nonce: bytes, ciphertext: bytes,
            aad: bytes = b"") -> bytes | None:
    """Decrypt and authenticate; ``None`` on any authentication failure."""
    try:
        return aead.decrypt(nonce, ciphertext, aad)
    except InvalidTag:
        return None
