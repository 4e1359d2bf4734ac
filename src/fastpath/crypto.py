"""Pluggable signature scheme.

The protocol treats signatures as a black box: any scheme exposing
keypair/sign/verify works. The default test scheme is a keyed digest,
sig = H(tag | signer | message). It offers no secrecy (the secret equals
the public identity) but is deterministic and collision resistant, which
is all the protocol logic and the simulator need. A production deployment
would plug in a real scheme here.
"""

from __future__ import annotations

import functools

from .encoding import digest, enc_u64

KEY_SIZE = 32


class KeyedDigestScheme:
    """Deterministic signature stand-in: signing key == public key."""

    def keypair(self, seed: bytes) -> tuple[bytes, bytes]:
        key = digest(b"key:" + seed)
        return key, key

    def sign(self, signing_key: bytes, message: bytes) -> bytes:
        return digest(b"sig:" + signing_key + message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if not isinstance(signature, bytes) or len(signature) != KEY_SIZE:
            return False
        return signature == digest(b"sig:" + public_key + message)


DEFAULT_SCHEME = KeyedDigestScheme()


@functools.cache
def validator_public_key(index: int) -> bytes:
    """Identity key of committee member `index`, derived deterministically.

    Cached, one entry per index looked up: the committee members, since a
    claimed signer index is range-checked before its key is looked up."""
    _, pk = DEFAULT_SCHEME.keypair(b"validator:" + enc_u64(index))
    return pk


def user_keypair(name: str) -> tuple[bytes, bytes]:
    return DEFAULT_SCHEME.keypair(b"user:" + name.encode("utf-8"))
