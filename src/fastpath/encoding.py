"""Canonical byte encoding used for every digest in the protocol.

Every wire type serializes through these helpers with a fixed field order,
fixed-width integers, and length prefixes on variable-sized data, so that
equal values always produce equal bytes and digests are reproducible across
runs and processes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

# Fixed-width big-endian integers; bound methods of compiled structs, so an
# encoding costs no Python frame.
enc_u32 = struct.Struct(">I").pack
enc_u64 = struct.Struct(">Q").pack
enc_i64 = struct.Struct(">q").pack


def enc_bytes(data: bytes) -> bytes:
    return enc_u32(len(data)) + data


def enc_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return enc_u32(len(data)) + data


def enc_seq(chunks: Iterable[bytes]) -> bytes:
    parts = list(chunks)
    return enc_u32(len(parts)) + b"".join(parts)


def enc_opt(chunk: bytes | None) -> bytes:
    if chunk is None:
        return b"\x00"
    return b"\x01" + chunk


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def tagged_digest(tag: str, data: bytes) -> bytes:
    """Domain-separated digest; `tag` names the message kind."""
    return hashlib.sha256(enc_str(tag) + data).digest()
