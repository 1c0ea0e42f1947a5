"""Canonical serialization and content hashing.

Every hashed artifact (ledger snapshots, cycle records, policy reports)
serializes through the same canonical form: UTF-8 JSON, lexicographically
sorted keys, no insignificant whitespace, scaled decimals rendered as
strings with exactly 9 fractional digits. Hash is SHA-256, lowercase hex.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


# json.dumps with these settings would build a new encoder on every call
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
)


def canonical_bytes(payload: Any) -> bytes:
    return _ENCODER.encode(payload).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def content_hash(payload: Any) -> str:
    return sha256_hex(canonical_bytes(payload))
