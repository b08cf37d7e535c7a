"""Content-addressed cache for expensive Monte-Carlo integrals.

Files are named by the crc32 of a canonical JSON key (the config sections
the value depends on, seed, sample count, purpose) and hold the full key,
which a read compares, so keys sharing a name miss rather than swap values.
Payloads carry a crc32 checksum, so corrupted files are recomputed.  `zlib`
is loaded by numpy anyway; OpenSSL's `hashlib` is not loaded.
"""

from __future__ import annotations

import json
import os
import zlib

__all__ = ["Cache"]


def _crc(obj) -> str:
    return f"{zlib.crc32(json.dumps(obj, sort_keys=True, separators=(',', ':')).encode()):08x}"


class Cache:
    def __init__(self, root):
        self.root = os.fspath(root)

    def _path(self, key: dict) -> str:
        return os.path.join(self.root, f"{_crc(key)}.json")

    def get(self, key: dict):
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            payload = doc.get("value")
        except (OSError, json.JSONDecodeError, AttributeError):     # AttributeError: not an object
            return None
        if doc.get("checksum") != _crc(payload) or doc.get("key") != key:
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return payload

    def put(self, key: dict, value) -> None:
        os.makedirs(self.root, exist_ok=True)
        doc = {"key": key, "value": value, "checksum": _crc(value)}
        with open(self._path(key), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    def get_or_compute(self, key: dict, compute):
        val = self.get(key)
        if val is None:
            val = compute()
            self.put(key, val)
        return val
