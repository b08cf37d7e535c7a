"""Content-addressed cache for expensive Monte-Carlo integrals.

Entries are keyed by the sha256 of a canonical JSON key (the config sections
the value depends on, seed, sample count, purpose); payloads carry their own
checksum so corrupted files are detected and transparently recomputed.  Only
a run that looks up a sampled f-bar imports this module, and with it the
OpenSSL-backed `hashlib`.
"""

from __future__ import annotations

import hashlib
import json
import os

__all__ = ["Cache"]


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Cache:
    def __init__(self, root):
        self.root = os.fspath(root)

    def _path(self, key: dict) -> str:
        h = hashlib.sha256(_canon(key).encode()).hexdigest()
        return os.path.join(self.root, f"{h}.json")

    def get(self, key: dict):
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        payload = doc.get("value")
        check = hashlib.sha256(_canon(payload).encode()).hexdigest()
        if doc.get("checksum") != check or doc.get("key") != key:
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return payload

    def put(self, key: dict, value) -> None:
        os.makedirs(self.root, exist_ok=True)
        doc = {
            "key": key,
            "value": value,
            "checksum": hashlib.sha256(_canon(value).encode()).hexdigest(),
        }
        with open(self._path(key), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    def get_or_compute(self, key: dict, compute):
        val = self.get(key)
        if val is None:
            val = compute()
            self.put(key, val)
        return val
