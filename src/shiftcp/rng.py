"""Deterministic, addressable random streams.

Every source of randomness in the package is identified by a ``(seed, stream)``
pair. Replaying any part of an experiment only requires knowing its stream
address; results never depend on thread scheduling or evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class RngStream:
    """Addressable source of randomness.

    Identical ``(seed, stream)`` pairs always produce identical draw
    sequences: :meth:`generator` returns a fresh generator positioned at the
    start of the stream, so two calls on the same stream replay the same
    draws. Use :meth:`substream` to derive independent child streams.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        # Outside [0, 2**64) two addresses would share their draws; a bool would replay seed 0 or 1.
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {value}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.default_rng([self.seed, self.stream])

    def substream(self, *keys: int | str) -> "RngStream":
        """Derive a child stream addressed by ``keys``.

        The child id is a 64-bit digest of the parent stream id and the key
        path, so distinct paths collide with negligible probability and the
        derivation is stable across platforms and runs.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream.to_bytes(8, "little"))
        for key in keys:
            if isinstance(key, bool) or not isinstance(key, (int, str)):
                raise TypeError(f"substream keys must be int or str, got {type(key).__name__}")
            if isinstance(key, int):
                if not -(1 << 63) <= key < 1 << 63:
                    raise ValueError(f"substream int key {key} lies outside the signed 64-bit range")
                h.update(b"i")
                h.update(key.to_bytes(8, "little", signed=True))
            else:
                raw = key.encode("utf-8")
                h.update(b"s")
                h.update(len(raw).to_bytes(4, "little"))
                h.update(raw)
        return RngStream(self.seed, int.from_bytes(h.digest(), "little"))
