"""Bloom filter for distributed join pruning.

The scale pattern: build partial bitmaps per batch over the (small) key
side, OR-merge them (bitmaps are mergeable like all the engine's
sketches), let the prefilter map's closure carry the merged filter, and
prefilter the big side inside ``map_batches`` before the exact join — the
join then sees only probable matches plus a bounded false-positive tail,
never the full big side.

Deterministic by construction: splitmix64 double hashing
(Kirsch-Mitzenmacher: idx_i = h1 + i*h2 mod m) — vectorized over int64
key arrays, no Python-level per-key hashing.
"""

from __future__ import annotations

import numpy as np

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 finalizer (public domain constant set)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(seed)
        z = (z ^ (z >> np.uint64(30))) * _C1
        z = (z ^ (z >> np.uint64(27))) * _C2
        return z ^ (z >> np.uint64(31))


class BloomFilter:
    """Fixed-size bit-array Bloom filter over int64 keys.

    num_bits must be a power of two. With k hashes and n keys the false
    positive rate is ~(1 - e^(-k*n/m))^k; the defaults (m=2^17, k=7) give
    ~1e-7 at n=2,000 keys (size m ~ 10n bits for ~1% fp in general).
    False NEGATIVES are impossible — the exact join after the prefilter
    removes false positives, so end-to-end results are exact."""

    def __init__(self, num_bits: int = 1 << 17, num_hashes: int = 7) -> None:
        if num_bits & (num_bits - 1) != 0:
            raise ValueError("num_bits must be a power of two")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = np.zeros(num_bits // 8, dtype=np.uint8)

    def _indices(self, keys: np.ndarray) -> list[np.ndarray]:
        h1 = _mix(keys, 0x243F6A8885A308D3)
        h2 = _mix(keys, 0x13198A2E03707344) | np.uint64(1)
        mask = np.uint64(self.num_bits - 1)
        with np.errstate(over="ignore"):
            return [(h1 + np.uint64(i) * h2) & mask
                    for i in range(self.num_hashes)]

    def add_many(self, keys: np.ndarray) -> None:
        for idx in self._indices(np.asarray(keys, dtype=np.int64)):
            np.bitwise_or.at(self.bits, (idx >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        out = np.ones(len(keys), dtype=bool)
        for idx in self._indices(keys):
            byte = self.bits[(idx >> np.uint64(3)).astype(np.int64)]
            bit = (byte >> (idx & np.uint64(7)).astype(np.uint8)) & 1
            out &= bit.astype(bool)
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("cannot merge Bloom filters with different geometry")
        self.bits |= other.bits
        return self

    def to_bytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        bf = cls(num_bits=len(raw) * 8)
        bf.bits = np.frombuffer(raw, dtype=np.uint8).copy()
        return bf
