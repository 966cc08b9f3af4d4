"""Named, seeded random-number streams.

Every stochastic decision in the substrate (ECMP hashing jitter, workload
inter-arrival times, fault injection) draws from a named stream derived from
a single root seed.  Two runs with the same root seed and the same stream
names therefore produce identical event sequences, independent of the order
in which subsystems are constructed.

A stream draws exactly the values ``numpy.random.default_rng(seed)`` draws,
bit for bit, without importing numpy: seeding is numpy's ``SeedSequence``
feeding a ``PCG64`` bit generator (128-bit LCG, XSL-RR output), and each
draw is the algorithm numpy's ``Generator`` uses for it (DESIGN.md, "RNG
stream contract").  ``tests/sim/test_rng.py`` checks that against numpy.

A stream's seed is the first 8 bytes, little-endian, of the SHA-256 of
``"{root_seed}:{name}"``.  The digest is computed here in pure Python
(:func:`_sha256`): a run hashes a handful of short names, and ``hashlib``
would map OpenSSL into every process for them.
"""

from __future__ import annotations

from math import exp, log1p
from typing import Dict, List, Optional, Tuple

from repro.sim.ziggurat import FE, KE, WE

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: ``u64 >> 11`` times this is a double in [0, 1)
_TWO_M53 = 2.0 ** -53
#: right edge of the ziggurat's base layer
_ZIGGURAT_R = 7.6971174701310497140446280481

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# SHA-256's initial hash value and round constants (FIPS 180-4, 5.3.3
# and 4.2.2)
_SHA256_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
    0x1f83d9ab, 0x5be0cd19,
)
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)


def _sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (FIPS 180-4).

    Rotations leave bits above 32 in place; they never reach the low 32
    bits, and every value that is stored or fed back is masked.
    """
    bits = len(data) * 8
    data += b"\x80" + bytes((55 - len(data)) % 64) + bits.to_bytes(8, "big")
    state = list(_SHA256_H0)
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big")
             for i in range(block, block + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = state
        for k, wt in zip(_SHA256_K, w):
            t1 = (h + ((e >> 6 | e << 26) ^ (e >> 11 | e << 21)
                       ^ (e >> 25 | e << 7))
                  + ((e & f) ^ (~e & g)) + k + wt)
            t2 = (((a >> 2 | a << 30) ^ (a >> 13 | a << 19)
                   ^ (a >> 22 | a << 10))
                  + ((a & b) ^ (a & c) ^ (b & c)))
            h, g, f, e = g, f, e, (d + t1) & _MASK32
            d, c, b, a = c, b, a, (t1 + t2) & _MASK32
        state = [(s + v) & _MASK32
                 for s, v in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(word.to_bytes(4, "big") for word in state)


def _pcg64_seed(seed: int) -> Tuple[int, int]:
    """``(state, inc)`` of ``numpy.random.PCG64(seed)``.

    Ports ``SeedSequence(seed).generate_state(4, uint64)`` and then
    ``pcg_setseq_128_srandom_r``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words: List[int] = []
    for i in range(8):                     # 4 uint64 = 8 uint32, low first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> 16))
    u64 = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    initstate = u64[0] << 64 | u64[1]
    inc = (u64[2] << 64 | u64[3]) << 1 & _MASK128 | 1
    state = (inc + initstate) & _MASK128   # one step from 0 gives ``inc``
    return (state * _PCG_MULT + inc) & _MASK128, inc


class RngStream:
    """A seeded stream drawing numpy ``default_rng(seed)``'s exact values."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self._state, self._inc = _pcg64_seed(seed)
        #: high half of the last u64 split by ``_next32`` (PCG64's buffer)
        self._half: Optional[int] = None

    def _next64(self) -> int:
        """Step the LCG, then output XSL-RR of the new state."""
        state = self._state = (self._state * _PCG_MULT + self._inc) \
            & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        """Low half of a fresh u64, or the high half a previous call kept."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * _TWO_M53

    def _standard_exponential(self) -> float:
        """numpy's 256-layer ziggurat (``random_standard_exponential``)."""
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:
                return _ZIGGURAT_R - log1p(-self._next_double())
            if ((FE[idx - 1] - FE[idx]) * self._next_double() + FE[idx]
                    < exp(-x)):
                return x

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._next_double()

    def randint(self, low: int, high: int) -> int:
        """Integer in ``[low, high)``: numpy's Lemire-bounded ``integers``."""
        span = high - 1 - low              # numpy's closed-range ``rng``
        if span < _MASK32:
            if span <= 0:
                if span == 0:
                    return low             # numpy draws nothing here
                raise ValueError(f"randint: high ({high}) <= low ({low})")
            bound = span + 1
            m = self._next32() * bound
            if m & _MASK32 < bound:
                threshold = (_MASK32 - span) % bound
                while m & _MASK32 < threshold:
                    m = self._next32() * bound
            return low + (m >> 32)
        if span == _MASK32:
            return low + self._next32()
        if span < _MASK64:
            bound = span + 1
            m = self._next64() * bound
            if m & _MASK64 < bound:
                threshold = (_MASK64 - span) % bound
                while m & _MASK64 < threshold:
                    m = self._next64() * bound
            return low + (m >> 64)
        if span == _MASK64:
            return low + self._next64()
        raise ValueError(f"randint: range [{low}, {high}) exceeds 64 bits")

    def exponential(self, mean: float) -> float:
        return mean * self._standard_exponential()

    def bernoulli(self, p: float) -> bool:
        return self._next_double() < p


class RngRegistry:
    """Derives reproducible per-name streams from one root seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Get (or create) the stream for ``name``.

        The stream's seed is a stable hash of ``(root_seed, name)`` (see
        the module docstring), so construction order does not matter.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = _sha256(f"{self.root_seed}:{name}".encode())
        seed = int.from_bytes(digest[:8], "little")
        stream = RngStream(name, seed)
        self._streams[name] = stream
        return stream
