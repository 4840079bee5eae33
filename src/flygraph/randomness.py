"""Seeded source of unbiased bits with exact consumption accounting.

All randomness in the package flows through :class:`BitSource`.  The stream
is a deterministic function of the seed (a 64-bit mixing sequence driven by
a counter), so replaying a seed replays every downstream answer bit for bit,
on any platform.  ``bits_consumed`` counts exactly how many bits each draw
cost, which the resource tests lean on.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Flag values carried by parent links.  A DIRECT link points at the node that
# was drawn uniformly; a COPY link inherits that node's own outgoing edge.
DIRECT = 0
COPY = 1


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class BitSource:
    """Deterministic bit stream.

    Bits are produced 64 at a time from the mixer and handed out from a small
    buffer, least significant bit first.  Every public draw reports its exact
    cost through ``bits_consumed``.
    """

    __slots__ = ("_key", "_buf", "_avail", "bits_consumed")

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise ValueError(f"seed {seed!r} is not an int")
        self._key = seed & _MASK64
        self._buf = 0
        self._avail = 0
        self.bits_consumed = 0

    def bits(self, k: int) -> int:
        """Return ``k`` fresh bits as an integer in [0, 2**k), consuming exactly ``k``."""
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        buf = self._buf
        avail = self._avail
        while avail < k:
            self._key = (self._key + _GOLDEN) & _MASK64
            buf |= _mix(self._key) << avail
            avail += 64
        out = buf & ((1 << k) - 1)
        self._buf = buf >> k
        self._avail = avail - k
        self.bits_consumed += k
        return out

    def uniform_flag(self) -> int:
        """DIRECT or COPY with probability exactly 1/2 each; consumes one bit."""
        return self.bits(1)

    def uniform_int(self, m: int) -> int:
        """Exactly uniform integer in [0, m).

        Power-of-two rejection with remainder reuse: the rejected remainder
        stays uniform on a smaller range and seeds the next round, so the
        expected cost is below ceil(log2 m) + 2 bits.  ``m == 1`` consumes
        nothing, and ``m == 2**k`` consumes exactly ``k`` bits.
        """
        if m <= 0:
            raise ValueError("m must be positive")
        have = 1
        x = 0
        while True:
            k = ((m - 1) // have).bit_length()   # least k with have << k >= m
            x = (x << k) | self.bits(k)
            have <<= k
            if x < m:
                return x
            have -= m
            x -= m
