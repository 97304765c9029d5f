"""Hardware-faithful pseudo-random number generation.

The FPGA traffic generators draw their randomness from linear-feedback
shift registers seeded through the "random initialization" registers of
the TG register bench (Slide 10).  This module reproduces that
behaviour: :class:`Lfsr32` is a maximal-length 32-bit Galois LFSR, and
:class:`LfsrRandom` layers the distributions the stochastic traffic
models need (uniform integers, Bernoulli trials and exponential
variates) on top of it.

Using an LFSR instead of Python's Mersenne Twister keeps the software
emulation bit-compatible with what a hardware TG would produce from the
same seed, and makes every experiment reproducible from the seed
registers alone.

The register is shifted a byte per table lookup, as a parallel-CRC
circuit shifts a word per clock.  In this Galois register feedback
enters below bit 21 only at bits 0-1, and only from earlier output
bits, so ``k <= 8`` steps depend on the low ``k`` bits alone: the
register after them is ``(s >> k) ^ feedback[k][s & (2**k - 1)]`` and
the ``k`` output bits are ``out[k][s & (2**k - 1)]``.  Both tables are
built once at import from :meth:`Lfsr32.next_bit`, the one-bit step
that stays the specification, so the sequence is the same bit for bit.
"""

from __future__ import annotations

import math

#: Taps x^32 + x^22 + x^2 + x^1 + 1 (maximal length, period 2^32 - 1).
_GALOIS_MASK_32 = 0x80200003

_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: SplitMix64 increment (golden-ratio gamma), the standard stream
#: splitter constant.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One SplitMix64 finalisation round (full 64-bit avalanche)."""
    x = (x + _SPLITMIX_GAMMA) & _MASK_64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK_64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK_64
    x ^= x >> 31
    return x


def derive_stream_seed(root_seed: int, *stream: int) -> int:
    """An independent 32-bit LFSR seed for sub-stream ``(root_seed, *stream)``.

    The experiment runner launches many emulations from one user-level
    seed — several traffic generators per scenario, many scenarios per
    sweep, possibly in parallel worker processes.  Deriving each TG
    seed as ``root_seed + i`` (the seed-register convention of a single
    hand-configured platform) makes *neighbouring* scenarios share LFSR
    streams: TG 1 of the run seeded 1 replays TG 0 of the run seeded 2.
    This function spawns statistically independent streams instead:
    each key of ``stream`` (scenario content hash, generator index, ...)
    is absorbed through a SplitMix64 avalanche round, so any change in
    any key decorrelates the whole 32-bit output.

    The result is deterministic in its inputs alone — sweep workers can
    derive it locally in any order, which is what keeps serial and
    parallel sweep runs bit-identical — and never zero (the all-zero
    LFSR state is its fixed point, see :class:`Lfsr32`).
    """
    state = _splitmix64(root_seed & _MASK_64)
    for key in stream:
        state = _splitmix64(state ^ (key & _MASK_64))
    seed = (state ^ (state >> 32)) & 0xFFFFFFFF
    return seed if seed else 0x1B00B1E5


class Lfsr32:
    """A 32-bit maximal-length Galois LFSR.

    The register must never be zero (the all-zero state is the single
    fixed point of an LFSR), so a zero seed is mapped to a fixed
    non-zero constant exactly as the hardware seed-load logic would.
    """

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        seed &= 0xFFFFFFFF
        self.state = seed if seed else 0x1B00B1E5

    def next_bit(self) -> int:
        """Advance one step; return the output bit."""
        out = self.state & 1
        self.state >>= 1
        if out:
            self.state ^= _GALOIS_MASK_32
        return out

    def next_bits(self, n: int) -> int:
        """Shift out ``n`` bits (LSB first) as an ``n``-bit integer."""
        if not 0 < n <= 64:
            raise ValueError(f"bit count must be in [1, 64], got {n}")
        s = self.state
        value = 0
        shift = 0
        while n >= 8:
            low = s & 0xFF
            value |= _OUT_8[low] << shift
            s = (s >> 8) ^ _FEEDBACK_8[low]
            shift += 8
            n -= 8
        if n:
            low = s & ((1 << n) - 1)
            value |= _OUT[n][low] << shift
            s = (s >> n) ^ _FEEDBACK[n][low]
        self.state = s
        return value

    def next_word(self) -> int:
        """A full 32-bit pseudo-random word (four byte steps)."""
        out = _OUT_8
        feedback = _FEEDBACK_8
        s = self.state
        low = s & 0xFF
        word = out[low]
        s = (s >> 8) ^ feedback[low]
        low = s & 0xFF
        word |= out[low] << 8
        s = (s >> 8) ^ feedback[low]
        low = s & 0xFF
        word |= out[low] << 16
        s = (s >> 8) ^ feedback[low]
        low = s & 0xFF
        word |= out[low] << 24
        self.state = (s >> 8) ^ feedback[low]
        return word


def _chunk_tables():
    """``out[k]``/``feedback[k]`` for ``k = 1..8`` steps of the register.

    Entry ``low`` of each table is what ``k`` calls of
    :meth:`Lfsr32.next_bit` do to a register holding ``low``: the output
    bits (LSB first) and the register left behind.  Index 0 is unused.
    """
    out, feedback = [()], [()]
    register = Lfsr32()
    for k in range(1, 9):
        out_k, feedback_k = [], []
        for low in range(1 << k):
            register.state = low
            bits = 0
            for i in range(k):
                bits |= register.next_bit() << i
            out_k.append(bits)
            feedback_k.append(register.state)
        out.append(tuple(out_k))
        feedback.append(tuple(feedback_k))
    return tuple(out), tuple(feedback)


_OUT, _FEEDBACK = _chunk_tables()
_OUT_8, _FEEDBACK_8 = _OUT[8], _FEEDBACK[8]


class LfsrRandom:
    """Distribution sampling on top of an :class:`Lfsr32`.

    All methods consume a bounded number of LFSR bits, mirroring how a
    hardware TG converts shift-register output into traffic parameters.
    """

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self._lfsr = Lfsr32(seed)

    def reseed(self, seed: int) -> None:
        self._lfsr.reseed(seed)

    @property
    def state(self) -> int:
        return self._lfsr.state

    def random(self) -> float:
        """Uniform float in [0, 1) with 32-bit resolution."""
        return self._lfsr.next_word() / 4294967296.0

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi].

        Uses rejection sampling over the smallest covering power of
        two, so the distribution is exactly uniform (no modulo bias).
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return lo
        bits = max(1, (span - 1).bit_length())
        while True:
            draw = self._lfsr.next_bits(bits)
            if draw < span:
                return lo + draw

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` (used for Markov transitions)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if p == 0.0:
            return False
        if p == 1.0:
            return True
        return self.random() < p

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``)."""
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate}")
        u = max(self.random(), 2.0 ** -33)
        return -math.log(u) / rate

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.uniform_int(0, len(seq) - 1)]
