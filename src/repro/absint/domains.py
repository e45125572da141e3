"""Abstract domains for the solver-verified analysis tier.

Three forward domains over fixed-width bitvectors, combined as a
reduced product in :class:`AbsValue`:

* :class:`KnownBits` — the LLVM ``computeKnownBits`` lattice: a pair of
  masks ``(known_zero, known_one)`` with ``known_zero & known_one = 0``.
  γ(kz, ko) = { x | x & kz = 0 and x & ko = ko }.
* :class:`URange` — a non-wrapping unsigned interval ``[lo, hi]``.
* :class:`SRange` — a non-wrapping signed interval ``[lo, hi]`` (stored
  as Python ints in two's-complement value space).

Every element concretizes to a *set of defined, poison-free values*:
poison and undef are handled at the :mod:`repro.absint.prove` layer
(an undef occurrence is ⊤; an operation that may be poison is still
described by the abstraction of its ι value — matching the encoder,
whose ι is total and whose δ/ρ are separate conditions).

The product is *reduced* lazily by :meth:`AbsValue.reduce`: the
unsigned range is tightened from the known bits and vice versa, and
the signed range is synchronized with the unsigned one when the sign
bit is determined.  Reduction steps must be sound individually — each
one is exercised by the exhaustive width ≤ 4 self-check
(:mod:`repro.absint.selfcheck`) and the ≥ 10k-program interpreter
cross-check in the test suite.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..ir.intops import mask, to_signed


class KnownBits:
    """``(known_zero, known_one)`` masks; invariant ``kz & ko == 0``."""

    __slots__ = ("width", "kz", "ko")

    def __init__(self, width: int, kz: int, ko: int):
        if kz & ko:
            raise ValueError("contradictory known bits (kz & ko != 0)")
        self.width = width
        self.kz = kz & mask(width)
        self.ko = ko & mask(width)

    @classmethod
    def top(cls, width: int) -> "KnownBits":
        return cls(width, 0, 0)

    @classmethod
    def const(cls, value: int, width: int) -> "KnownBits":
        value &= mask(width)
        return cls(width, ~value & mask(width), value)

    def is_singleton(self) -> bool:
        return (self.kz | self.ko) == mask(self.width)

    def value(self) -> int:
        """The unique concrete value (only when :meth:`is_singleton`)."""
        return self.ko

    def contains(self, x: int) -> bool:
        x &= mask(self.width)
        return (x & self.kz) == 0 and (x & self.ko) == self.ko

    def join(self, other: "KnownBits") -> "KnownBits":
        """Least upper bound: keep only bits known on both sides."""
        return KnownBits(self.width, self.kz & other.kz, self.ko & other.ko)

    def meet(self, other: "KnownBits") -> Optional["KnownBits"]:
        """Greatest lower bound; None when the intersection is empty."""
        kz = self.kz | other.kz
        ko = self.ko | other.ko
        if kz & ko:
            return None
        return KnownBits(self.width, kz, ko)

    def umin(self) -> int:
        """Smallest unsigned member: unknown bits at 0."""
        return self.ko

    def umax(self) -> int:
        """Largest unsigned member: unknown bits at 1."""
        return self.ko | (mask(self.width) & ~self.kz)

    def trailing_known(self) -> int:
        """Number of contiguous known bits from bit 0 upward."""
        known = self.kz | self.ko
        n = 0
        while n < self.width and (known >> n) & 1:
            n += 1
        return n

    def trailing_zeros(self) -> int:
        """Number of contiguous known-*zero* bits from bit 0 upward."""
        n = 0
        while n < self.width and (self.kz >> n) & 1:
            n += 1
        return n

    def enumerate(self) -> Iterator[int]:
        """All concrete members (used by exhaustive self-checks only)."""
        unknown = mask(self.width) & ~(self.kz | self.ko)
        positions = [i for i in range(self.width) if (unknown >> i) & 1]
        for combo in range(1 << len(positions)):
            x = self.ko
            for j, pos in enumerate(positions):
                if (combo >> j) & 1:
                    x |= 1 << pos
            yield x

    def __eq__(self, other) -> bool:
        return (isinstance(other, KnownBits) and self.width == other.width
                and self.kz == other.kz and self.ko == other.ko)

    def __hash__(self) -> int:
        return hash(("kb", self.width, self.kz, self.ko))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(
            "0" if (self.kz >> i) & 1 else "1" if (self.ko >> i) & 1 else "?"
            for i in reversed(range(self.width))
        )
        return "KnownBits(%s)" % bits


class URange:
    """Unsigned interval ``[lo, hi]``, non-wrapping (``lo <= hi``)."""

    __slots__ = ("width", "lo", "hi")

    def __init__(self, width: int, lo: int, hi: int):
        if not (0 <= lo <= hi <= mask(width)):
            raise ValueError("bad unsigned range [%d, %d] @ %d" % (lo, hi, width))
        self.width = width
        self.lo = lo
        self.hi = hi

    @classmethod
    def top(cls, width: int) -> "URange":
        return cls(width, 0, mask(width))

    @classmethod
    def const(cls, value: int, width: int) -> "URange":
        value &= mask(width)
        return cls(width, value, value)

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: int) -> bool:
        x &= mask(self.width)
        return self.lo <= x <= self.hi

    def join(self, other: "URange") -> "URange":
        return URange(self.width, min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "URange") -> Optional["URange"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return URange(self.width, lo, hi)

    def __eq__(self, other) -> bool:
        return (isinstance(other, URange) and self.width == other.width
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash(("ur", self.width, self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "URange[%d, %d]" % (self.lo, self.hi)


class SRange:
    """Signed interval ``[lo, hi]``, non-wrapping in signed order."""

    __slots__ = ("width", "lo", "hi")

    def __init__(self, width: int, lo: int, hi: int):
        if not (-(1 << (width - 1)) <= lo <= hi <= (1 << (width - 1)) - 1):
            raise ValueError("bad signed range [%d, %d] @ %d" % (lo, hi, width))
        self.width = width
        self.lo = lo
        self.hi = hi

    @classmethod
    def top(cls, width: int) -> "SRange":
        return cls(width, -(1 << (width - 1)), (1 << (width - 1)) - 1)

    @classmethod
    def const(cls, value: int, width: int) -> "SRange":
        s = to_signed(value, width)
        return cls(width, s, s)

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: int) -> bool:
        return self.lo <= to_signed(x, self.width) <= self.hi

    def join(self, other: "SRange") -> "SRange":
        return SRange(self.width, min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "SRange") -> Optional["SRange"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return SRange(self.width, lo, hi)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SRange) and self.width == other.width
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash(("sr", self.width, self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SRange[%d, %d]" % (self.lo, self.hi)


class AbsValue:
    """Reduced product of the three forward domains.

    γ(A) = γ(A.bits) ∩ γ(A.ur) ∩ γ(A.sr).  Constructors call
    :meth:`reduce` so facts flow between the components; a contradictory
    product (empty concretization discovered by reduction) is
    represented by ``self.empty == True`` — the caller decides what an
    empty abstraction means (e.g. an unreachable precondition).
    """

    __slots__ = ("width", "bits", "ur", "sr", "empty")

    def __init__(self, bits: KnownBits, ur: URange, sr: SRange,
                 _reduce: bool = True):
        assert bits.width == ur.width == sr.width
        self.width = bits.width
        self.bits = bits
        self.ur = ur
        self.sr = sr
        self.empty = False
        if _reduce:
            self.reduce()

    @classmethod
    def top(cls, width: int) -> "AbsValue":
        return cls(KnownBits.top(width), URange.top(width),
                   SRange.top(width), _reduce=False)

    @classmethod
    def const(cls, value: int, width: int) -> "AbsValue":
        return cls(KnownBits.const(value, width), URange.const(value, width),
                   SRange.const(value, width), _reduce=False)

    @classmethod
    def from_bits(cls, bits: KnownBits) -> "AbsValue":
        return cls(bits, URange.top(bits.width), SRange.top(bits.width))

    @classmethod
    def from_urange(cls, ur: URange) -> "AbsValue":
        return cls(KnownBits.top(ur.width), ur, SRange.top(ur.width))

    @classmethod
    def from_srange(cls, sr: SRange) -> "AbsValue":
        return cls(KnownBits.top(sr.width), URange.top(sr.width), sr)

    @classmethod
    def bottom(cls, width: int) -> "AbsValue":
        v = cls.top(width)
        v.empty = True
        return v

    def is_top(self) -> bool:
        return (not self.empty
                and self.bits == KnownBits.top(self.width)
                and self.ur == URange.top(self.width)
                and self.sr == SRange.top(self.width))

    def is_singleton(self) -> bool:
        if self.empty:
            return False
        return self.bits.is_singleton() or self.ur.is_singleton() or (
            self.sr.is_singleton()
        )

    def value(self) -> int:
        if self.bits.is_singleton():
            return self.bits.value()
        if self.ur.is_singleton():
            return self.ur.lo
        return self.sr.lo & mask(self.width)

    def contains(self, x: int) -> bool:
        if self.empty:
            return False
        return (self.bits.contains(x) and self.ur.contains(x)
                and self.sr.contains(x))

    # ------------------------------------------------------------------

    def reduce(self) -> "AbsValue":
        """Exchange information between the component domains (sound
        tightening only; iterated to a local fixpoint, which converges
        because every step shrinks at least one component)."""
        if self.empty:
            return self
        w = self.width
        full = mask(w)
        for _ in range(2 * w + 4):
            changed = False
            # known bits -> unsigned range
            ur = self.ur.meet(URange(w, self.bits.umin(), self.bits.umax()))
            if ur is None:
                return self._make_empty()
            if ur != self.ur:
                self.ur = ur
                changed = True
            # unsigned range -> known bits: bits above the highest
            # differing bit of lo and hi are common to every member
            diff = self.ur.lo ^ self.ur.hi
            if diff == 0:
                common = full
            else:
                common = full & ~((1 << diff.bit_length()) - 1)
            kz = common & ~self.ur.lo & full
            ko = common & self.ur.lo
            merged = self.bits.meet(KnownBits(w, kz, ko))
            if merged is None:
                return self._make_empty()
            if merged != self.bits:
                self.bits = merged
                changed = True
            # signed <-> unsigned: when neither range crosses its wrap
            # point the two orders agree on the halves
            half = 1 << (w - 1)
            if self.ur.hi < half or self.ur.lo >= half:
                # all members share a sign: the unsigned interval maps
                # to a signed interval exactly
                sr = self.sr.meet(SRange(w, to_signed(self.ur.lo, w),
                                         to_signed(self.ur.hi, w)))
                if sr is None:
                    return self._make_empty()
                if sr != self.sr:
                    self.sr = sr
                    changed = True
            if self.sr.lo >= 0 or self.sr.hi < 0:
                ur = self.ur.meet(URange(w, self.sr.lo & mask(w),
                                         self.sr.hi & mask(w)))
                if ur is None:
                    return self._make_empty()
                if ur != self.ur:
                    self.ur = ur
                    changed = True
            # sign bit known -> signed range half
            if w > 0:
                sign_bit = 1 << (w - 1)
                if self.bits.kz & sign_bit:
                    sr = self.sr.meet(SRange(w, 0, (1 << (w - 1)) - 1))
                    if sr is None:
                        return self._make_empty()
                    if sr != self.sr:
                        self.sr = sr
                        changed = True
                elif self.bits.ko & sign_bit:
                    sr = self.sr.meet(SRange(w, -(1 << (w - 1)), -1))
                    if sr is None:
                        return self._make_empty()
                    if sr != self.sr:
                        self.sr = sr
                        changed = True
                # signed range determines the sign bit
                if self.sr.lo >= 0:
                    merged = self.bits.meet(KnownBits(w, sign_bit, 0))
                elif self.sr.hi < 0:
                    merged = self.bits.meet(KnownBits(w, 0, sign_bit))
                else:
                    merged = self.bits
                if merged is None:
                    return self._make_empty()
                if merged != self.bits:
                    self.bits = merged
                    changed = True
            if not changed:
                break
        return self

    def _make_empty(self) -> "AbsValue":
        self.empty = True
        return self

    # ------------------------------------------------------------------

    def join(self, other: "AbsValue") -> "AbsValue":
        if self.empty:
            return other
        if other.empty:
            return self
        return AbsValue(self.bits.join(other.bits), self.ur.join(other.ur),
                        self.sr.join(other.sr), _reduce=False)

    def meet(self, other: "AbsValue") -> "AbsValue":
        if self.empty or other.empty:
            return AbsValue.bottom(self.width)
        bits = self.bits.meet(other.bits)
        ur = self.ur.meet(other.ur)
        sr = self.sr.meet(other.sr)
        if bits is None or ur is None or sr is None:
            return AbsValue.bottom(self.width)
        return AbsValue(bits, ur, sr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbsValue) and self.width == other.width
                and self.empty == other.empty and self.bits == other.bits
                and self.ur == other.ur and self.sr == other.sr)

    def __hash__(self) -> int:
        return hash(("av", self.width, self.empty, self.bits, self.ur, self.sr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.empty:
            return "AbsValue(empty, w=%d)" % self.width
        return "AbsValue(%r, %r, %r)" % (self.bits, self.ur, self.sr)
