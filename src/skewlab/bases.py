"""Base spaces driving the skew products.

Three variants: a finite orbit diagram (point set with a successor table),
a circle rotation, and the binary shift on eventually periodic words.  Shift
points are stored as (transient, repeating block) — one-sided — or as a
finite window flanked by repeating blocks with an integer origin — two-sided.
That keeps every represented forward orbit exactly computable.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from typing import Sequence

from .errors import CapabilityError, ConfigError, DomainError, check_at_least, check_number


def _bits(s: str) -> tuple[int, ...]:
    if any(ch not in "01" for ch in s):
        raise ConfigError(f"word {s!r} contains symbols outside {{0,1}}")
    return tuple(int(ch) for ch in s)


def _primitive(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


_SYMBOLS = frozenset((0, 1))
# Builds a word from fields already checked and normalised, skipping __new__.
_new_word = tuple.__new__


def _symbols(seq: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(seq)
    if not _SYMBOLS.issuperset(seq):
        bad = next(s for s in seq if s not in _SYMBOLS)
        raise DomainError(f"word symbol {bad!r} is not 0 or 1")
    return seq


# Each output's top byte maps to its bit 30 (bytes below 128), or is deleted
# when its bit 31 is set.
_BIT_30 = bytes(b >> 6 for b in range(128)) + bytes(128)
_BIT_31_SET = bytes(range(128, 256))


def fair_bits(rng: random.Random, n: int) -> list[int]:
    """``[rng.randrange(2) for _ in range(n)]`` drawn in bulk: the same bits,
    and ``rng`` left in the same state.

    ``randrange(2)`` reads the top two bits of one 32-bit output and draws
    again when they read 2 or 3.  Each round here draws one output per bit
    still missing, in one `getrandbits` call (output j fills bits 32j to
    32j + 31), and keeps bit 30 of each output whose bit 31 is clear.  Every
    output gives at most one bit, so a round never draws an output that the
    loop would not draw.
    """
    out: list[int] = []
    while len(out) < n:
        k = n - len(out)
        top = rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4]
        out += top.translate(_BIT_30, _BIT_31_SET)
    return out


def _index(i: int) -> int:
    """i as a symbol position: any integer, a bool included."""
    try:
        return operator.index(i)
    except TypeError:
        raise DomainError(f"symbol index {i!r} is not an integer") from None


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _text(symbols: tuple[int, ...]) -> str:
    """The symbols as a string of 0s and 1s."""
    return bytes(symbols).translate(_DIGITS).decode()


def _count(n: int) -> int:
    """n as a count of symbols or shifts: an integer >= 0."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"symbol count {n!r} is not an integer") from None
    if n < 0:
        raise DomainError(f"symbol count must be >= 0, got {n!r}")
    return n


def _cyclic(cycle: tuple[int, ...], start: int, count: int) -> tuple[int, ...]:
    """``count`` symbols of ``cycle`` repeated, from its index ``start``."""
    if count <= 0:
        return ()
    turned = cycle[start:] + cycle[:start]
    reps, rest = divmod(count, len(turned))
    return turned * reps + turned[:rest]


class OneSidedWord(namedtuple("_OneSidedFields", "transient cycle")):
    """Eventually periodic one-sided binary word: transient then cycle forever.

    An immutable value: a tuple of its two fields, built in normal form (a
    primitive cycle, and no trailing transient symbol that the cycle
    continues), so words with the same symbols have the same fields.  A word
    equals only a word.
    """

    __slots__ = ()

    def __new__(cls, transient: Sequence[int], cycle: Sequence[int]) -> "OneSidedWord":
        cyc = tuple(cycle)
        if not cyc:
            raise DomainError("cycle must be nonempty")
        tr = _symbols(transient)
        cyc = _primitive(_symbols(cyc))
        # The cycle continues the transient from index k on: drop those
        # symbols, and rotate the cycle right by their count so that it
        # starts where they started.
        p, end = len(cyc), len(tr)
        k = end
        while k and tr[k - 1] == cyc[(k - end - 1) % p]:
            k -= 1
        if k < end:
            r = (k - end) % p
            tr, cyc = tr[:k], cyc[r:] + cyc[:r]
        return _new_word(cls, (tr, cyc))

    def __eq__(self, other) -> bool:
        return type(other) is OneSidedWord and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:  # tuple's own != would compare bare fields
        return not self == other

    __hash__ = tuple.__hash__

    def symbol(self, i: int) -> int:
        return self.symbols(1, i)[0]

    def symbols(self, n: int, start: int = 0) -> tuple[int, ...]:
        """The symbols at positions start .. start + n - 1 as one tuple."""
        n, start = _count(n), _index(start)
        if start < 0:
            raise DomainError("one-sided words have no negative coordinates")
        transient, cycle = self
        if start > len(transient):
            return _cyclic(cycle, (start - len(transient)) % len(cycle), n)
        out = transient[start:start + n]
        return out + _cyclic(cycle, 0, n - len(out))

    def advanced(self, n: int) -> "OneSidedWord":
        """The word shifted n >= 0 times, built once."""
        n = _count(n)
        transient, cycle = self
        if n <= len(transient):
            return _new_word(OneSidedWord, (transient[n:], cycle))
        k = (n - len(transient)) % len(cycle)
        return _new_word(OneSidedWord, ((), cycle[k:] + cycle[:k]))

    def shifted(self) -> "OneSidedWord":
        return self.advanced(1)

    def __str__(self) -> str:
        return f"{_text(self.transient)}|{_text(self.cycle)}"

    @staticmethod
    def parse(s: str) -> "OneSidedWord":
        if s.count("|") != 1:
            raise ConfigError(f"one-sided word {s!r} must look like 'transient|cycle'")
        t, c = s.split("|")
        if not c:
            raise ConfigError(f"one-sided word {s!r} has an empty cycle")
        return OneSidedWord(_bits(t), _bits(c))


class TwoSidedWord(namedtuple("_TwoSidedFields", "left_cycle buf right_cycle origin")):
    """Bi-infinite binary word, periodic in both tails.

    An immutable value: a tuple of its four fields.  symbol(i) reads position
    origin+i of the window ``buf``; reads past either end fall through to the
    repeating blocks.  Shifting just moves the origin, so stepping and
    stepping back are exact inverses.  Words compare and hash by the symbol
    sequence they represent, not by their fields: the fixed all-zero word
    ``0~~0@0`` equals its shift ``0~~0@1``.
    """

    __slots__ = ()

    def __new__(
        cls,
        left_cycle: Sequence[int],
        buf: Sequence[int],
        right_cycle: Sequence[int],
        origin: int = 0,
    ) -> "TwoSidedWord":
        left, right = tuple(left_cycle), tuple(right_cycle)
        if not left or not right:
            raise DomainError("both cycles must be nonempty")
        try:
            origin = operator.index(origin)
        except TypeError:
            raise DomainError(f"word origin {origin!r} is not an integer") from None
        return _new_word(cls, (_symbols(left), _symbols(buf), _symbols(right), origin))

    def symbol(self, i: int) -> int:
        return self.symbols(1, i)[0]

    def symbols(self, n: int, start: int = 0) -> tuple[int, ...]:
        """The symbols at positions start .. start + n - 1 as one tuple: the
        left tail's part, the window's and the right tail's, each one slice."""
        left, buf, right, origin = self
        origin += _index(start)
        end = origin + _count(n)
        out = ()
        if origin < 0:
            out = _cyclic(left, origin % len(left), min(end, 0) - origin)
        out += buf[max(origin, 0):max(end, 0)]
        start = max(origin, len(buf))
        if end > start:
            out += _cyclic(right, (start - len(buf)) % len(right), end - start)
        return out

    def advanced(self, n: int) -> "TwoSidedWord":
        """The word shifted n >= 0 times, built once: its origin moves by n."""
        left, buf, right, origin = self
        return _new_word(TwoSidedWord, (left, buf, right, origin + _count(n)))

    def _key(self) -> tuple:
        """The symbol sequence as a tuple that every representation shares.

        Positions count from the start of ``buf``: the left tail reads
        left_cycle[j mod p] at j < 0, the right tail right_cycle[(j - len(buf))
        mod q] from the end of ``buf``.  The cycles are made primitive, and
        buffer symbols that a tail continues are trimmed into it.  An empty
        buffer is moved left to where the right tail's periodic run begins.
        A word that is one periodic word in both tails is keyed by its
        symbols 0 .. p-1 alone.
        """
        left, right = _primitive(self.left_cycle), _primitive(self.right_cycle)
        buf, p, q = self.buf, len(left), len(right)
        end = len(buf)
        while end and buf[end - 1] == right[(end - 1 - len(buf)) % q]:
            end -= 1
        start = 0
        while start < end and buf[start] == left[start % p]:
            start += 1
        # Re-anchor positions at the trimmed buffer's start and end.
        k, r = start % p, (end - len(buf)) % q
        left, right = left[k:] + left[:k], right[r:] + right[:r]
        buf, origin = buf[start:end], self.origin - start
        if not buf:
            if left == right:
                k = origin % p
                return (left[k:] + left[:k],)
            # The tails differ, so some symbol before the split breaks the
            # right tail's run (within p + q moves, both cycles being primitive).
            while left[-1] == right[-1]:
                left, right = left[-1:] + left[:-1], right[-1:] + right[:-1]
                origin += 1
        return (left, buf, right, origin)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoSidedWord) and self._key() == other._key()

    def __ne__(self, other) -> bool:  # tuple's own != would compare fields
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())

    def shifted(self) -> "TwoSidedWord":
        return self.advanced(1)

    # The fields of a built word are checked already: the shift skips __new__.
    def shifted_back(self) -> "TwoSidedWord":
        left, buf, right, origin = self
        return _new_word(TwoSidedWord, (left, buf, right, origin - 1))

    def __str__(self) -> str:
        left, buf, right, origin = self
        return f"{_text(left)}~{_text(buf)}~{_text(right)}@{origin}"

    @staticmethod
    def parse(s: str) -> "TwoSidedWord":
        try:
            body, origin = s.rsplit("@", 1)
            lc, buf, rc = body.split("~")
            return TwoSidedWord(_bits(lc), _bits(buf), _bits(rc), int(origin))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad two-sided word {s!r}: {exc}") from exc


class FiniteOrbitBase:
    """Finite point set with a total successor map.

    Predecessors exist only where the preimage is unique, so pullback along
    backward orbits works exactly as far as the representation allows.
    """

    def __init__(self, points: Sequence[float], successor: dict[float, float]):
        self.points = tuple(points)
        if not self.points:
            raise ConfigError("a finite base needs at least one point")
        pts = set(self.points)
        for p in self.points:
            if p not in successor or successor[p] not in pts:
                raise ConfigError(f"successor map is not total at point {p!r}")
        for p in successor:
            if p not in pts:
                raise ConfigError(f"successor map has an entry for {p!r}, not a point of the base")
        self.succ = dict(successor)
        preimages: dict[float, list[float]] = {}
        for p, q in self.succ.items():
            preimages.setdefault(q, []).append(p)
        self.pred = {
            q: ps[0] for q, ps in preimages.items() if len(ps) == 1
        }

    def step(self, p: float) -> float:
        try:
            return self.succ[p]
        except KeyError:
            raise DomainError(f"point {p!r} is not in the base") from None

    def predecessor(self, p: float) -> float:
        q = self.pred.get(p)
        if q is None:
            raise CapabilityError(f"no unique predecessor for base point {p!r}")
        return q

    def sample_points(self, count: int, rng: random.Random) -> list[float]:
        check_at_least("sample count", count, 1)
        if count >= len(self.points):
            return list(self.points)
        return rng.sample(list(self.points), count)

    def format_point(self, p: float) -> str:
        return repr(p)

    def parse_point(self, s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ConfigError(f"cannot parse {s!r} as a finite-base point") from None
        if v in self.succ:  # -0.0 finds 0.0: return the point as the base lists it
            return self.points[self.points.index(v)]
        for p in self.points:
            if abs(p - v) <= 1e-12:
                return p
        raise ConfigError(f"{s!r} is not a point of this base")


def _mod1(x: float) -> float:
    """x mod 1 in [0, 1): a tiny negative x, whose x % 1.0 rounds up to 1.0, gives 0.0."""
    r = x % 1.0
    return r if r < 1.0 else 0.0


class CircleRotation:
    """Rotation of [0, 1) by a fixed angle; invertible."""

    def __init__(self, omega: float):
        self.omega = check_number("omega", omega, "a number in (0, 1)")

    def step(self, theta: float) -> float:
        return (theta + self.omega) % 1.0

    def predecessor(self, theta: float) -> float:
        return _mod1(theta - self.omega)

    def sample_points(self, count: int, rng: random.Random) -> list[float]:
        check_at_least("sample count", count, 1)
        return [rng.random() for _ in range(count)]

    def format_point(self, theta: float) -> str:
        return repr(theta)

    def parse_point(self, s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ConfigError(f"cannot parse {s!r} as a circle point") from None
        if not math.isfinite(v):
            raise ConfigError(f"circle point {s!r} is not a finite number")
        return _mod1(v)


class SymbolicShift:
    """Full binary shift on eventually periodic words, one- or two-sided."""

    def __init__(self, sided: str = "one"):
        if sided not in ("one", "two"):
            raise ConfigError(f"sided must be 'one' or 'two', got {sided!r}")
        self.sided = sided
        # The shift map itself: step(w) is w.shifted(), one call frame fewer.
        self.step = OneSidedWord.shifted if sided == "one" else TwoSidedWord.shifted

    def predecessor(self, w):
        if self.sided == "one":
            raise CapabilityError("one-sided shift has no predecessor map")
        return w.shifted_back()

    def zero_word(self):
        if self.sided == "one":
            return OneSidedWord((), (0,))
        return TwoSidedWord((0,), (), (0,), 0)

    def sample_points(self, count: int, rng: random.Random) -> list:
        """Random words: a 20-symbol random block, then a random repeated symbol
        (two-sided: one before it as well).

        Each word draws its block, then its left symbol (two-sided), then its
        repeated symbol, each bit as ``rng.randrange(2)`` would.
        """
        check_at_least("sample count", count, 1)
        if self.sided == "one":
            bits = fair_bits(rng, 21 * count)
            return [
                OneSidedWord(bits[i:i + 20], bits[i + 20:i + 21])
                for i in range(0, len(bits), 21)
            ]
        bits = fair_bits(rng, 22 * count)
        return [
            TwoSidedWord(bits[i + 20:i + 21], bits[i:i + 20], bits[i + 21:i + 22], 0)
            for i in range(0, len(bits), 22)
        ]

    def format_point(self, w) -> str:
        return str(w)

    def parse_point(self, s: str):
        if self.sided == "one":
            return OneSidedWord.parse(s)
        return TwoSidedWord.parse(s)
