import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewlab.bases import (
    CircleRotation,
    FiniteOrbitBase,
    OneSidedWord,
    SymbolicShift,
    TwoSidedWord,
    fair_bits,
)
from skewlab.catalog import coinflip_attractor_graph
from skewlab.errors import CapabilityError, ConfigError, DomainError

bits = st.lists(st.integers(0, 1), min_size=0, max_size=8).map(tuple)
cycles = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)
# Small words, so that distinct representations of one word are often drawn.
two_sided_words = st.builds(
    TwoSidedWord,
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(0, 1), max_size=4).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    st.integers(-3, 3),
)


class TestOneSidedWord:
    def test_shift_moves_window(self):
        w = OneSidedWord((1, 0, 1, 1), (0,))
        assert w.symbol(0) == 1
        assert w.shifted().symbol(0) == 0
        assert [w.symbol(i) for i in range(6)] == [1, 0, 1, 1, 0, 0]

    def test_canonical_form(self):
        # trailing transient symbols that merely repeat the cycle are absorbed
        assert OneSidedWord((1, 0), (0,)) == OneSidedWord((1,), (0,))
        assert OneSidedWord((), (0, 1, 0, 1)) == OneSidedWord((), (0, 1))

    def test_parse_format_roundtrip(self):
        for s in ["100|01", "|1", "11|0"]:
            assert str(OneSidedWord.parse(s)) == s
        # non-canonical input normalizes to the same sequence
        assert str(OneSidedWord.parse("0|10")) == "|01"
        assert str(OneSidedWord.parse("101|01")) == "|10"
        with pytest.raises(ConfigError):
            OneSidedWord.parse("101")
        with pytest.raises(ConfigError):
            OneSidedWord.parse("10|2")
        with pytest.raises(ConfigError, match=re.escape("one-sided word '10|' has an empty cycle")):
            OneSidedWord.parse("10|")

    @given(bits, cycles)
    def test_shift_agrees_with_symbols(self, t, c):
        w = OneSidedWord(t, c)
        s = w.shifted()
        assert all(s.symbol(i) == w.symbol(i + 1) for i in range(12))
        # the shift stays in normal form: it equals, and hashes like, the
        # constructor-normalised word with the same symbols
        ref = OneSidedWord(t[1:], c) if t else OneSidedWord((), c[1:] + c[:1])
        assert s == ref and hash(s) == hash(ref)


class TestWordValues:
    WORDS = [
        OneSidedWord((1, 1, 0), (0, 1)),
        OneSidedWord((), (1, 0, 0)),
        TwoSidedWord((0,), (1, 1, 0), (1,), 2),
        TwoSidedWord((0, 1), (), (1, 0), -1),
    ]

    @pytest.mark.parametrize("w", WORDS, ids=str)
    def test_fields_cannot_be_set(self, w):
        for field in w._fields:
            with pytest.raises(AttributeError):
                setattr(w, field, getattr(w, field))
        with pytest.raises(AttributeError):
            w.extra = 1  # no __dict__ either
        assert not hasattr(w, "__dict__")

    @pytest.mark.parametrize("w", WORDS, ids=str)
    def test_equal_words_hash_equal(self, w):
        twin = type(w).parse(str(w))
        assert twin == w and not twin != w and hash(twin) == hash(w)
        assert w.shifted() != w
        # a word equals only a word, not the tuple of its fields
        assert w != tuple(w) and tuple(w) != w

    def test_str_is_unchanged(self):
        assert [str(w) for w in self.WORDS] == ["110|01", "|100", "0~110~1@2", "01~~10@-1"]
        assert [str(w.shifted()) for w in self.WORDS] == [
            "10|01", "|001", "0~110~1@3", "01~~10@0"
        ]
        # the constructor still normalises
        assert str(OneSidedWord((1, 0, 1), (0, 1))) == "|10"
        assert str(OneSidedWord((1, 0, 0), (0,))) == "1|0"
        assert str(OneSidedWord((0, 1, 0, 1), (0, 1))) == "|01"

    def test_shift_equals_constructor_built_word(self):
        built = [
            OneSidedWord((1, 0), (0, 1)),
            OneSidedWord((), (0, 0, 1)),
            TwoSidedWord((0,), (1, 1, 0), (1,), 3),
            TwoSidedWord((0, 1), (), (1, 0), 0),
        ]
        assert [w.shifted() for w in self.WORDS] == built
        assert TwoSidedWord.parse("0~~0@0") == TwoSidedWord.parse("0~~0@1")

    @pytest.mark.parametrize("build", [
        lambda: OneSidedWord((2,), (0,)),
        lambda: OneSidedWord((0, 1), (1, 2)),
        lambda: TwoSidedWord((0,), (1, 2), (1,), 0),
        lambda: TwoSidedWord((2,), (), (1,), 0),
        lambda: TwoSidedWord((0,), (), (1, -1), 0),
    ])
    def test_symbols_outside_0_1_refused(self, build):
        with pytest.raises(DomainError, match=r"word symbol (2|-1) is not 0 or 1"):
            build()

    @pytest.mark.parametrize("origin", [0.5, 1.0, "1", None], ids=repr)
    def test_origin_must_be_an_integer(self, origin):
        message = re.escape(f"word origin {origin!r} is not an integer")
        with pytest.raises(DomainError, match=f"^{message}$"):
            TwoSidedWord((0,), (1,), (1,), origin)

    def test_integer_origin_accepted(self):
        class Index:
            def __index__(self):
                return -2

        for origin, stored in [(3, 3), (-1, -1), (Index(), -2)]:
            w = TwoSidedWord((0,), (1,), (1,), origin)
            assert w.origin == stored and type(w.origin) is int
            assert coinflip_attractor_graph().value(w) == float(w.symbol(-1))
        # parse reads the origin through int(), as before
        assert str(TwoSidedWord.parse("0~1~1@-3")) == "0~1~1@-3"
        with pytest.raises(ConfigError, match="bad two-sided word '0~1~1@0.5'"):
            TwoSidedWord.parse("0~1~1@0.5")


def normal_form_by_trimming(transient, cycle):
    """The constructor's normal form, computed one trailing symbol at a time:
    while the (primitive) cycle continues the transient, drop the transient's
    last symbol and rotate the cycle right by one."""
    tr, cyc = tuple(transient), tuple(cycle)
    n = len(cyc)
    cyc = next(cyc[:d] for d in range(1, n + 1) if n % d == 0 and cyc == cyc[:d] * (n // d))
    while tr and tr[-1] == cyc[-1]:
        tr = tr[:-1]
        cyc = cyc[-1:] + cyc[:-1]
    return tr, cyc


class TestNormalForm:
    @given(st.lists(st.integers(0, 1), max_size=24), st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @example([1, 0, 1, 0, 1, 0, 1], [0, 1])  # the whole transient continues the cycle
    @example([1, 1, 0, 0, 0], [0, 0])  # a run longer than the primitive cycle
    @settings(max_examples=300)
    def test_fields_equal_trimming_one_symbol_at_a_time(self, t, c):
        assert tuple(OneSidedWord(t, c)) == normal_form_by_trimming(t, c)

    @pytest.mark.parametrize("t, c, message", [
        ((2,), (), "cycle must be nonempty"),
        ((0, 3), (2,), "word symbol 3 is not 0 or 1"),
        ((0, 1), (1, 2), "word symbol 2 is not 0 or 1"),
    ])
    def test_error_order(self, t, c, message):
        # an empty cycle first, then the transient's bad symbol, then the cycle's
        with pytest.raises(DomainError, match=f"^{message}$"):
            OneSidedWord(t, c)


class TestSymbolStreams:
    """``symbols(n)`` reads n coordinates at once, ``advanced(n)`` shifts n times."""

    @given(bits, cycles, st.integers(0, 20))
    @example((), (0, 1), 0)
    @example((), (1,), 5)
    @example((1, 0, 1), (1, 1, 0), 3)
    @example((1, 0, 1), (1, 1, 0), 11)
    def test_one_sided(self, t, c, n):
        w = OneSidedWord(t, c)
        assert w.symbols(n) == tuple(w.symbol(i) for i in range(n))
        shifted = w
        for _ in range(n):
            shifted = shifted.shifted()
        assert tuple(w.advanced(n)) == tuple(shifted)

    @given(two_sided_words, st.integers(0, 16))
    @example(TwoSidedWord((0,), (), (1,), 0), 0)
    @example(TwoSidedWord((0, 1), (), (1, 1, 0), -3), 7)
    @example(TwoSidedWord((1,), (0, 1), (0,), -5), 2)  # read only the left tail
    @example(TwoSidedWord((1,), (0, 1), (0,), 4), 3)  # read only the right tail
    @example(TwoSidedWord((0, 1), (1, 1, 0), (1, 0), -2), 9)  # tail, buffer, tail
    def test_two_sided(self, w, n):
        assert w.symbols(n) == tuple(w.symbol(i) for i in range(n))
        shifted = w
        for _ in range(n):
            shifted = shifted.shifted()
        assert tuple(w.advanced(n)) == tuple(shifted)
        assert w.advanced(n) == shifted

    @pytest.mark.parametrize("w", [OneSidedWord((1,), (0,)), TwoSidedWord((0,), (1,), (1,), 0)],
                             ids=str)
    @pytest.mark.parametrize("n, message", [
        (-1, "symbol count must be >= 0, got -1"),
        (0.5, "symbol count 0.5 is not an integer"),
        (2.0, "symbol count 2.0 is not an integer"),
    ])
    def test_count_must_be_a_natural_number(self, w, n, message):
        # a float count would slice nothing, or give a two-sided word a float origin
        for read in (w.symbols, w.advanced):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                read(n)

    @given(bits, cycles, st.integers(0, 12), st.integers(0, 12))
    @example((1, 0, 1), (1, 1, 0), 4, 2)  # from inside the transient into the cycle
    @example((1, 0, 1), (1, 1, 0), 3, 5)  # from inside the cycle
    def test_one_sided_window(self, t, c, n, start):
        w = OneSidedWord(t, c)
        assert w.symbols(n, start) == tuple(w.symbol(i) for i in range(start, start + n))

    @given(two_sided_words, st.integers(0, 12), st.integers(-8, 8))
    @example(TwoSidedWord((0, 1), (1, 1, 0), (1, 0), 0), 6, -1)  # the left tail's last symbol on
    def test_two_sided_window(self, w, n, start):
        assert w.symbols(n, start) == tuple(w.symbol(i) for i in range(start, start + n))

    def test_one_sided_window_has_no_negative_start(self):
        w = OneSidedWord((1,), (0,))
        for read in (lambda: w.symbol(-1), lambda: w.symbols(3, -1)):
            with pytest.raises(DomainError, match="^one-sided words have no negative coordinates$"):
                read()


class TestSymbolIndex:
    WORDS = [OneSidedWord((1, 0), (1,)), TwoSidedWord((0,), (1, 1), (1,), 0)]

    @pytest.mark.parametrize("w", WORDS, ids=str)
    @pytest.mark.parametrize("i", [0.5, 1.0, "1", None], ids=repr)
    def test_index_must_be_an_integer(self, w, i):
        # an index, like a count, is refused by name: no bare TypeError
        message = re.escape(f"symbol index {i!r} is not an integer")
        for read in (w.symbol, lambda i: w.symbols(2, i)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                read(i)

    @pytest.mark.parametrize("w", WORDS, ids=str)
    def test_bool_and_index_types_accepted(self, w):
        class Index:
            def __index__(self):
                return 2

        assert [w.symbol(True), w.symbol(False), w.symbol(Index())] == [
            w.symbol(1), w.symbol(0), w.symbol(2)
        ]


def old_text(w) -> str:
    """Word text as formatted before the bytes.translate helper: the reference."""
    if isinstance(w, OneSidedWord):
        return "".join(map(str, w.transient)) + "|" + "".join(map(str, w.cycle))
    return "{}~{}~{}@{}".format(
        "".join(map(str, w.left_cycle)), "".join(map(str, w.buf)),
        "".join(map(str, w.right_cycle)), w.origin,
    )


@given(st.one_of(st.builds(OneSidedWord, bits, cycles), two_sided_words))
@example(OneSidedWord((), (0,)))
@example(TwoSidedWord((1,), (), (0,), -3))
def test_word_text_is_unchanged(w):
    assert str(w) == old_text(w)
    assert type(w).parse(str(w)) == w


class TestFairBits:
    @pytest.mark.parametrize("n", [0, 1, 2, 21, 1000, 4097])
    def test_same_bits_and_state_as_randrange(self, n):
        for seed in range(50):
            ref, rng = random.Random(seed), random.Random(seed)
            expected = [ref.randrange(2) for _ in range(n)]
            assert fair_bits(rng, n) == expected
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 20260809])
    def test_shift_samples_draw_as_randrange_does(self, seed):
        ref = random.Random(seed)
        one = []
        for _ in range(40):
            bits = tuple(ref.randrange(2) for _ in range(20))
            one.append(OneSidedWord(bits, (ref.randrange(2),)))
        two = []
        for _ in range(40):
            bits = tuple(ref.randrange(2) for _ in range(20))
            two.append(TwoSidedWord((ref.randrange(2),), bits, (ref.randrange(2),), 0))
        rng = random.Random(seed)
        got_one = SymbolicShift("one").sample_points(40, rng)
        got_two = SymbolicShift("two").sample_points(40, rng)
        assert got_one == one and got_two == two
        assert [str(w) for w in got_one + got_two] == [str(w) for w in one + two]
        assert rng.getstate() == ref.getstate()


class TestTwoSidedWord:
    def test_symbols_across_regions(self):
        w = TwoSidedWord((0, 1), (1, 1, 0), (1, 0), 0)
        assert [w.symbol(i) for i in range(-4, 7)] == [0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0]

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
        bits,
        st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
        st.integers(-6, 6),
    )
    def test_step_back_roundtrip(self, lc, buf, rc, k):
        base = SymbolicShift("two")
        w = TwoSidedWord(lc, buf, rc, k)
        assert base.predecessor(base.step(w)) == w
        assert base.step(base.predecessor(w)) == w
        assert base.step(w).symbol(-1) == w.symbol(0)

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
        bits,
        st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
        st.integers(-6, 6),
    )
    def test_shifts_equal_constructor_built_words(self, lc, buf, rc, k):
        w = TwoSidedWord(lc, buf, rc, k)
        for moved, origin in ((w.shifted(), k + 1), (w.shifted_back(), k - 1)):
            ref = TwoSidedWord(lc, buf, rc, origin)
            assert moved == ref and hash(moved) == hash(ref)
        assert w.shifted().shifted_back() == w
        assert w.shifted_back().shifted() == w

    @given(two_sided_words, two_sided_words)
    def test_equal_exactly_when_symbols_agree(self, u, v):
        # Past both buffers each word repeats its tails, and two periodic runs
        # that agree on p + q symbols agree forever, so this window decides it.
        lo = min(-u.origin, -v.origin) - len(u.left_cycle) - len(v.left_cycle)
        hi = (max(len(u.buf) - u.origin, len(v.buf) - v.origin)
              + len(u.right_cycle) + len(v.right_cycle))
        agree = all(u.symbol(i) == v.symbol(i) for i in range(lo, hi))
        assert (u == v) == agree
        if agree:
            assert hash(u) == hash(v)

    @given(two_sided_words, st.integers(-4, 4), st.integers(0, 4), st.integers(1, 3))
    def test_rewritten_representation_is_equal(self, w, lo, width, repeat):
        # The symbols of w over a window [lo, hi) that covers its buffer, with
        # tails read off w and repeated: another representation of w.
        lo = min(lo, -w.origin)
        hi = max(lo + width, len(w.buf) - w.origin)
        p, q = repeat * len(w.left_cycle), repeat * len(w.right_cycle)
        other = TwoSidedWord(
            tuple(w.symbol(lo - p + r) for r in range(p)),
            tuple(w.symbol(i) for i in range(lo, hi)),
            tuple(w.symbol(hi + r) for r in range(q)),
            -lo,
        )
        assert all(other.symbol(i) == w.symbol(i) for i in range(lo - 8, hi + 8))
        assert other == w and hash(other) == hash(w)

    def test_periodic_word_equals_its_shift(self):
        zero = TwoSidedWord.parse("0~~0@0")
        assert zero == TwoSidedWord.parse("0~~0@1") == zero.shifted()
        assert hash(zero) == hash(zero.shifted())
        assert TwoSidedWord.parse("01~~01@0") == TwoSidedWord.parse("10~~10@1")
        assert TwoSidedWord.parse("0~~1@0") != TwoSidedWord.parse("0~~1@1")
        assert TwoSidedWord.parse("01~~01@0") != TwoSidedWord.parse("01~~01@1")

    def test_parse_format_roundtrip(self):
        for s in ["0~101~01@0", "01~~1@-3", "1~0~0@12"]:
            assert str(TwoSidedWord.parse(s)) == s
        with pytest.raises(ConfigError):
            TwoSidedWord.parse("0~1")
        with pytest.raises(ConfigError, match="both cycles must be nonempty"):
            TwoSidedWord.parse("~1~0@0")


class TestFiniteOrbitBase:
    def test_successor_total_required(self):
        with pytest.raises(ConfigError):
            FiniteOrbitBase([0.0, 1.0], {0.0: 1.0})
        with pytest.raises(ConfigError):
            FiniteOrbitBase([0.0], {0.0: 2.0})

    def test_successor_entry_off_the_base_refused(self):
        # step(5.0) would answer for a point the base does not hold, and the
        # stray preimage would leave 0.0 without a unique predecessor
        message = r"^successor map has an entry for 5\.0, not a point of the base$"
        with pytest.raises(ConfigError, match=message):
            FiniteOrbitBase([0.0], {0.0: 0.0, 5.0: 0.0})

    def test_empty_point_set_refused(self):
        with pytest.raises(ConfigError, match="^a finite base needs at least one point$"):
            FiniteOrbitBase([], {})

    def test_predecessors_where_unique(self):
        base = FiniteOrbitBase(
            [0.0, 1.0, 2.0], {0.0: 1.0, 1.0: 2.0, 2.0: 2.0}
        )
        assert base.predecessor(1.0) == 0.0
        with pytest.raises(CapabilityError):
            base.predecessor(2.0)  # both 1.0 and 2.0 map there
        with pytest.raises(CapabilityError):
            base.predecessor(0.0)  # nothing maps there

    def test_invertible_cycle(self):
        base = FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 0.0})
        assert base.predecessor(0.0) == 1.0
        assert base.predecessor(1.0) == 0.0

    def test_parse_point(self):
        base = FiniteOrbitBase([0.5, 1.0], {0.5: 1.0, 1.0: 1.0})
        assert base.parse_point("0.5") == 0.5
        # within 1e-12 of a point reads as that point
        assert base.parse_point("0.5000000000001") == 0.5
        with pytest.raises(ConfigError):
            base.parse_point("0.7")
        with pytest.raises(ConfigError, match="^cannot parse 'half' as a finite-base point$"):
            base.parse_point("half")

    @pytest.mark.parametrize("text, point", [("-0.0", 0.0), ("0.0", -0.0)])
    def test_parsed_point_is_the_listed_one(self, text, point):
        # -0.0 == 0.0: the parse returns the point the base lists, sign bit and all
        base = FiniteOrbitBase([point, 1.0], {point: 1.0, 1.0: point})
        parsed = base.parse_point(text)
        assert math.copysign(1.0, parsed) == math.copysign(1.0, point)
        assert base.format_point(parsed) == repr(point)


class TestCircleRotation:
    def test_step_wraps(self):
        base = CircleRotation(0.3)
        assert base.step(0.1) == pytest.approx(0.4)
        assert base.step(0.9) == pytest.approx(0.2)
        assert base.predecessor(base.step(0.123)) == pytest.approx(0.123)

    def test_rotation_number_domain(self):
        with pytest.raises(ConfigError):
            CircleRotation(1.5)

    def test_sample_and_parse(self):
        base = CircleRotation(0.3)
        pts = base.sample_points(5, random.Random(0))
        assert len(pts) == 5 and all(0.0 <= p < 1.0 for p in pts)
        assert base.parse_point("1.25") == pytest.approx(0.25)
        with pytest.raises(ConfigError, match="^cannot parse 'half' as a circle point$"):
            base.parse_point("half")

    @pytest.mark.parametrize("text", ["-1e-20", "-5e-324", "-0.0", "-1.0", "1.0"])
    def test_parsed_point_lies_in_the_unit_interval(self, text):
        # a tiny negative's x % 1.0 rounds up to 1.0, which is 0.0 on the circle
        parsed = CircleRotation(0.3).parse_point(text)
        assert parsed == 0.0 and math.copysign(1.0, parsed) == 1.0

    @pytest.mark.parametrize("omega, theta", [
        (0.1, 0.1 - 2.0 ** -56), (0.5, 0.5 - 2.0 ** -54), (0.3, 0.3)])
    def test_predecessor_never_reaches_one(self, omega, theta):
        pred = CircleRotation(omega).predecessor(theta)
        assert pred == 0.0 and math.copysign(1.0, pred) == 1.0


def test_shift_sides_refused():
    with pytest.raises(ConfigError, match="^sided must be 'one' or 'two', got 'three'$"):
        SymbolicShift("three")


@pytest.mark.parametrize("base", [
    FiniteOrbitBase([0.0, 1.0, 2.0], {0.0: 1.0, 1.0: 2.0, 2.0: 2.0}),
    CircleRotation(0.3),
    SymbolicShift("one"),
    SymbolicShift("two"),
], ids=["finite", "circle", "shift-one", "shift-two"])
@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_refused(base, count):
    with pytest.raises(DomainError, match=f"sample count must be >= 1, got {count}"):
        base.sample_points(count, random.Random(0))
