/**
 * @file
 * Unit and property tests for the four-state logic vectors.
 */

#include <gtest/gtest.h>

#include <random>

#include "sim/logic.h"

using namespace cirfix::sim;

namespace {

LogicVec
v(const std::string &bits)
{
    return LogicVec::fromString(bits);
}

TEST(Logic, BitCharRoundTrip)
{
    EXPECT_EQ(bitChar(Bit::Zero), '0');
    EXPECT_EQ(bitChar(Bit::One), '1');
    EXPECT_EQ(bitChar(Bit::X), 'x');
    EXPECT_EQ(bitChar(Bit::Z), 'z');
    EXPECT_EQ(charBit('0'), Bit::Zero);
    EXPECT_EQ(charBit('1'), Bit::One);
    EXPECT_EQ(charBit('X'), Bit::X);
    EXPECT_EQ(charBit('Z'), Bit::Z);
    EXPECT_THROW(charBit('q'), std::invalid_argument);
}

TEST(Logic, ConstructFill)
{
    LogicVec a(4, Bit::X);
    EXPECT_EQ(a.toString(), "xxxx");
    LogicVec b(4, Bit::Zero);
    EXPECT_EQ(b.toString(), "0000");
    LogicVec c(3, Bit::Z);
    EXPECT_EQ(c.toString(), "zzz");
    EXPECT_THROW(LogicVec(0, Bit::X), std::invalid_argument);
}

TEST(Logic, ConstructValue)
{
    LogicVec a(8, uint64_t(0xa5));
    EXPECT_EQ(a.toString(), "10100101");
    EXPECT_EQ(a.toUint64(), 0xa5u);
    LogicVec b(4, uint64_t(0xff));  // masked to width
    EXPECT_EQ(b.toUint64(), 0xfu);
}

TEST(Logic, FromStringMsbFirst)
{
    LogicVec a = v("10x1z");
    EXPECT_EQ(a.width(), 5);
    EXPECT_EQ(a.bit(0), Bit::Z);
    EXPECT_EQ(a.bit(1), Bit::One);
    EXPECT_EQ(a.bit(2), Bit::X);
    EXPECT_EQ(a.bit(3), Bit::Zero);
    EXPECT_EQ(a.bit(4), Bit::One);
    EXPECT_EQ(a.toString(), "10x1z");
}

TEST(Logic, OutOfRangeBitReadsX)
{
    LogicVec a(4, uint64_t(0));
    EXPECT_EQ(a.bit(7), Bit::X);
    EXPECT_EQ(a.bit(-1), Bit::X);
}

TEST(Logic, WideVectors)
{
    LogicVec a(130, Bit::Zero);
    a.setBit(129, Bit::One);
    a.setBit(0, Bit::One);
    EXPECT_EQ(a.bit(129), Bit::One);
    EXPECT_EQ(a.bit(128), Bit::Zero);
    EXPECT_TRUE(a.hasOne());
    EXPECT_FALSE(a.hasUnknown());
    LogicVec b = a.shr(LogicVec(32, uint64_t(129)));
    EXPECT_EQ(b.bit(0), Bit::One);
    EXPECT_EQ(b.bit(1), Bit::Zero);
}

TEST(Logic, Predicates)
{
    EXPECT_TRUE(v("0000").isAllZero());
    EXPECT_FALSE(v("00x0").isAllZero());
    EXPECT_TRUE(v("00x0").hasUnknown());
    EXPECT_FALSE(v("0010").hasUnknown());
    EXPECT_TRUE(v("0010").hasOne());
    EXPECT_TRUE(v("x1x").isTrue());   // a definite 1 dominates
    EXPECT_FALSE(v("x0x").isTrue());  // ambiguous counts as false
}

TEST(Logic, ResizeTruncatesAndZeroExtends)
{
    EXPECT_EQ(v("1011").resized(2).toString(), "11");
    EXPECT_EQ(v("11").resized(4).toString(), "0011");
    EXPECT_EQ(v("x1").resized(4).toString(), "00x1");
}

TEST(Logic, SliceAndWriteSlice)
{
    LogicVec a = v("11010010");
    EXPECT_EQ(a.slice(7, 4).toString(), "1101");
    EXPECT_EQ(a.slice(3, 0).toString(), "0010");
    EXPECT_EQ(a.slice(4, 1).toString(), "1001");
    // Out-of-range bits read x.
    EXPECT_EQ(a.slice(9, 6).toString(), "xx11");
    a.writeSlice(2, v("111"));
    EXPECT_EQ(a.toString(), "11011110");
}

TEST(Logic, BitwiseAndTable)
{
    LogicVec a = v("0011xxzz01");
    LogicVec b = v("0101xz01xz");
    // Verilog AND: 0 dominates, 1&1=1, rest x.
    EXPECT_EQ(a.bitAnd(b).toString(), "0001xx0x0x");
}

TEST(Logic, BitwiseOrTable)
{
    LogicVec a = v("0011xxzz01");
    LogicVec b = v("0101xz01xz");
    // Verilog OR: 1 dominates, 0|0=0, rest x.
    EXPECT_EQ(a.bitOr(b).toString(), "0111xxx1x1");
}

TEST(Logic, BitwiseXorPropagatesX)
{
    LogicVec a = v("0011x");
    LogicVec b = v("0101z");
    EXPECT_EQ(a.bitXor(b).toString(), "0110x");
    EXPECT_EQ(a.bitXnor(b).toString(), "1001x");
}

TEST(Logic, BitNot)
{
    EXPECT_EQ(v("01xz").bitNot().toString(), "10xx");
}

TEST(Logic, AddBasic)
{
    LogicVec a(8, uint64_t(200)), b(8, uint64_t(100));
    EXPECT_EQ(a.add(b).toUint64(), 44u);  // mod 256
    EXPECT_EQ(LogicVec(8, uint64_t(1))
                  .add(LogicVec(8, uint64_t(2)))
                  .toUint64(),
              3u);
}

TEST(Logic, AddUnknownPropagates)
{
    EXPECT_EQ(v("1x").add(v("01")).toString(), "xx");
    EXPECT_EQ(v("11").add(v("z1")).toString(), "xx");
}

TEST(Logic, SubAndNegate)
{
    LogicVec a(8, uint64_t(5)), b(8, uint64_t(7));
    EXPECT_EQ(a.sub(b).toUint64(), 254u);
    EXPECT_EQ(b.sub(a).toUint64(), 2u);
    EXPECT_EQ(LogicVec(4, uint64_t(1)).negate().toUint64(), 15u);
}

TEST(Logic, MulDivMod)
{
    LogicVec a(16, uint64_t(300)), b(16, uint64_t(7));
    EXPECT_EQ(a.mul(b).toUint64(), 2100u);
    EXPECT_EQ(a.div(b).toUint64(), 42u);
    EXPECT_EQ(a.mod(b).toUint64(), 6u);
    // Division by zero yields x.
    EXPECT_TRUE(a.div(LogicVec(16, uint64_t(0))).hasUnknown());
    EXPECT_TRUE(a.mod(LogicVec(16, uint64_t(0))).hasUnknown());
}

TEST(Logic, Pow)
{
    LogicVec a(16, uint64_t(3)), b(16, uint64_t(5));
    EXPECT_EQ(a.pow(b).toUint64(), 243u);
    EXPECT_EQ(a.pow(LogicVec(16, uint64_t(0))).toUint64(), 1u);
}

TEST(Logic, Shifts)
{
    LogicVec a = v("00010110");
    EXPECT_EQ(a.shl(LogicVec(4, uint64_t(2))).toString(), "01011000");
    EXPECT_EQ(a.shr(LogicVec(4, uint64_t(2))).toString(), "00000101");
    // Shifting by >= width clears.
    EXPECT_TRUE(a.shl(LogicVec(8, uint64_t(8))).isAllZero());
    EXPECT_TRUE(a.shr(LogicVec(8, uint64_t(200))).isAllZero());
    // Unknown shift amount -> all x.
    EXPECT_TRUE(a.shl(v("x")).hasUnknown());
}

TEST(Logic, Relational)
{
    LogicVec a(8, uint64_t(5)), b(8, uint64_t(9));
    EXPECT_TRUE(a.lt(b).isTrue());
    EXPECT_TRUE(a.le(b).isTrue());
    EXPECT_FALSE(a.gt(b).isTrue());
    EXPECT_TRUE(b.ge(a).isTrue());
    EXPECT_TRUE(a.le(a).isTrue());
    EXPECT_TRUE(a.lt(v("x000")).hasUnknown());
}

TEST(Logic, LogicalEquality)
{
    EXPECT_TRUE(v("0101").logicEq(v("0101")).isTrue());
    EXPECT_FALSE(v("0101").logicEq(v("0100")).isTrue());
    // A definite mismatch gives 0 even with x elsewhere.
    EXPECT_FALSE(v("x1").logicEq(v("x0")).hasUnknown());
    EXPECT_FALSE(v("x1").logicEq(v("x0")).isTrue());
    // Fully ambiguous comparison gives x.
    EXPECT_TRUE(v("x1").logicEq(v("01")).hasUnknown());
    EXPECT_TRUE(v("0101").logicNeq(v("0100")).isTrue());
}

TEST(Logic, CaseEquality)
{
    EXPECT_TRUE(v("x1z0").caseEq(v("x1z0")).isTrue());
    EXPECT_FALSE(v("x1z0").caseEq(v("11z0")).isTrue());
    EXPECT_FALSE(v("x1z0").caseEq(v("x1z0")).hasUnknown());
    EXPECT_TRUE(v("x1").caseNeq(v("z1")).isTrue());
}

TEST(Logic, WidthExtensionInComparison)
{
    // 2'b10 compared against 4'b0010 must be equal (zero extension).
    EXPECT_TRUE(v("10").logicEq(v("0010")).isTrue());
    EXPECT_FALSE(v("10").logicEq(v("1010")).isTrue());
}

TEST(Logic, LogicalConnectives)
{
    EXPECT_TRUE(v("01").logicAnd(v("10")).isTrue());
    EXPECT_FALSE(v("00").logicAnd(v("10")).isTrue());
    EXPECT_FALSE(v("00").logicAnd(v("xx")).isTrue());
    EXPECT_FALSE(v("00").logicAnd(v("xx")).hasUnknown());
    EXPECT_TRUE(v("10").logicAnd(v("xx")).hasUnknown());
    EXPECT_TRUE(v("10").logicOr(v("xx")).isTrue());
    EXPECT_TRUE(v("00").logicOr(v("xx")).hasUnknown());
    EXPECT_TRUE(v("00").logicNot().isTrue());
    EXPECT_FALSE(v("01").logicNot().isTrue());
    EXPECT_TRUE(v("0x").logicNot().hasUnknown());
}

TEST(Logic, Reductions)
{
    EXPECT_TRUE(v("1111").reduceAnd().isTrue());
    EXPECT_FALSE(v("1101").reduceAnd().isTrue());
    EXPECT_FALSE(v("1101").reduceAnd().hasUnknown());
    EXPECT_TRUE(v("11x1").reduceAnd().hasUnknown());
    EXPECT_FALSE(v("10x1").reduceAnd().hasUnknown());  // 0 dominates
    EXPECT_TRUE(v("0010").reduceOr().isTrue());
    EXPECT_FALSE(v("0000").reduceOr().isTrue());
    EXPECT_TRUE(v("00x0").reduceOr().hasUnknown());
    EXPECT_TRUE(v("0111").reduceXor().isTrue());
    EXPECT_FALSE(v("0110").reduceXor().isTrue());
    EXPECT_TRUE(v("011x").reduceXor().hasUnknown());
    EXPECT_FALSE(v("1111").reduceNand().isTrue());
    EXPECT_TRUE(v("0000").reduceNor().isTrue());
    EXPECT_TRUE(v("0110").reduceXnor().isTrue());
}

TEST(Logic, ConcatAndReplicate)
{
    LogicVec c = LogicVec::concat(v("10"), v("0x1"));
    EXPECT_EQ(c.toString(), "100x1");
    EXPECT_EQ(v("10").replicate(3).toString(), "101010");
    EXPECT_THROW(v("1").replicate(0), std::invalid_argument);
}

TEST(Logic, DecimalString)
{
    EXPECT_EQ(LogicVec(16, uint64_t(1234)).toDecimalString(), "1234");
    EXPECT_EQ(LogicVec(8, uint64_t(0)).toDecimalString(), "0");
    EXPECT_EQ(v("1x").toDecimalString(), "1x");
    // Multi-word decimal conversion.
    LogicVec big(128, Bit::Zero);
    big.setBit(100, Bit::One);
    EXPECT_EQ(big.toDecimalString(), "1267650600228229401496703205376");
}

TEST(Logic, IdenticalIsExact)
{
    EXPECT_TRUE(v("1x0z").identical(v("1x0z")));
    EXPECT_FALSE(v("1x0z").identical(v("1x00")));
    EXPECT_FALSE(v("10").identical(v("010")));  // width matters
}

// ----- storage: copies, moves and the heap-allocation counter -----

/** Random 4-state bit string of @p width characters. */
std::string
randomBits(std::mt19937_64 &rng, int width)
{
    static const char kBits[] = "01xz";
    std::string bits;
    for (int i = 0; i < width; ++i)
        bits.push_back(kBits[rng() % 4]);
    return bits;
}

TEST(Logic, NarrowCopyMoveNeverAllocates)
{
    LogicVec a = v("1x0z1100");
    const uint64_t before = logicHeapAllocs();
    LogicVec b = a;             // copy
    LogicVec c = std::move(b);  // move
    LogicVec d(3, Bit::Z);
    d = a;                      // copy-assign across widths
    LogicVec &alias = d;
    d = alias;                  // self copy-assign
    d = std::move(alias);       // self move-assign
    LogicVec e = LogicVec::zeros(64);
    e = std::move(c);           // move-assign
    EXPECT_EQ(logicHeapAllocs(), before);
    EXPECT_EQ(d.toString(), "1x0z1100");
    EXPECT_EQ(e.toString(), "1x0z1100");
    EXPECT_TRUE(d.identical(a));
}

TEST(Logic, WideCopyMoveAndNarrowWideTransitions)
{
    std::mt19937_64 rng(7);
    const std::string wide_bits = randomBits(rng, 130);
    const LogicVec wide = v(wide_bits);
    const LogicVec narrow = v("10x1");

    // A copy allocates one buffer per plane; a move steals them.
    uint64_t n0 = logicHeapAllocs();
    LogicVec a = wide;
    EXPECT_EQ(logicHeapAllocs(), n0 + 2);
    LogicVec b = std::move(a);
    EXPECT_EQ(logicHeapAllocs(), n0 + 2);
    EXPECT_EQ(b.toString(), wide_bits);

    // Self-assignment keeps the buffers and the value.
    LogicVec &alias = b;
    b = alias;
    b = std::move(alias);
    EXPECT_EQ(logicHeapAllocs(), n0 + 2);
    EXPECT_EQ(b.toString(), wide_bits);

    // Wide -> narrow frees; narrow -> wide allocates.
    n0 = logicHeapAllocs();
    b = narrow;
    EXPECT_EQ(logicHeapAllocs(), n0);
    EXPECT_EQ(b.toString(), "10x1");
    b = wide;
    EXPECT_EQ(logicHeapAllocs(), n0 + 2);
    EXPECT_TRUE(b.identical(wide));

    // A moved-from value can be assigned again and compares as new.
    LogicVec c = std::move(b);
    b = narrow;
    EXPECT_TRUE(b.identical(narrow));
    EXPECT_TRUE(c.identical(wide));
    EXPECT_FALSE(c.identical(narrow));
}

TEST(Logic, WriteSliceMatchesPerBitReference)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 500; ++trial) {
        int width = 1 + static_cast<int>(rng() % 200);
        int part = 1 + static_cast<int>(rng() % 70);
        int lsb = static_cast<int>(rng() % (width + 8)) - 4;
        LogicVec dst = v(randomBits(rng, width));
        LogicVec src = v(randomBits(rng, part));
        LogicVec expect = dst;
        for (int i = 0; i < part; ++i)
            expect.setBit(lsb + i, src.bit(i));  // out of range: no-op
        dst.writeSlice(lsb, src);
        ASSERT_TRUE(dst.identical(expect))
            << "width " << width << " part " << part << " lsb " << lsb;
    }
}

/**
 * The operators work a word at a time; this checks each against a
 * per-bit statement of its 4-state definition on random vectors of
 * mixed widths (1 to 150 bits, so operands span one to three words).
 */
TEST(Logic, WordParallelOperatorsMatchPerBitDefinitions)
{
    auto known = [](Bit b) { return b == Bit::Zero || b == Bit::One; };
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 400; ++trial) {
        int wa = 1 + static_cast<int>(rng() % 150);
        int wb = 1 + static_cast<int>(rng() % 150);
        // Mostly-known operands, so known-only paths are exercised.
        auto gen = [&](int w) {
            std::string bits = randomBits(rng, w);
            if (rng() % 2)
                for (char &c : bits)
                    if (c == 'x' || c == 'z')
                        c = (rng() % 2) ? '0' : '1';
            return v(bits);
        };
        LogicVec a = gen(wa), b = gen(wb);
        int w = std::max(wa, wb);
        LogicVec ea = a.resized(w), eb = b.resized(w);

        LogicVec rand_ = LogicVec::zeros(w), ror = rand_, rxor = rand_;
        bool eq_unknown = false, eq_mismatch = false, case_eq = true;
        for (int i = 0; i < w; ++i) {
            Bit x = ea.bit(i), y = eb.bit(i);
            rand_.setBit(i, (x == Bit::Zero || y == Bit::Zero) ? Bit::Zero
                            : (x == Bit::One && y == Bit::One) ? Bit::One
                                                               : Bit::X);
            ror.setBit(i, (x == Bit::One || y == Bit::One)     ? Bit::One
                          : (x == Bit::Zero && y == Bit::Zero) ? Bit::Zero
                                                               : Bit::X);
            rxor.setBit(i, (!known(x) || !known(y)) ? Bit::X
                           : (x == y)               ? Bit::Zero
                                                    : Bit::One);
            if (!known(x) || !known(y))
                eq_unknown = true;
            else if (x != y)
                eq_mismatch = true;
            case_eq &= (x == y);
        }
        ASSERT_TRUE(a.bitAnd(b).identical(rand_)) << trial;
        ASSERT_TRUE(a.bitOr(b).identical(ror)) << trial;
        ASSERT_TRUE(a.bitXor(b).identical(rxor)) << trial;
        ASSERT_EQ(a.logicEq(b).toString(),
                  eq_mismatch ? "0" : eq_unknown ? "x" : "1");
        ASSERT_EQ(a.caseEq(b).toString(), case_eq ? "1" : "0");

        // casez / casex wildcards.
        bool mz = true, mx = true;
        for (int i = 0; i < w; ++i) {
            Bit x = ea.bit(i), y = eb.bit(i);
            if (!(x == Bit::Z || y == Bit::Z) && x != y)
                mz = false;
            if (known(x) && known(y) && x != y)
                mx = false;
        }
        ASSERT_EQ(a.caseMatch(b, true, false), mz) << trial;
        ASSERT_EQ(a.caseMatch(b, false, true), mx) << trial;

        // Arithmetic and comparisons on known operands.
        if (!ea.hasUnknown() && !eb.hasUnknown()) {
            LogicVec sum = a.add(b), diff = a.sub(b);
            ASSERT_EQ(sum.width(), w);
            ASSERT_TRUE(sum.sub(b).identical(ea)) << trial;
            ASSERT_TRUE(diff.add(b).identical(ea)) << trial;
            int cmp = 0;
            for (int i = w - 1; i >= 0 && cmp == 0; --i)
                if (ea.bit(i) != eb.bit(i))
                    cmp = ea.bit(i) == Bit::One ? 1 : -1;
            ASSERT_EQ(a.lt(b).isTrue(), cmp < 0);
            ASSERT_EQ(a.ge(b).isTrue(), cmp >= 0);
        } else {
            ASSERT_TRUE(a.add(b).identical(LogicVec::xs(w)));
            ASSERT_TRUE(a.sub(b).identical(LogicVec::xs(w)));
        }

        // Shifts by every distance across the word boundaries.
        int n = static_cast<int>(rng() % (wa + 2));
        LogicVec sl = LogicVec::zeros(wa), sr = sl;
        for (int i = 0; i < wa; ++i) {
            if (i - n >= 0)
                sl.setBit(i, a.bit(i - n));
            if (i + n < wa)
                sr.setBit(i, a.bit(i + n));
        }
        ASSERT_TRUE(a.shl(LogicVec(32, static_cast<uint64_t>(n)))
                        .identical(sl))
            << trial;
        ASSERT_TRUE(a.shr(LogicVec(32, static_cast<uint64_t>(n)))
                        .identical(sr))
            << trial;

        // Reductions.
        bool any0 = false, any1 = false, anyu = false;
        int parity = 0;
        for (int i = 0; i < wa; ++i) {
            Bit x = a.bit(i);
            any0 |= x == Bit::Zero;
            any1 |= x == Bit::One;
            anyu |= !known(x);
            parity ^= x == Bit::One;
        }
        ASSERT_EQ(a.reduceAnd().toString(),
                  any0 ? "0" : anyu ? "x" : "1");
        ASSERT_EQ(a.reduceOr().toString(), any1 ? "1" : anyu ? "x" : "0");
        ASSERT_EQ(a.reduceXor().toString(),
                  anyu ? "x" : parity ? "1" : "0");

        // Concatenation and replication are bit-string operations.
        ASSERT_EQ(LogicVec::concat(a, b).toString(),
                  a.toString() + b.toString());
        int k = 1 + static_cast<int>(rng() % 3);
        std::string rep;
        for (int i = 0; i < k; ++i)
            rep += a.toString();
        ASSERT_EQ(a.replicate(k).toString(), rep);
    }
}

// ----- property-style sweeps -----

class LogicArithProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(LogicArithProperty, MatchesNativeArithmetic)
{
    std::mt19937_64 rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        uint64_t x = rng() & 0xffffffffull;
        uint64_t y = rng() & 0xffffffffull;
        LogicVec a(32, x), b(32, y);
        uint32_t xa = static_cast<uint32_t>(x);
        uint32_t ya = static_cast<uint32_t>(y);
        EXPECT_EQ(a.add(b).toUint64(), uint64_t(uint32_t(xa + ya)));
        EXPECT_EQ(a.sub(b).toUint64(), uint64_t(uint32_t(xa - ya)));
        EXPECT_EQ(a.mul(b).toUint64(), uint64_t(uint32_t(xa * ya)));
        if (ya != 0) {
            EXPECT_EQ(a.div(b).toUint64(), uint64_t(xa / ya));
            EXPECT_EQ(a.mod(b).toUint64(), uint64_t(xa % ya));
        }
        EXPECT_EQ(a.bitAnd(b).toUint64(), uint64_t(xa & ya));
        EXPECT_EQ(a.bitOr(b).toUint64(), uint64_t(xa | ya));
        EXPECT_EQ(a.bitXor(b).toUint64(), uint64_t(xa ^ ya));
        EXPECT_EQ(a.lt(b).isTrue(), xa < ya);
        EXPECT_EQ(a.logicEq(b).isTrue(), xa == ya);
        uint64_t sh = rng() % 32;
        EXPECT_EQ(a.shl(LogicVec(8, sh)).toUint64(),
                  uint64_t(uint32_t(xa << sh)));
        EXPECT_EQ(a.shr(LogicVec(8, sh)).toUint64(),
                  uint64_t(xa >> sh));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogicArithProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

class LogicWidthProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LogicWidthProperty, RoundTripAndInvariants)
{
    int width = GetParam();
    std::mt19937_64 rng(static_cast<uint64_t>(width) * 7919);
    for (int trial = 0; trial < 50; ++trial) {
        std::string bits;
        for (int i = 0; i < width; ++i)
            bits.push_back("01xz"[rng() % 4]);
        LogicVec a = LogicVec::fromString(bits);
        // toString round trip.
        EXPECT_EQ(a.toString(), bits);
        EXPECT_TRUE(LogicVec::fromString(a.toString()).identical(a));
        // Double negation is identity on defined bits only.
        LogicVec nn = a.bitNot().bitNot();
        for (int i = 0; i < width; ++i) {
            if (a.bit(i) == Bit::Zero || a.bit(i) == Bit::One)
                EXPECT_EQ(nn.bit(i), a.bit(i));
            else
                EXPECT_EQ(nn.bit(i), Bit::X);
        }
        // Case equality is reflexive even with x/z.
        EXPECT_TRUE(a.caseEq(a).isTrue());
        // Concat width adds up; slices reassemble.
        if (width >= 2) {
            int cut = 1 + static_cast<int>(rng() % uint64_t(width - 1));
            LogicVec hi = a.slice(width - 1, cut);
            LogicVec lo = a.slice(cut - 1, 0);
            EXPECT_TRUE(LogicVec::concat(hi, lo).identical(a));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, LogicWidthProperty,
                         ::testing::Values(1, 2, 7, 8, 25, 32, 33, 64,
                                           65, 100, 128));

} // namespace
