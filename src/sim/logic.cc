#include "sim/logic.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cirfix::sim {

namespace {
thread_local uint64_t g_logic_heap_allocs = 0;
} // namespace

uint64_t
logicHeapAllocs()
{
    return g_logic_heap_allocs;
}

void
WordStore::assignWide(size_t n, uint64_t fill)
{
    if (n != n_ || !heap_) {
        release();
        heap_ = new uint64_t[n];
        ++g_logic_heap_allocs;
    }
    n_ = n;
    for (size_t i = 0; i < n; ++i)
        heap_[i] = fill;
}

bool
WordStore::wideEqual(const WordStore &o) const
{
    const uint64_t *a = data(), *b = o.data();
    for (size_t i = 0; i < n_; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

void
WordStore::copyHeap(const WordStore &o)
{
    heap_ = new uint64_t[n_];
    ++g_logic_heap_allocs;
    for (size_t i = 0; i < n_; ++i)
        heap_[i] = o.heap_[i];
}

char
bitChar(Bit b)
{
    switch (b) {
      case Bit::Zero: return '0';
      case Bit::One: return '1';
      case Bit::Z: return 'z';
      case Bit::X: return 'x';
    }
    return '?';
}

Bit
charBit(char c)
{
    switch (c) {
      case '0': return Bit::Zero;
      case '1': return Bit::One;
      case 'x': case 'X': return Bit::X;
      case 'z': case 'Z': case '?': return Bit::Z;
      default:
        throw std::invalid_argument(std::string("bad logic char: ") + c);
    }
}

void
LogicVec::badWidth()
{
    throw std::invalid_argument("LogicVec width must be positive");
}

LogicVec
LogicVec::fromString(const std::string &bits)
{
    if (bits.empty())
        throw std::invalid_argument("empty bit string");
    LogicVec v(static_cast<int>(bits.size()), Bit::Zero);
    for (size_t i = 0; i < bits.size(); ++i)
        v.setBit(static_cast<int>(bits.size() - 1 - i), charBit(bits[i]));
    return v;
}

void
LogicVec::setBit(int i, Bit b)
{
    if (i < 0 || i >= width_)
        return;
    uint64_t mask = 1ull << (i % 64);
    uint8_t enc = static_cast<uint8_t>(b);
    if (enc & 1)
        aval_[i / 64] |= mask;
    else
        aval_[i / 64] &= ~mask;
    if (enc & 2)
        bval_[i / 64] |= mask;
    else
        bval_[i / 64] &= ~mask;
}

bool
LogicVec::isAllZero() const
{
    for (int i = 0; i < words(); ++i)
        if (aval_[i] != 0 || bval_[i] != 0)
            return false;
    return true;
}

std::string
LogicVec::toString() const
{
    std::string s;
    s.reserve(width_);
    for (int i = width_ - 1; i >= 0; --i)
        s.push_back(bitChar(bit(i)));
    return s;
}

std::string
LogicVec::toDecimalString() const
{
    if (hasUnknown())
        return toString();
    // Repeated division by 10 over the word array.
    std::vector<uint64_t> w(aval_.begin(), aval_.end());
    std::string digits;
    auto all_zero = [&] {
        return std::all_of(w.begin(), w.end(),
                           [](uint64_t x) { return x == 0; });
    };
    if (all_zero())
        return "0";
    while (!all_zero()) {
        unsigned __int128 rem = 0;
        for (int i = static_cast<int>(w.size()) - 1; i >= 0; --i) {
            unsigned __int128 cur = (rem << 64) | w[i];
            w[i] = static_cast<uint64_t>(cur / 10);
            rem = cur % 10;
        }
        digits.push_back(static_cast<char>('0' + static_cast<int>(rem)));
    }
    std::reverse(digits.begin(), digits.end());
    return digits;
}

LogicVec
LogicVec::resized(int new_width) const
{
    if (new_width == width_)
        return *this;
    // Word-parallel zero-extend / truncate: bits above width_ are kept
    // zero by the maskTop invariant, so whole source words can be
    // copied and the top word re-masked for the new width.
    LogicVec r(new_width, Bit::Zero);
    int nw = std::min(r.words(), words());
    for (int i = 0; i < nw; ++i) {
        r.aval_[i] = aval_[i];
        r.bval_[i] = bval_[i];
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::slice(int msb, int lsb) const
{
    assert(msb >= lsb);
    LogicVec r(msb - lsb + 1, Bit::Zero);
    if (lsb < 0 || msb >= width_) {
        // Partially out of range: per-bit with X fill (rare path).
        for (int i = lsb; i <= msb; ++i)
            r.setBit(i - lsb, bit(i));
        return r;
    }
    // Word-parallel funnel shift of both planes.
    int off = lsb / 64;
    int sh = lsb % 64;
    for (int i = 0; i < r.words(); ++i) {
        uint64_t a = aval_[off + i];
        uint64_t b = bval_[off + i];
        if (sh != 0) {
            a >>= sh;
            b >>= sh;
            if (off + i + 1 < words()) {
                a |= aval_[off + i + 1] << (64 - sh);
                b |= bval_[off + i + 1] << (64 - sh);
            }
        }
        r.aval_[i] = a;
        r.bval_[i] = b;
    }
    r.maskTop();
    return r;
}

void
LogicVec::writeSlice(int lsb, const LogicVec &v)
{
    const int w = v.width();
    if (lsb >= 0 && lsb + w <= width_) {
        // In range: masked insert of each 64-bit source chunk into the
        // (at most two) destination words it covers. v's bits above
        // its width are zero by the maskTop invariant.
        for (int j = 0; j < v.words(); ++j) {
            const int cw = std::min(64, w - 64 * j);
            const uint64_t m = cw == 64 ? ~0ull : (1ull << cw) - 1;
            const int pos = lsb + 64 * j;
            const int wi = pos / 64, sh = pos % 64;
            const uint64_t a = v.aval_[j], b = v.bval_[j];
            aval_[wi] = (aval_[wi] & ~(m << sh)) | (a << sh);
            bval_[wi] = (bval_[wi] & ~(m << sh)) | (b << sh);
            if (sh != 0 && sh + cw > 64) {
                const int hs = 64 - sh;
                aval_[wi + 1] = (aval_[wi + 1] & ~(m >> hs)) | (a >> hs);
                bval_[wi + 1] = (bval_[wi + 1] & ~(m >> hs)) | (b >> hs);
            }
        }
        return;
    }
    // Partly out of range (rare): per bit, dropping the outside bits.
    for (int i = 0; i < w; ++i) {
        int dst = lsb + i;
        if (dst >= 0 && dst < width_)
            setBit(dst, v.bit(i));
    }
}

LogicVec
LogicVec::bit1(bool v)
{
    return LogicVec(1, v ? Bit::One : Bit::Zero);
}

LogicVec
LogicVec::bitX()
{
    return LogicVec(1, Bit::X);
}

LogicVec
LogicVec::bitNot() const
{
    // ~0 = 1, ~1 = 0, ~x = x, ~z = x
    LogicVec r(width_, Bit::Zero);
    for (int i = 0; i < words(); ++i) {
        r.bval_[i] = bval_[i];
        r.aval_[i] = ~aval_[i] | bval_[i];
    }
    r.maskTop();
    return r;
}

namespace {

/** Pad two operands to a common width for bitwise/arith contexts. */
int
commonWidth(const LogicVec &a, const LogicVec &b)
{
    return std::max(a.width(), b.width());
}

} // namespace

// The bitwise operators work a word at a time on the two planes. Per
// bit, with k1 = a & ~b (a definite 1) and k0 = ~a & ~b (a definite 0),
// a result bit is 1, 0, or x when neither applies: (a, b) = (1, 1).

LogicVec
LogicVec::bitAnd(const LogicVec &o) const
{
    // 0 & anything = 0; 1 & 1 = 1; otherwise x.
    LogicVec r(commonWidth(*this, o), Bit::Zero);
    for (int i = 0; i < r.words(); ++i) {
        uint64_t xa = aw(i), xb = bw(i), ya = o.aw(i), yb = o.bw(i);
        uint64_t one = (xa & ~xb) & (ya & ~yb);
        uint64_t zero = (~xa & ~xb) | (~ya & ~yb);
        uint64_t x = ~(one | zero);
        r.aval_[i] = one | x;
        r.bval_[i] = x;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::bitOr(const LogicVec &o) const
{
    // 1 | anything = 1; 0 | 0 = 0; otherwise x.
    LogicVec r(commonWidth(*this, o), Bit::Zero);
    for (int i = 0; i < r.words(); ++i) {
        uint64_t xa = aw(i), xb = bw(i), ya = o.aw(i), yb = o.bw(i);
        uint64_t one = (xa & ~xb) | (ya & ~yb);
        uint64_t zero = (~xa & ~xb) & (~ya & ~yb);
        uint64_t x = ~(one | zero);
        r.aval_[i] = one | x;
        r.bval_[i] = x;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::bitXor(const LogicVec &o) const
{
    // x/z on either side gives x; otherwise the binary xor.
    LogicVec r(commonWidth(*this, o), Bit::Zero);
    for (int i = 0; i < r.words(); ++i) {
        uint64_t xa = aw(i), xb = bw(i), ya = o.aw(i), yb = o.bw(i);
        uint64_t x = xb | yb;
        r.aval_[i] = ((xa ^ ya) & ~x) | x;
        r.bval_[i] = x;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::bitXnor(const LogicVec &o) const
{
    return bitXor(o).bitNot();
}

LogicVec
LogicVec::add(const LogicVec &o) const
{
    int w = commonWidth(*this, o);
    if (hasUnknown() || o.hasUnknown())
        return LogicVec::xs(w);
    LogicVec r(w, Bit::Zero);
    unsigned __int128 carry = 0;
    for (int i = 0; i < r.words(); ++i) {
        unsigned __int128 s = carry;
        s += aw(i);
        s += o.aw(i);
        r.aval_[i] = static_cast<uint64_t>(s);
        carry = s >> 64;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::sub(const LogicVec &o) const
{
    // a + ~b + 1 over the common width: two's-complement subtraction.
    int w = commonWidth(*this, o);
    if (hasUnknown() || o.hasUnknown())
        return LogicVec::xs(w);
    LogicVec r(w, Bit::Zero);
    unsigned __int128 carry = 1;
    for (int i = 0; i < r.words(); ++i) {
        unsigned __int128 s = carry;
        s += aw(i);
        s += ~o.aw(i);
        r.aval_[i] = static_cast<uint64_t>(s);
        carry = s >> 64;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::negate() const
{
    if (hasUnknown())
        return LogicVec::xs(width_);
    LogicVec r(width_, Bit::Zero);
    unsigned __int128 carry = 1;
    for (int i = 0; i < words(); ++i) {
        unsigned __int128 s = carry;
        s += ~aval_[i];
        r.aval_[i] = static_cast<uint64_t>(s);
        carry = s >> 64;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::mul(const LogicVec &o) const
{
    int w = commonWidth(*this, o);
    if (hasUnknown() || o.hasUnknown())
        return LogicVec::xs(w);
    LogicVec a = resized(w), b = o.resized(w), r(w, Bit::Zero);
    // Schoolbook multiply over 64-bit limbs, truncated to w bits.
    int nw = a.words();
    for (int i = 0; i < nw; ++i) {
        unsigned __int128 carry = 0;
        for (int j = 0; i + j < nw; ++j) {
            unsigned __int128 cur = r.aval_[i + j];
            cur += static_cast<unsigned __int128>(a.aval_[i]) * b.aval_[j];
            cur += carry;
            r.aval_[i + j] = static_cast<uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::div(const LogicVec &o) const
{
    int w = commonWidth(*this, o);
    if (hasUnknown() || o.hasUnknown() || o.isAllZero())
        return LogicVec::xs(w);
    if (w <= 64)
        return LogicVec(w, toUint64() / o.toUint64());
    // Long division: shift-subtract, MSB first.
    LogicVec rem = LogicVec::zeros(w), quot = LogicVec::zeros(w);
    LogicVec a = resized(w), b = o.resized(w);
    for (int i = w - 1; i >= 0; --i) {
        rem = rem.shl(LogicVec(32, 1ull));
        rem.setBit(0, a.bit(i));
        if (rem.compareKnown(b) >= 0) {
            rem = rem.sub(b);
            quot.setBit(i, Bit::One);
        }
    }
    return quot;
}

LogicVec
LogicVec::mod(const LogicVec &o) const
{
    int w = commonWidth(*this, o);
    if (hasUnknown() || o.hasUnknown() || o.isAllZero())
        return LogicVec::xs(w);
    if (w <= 64)
        return LogicVec(w, toUint64() % o.toUint64());
    LogicVec q = div(o);
    return resized(w).sub(q.mul(o.resized(w)));
}

LogicVec
LogicVec::pow(const LogicVec &o) const
{
    if (hasUnknown() || o.hasUnknown())
        return LogicVec::xs(width_);
    LogicVec result(width_, 1ull);
    LogicVec base = *this;
    uint64_t exp = o.toUint64();
    while (exp > 0) {
        if (exp & 1)
            result = result.mul(base).resized(width_);
        base = base.mul(base).resized(width_);
        exp >>= 1;
    }
    return result;
}

LogicVec
LogicVec::shl(const LogicVec &o) const
{
    if (o.hasUnknown())
        return LogicVec::xs(width_);
    uint64_t n = o.toUint64();
    LogicVec r(width_, Bit::Zero);
    if (n >= static_cast<uint64_t>(width_))
        return r;
    const int ws = static_cast<int>(n / 64), bs = static_cast<int>(n % 64);
    for (int i = ws; i < r.words(); ++i) {
        int src = i - ws;
        uint64_t a = aval_[src] << bs, b = bval_[src] << bs;
        if (bs != 0 && src > 0) {
            a |= aval_[src - 1] >> (64 - bs);
            b |= bval_[src - 1] >> (64 - bs);
        }
        r.aval_[i] = a;
        r.bval_[i] = b;
    }
    r.maskTop();
    return r;
}

LogicVec
LogicVec::shr(const LogicVec &o) const
{
    if (o.hasUnknown())
        return LogicVec::xs(width_);
    uint64_t n = o.toUint64();
    LogicVec r(width_, Bit::Zero);
    if (n >= static_cast<uint64_t>(width_))
        return r;
    const int ws = static_cast<int>(n / 64), bs = static_cast<int>(n % 64);
    for (int i = 0; i + ws < words(); ++i) {
        int src = i + ws;
        uint64_t a = aval_[src] >> bs, b = bval_[src] >> bs;
        if (bs != 0 && src + 1 < words()) {
            a |= aval_[src + 1] << (64 - bs);
            b |= bval_[src + 1] << (64 - bs);
        }
        r.aval_[i] = a;
        r.bval_[i] = b;
    }
    return r;
}

int
LogicVec::compareKnown(const LogicVec &o) const
{
    for (int i = std::max(words(), o.words()) - 1; i >= 0; --i) {
        if (aw(i) < o.aw(i))
            return -1;
        if (aw(i) > o.aw(i))
            return 1;
    }
    return 0;
}

LogicVec
LogicVec::lt(const LogicVec &o) const
{
    if (hasUnknown() || o.hasUnknown())
        return bitX();
    return bit1(compareKnown(o) < 0);
}

LogicVec
LogicVec::le(const LogicVec &o) const
{
    if (hasUnknown() || o.hasUnknown())
        return bitX();
    return bit1(compareKnown(o) <= 0);
}

LogicVec
LogicVec::gt(const LogicVec &o) const
{
    if (hasUnknown() || o.hasUnknown())
        return bitX();
    return bit1(compareKnown(o) > 0);
}

LogicVec
LogicVec::ge(const LogicVec &o) const
{
    if (hasUnknown() || o.hasUnknown())
        return bitX();
    return bit1(compareKnown(o) >= 0);
}

LogicVec
LogicVec::logicEq(const LogicVec &o) const
{
    // A definite bit mismatch makes the result 0 even with x elsewhere.
    bool unknown = false;
    for (int i = std::max(words(), o.words()) - 1; i >= 0; --i) {
        uint64_t u = bw(i) | o.bw(i);
        if ((aw(i) ^ o.aw(i)) & ~u)
            return bit1(false);
        unknown |= u != 0;
    }
    return unknown ? bitX() : bit1(true);
}

LogicVec
LogicVec::logicNeq(const LogicVec &o) const
{
    return logicEq(o).logicNot();
}

LogicVec
LogicVec::caseEq(const LogicVec &o) const
{
    return bit1(caseMatch(o, false, false));
}

bool
LogicVec::caseMatch(const LogicVec &o, bool z_wild, bool xz_wild) const
{
    for (int i = std::max(words(), o.words()) - 1; i >= 0; --i) {
        uint64_t xa = aw(i), xb = bw(i), ya = o.aw(i), yb = o.bw(i);
        uint64_t wild = 0;
        if (xz_wild)
            wild = xb | yb;
        else if (z_wild)
            wild = (~xa & xb) | (~ya & yb);
        if (((xa ^ ya) | (xb ^ yb)) & ~wild)
            return false;
    }
    return true;
}

LogicVec
LogicVec::caseNeq(const LogicVec &o) const
{
    return bit1(!caseEq(o).hasOne());
}

LogicVec
LogicVec::logicAnd(const LogicVec &o) const
{
    bool a1 = hasOne(), b1 = o.hasOne();
    bool a0 = !a1 && !hasUnknown();
    bool b0 = !b1 && !o.hasUnknown();
    if (a0 || b0)
        return bit1(false);
    if (a1 && b1)
        return bit1(true);
    return bitX();
}

LogicVec
LogicVec::logicOr(const LogicVec &o) const
{
    bool a1 = hasOne(), b1 = o.hasOne();
    bool a0 = !a1 && !hasUnknown();
    bool b0 = !b1 && !o.hasUnknown();
    if (a1 || b1)
        return bit1(true);
    if (a0 && b0)
        return bit1(false);
    return bitX();
}

LogicVec
LogicVec::logicNot() const
{
    if (hasOne())
        return bit1(false);
    if (hasUnknown())
        return bitX();
    return bit1(true);
}

/** Mask of the valid bits of word @p i of a @p width-bit vector. */
static uint64_t
validMask(int width, int i)
{
    int rem = width - 64 * i;
    return rem >= 64 ? ~0ull : (1ull << rem) - 1;
}

LogicVec
LogicVec::reduceAnd() const
{
    bool unknown = false;
    for (int i = 0; i < words(); ++i) {
        if (~aval_[i] & ~bval_[i] & validMask(width_, i))
            return bit1(false);  // a definite 0
        unknown |= bval_[i] != 0;
    }
    return unknown ? bitX() : bit1(true);
}

LogicVec
LogicVec::reduceOr() const
{
    if (hasOne())
        return bit1(true);
    return hasUnknown() ? bitX() : bit1(false);
}

LogicVec
LogicVec::reduceXor() const
{
    if (hasUnknown())
        return bitX();
    int parity = 0;
    for (int i = 0; i < words(); ++i)
        parity ^= __builtin_parityll(aval_[i]);
    return bit1(parity != 0);
}

LogicVec
LogicVec::reduceNand() const
{
    return reduceAnd().logicNot();
}

LogicVec
LogicVec::reduceNor() const
{
    return reduceOr().logicNot();
}

LogicVec
LogicVec::reduceXnor() const
{
    LogicVec r = reduceXor();
    if (r.hasUnknown())
        return bitX();
    return bit1(!r.hasOne());
}

LogicVec
LogicVec::concat(const LogicVec &hi, const LogicVec &lo)
{
    LogicVec r(hi.width() + lo.width(), Bit::Zero);
    r.writeSlice(0, lo);
    r.writeSlice(lo.width(), hi);
    return r;
}

LogicVec
LogicVec::replicate(int n) const
{
    if (n <= 0)
        throw std::invalid_argument("replication count must be positive");
    LogicVec r(width_ * n, Bit::Zero);
    for (int k = 0; k < n; ++k)
        r.writeSlice(k * width_, *this);
    return r;
}

} // namespace cirfix::sim
