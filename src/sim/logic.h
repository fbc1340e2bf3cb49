#pragma once

/**
 * @file
 * Four-state logic values for Verilog simulation.
 *
 * Verilog models every bit as one of four states: 0, 1, x (unknown) and
 * z (high impedance). We use the conventional two-plane encoding (cf. the
 * VPI aval/bval encoding): each bit is a pair (a, b) where
 *
 *   (a=0, b=0) -> 0      (a=1, b=0) -> 1
 *   (a=0, b=1) -> z      (a=1, b=1) -> x
 *
 * so plane `b` marks "not a proper binary value" and plane `a`
 * distinguishes 0/1 (respectively z/x). All Verilog operators defined on
 * vectors (IEEE 1364-2005, clause 5) are implemented with standard
 * x/z-propagation semantics.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cirfix::sim {

/**
 * Word storage for one plane of a LogicVec with a one-word inline
 * buffer: vectors of width <= 64 — the overwhelming majority of
 * signals, ports and interpreter temporaries in the benchmark suite —
 * never touch the heap. The simulator hot path allocates LogicVec
 * temporaries for every expression evaluation and every recorded
 * sample, so this removes two global-allocator round trips per
 * temporary (see DESIGN.md, "Streaming fitness & early abort").
 *
 * The interface is the subset of std::vector<uint64_t> the logic
 * implementation uses; growth semantics are assign-only (a LogicVec
 * never resizes its planes in place).
 */
class WordStore
{
  public:
    WordStore() = default;
    WordStore(const WordStore &o) : n_(o.n_), inline0_(o.inline0_)
    {
        if (o.heap_)
            copyHeap(o);
    }
    WordStore(WordStore &&o) noexcept
        : n_(o.n_), inline0_(o.inline0_), heap_(o.heap_)
    {
        o.heap_ = nullptr;
        o.n_ = 0;
    }
    ~WordStore()
    {
        if (heap_)
            delete[] heap_;
    }

    WordStore &
    operator=(const WordStore &o)
    {
        if (this != &o) {
            release();
            n_ = o.n_;
            inline0_ = o.inline0_;
            if (o.heap_)
                copyHeap(o);
        }
        return *this;
    }

    WordStore &
    operator=(WordStore &&o) noexcept
    {
        if (this != &o) {
            release();
            n_ = o.n_;
            inline0_ = o.inline0_;
            heap_ = o.heap_;
            o.heap_ = nullptr;
            o.n_ = 0;
        }
        return *this;
    }

    /** Discard contents and hold @p n copies of @p fill. */
    void
    assign(size_t n, uint64_t fill)
    {
        if (n > 1) {
            assignWide(n, fill);
            return;
        }
        release();
        n_ = n;
        inline0_ = fill;
    }

    size_t size() const { return n_; }
    uint64_t *data() { return heap_ ? heap_ : &inline0_; }
    const uint64_t *data() const { return heap_ ? heap_ : &inline0_; }

    uint64_t &operator[](size_t i) { return data()[i]; }
    uint64_t operator[](size_t i) const { return data()[i]; }
    uint64_t &back() { return data()[n_ - 1]; }
    uint64_t back() const { return data()[n_ - 1]; }

    const uint64_t *begin() const { return data(); }
    const uint64_t *end() const { return data() + n_; }

    bool
    operator==(const WordStore &o) const
    {
        if (n_ != o.n_)
            return false;
        if (!heap_ && !o.heap_)
            return n_ == 0 || inline0_ == o.inline0_;
        return wideEqual(o);
    }

  private:
    /** Out-of-line wide paths: the only ones that touch the heap. */
    void copyHeap(const WordStore &o);
    void assignWide(size_t n, uint64_t fill);
    bool wideEqual(const WordStore &o) const;

    void
    release()
    {
        if (heap_) {
            delete[] heap_;
            heap_ = nullptr;
        }
    }

    size_t n_ = 0;
    uint64_t inline0_ = 0;
    uint64_t *heap_ = nullptr;
};

/**
 * Number of heap allocations WordStore has performed on this thread
 * (wide vectors only). Deterministic for a deterministic workload, so
 * the benchmark-regression gate can alarm on allocation regressions
 * without timing noise.
 */
uint64_t logicHeapAllocs();

/** One four-state logic bit. Values chosen to match the (a, b) planes. */
enum class Bit : uint8_t {
    Zero = 0,  //!< a=0 b=0
    One = 1,   //!< a=1 b=0
    Z = 2,     //!< a=0 b=1
    X = 3,     //!< a=1 b=1
};

/** Render a single bit as the canonical character 0/1/x/z. */
char bitChar(Bit b);

/** Parse one of '0','1','x','X','z','Z','?' into a Bit; '?' maps to z. */
Bit charBit(char c);

/**
 * An arbitrary-width vector of four-state bits.
 *
 * Bit 0 is the least significant bit. The vector is unsigned; the
 * benchmarks in this repository use unsigned arithmetic exclusively
 * (matching the original CirFix benchmark suite).
 */
class LogicVec
{
  public:
    /** Construct a 1-bit x value. */
    LogicVec() : LogicVec(1, Bit::X) {}

    /** Construct @p width bits all set to @p fill. */
    explicit LogicVec(int width, Bit fill = Bit::X) : width_(width)
    {
        if (width <= 0)
            badWidth();
        size_t nw = static_cast<size_t>((width + 63) / 64);
        aval_.assign(nw, (static_cast<uint8_t>(fill) & 1) ? ~0ull : 0ull);
        bval_.assign(nw, (static_cast<uint8_t>(fill) & 2) ? ~0ull : 0ull);
        maskTop();
    }

    /** Construct @p width bits from the binary value @p value (2-state). */
    LogicVec(int width, uint64_t value) : width_(width)
    {
        if (width <= 0)
            badWidth();
        size_t nw = static_cast<size_t>((width + 63) / 64);
        aval_.assign(nw, 0);
        bval_.assign(nw, 0);
        aval_[0] = value;
        maskTop();
    }

    /** Build from a string of 0/1/x/z characters, MSB first. */
    static LogicVec fromString(const std::string &bits);

    /** All-zero vector of the given width. */
    static LogicVec zeros(int width) { return LogicVec(width, Bit::Zero); }
    /** All-x vector of the given width. */
    static LogicVec xs(int width) { return LogicVec(width, Bit::X); }
    /** All-z vector of the given width. */
    static LogicVec zsVec(int width) { return LogicVec(width, Bit::Z); }

    int width() const { return width_; }

    Bit
    bit(int i) const
    {
        if (i < 0 || i >= width_)
            return Bit::X;
        uint64_t a = (aval_[i / 64] >> (i % 64)) & 1;
        uint64_t b = (bval_[i / 64] >> (i % 64)) & 1;
        return static_cast<Bit>(a | (b << 1));
    }
    void setBit(int i, Bit b);

    /** True iff any bit is x or z. */
    bool
    hasUnknown() const
    {
        for (uint64_t w : bval_)
            if (w != 0)
                return true;
        return false;
    }

    /** True iff every bit is 0 (x/z bits make this false). */
    bool isAllZero() const;

    /** True iff at least one bit is a definite 1. */
    bool
    hasOne() const
    {
        for (int i = 0; i < words(); ++i)
            if ((aval_[i] & ~bval_[i]) != 0)
                return true;
        return false;
    }

    /**
     * Verilog truthiness used by if/while/ternary conditions: a value is
     * taken as true iff it has at least one definite 1 bit. Conditions
     * that are ambiguous (no 1 but some x/z) count as false, matching
     * the behavior of `if` in event-driven simulation.
     */
    bool isTrue() const { return hasOne(); }

    /** Low 64 bits interpreted as binary; x/z bits read as 0. */
    uint64_t toUint64() const { return aval_[0] & ~bval_[0]; }

    /** Render MSB-first as 0/1/x/z characters. */
    std::string toString() const;

    /** Render as decimal if fully defined, else as the bit string. */
    std::string toDecimalString() const;

    /** Exact representation equality (same width and same 4-state bits). */
    bool
    identical(const LogicVec &o) const
    {
        return width_ == o.width_ && aval_ == o.aval_ && bval_ == o.bval_;
    }

    bool operator==(const LogicVec &o) const { return identical(o); }

    /**
     * Zero-extend or truncate to @p new_width. Verilog assignment
     * semantics: truncation drops high bits, extension fills with 0.
     */
    LogicVec resized(int new_width) const;

    /** Part select [msb:lsb] (msb >= lsb); out-of-range bits read x. */
    LogicVec slice(int msb, int lsb) const;

    /** Overwrite bits [lsb .. lsb+v.width()-1] with @p v (in range only). */
    void writeSlice(int lsb, const LogicVec &v);

    // --- Verilog operators (names follow the operator they implement) ---

    /** ~a */
    LogicVec bitNot() const;
    LogicVec bitAnd(const LogicVec &o) const;  //!< a & b
    LogicVec bitOr(const LogicVec &o) const;   //!< a | b
    LogicVec bitXor(const LogicVec &o) const;  //!< a ^ b
    LogicVec bitXnor(const LogicVec &o) const; //!< a ~^ b

    LogicVec add(const LogicVec &o) const;     //!< a + b
    LogicVec sub(const LogicVec &o) const;     //!< a - b
    LogicVec mul(const LogicVec &o) const;     //!< a * b
    LogicVec div(const LogicVec &o) const;     //!< a / b (x on div-by-0)
    LogicVec mod(const LogicVec &o) const;     //!< a % b (x on mod-by-0)
    LogicVec negate() const;                   //!< -a (two's complement)
    LogicVec pow(const LogicVec &o) const;     //!< a ** b

    LogicVec shl(const LogicVec &o) const;     //!< a << b
    LogicVec shr(const LogicVec &o) const;     //!< a >> b

    /** Relational; result is a 1-bit value, x if either side unknown. */
    LogicVec lt(const LogicVec &o) const;
    LogicVec le(const LogicVec &o) const;
    LogicVec gt(const LogicVec &o) const;
    LogicVec ge(const LogicVec &o) const;

    /** Logical equality ==; 1-bit result, x if comparison is ambiguous. */
    LogicVec logicEq(const LogicVec &o) const;
    LogicVec logicNeq(const LogicVec &o) const;

    /** Case equality ===; always 0 or 1, x/z compare literally. */
    LogicVec caseEq(const LogicVec &o) const;
    LogicVec caseNeq(const LogicVec &o) const;

    /** Logical && || ! on truthiness; 1-bit result with x propagation. */
    LogicVec logicAnd(const LogicVec &o) const;
    LogicVec logicOr(const LogicVec &o) const;
    LogicVec logicNot() const;

    /** Reduction operators; 1-bit result. */
    LogicVec reduceAnd() const;
    LogicVec reduceOr() const;
    LogicVec reduceXor() const;
    LogicVec reduceNand() const;
    LogicVec reduceNor() const;
    LogicVec reduceXnor() const;

    /** {a, b}: @p hi becomes the most significant part. */
    static LogicVec concat(const LogicVec &hi, const LogicVec &lo);

    /** {n{a}} replication. */
    LogicVec replicate(int n) const;

    /**
     * case/casez/casex item match: equal widths after zero extension,
     * bit for bit, except that bits where either side is z
     * (@p z_wild) or x/z (@p xz_wild) always match.
     */
    bool caseMatch(const LogicVec &o, bool z_wild, bool xz_wild) const;

  private:
    int width_;
    WordStore aval_;
    WordStore bval_;

    int words() const { return static_cast<int>(aval_.size()); }
    /** Plane words zero-extended past the top word (bits above the
     *  width are zero by the maskTop invariant, i.e. known 0). */
    uint64_t aw(int i) const { return i < words() ? aval_[i] : 0; }
    uint64_t bw(int i) const { return i < words() ? bval_[i] : 0; }
    void
    maskTop()
    {
        int rem = width_ % 64;
        if (rem != 0) {
            uint64_t mask = (1ull << rem) - 1;
            aval_.back() &= mask;
            bval_.back() &= mask;
        }
    }
    [[noreturn]] static void badWidth();
    /** 1-bit helper vectors for relational/equality results. */
    static LogicVec bit1(bool v);
    static LogicVec bitX();
    /** Compare fully-defined vectors as unsigned integers: -1/0/+1. */
    int compareKnown(const LogicVec &o) const;
};

} // namespace cirfix::sim
