#pragma once

/**
 * @file
 * Runtime state objects: signals, named events and memories.
 *
 * A Signal is the elaborated form of a wire/reg/integer. Processes
 * suspend on signals via WaitHandles (one-shot, edge-qualified);
 * continuous assignments and the testbench probe observe signals via
 * permanent watchers. Edge detection follows the IEEE 1364 edge tables
 * (posedge covers the 0->1, 0->x/z and x/z->1 transitions of the LSB).
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/logic.h"
#include "sim/scheduler.h"
#include "verilog/ast.h"

namespace cirfix::sim {

using verilog::Edge;

/**
 * One-shot wakeup shared between the signals of an event list.
 * Whichever signal matches first fires the handle; the rest see the
 * fired flag and drop their reference.
 */
struct WaitHandle
{
    Scheduler *sched;
    std::function<void()> resume;
    bool fired = false;

    WaitHandle(Scheduler *s, std::function<void()> r)
        : sched(s), resume(std::move(r))
    {}

    void
    fire()
    {
        if (fired)
            return;
        fired = true;
        sched->scheduleActive(resume);
    }
};

using WaitHandlePtr = std::shared_ptr<WaitHandle>;

/** Decide whether a scalar transition matches an edge qualifier. */
bool edgeMatches(Edge edge, Bit from, Bit to);

/** An elaborated wire, reg, or integer. */
class Signal
{
  public:
    Signal(std::string name, int width, bool is_reg, Scheduler *sched)
        : name_(std::move(name)), isReg_(is_reg),
          value_(width, Bit::X), sched_(sched)
    {}

    const std::string &name() const { return name_; }
    int width() const { return value_.width(); }
    bool isReg() const { return isReg_; }
    const LogicVec &value() const { return value_; }

    /**
     * Update the value. If it changed, waiters whose edge qualifier
     * matches are fired and permanent watchers are notified.
     */
    void set(const LogicVec &v);

    /**
     * Overwrite bits [lsb, lsb + part.width()) in place (the caller
     * keeps the range inside the signal), notifying like set().
     */
    void writeBits(int lsb, const LogicVec &part);

    /** Set without notification (elaboration-time initialization). */
    void initValue(const LogicVec &v) { value_ = v.resized(width()); }

    /**
     * Register a one-shot waiter.
     *
     * @param edge Edge qualifier; Level fires on any value change.
     * @param bit  Bit index to watch for edge qualifiers on a vector
     *             bit-select, or -1 for the LSB/whole-vector.
     */
    void addWaiter(Edge edge, int bit, WaitHandlePtr handle);

    /** Permanent watcher called as (old_value, new_value). */
    using Watcher = std::function<void(const LogicVec &,
                                       const LogicVec &)>;
    void addWatcher(Watcher w) { watchers_.push_back(std::move(w)); }

  private:
    /** Fire waiters and watchers for a change away from @p old. */
    void notify(const LogicVec &old);

    struct EdgeWaiter
    {
        Edge edge;
        int bit;
        WaitHandlePtr handle;
    };

    std::string name_;
    bool isReg_;
    LogicVec value_;
    Scheduler *sched_;
    std::vector<EdgeWaiter> waiters_;
    std::vector<Watcher> watchers_;
};

/** An elaborated named event ("event e; ... -> e; ... @(e)"). */
class NamedEvent
{
  public:
    explicit NamedEvent(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    void
    addWaiter(WaitHandlePtr handle)
    {
        waiters_.push_back(std::move(handle));
    }

    /** Fire every pending waiter. */
    void trigger();

  private:
    std::string name_;
    std::vector<WaitHandlePtr> waiters_;
};

/** A 1-D array of regs ("reg [7:0] mem [0:255]"). */
class Memory
{
  public:
    Memory(std::string name, int width, int64_t first, int64_t last)
        : name_(std::move(name)), width_(width),
          lo_(std::min(first, last)), hi_(std::max(first, last)),
          words_(static_cast<size_t>(hi_ - lo_ + 1),
                 LogicVec(width, Bit::X))
    {}

    const std::string &name() const { return name_; }
    int width() const { return width_; }
    int64_t size() const { return hi_ - lo_ + 1; }

    /** Read element @p addr; out-of-range or unknown address reads x. */
    LogicVec read(const LogicVec &addr) const;

    /** Write element @p addr (resized to the element width);
     *  out-of-range writes are ignored. */
    void
    writeAt(int64_t addr, const LogicVec &v)
    {
        if (addr < lo_ || addr > hi_)
            return;
        LogicVec &word = words_[static_cast<size_t>(addr - lo_)];
        if (v.width() == width_)
            word = v;
        else
            word = v.resized(width_);
    }

  private:
    std::string name_;
    int width_;
    int64_t lo_, hi_;
    std::vector<LogicVec> words_;
};

} // namespace cirfix::sim
