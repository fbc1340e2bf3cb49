#include "sim/signal.h"

#include <algorithm>

namespace cirfix::sim {

bool
edgeMatches(Edge edge, Bit from, Bit to)
{
    if (from == to)
        return false;
    auto rank = [](Bit b) {
        // 0 < {x, z} < 1 for edge-detection purposes.
        switch (b) {
          case Bit::Zero: return 0;
          case Bit::One: return 2;
          default: return 1;
        }
    };
    switch (edge) {
      case Edge::Level:
        return true;
      case Edge::Pos:
        return rank(to) > rank(from);
      case Edge::Neg:
        return rank(to) < rank(from);
    }
    return false;
}

void
Signal::set(const LogicVec &v)
{
    if (v.width() != width()) {
        set(v.resized(width()));
        return;
    }
    if (v.identical(value_))
        return;
    if (waiters_.empty() && watchers_.empty()) {
        value_ = v;
        return;
    }
    LogicVec old = std::move(value_);
    value_ = v;
    notify(old);
}

void
Signal::writeBits(int lsb, const LogicVec &part)
{
    if (waiters_.empty() && watchers_.empty()) {
        value_.writeSlice(lsb, part);
        return;
    }
    LogicVec old = value_;
    value_.writeSlice(lsb, part);
    if (!value_.identical(old))
        notify(old);
}

void
Signal::notify(const LogicVec &old)
{
    // Fire matching one-shot waiters and prune fired entries.
    if (!waiters_.empty()) {
        for (auto &w : waiters_) {
            if (w.handle->fired)
                continue;
            bool hit;
            if (w.edge == Edge::Level) {
                hit = (w.bit < 0) ? true
                                  : old.bit(w.bit) != value_.bit(w.bit);
            } else {
                int b = w.bit < 0 ? 0 : w.bit;
                hit = edgeMatches(w.edge, old.bit(b), value_.bit(b));
            }
            if (hit)
                w.handle->fire();
        }
        waiters_.erase(
            std::remove_if(waiters_.begin(), waiters_.end(),
                           [](const EdgeWaiter &w) {
                               return w.handle->fired;
                           }),
            waiters_.end());
    }

    for (auto &w : watchers_)
        w(old, value_);
}

void
Signal::addWaiter(Edge edge, int bit, WaitHandlePtr handle)
{
    waiters_.push_back({edge, bit, std::move(handle)});
}

void
NamedEvent::trigger()
{
    // Swap out first: a woken process may immediately re-wait on this
    // event, and that new waiter belongs to the *next* trigger.
    std::vector<WaitHandlePtr> pending;
    pending.swap(waiters_);
    for (auto &h : pending)
        h->fire();
}

LogicVec
Memory::read(const LogicVec &addr) const
{
    if (addr.hasUnknown())
        return LogicVec::xs(width_);
    int64_t a = static_cast<int64_t>(addr.toUint64());
    if (a < lo_ || a > hi_)
        return LogicVec::xs(width_);
    return words_[static_cast<size_t>(a - lo_)];
}

} // namespace cirfix::sim
