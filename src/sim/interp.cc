#include "sim/interp.h"

#include <optional>
#include <sstream>

#include "sim/eval.h"

namespace cirfix::sim {

using namespace verilog;

// --------------------------------------------------------------------
// Awaiters
// --------------------------------------------------------------------

namespace {

/** Suspend until an absolute time (or the #0 inactive region). */
struct DelayAwaiter
{
    Scheduler *sched;
    SimTime delay;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (delay == 0)
            sched->scheduleInactive([h] { h.resume(); });
        else
            sched->scheduleAt(sched->now() + delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
};

/** Suspend until one of the edges/events of a Sensitivity fires. */
struct EventsAwaiter
{
    Scheduler *sched;
    const Sensitivity *sens;
    /** Per entry: the watched bit of a run-time bit select. */
    std::vector<int> bits;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        auto handle =
            std::make_shared<WaitHandle>(sched, [h] { h.resume(); });
        for (size_t i = 0; i < sens->entries.size(); ++i) {
            const Sensitivity::Entry &e = sens->entries[i];
            if (e.event)
                e.event->addWaiter(handle);
            else
                e.sig->addWaiter(e.edge, e.index ? bits[i] : -1, handle);
        }
        // With nothing to wait on the process simply stalls, like a
        // real simulator blocked on an event that never triggers.
    }
    void await_resume() const noexcept {}
};

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

/** @p e as an unsigned delay or count; x/z reads as 0. */
uint64_t
evalUint(Design &design, InstanceScope &scope, const Expr &e)
{
    std::optional<LogicVec> t;
    const LogicVec &v = evalRef(e, scope, design, t);
    return v.hasUnknown() ? 0 : v.toUint64();
}

/** Verilog truthiness of @p e (see LogicVec::isTrue). */
bool
truthy(Design &design, InstanceScope &scope, const Expr &e)
{
    std::optional<LogicVec> t;
    return evalRef(e, scope, design, t).isTrue();
}

/** The waiting set of an event control or wait statement, with the
 *  bits of run-time bit selects evaluated now. */
EventsAwaiter
awaitEvents(Design &design, InstanceScope &scope, const Stmt &stmt)
{
    EventsAwaiter aw{&design.scheduler(), scope.bind(stmt).sens, {}};
    if (aw.sens->hasIndex) {
        aw.bits.assign(aw.sens->entries.size(), -1);
        for (size_t i = 0; i < aw.sens->entries.size(); ++i) {
            const Sensitivity::Entry &e = aw.sens->entries[i];
            if (!e.index)
                continue;
            std::optional<LogicVec> t;
            const LogicVec &idx = evalRef(*e.index, scope, design, t);
            if (!idx.hasUnknown())
                aw.bits[i] = static_cast<int>(idx.toUint64()) - e.lsb;
        }
    }
    return aw;
}

/** Non-blocking assignment: resolve the target now, write later. */
void
scheduleNba(Design &design, InstanceScope &scope, const Assign &s,
            LogicVec rhs)
{
    Scheduler &sched = design.scheduler();
    WriteTarget t = resolveLValue(design, scope, *s.lhs);
    uint64_t d = s.delay ? evalUint(design, scope, *s.delay) : 0;
    auto update = [t = std::move(t), rhs = std::move(rhs)]() {
        performWrite(t, rhs);
    };
    if (d == 0)
        sched.scheduleNba(std::move(update));
    else
        sched.scheduleNbaAt(sched.now() + d, std::move(update));
}

/** Case statement: the body of the first matching item, else the
 *  default's, else null. */
const Stmt *
selectCase(Design &design, InstanceScope &scope, const Case &s)
{
    std::optional<LogicVec> ts;
    const LogicVec &subj = evalRef(*s.subject, scope, design, ts);
    const CaseItem *dflt = nullptr;
    for (auto &item : s.items) {
        if (item.labels.empty()) {
            dflt = &item;
            continue;
        }
        for (auto &lab : item.labels) {
            std::optional<LogicVec> tl;
            if (caseLabelMatches(s.type, subj,
                                 evalRef(*lab, scope, design, tl)))
                return item.body.get();
        }
    }
    return dflt ? dflt->body.get() : nullptr;
}

std::string
formatValue(const LogicVec &v, char spec)
{
    switch (spec) {
      case 'd': case 't':
        return v.toDecimalString();
      case 'b':
        return v.toString();
      case 'h': case 'x': {
        if (v.hasUnknown())
            return v.toString();
        static const char *digits = "0123456789abcdef";
        std::string s;
        int w = ((v.width() + 3) / 4) * 4;
        LogicVec padded = v.resized(w);
        for (int i = w - 4; i >= 0; i -= 4)
            s.push_back(digits[padded.slice(i + 3, i).toUint64()]);
        return s;
      }
      case 'c':
        return std::string(1, static_cast<char>(v.toUint64() & 0xff));
      default:
        return v.toDecimalString();
    }
}

void
runDisplay(Design &design, InstanceScope &scope, const SysTask &task)
{
    std::ostringstream os;
    size_t arg_i = 0;
    auto nextArg = [&]() -> LogicVec {
        if (arg_i < task.args.size())
            return evalExpr(*task.args[arg_i++], scope, design);
        return LogicVec::xs(1);
    };
    if (task.format) {
        const std::string &fmt = *task.format;
        for (size_t i = 0; i < fmt.size(); ++i) {
            if (fmt[i] != '%' || i + 1 >= fmt.size()) {
                os << fmt[i];
                continue;
            }
            ++i;
            while (i < fmt.size() &&
                   (std::isdigit(static_cast<unsigned char>(fmt[i]))))
                ++i;  // ignore width specifiers like %0d
            if (i >= fmt.size())
                break;
            char spec = static_cast<char>(
                std::tolower(static_cast<unsigned char>(fmt[i])));
            if (spec == '%') {
                os << '%';
            } else if (spec == 'm') {
                os << (scope.path.empty() ? "top" : scope.path);
            } else if (spec == 's') {
                os << formatValue(nextArg(), 'c');
            } else {
                os << formatValue(nextArg(), spec);
            }
        }
        while (arg_i < task.args.size()) {
            os << " ";
            os << formatValue(nextArg(), 'd');
        }
    } else {
        for (size_t i = 0; i < task.args.size(); ++i) {
            if (i)
                os << " ";
            os << formatValue(nextArg(), 'd');
        }
    }
    design.addDisplay(os.str());
}

} // namespace

bool
caseLabelMatches(CaseType type, const LogicVec &subj, const LogicVec &lab)
{
    return subj.caseMatch(lab, type == CaseType::CaseZ,
                          type == CaseType::CaseX);
}

/**
 * Conservative "can this statement suspend the process?" analysis,
 * cached on the node. Statements that cannot suspend are executed by
 * the synchronous fast path below, avoiding a coroutine frame per
 * statement (a large win for combinational always blocks with loops).
 */
bool
mightSuspend(const Stmt &stmt)
{
    int8_t cached = stmt.suspendCache.load(std::memory_order_relaxed);
    if (cached >= 0)
        return cached != 0;
    bool result = false;
    switch (stmt.kind) {
      case NodeKind::DelayStmt:
      case NodeKind::EventCtrl:
      case NodeKind::Wait:
        result = true;
        break;
      case NodeKind::Assign:
        // Only a *blocking* intra-assignment delay suspends; NBA
        // delays are scheduled without blocking the process.
        result = stmt.as<Assign>()->blocking &&
                 stmt.as<Assign>()->delay != nullptr;
        break;
      case NodeKind::SeqBlock:
        for (auto &s : stmt.as<SeqBlock>()->stmts)
            if (s && mightSuspend(*s))
                result = true;
        break;
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        result = (s->thenStmt && mightSuspend(*s->thenStmt)) ||
                 (s->elseStmt && mightSuspend(*s->elseStmt));
        break;
      }
      case NodeKind::Case:
        for (auto &item : stmt.as<Case>()->items)
            if (item.body && mightSuspend(*item.body))
                result = true;
        break;
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::Forever: {
        auto *s = stmt.as<Forever>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      default:
        result = false;
        break;
    }
    stmt.suspendCache.store(result ? 1 : 0, std::memory_order_relaxed);
    return result;
}

/** Synchronous executor for statements that cannot suspend. */
void
execStmtSync(Design &design, InstanceScope &scope, const Stmt &stmt)
{
    design.chargeStmt();
    Scheduler &sched = design.scheduler();

    switch (stmt.kind) {
      case NodeKind::SeqBlock:
        for (auto &s : stmt.as<SeqBlock>()->stmts) {
            if (sched.finishRequested())
                return;
            if (s)
                execStmtSync(design, scope, *s);
        }
        return;
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        if (truthy(design, scope, *s->cond)) {
            if (s->thenStmt)
                execStmtSync(design, scope, *s->thenStmt);
        } else if (s->elseStmt) {
            execStmtSync(design, scope, *s->elseStmt);
        }
        return;
      }
      case NodeKind::Case: {
        if (const Stmt *body =
                selectCase(design, scope, *stmt.as<Case>()))
            execStmtSync(design, scope, *body);
        return;
      }
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        if (s->init)
            execStmtSync(design, scope, *s->init);
        while (truthy(design, scope, *s->cond)) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            if (s->step)
                execStmtSync(design, scope, *s->step);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        while (truthy(design, scope, *s->cond)) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        uint64_t count = evalUint(design, scope, *s->count);
        for (uint64_t i = 0; i < count; ++i) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::Forever: {
        // A forever with no timing control inside: spin until the
        // statement budget aborts it (runaway mutant).
        auto *s = stmt.as<Forever>();
        for (;;) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
      }
      case NodeKind::Assign: {
        auto *s = stmt.as<Assign>();
        if (s->blocking) {
            std::optional<LogicVec> t;
            const LogicVec &rhs = evalRef(*s->rhs, scope, design, t);
            performWrite(resolveLValue(design, scope, *s->lhs), rhs);
        } else {
            scheduleNba(design, scope, *s,
                        evalExpr(*s->rhs, scope, design));
        }
        return;
      }
      case NodeKind::TriggerEvent: {
        if (NameBinding b = scope.bind(stmt);
            b.kind == NameBinding::Kind::Event)
            b.event->trigger();
        return;
      }
      case NodeKind::SysTask: {
        auto *s = stmt.as<SysTask>();
        if (s->name == "$finish" || s->name == "$stop") {
            sched.requestFinish();
        } else if (s->name == "$display" || s->name == "$write" ||
                   s->name == "$strobe" || s->name == "$monitor" ||
                   s->name == "$error" || s->name == "$info") {
            runDisplay(design, scope, *s);
        }
        return;
      }
      case NodeKind::NullStmt:
      default:
        return;
    }
}

// --------------------------------------------------------------------
// Statement execution
// --------------------------------------------------------------------

Task
execStmt(Design &design, InstanceScope &scope, const Stmt &stmt)
{
    design.chargeStmt();
    Scheduler &sched = design.scheduler();

    switch (stmt.kind) {
      case NodeKind::SeqBlock: {
        auto *blk = stmt.as<SeqBlock>();
        for (auto &s : blk->stmts) {
            if (sched.finishRequested())
                co_return;
            if (s)
                {
                if (!mightSuspend(*s))
                    execStmtSync(design, scope, *s);
                else
                    co_await execStmt(design, scope, *s);
            }
        }
        co_return;
      }
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        if (truthy(design, scope, *s->cond)) {
            if (s->thenStmt)
                {
                if (!mightSuspend(*s->thenStmt))
                    execStmtSync(design, scope, *s->thenStmt);
                else
                    co_await execStmt(design, scope, *s->thenStmt);
            }
        } else if (s->elseStmt) {
            {
                if (!mightSuspend(*s->elseStmt))
                    execStmtSync(design, scope, *s->elseStmt);
                else
                    co_await execStmt(design, scope, *s->elseStmt);
            }
        }
        co_return;
      }
      case NodeKind::Case: {
        const Stmt *body = selectCase(design, scope, *stmt.as<Case>());
        if (body) {
            if (!mightSuspend(*body))
                execStmtSync(design, scope, *body);
            else
                co_await execStmt(design, scope, *body);
        }
        co_return;
      }
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        if (s->init)
            {
                if (!mightSuspend(*s->init))
                    execStmtSync(design, scope, *s->init);
                else
                    co_await execStmt(design, scope, *s->init);
            }
        while (truthy(design, scope, *s->cond)) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            if (s->step)
                {
                if (!mightSuspend(*s->step))
                    execStmtSync(design, scope, *s->step);
                else
                    co_await execStmt(design, scope, *s->step);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        while (truthy(design, scope, *s->cond)) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        uint64_t count = evalUint(design, scope, *s->count);
        for (uint64_t i = 0; i < count; ++i) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::Forever: {
        auto *s = stmt.as<Forever>();
        for (;;) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
      }
      case NodeKind::Assign: {
        auto *s = stmt.as<Assign>();
        if (!s->blocking) {
            scheduleNba(design, scope, *s,
                        evalExpr(*s->rhs, scope, design));
        } else if (s->delay) {
            // The value is sampled before the delay, written after it.
            LogicVec rhs = evalExpr(*s->rhs, scope, design);
            uint64_t d = evalUint(design, scope, *s->delay);
            co_await DelayAwaiter{&sched, d};
            performWrite(resolveLValue(design, scope, *s->lhs), rhs);
        } else {
            std::optional<LogicVec> t;
            const LogicVec &rhs = evalRef(*s->rhs, scope, design, t);
            performWrite(resolveLValue(design, scope, *s->lhs), rhs);
        }
        co_return;
      }
      case NodeKind::DelayStmt: {
        auto *s = stmt.as<DelayStmt>();
        uint64_t d = evalUint(design, scope, *s->delay);
        co_await DelayAwaiter{&sched, d};
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::EventCtrl: {
        auto *s = stmt.as<EventCtrl>();
        co_await awaitEvents(design, scope, stmt);
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::Wait: {
        auto *s = stmt.as<Wait>();
        while (!truthy(design, scope, *s->cond)) {
            EventsAwaiter aw = awaitEvents(design, scope, stmt);
            if (aw.sens->entries.empty())
                co_return;  // condition can never change
            co_await aw;
            design.chargeStmt();
        }
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::TriggerEvent: {
        if (NameBinding b = scope.bind(stmt);
            b.kind == NameBinding::Kind::Event)
            b.event->trigger();
        co_return;
      }
      case NodeKind::SysTask: {
        auto *s = stmt.as<SysTask>();
        if (s->name == "$finish" || s->name == "$stop") {
            sched.requestFinish();
        } else if (s->name == "$display" || s->name == "$write" ||
                   s->name == "$strobe" || s->name == "$monitor" ||
                   s->name == "$error" || s->name == "$info") {
            runDisplay(design, scope, *s);
        }
        // Unknown tasks ($dumpfile, $dumpvars, ...) are ignored.
        co_return;
      }
      case NodeKind::NullStmt:
        co_return;
      default:
        // Statement kinds that cannot appear here (defensive).
        co_return;
    }
}

// --------------------------------------------------------------------
// Process
// --------------------------------------------------------------------

Process::Process(Design &design, InstanceScope &scope, Kind kind,
                 const Stmt &body, std::string name)
    : design_(design), scope_(scope), kind_(kind), body_(body),
      name_(std::move(name)), root_(root(this))
{}

void
Process::start()
{
    // Kick the root coroutine in the active region of the current
    // (elaboration) time.
    design_.scheduler().scheduleActive([this] { root_.resume(); });
}

Task
Process::root(Process *self)
{
    try {
        if (self->kind_ == Kind::Always) {
            for (;;) {
                if (self->design_.scheduler().finishRequested())
                    co_return;
                if (!mightSuspend(self->body_))
                    execStmtSync(self->design_, self->scope_,
                                 self->body_);
                else
                    co_await execStmt(self->design_, self->scope_,
                                      self->body_);
                self->design_.chargeStmt();
            }
        } else {
            if (!mightSuspend(self->body_))
                execStmtSync(self->design_, self->scope_,
                             self->body_);
            else
                co_await execStmt(self->design_, self->scope_,
                                  self->body_);
        }
    } catch (const SimAbort &e) {
        self->design_.scheduler().noteAbort(e.what());
    } catch (const std::exception &e) {
        // Anything that is not a budget abort is a crash: SimOom from
        // the memory budget, injected faults, or interpreter bugs. The
        // first-abort-wins latch keeps an earlier Deadline/Runaway
        // classification intact while this unwinds.
        self->design_.scheduler().noteCrash(
            std::string("process crashed: ") + e.what());
    }
}

} // namespace cirfix::sim
