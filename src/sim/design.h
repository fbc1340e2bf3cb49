#pragma once

/**
 * @file
 * Elaborated design: the runtime object graph produced from an AST.
 *
 * Elaboration instantiates the module hierarchy starting from a top
 * module (the testbench), creating a Signal/Memory/NamedEvent for every
 * declaration, binding instance ports (by aliasing the parent signal
 * where possible), spawning a Process per initial/always block, and
 * wiring continuous assignments as change-driven re-evaluations.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.h"
#include "sim/signal.h"
#include "verilog/ast.h"

namespace cirfix::sim {

class Process;
class Design;
class CompiledModule;

/** Thrown when a design cannot be elaborated (bad widths, ports...). */
struct ElabError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Thrown when a per-evaluation memory budget is exhausted. */
struct SimOom : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Deterministic fault-injection hooks compiled into the simulator, so
 * tests can prove the repair engine degrades every failure mode to
 * worst fitness instead of dying. All counters are 1-based; 0 disables
 * the hook.
 */
struct FaultPlan
{
    /** Throw std::runtime_error at the Nth charged statement. */
    uint64_t throwAtStmt = 0;
    /**
     * From the Nth charged statement on, burn ~1 ms of wall clock per
     * statement without making progress, so only the wall-clock
     * deadline can reap the run. Requires an armed deadline
     * (RunLimits::maxWallSeconds > 0); without one the stall degrades
     * to a throw instead of hanging the process.
     */
    uint64_t stallAtStmt = 0;
    /** Throw SimOom at the Nth runtime-object allocation. */
    uint64_t failAllocAt = 0;

    bool
    any() const
    {
        return throwAtStmt != 0 || stallAtStmt != 0 || failAllocAt != 0;
    }
};

/** Which simulation engine drives the elaborated design. */
enum class SimBackend
{
    /** Coroutine-per-process event-driven interpreter (reference). */
    Event,
    /**
     * Levelized cycle-based bytecode for every DUT module inside the
     * compilable subset; modules outside it fall back to the event
     * interpreter per module. The testbench top always runs event-driven.
     */
    Compiled,
    /** Alias of Compiled today: compile what fits, interpret the rest. */
    Auto,
};

/** Per-design counters reported by the compiled backend. */
struct CompiledStats
{
    uint64_t modulesCompiled = 0;   //!< module instances running bytecode
    uint64_t modulesFallback = 0;   //!< instances kept on the interpreter
    uint64_t combItems = 0;         //!< compiled comb assigns/blocks
    uint64_t seqItems = 0;          //!< compiled edge-triggered blocks
    uint64_t twoStateEvals = 0;     //!< expressions run on the fast path
    uint64_t fourStateFallbacks = 0;//!< fast-path bails due to x/z
};

/**
 * Containment knobs installed on a Design at elaboration time (the
 * memory budget must already be charged while elaborate() allocates
 * signals).
 */
struct SimGuards
{
    /** Allocation budget in bytes (0 = unlimited). */
    uint64_t memBudgetBytes = 0;
    FaultPlan faultPlan;
    /** Simulation engine selection (see SimBackend). */
    SimBackend backend = SimBackend::Event;
};

/** A named signal plus its declared range mapping. */
struct SignalRef
{
    Signal *sig = nullptr;
    /** Declared LSB index; physical bit i holds declared index i+lsb. */
    int lsb = 0;
};

/**
 * The resolved waiting set of one event control or wait statement in
 * one scope, in source order.
 */
struct Sensitivity
{
    struct Entry
    {
        Signal *sig = nullptr;        //!< signal to watch, or
        NamedEvent *event = nullptr;  //!< named event to wait on
        verilog::Edge edge = verilog::Edge::Level;
        /** Bit select whose index is evaluated at each wait; the
         *  watched bit is then index - lsb. Null: the LSB (for an
         *  edge) or the whole vector. */
        const verilog::Expr *index = nullptr;
        int lsb = 0;
    };
    std::vector<Entry> entries;
    bool hasIndex = false;  //!< some entry has a run-time index
};

/**
 * What one name-bearing AST node denotes in one instance scope.
 *
 * Resolution precedence (fixed per node kind):
 *   Ident:        signal, then parameter
 *   Index:        memory, then signal, then parameter
 *   RangeSel:     signal, then parameter
 *   TriggerEvent: named event
 *   EventCtrl/Wait: their Sensitivity
 * Writers treat a parameter as no target.
 */
struct NameBinding
{
    enum class Kind : uint8_t { None, Signal, Memory, Param, Event, Sens };

    const verilog::Node *node = nullptr;  //!< node this entry belongs to
    union {
        Signal *sig;
        Memory *mem;
        const LogicVec *param;
        NamedEvent *event;
        const Sensitivity *sens;
        const void *any = nullptr;
    };
    int lsb = 0;  //!< declared LSB of a signal
    Kind kind = Kind::None;
};

/** One instance in the elaborated hierarchy. */
struct InstanceScope
{
    std::string path;  //!< hierarchical path ("" for the top instance)
    const verilog::Module *module = nullptr;
    InstanceScope *parent = nullptr;

    std::unordered_map<std::string, SignalRef> signals;
    std::unordered_map<std::string, Memory *> memories;
    std::unordered_map<std::string, NamedEvent *> events;
    std::unordered_map<std::string, LogicVec> params;
    std::unordered_map<std::string, const verilog::FunctionDecl *>
        functions;
    std::vector<std::unique_ptr<InstanceScope>> children;

    InstanceScope *findChild(const std::string &inst_name) const;
    SignalRef findSignal(const std::string &name) const;
    Memory *findMemory(const std::string &name) const;
    NamedEvent *findEvent(const std::string &name) const;
    const verilog::FunctionDecl *
    findFunction(const std::string &name) const;

    /**
     * What @p n denotes here. The first call per (node, scope) looks
     * the name up in the maps above and stores the result in a dense
     * table indexed by the node's Node::bindSlot; later calls are one
     * index and one pointer compare. Returned by value: binding another
     * node may grow the table.
     */
    NameBinding
    bind(const verilog::Node &n)
    {
        int32_t s = n.bindSlot.load(std::memory_order_relaxed);
        if (s >= 0 && static_cast<size_t>(s) < bindings_.size() &&
            bindings_[static_cast<size_t>(s)].node == &n)
            return bindings_[static_cast<size_t>(s)];
        return bindSlow(n);
    }

  private:
    NameBinding bindSlow(const verilog::Node &n);
    NameBinding resolve(const verilog::Node &n);
    std::unique_ptr<Sensitivity>
    buildSensitivity(const verilog::Node &n) const;

    std::vector<NameBinding> bindings_;
    std::vector<std::unique_ptr<Sensitivity>> sensitivities_;
};

/** Tunable resource bounds for one simulation run. */
struct RunLimits
{
    SimTime maxTime = 1'000'000;
    uint64_t maxCallbacks = 2'000'000;
    uint64_t maxStatements = 20'000'000;
    /**
     * Wall-clock deadline for the run in seconds (0 = unlimited).
     * Layered on the statement/callback budgets: it reaps candidates
     * that burn real time without burning budget (checked in both the
     * scheduler loop and the statement path).
     */
    double maxWallSeconds = 0.0;
};

/**
 * A fully elaborated, runnable design.
 *
 * Owns the scheduler, every runtime object, and the processes. Create
 * with elaborate() (see elaborate.h), drive with run().
 */
class Design
{
  public:
    Design();
    ~Design();

    Design(const Design &) = delete;
    Design &operator=(const Design &) = delete;

    Scheduler &scheduler() { return sched_; }
    InstanceScope &top() { return *top_; }

    /** Look up "sig" or "inst.sub.sig" relative to the top instance. */
    SignalRef findSignal(const std::string &hier_path);
    InstanceScope *findScope(const std::string &hier_path);

    /** Lines produced by $display and friends during the run. */
    const std::vector<std::string> &displayLog() const { return log_; }
    void addDisplay(std::string line);

    /** Deterministic $random stream. */
    uint32_t nextRandom();
    void seedRandom(uint64_t seed) { rngState_ = seed | 1; }

    /**
     * Charge one statement execution against the budgets.
     * @throws SimAbort once the statement budget is exhausted or the
     *         wall-clock deadline has passed (runaway mutant);
     *         std::runtime_error / SimOom from fault injection.
     */
    void
    chargeStmt()
    {
        ++stmtCount_;
        if (faultArmed_)
            faultStmtHook();
        if (hasDeadline_ && (stmtCount_ & 0xFFF) == 0)
            checkDeadline();
        if (stmtBudget_ == 0)
            throw SimAbort("statement budget exhausted");
        --stmtBudget_;
    }

    /** Install containment knobs (see SimGuards); elaborate() calls
     *  this before any allocation so budgets cover elaboration too. */
    void setGuards(const SimGuards &guards);
    /** Bytes charged against the memory budget so far. */
    uint64_t memoryUsed() const { return memUsed_; }

    /** Run the simulation under the given resource limits. */
    Scheduler::RunResult run(const RunLimits &limits = RunLimits());

    // --- construction interface used by elaborate() and the probe ---

    Signal *makeSignal(const std::string &name, int width, bool is_reg);
    Memory *makeMemory(const std::string &name, int width, int64_t first,
                       int64_t last);
    NamedEvent *makeEvent(const std::string &name);
    void adoptProcess(std::unique_ptr<Process> p);
    void adoptCompiled(std::unique_ptr<CompiledModule> m);

    /** Backend requested at elaboration (SimGuards::backend). */
    SimBackend backend() const { return backend_; }
    /** Compiled-backend counters (zero under the event backend). */
    CompiledStats &compiledStats() { return cstats_; }
    const CompiledStats &compiledStats() const { return cstats_; }
    void setTop(std::unique_ptr<InstanceScope> top) { top_ = std::move(top); }
    /** Keep the (cloned) AST alive for the lifetime of the design. */
    void holdAst(std::shared_ptr<const verilog::SourceFile> ast)
    {
        ast_ = std::move(ast);
    }
    const verilog::SourceFile *ast() const { return ast_.get(); }

  private:
    /** Charge @p bytes for one runtime-object allocation; throws
     *  SimOom over budget (or on an injected allocation failure). */
    void chargeAlloc(uint64_t bytes);
    /** Cold path of chargeStmt: injected throws and stalls. */
    void faultStmtHook();
    /** Throws SimAbort (after flagging the scheduler) past deadline. */
    void checkDeadline();

    Scheduler sched_;
    std::unique_ptr<InstanceScope> top_;
    std::vector<std::unique_ptr<Signal>> signals_;
    std::vector<std::unique_ptr<Memory>> memories_;
    std::vector<std::unique_ptr<NamedEvent>> events_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<CompiledModule>> compiled_;
    SimBackend backend_ = SimBackend::Event;
    CompiledStats cstats_;
    std::vector<std::string> log_;
    std::shared_ptr<const verilog::SourceFile> ast_;
    uint64_t rngState_ = 0x2545F4914F6CDD1Dull;
    uint64_t stmtBudget_ = 20'000'000;
    uint64_t stmtCount_ = 0;
    uint64_t memBudget_ = 0;   //!< 0 = unlimited
    uint64_t memUsed_ = 0;
    uint64_t allocCount_ = 0;
    FaultPlan fault_;
    bool faultArmed_ = false;
    bool hasDeadline_ = false;
    std::chrono::steady_clock::time_point deadline_;
    static constexpr size_t kMaxLogLines = 100'000;
};

} // namespace cirfix::sim
