#pragma once

/**
 * @file
 * Abstract syntax tree for the Verilog subset handled by this repository.
 *
 * The AST plays the role PyVerilog's AST plays in the original CirFix
 * prototype: every node carries a unique integer id (assigned by
 * numberNodes() after parsing), deep clones preserve ids so that repair
 * patches can be expressed as edit lists over node ids, and the printer
 * regenerates Verilog source from any (possibly mutated) tree.
 *
 * The subset covers the constructs used by the benchmark suite:
 * modules with ports, wire/reg/integer/parameter/event declarations
 * (vectors and 1-D memories), continuous assignments, initial/always
 * blocks, blocking/non-blocking assignments with intra-assignment
 * delays, if/case/casez/casex/for/while/repeat/forever, delay and
 * event controls, named events, module instantiation, and the standard
 * expression operators of IEEE 1364-2005.
 */

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/logic.h"

namespace cirfix::verilog {

using sim::LogicVec;

/** Discriminator for every concrete AST node type. */
enum class NodeKind {
    // Expressions
    Number, Ident, Unary, Binary, Ternary, Index, RangeSel, Concat, Repl,
    SysFuncCall,
    // Statements
    SeqBlock, If, Case, For, While, Repeat, Forever, Assign, DelayStmt,
    EventCtrl, Wait, TriggerEvent, SysTask, NullStmt,
    // Expressions (continued)
    FuncCall,
    // Module items
    VarDecl, ContAssign, AlwaysBlock, InitialBlock, Instance,
    FunctionDecl,
    // Structure
    Module, SourceFile,
};

const char *nodeKindName(NodeKind k);

struct Node;
using NodePtr = std::unique_ptr<Node>;

/**
 * Half-open source range: [line:col, endLine:endCol), both 1-based.
 * All-zero when the node was synthesized by a repair operator rather
 * than parsed from source.
 */
struct Span
{
    int line = 0;
    int col = 0;
    int endLine = 0;
    int endCol = 0;

    bool valid() const { return line > 0; }
    std::string str() const;  //!< "3:5-3:12" (or "?" when invalid)
};

/** Base class for all AST nodes. */
struct Node
{
    /** Unique id assigned by numberNodes(); clones keep their ids. */
    int id = -1;
    NodeKind kind;
    /** 1-based source line (0 if synthesized by a repair operator). */
    int line = 0;
    /** Full begin-end source range (invalid if synthesized). */
    Span span;
    /**
     * Simulator name-binding slot, or -1 before first use. The
     * interpreter numbers the name-bearing nodes it executes (Ident,
     * Index, RangeSel, EventCtrl, Wait, TriggerEvent) per module, on
     * first use, and each instance scope keeps a dense table indexed by
     * it (see sim::InstanceScope::bind). An execution cache like
     * Stmt::suspendCache: not program structure, not copied by clones,
     * and atomic because concurrent designs may share one AST.
     */
    mutable std::atomic<int32_t> bindSlot{-1};

    explicit Node(NodeKind k) : kind(k) {}
    virtual ~Node() = default;

    /** Deep copy preserving node ids. */
    virtual NodePtr cloneNode() const = 0;

    /** Visit direct children (non-owning). */
    virtual void forEachChild(const std::function<void(Node *)> &fn) = 0;

    template <typename T>
    T *
    as()
    {
        return static_cast<T *>(this);
    }
    template <typename T>
    const T *
    as() const
    {
        return static_cast<const T *>(this);
    }
};

/** Base for expressions. */
struct Expr : Node
{
    using Node::Node;
    std::unique_ptr<Expr> cloneExpr() const;
};

using ExprPtr = std::unique_ptr<Expr>;

/** Base for statements. */
struct Stmt : Node
{
    using Node::Node;
    std::unique_ptr<Stmt> cloneStmt() const;

    /**
     * Lazily computed by the interpreter: can executing this statement
     * suspend the process (delay/event/wait)? -1 = not yet computed.
     * Purely an execution cache; not part of program structure (and
     * deliberately not copied by clones, which recompute it).
     *
     * Atomic because one shared AST may be simulated by several
     * designs concurrently (parallel candidate evaluation). The cached
     * value is a pure function of the subtree, so racing writers store
     * the same value and relaxed ordering suffices.
     */
    mutable std::atomic<int8_t> suspendCache{-1};
};

using StmtPtr = std::unique_ptr<Stmt>;

/** Base for module items (declarations, processes, instances). */
struct Item : Node
{
    using Node::Node;
    std::unique_ptr<Item> cloneItem() const;
};

using ItemPtr = std::unique_ptr<Item>;

// --------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------

/** A literal such as 4'b1010, 8'hff, 13, or 1'bx. */
struct Number : Expr
{
    LogicVec value;
    /** True if the literal had an explicit width/base (4'b...). */
    bool sized = true;
    /** Base character used when printing: 'b', 'h', 'd', 'o'. */
    char base = 'd';

    Number() : Expr(NodeKind::Number), value(32, uint64_t(0)) {}
    Number(int width, uint64_t v, char base_ch = 'd')
        : Expr(NodeKind::Number), value(width, v), base(base_ch)
    {}
    explicit Number(LogicVec v, char base_ch = 'b')
        : Expr(NodeKind::Number), value(std::move(v)), base(base_ch)
    {}

    NodePtr cloneNode() const override;
    void forEachChild(const std::function<void(Node *)> &) override {}
};

/** A reference to a wire, reg, integer, parameter, or named event. */
struct Ident : Expr
{
    std::string name;

    explicit Ident(std::string n)
        : Expr(NodeKind::Ident), name(std::move(n))
    {}

    NodePtr cloneNode() const override;
    void forEachChild(const std::function<void(Node *)> &) override {}
};

enum class UnaryOp {
    Plus, Minus, Not, BitNot,
    RedAnd, RedOr, RedXor, RedNand, RedNor, RedXnor,
};

struct Unary : Expr
{
    UnaryOp op;
    ExprPtr operand;

    Unary(UnaryOp o, ExprPtr e)
        : Expr(NodeKind::Unary), op(o), operand(std::move(e))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(operand.get());
    }
};

enum class BinaryOp {
    Add, Sub, Mul, Div, Mod, Pow,
    BitAnd, BitOr, BitXor, BitXnor,
    LogAnd, LogOr,
    Eq, Neq, CaseEq, CaseNeq,
    Lt, Le, Gt, Ge,
    Shl, Shr,
};

struct Binary : Expr
{
    BinaryOp op;
    ExprPtr lhs, rhs;

    Binary(BinaryOp o, ExprPtr l, ExprPtr r)
        : Expr(NodeKind::Binary), op(o), lhs(std::move(l)), rhs(std::move(r))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(lhs.get());
        fn(rhs.get());
    }
};

struct Ternary : Expr
{
    ExprPtr cond, thenExpr, elseExpr;

    Ternary(ExprPtr c, ExprPtr t, ExprPtr e)
        : Expr(NodeKind::Ternary), cond(std::move(c)),
          thenExpr(std::move(t)), elseExpr(std::move(e))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(cond.get());
        fn(thenExpr.get());
        fn(elseExpr.get());
    }
};

/** Bit select or memory element select: name[expr]. */
struct Index : Expr
{
    std::string name;
    ExprPtr index;

    Index(std::string n, ExprPtr i)
        : Expr(NodeKind::Index), name(std::move(n)), index(std::move(i))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(index.get());
    }
};

/** Constant part select: name[msb:lsb]. */
struct RangeSel : Expr
{
    std::string name;
    ExprPtr msb, lsb;

    RangeSel(std::string n, ExprPtr m, ExprPtr l)
        : Expr(NodeKind::RangeSel), name(std::move(n)),
          msb(std::move(m)), lsb(std::move(l))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(msb.get());
        fn(lsb.get());
    }
};

/** Concatenation {a, b, c}; parts[0] is the most significant. */
struct Concat : Expr
{
    std::vector<ExprPtr> parts;

    Concat() : Expr(NodeKind::Concat) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &p : parts)
            fn(p.get());
    }
};

/** Replication {count{expr}}. */
struct Repl : Expr
{
    ExprPtr count;
    ExprPtr value;

    Repl(ExprPtr c, ExprPtr v)
        : Expr(NodeKind::Repl), count(std::move(c)), value(std::move(v))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(count.get());
        fn(value.get());
    }
};

/** Call of a user-defined function in an expression: crc8(data, 1). */
struct FuncCall : Expr
{
    std::string name;
    std::vector<ExprPtr> args;

    explicit FuncCall(std::string n)
        : Expr(NodeKind::FuncCall), name(std::move(n))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &a : args)
            fn(a.get());
    }
};

/** System function used in an expression: $time, $random. */
struct SysFuncCall : Expr
{
    std::string name;
    std::vector<ExprPtr> args;

    explicit SysFuncCall(std::string n)
        : Expr(NodeKind::SysFuncCall), name(std::move(n))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &a : args)
            fn(a.get());
    }
};

// --------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------

/** begin ... end, optionally named (begin : COUNTER). */
struct SeqBlock : Stmt
{
    std::string name;
    std::vector<StmtPtr> stmts;

    SeqBlock() : Stmt(NodeKind::SeqBlock) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &s : stmts)
            fn(s.get());
    }
};

struct If : Stmt
{
    ExprPtr cond;
    StmtPtr thenStmt;
    StmtPtr elseStmt;  //!< may be null

    If() : Stmt(NodeKind::If) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(cond.get());
        if (thenStmt)
            fn(thenStmt.get());
        if (elseStmt)
            fn(elseStmt.get());
    }
};

enum class CaseType { Case, CaseZ, CaseX };

struct CaseItem
{
    /** Empty labels vector denotes the default item. */
    std::vector<ExprPtr> labels;
    StmtPtr body;  //!< may be null (empty arm)

    CaseItem clone() const;
};

struct Case : Stmt
{
    CaseType type = CaseType::Case;
    ExprPtr subject;
    std::vector<CaseItem> items;

    Case() : Stmt(NodeKind::Case) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(subject.get());
        for (auto &it : items) {
            for (auto &l : it.labels)
                fn(l.get());
            if (it.body)
                fn(it.body.get());
        }
    }
};

/** Procedural assignment; covers both = and <=, with optional #delay. */
struct Assign : Stmt
{
    ExprPtr lhs;
    ExprPtr rhs;
    bool blocking = true;
    /** Intra-assignment delay: a <= #1 b. Null when absent. */
    ExprPtr delay;

    Assign() : Stmt(NodeKind::Assign) {}
    Assign(ExprPtr l, ExprPtr r, bool blocking_assign)
        : Stmt(NodeKind::Assign), lhs(std::move(l)), rhs(std::move(r)),
          blocking(blocking_assign)
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(lhs.get());
        fn(rhs.get());
        if (delay)
            fn(delay.get());
    }
};

struct For : Stmt
{
    StmtPtr init;  //!< Assign
    ExprPtr cond;
    StmtPtr step;  //!< Assign
    StmtPtr body;

    For() : Stmt(NodeKind::For) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (init)
            fn(init.get());
        fn(cond.get());
        if (step)
            fn(step.get());
        if (body)
            fn(body.get());
    }
};

struct While : Stmt
{
    ExprPtr cond;
    StmtPtr body;

    While() : Stmt(NodeKind::While) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(cond.get());
        if (body)
            fn(body.get());
    }
};

struct Repeat : Stmt
{
    ExprPtr count;
    StmtPtr body;

    Repeat() : Stmt(NodeKind::Repeat) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(count.get());
        if (body)
            fn(body.get());
    }
};

struct Forever : Stmt
{
    StmtPtr body;

    Forever() : Stmt(NodeKind::Forever) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (body)
            fn(body.get());
    }
};

/** #delay stmt; (stmt may be null for a bare delay). */
struct DelayStmt : Stmt
{
    ExprPtr delay;
    StmtPtr stmt;  //!< may be null

    DelayStmt() : Stmt(NodeKind::DelayStmt) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(delay.get());
        if (stmt)
            fn(stmt.get());
    }
};

enum class Edge { Level, Pos, Neg };

/** One entry of a sensitivity/event list: [posedge|negedge] signal. */
struct EventExpr
{
    Edge edge = Edge::Level;
    ExprPtr signal;  //!< Ident (or Index for vector bits)

    EventExpr clone() const;
};

/** @(eventlist) stmt, or @* stmt. stmt may be null: bare "@(e);". */
struct EventCtrl : Stmt
{
    bool star = false;
    std::vector<EventExpr> events;
    StmtPtr stmt;  //!< may be null

    EventCtrl() : Stmt(NodeKind::EventCtrl) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &e : events)
            fn(e.signal.get());
        if (stmt)
            fn(stmt.get());
    }
};

/** wait (cond) stmt; */
struct Wait : Stmt
{
    ExprPtr cond;
    StmtPtr stmt;  //!< may be null

    Wait() : Stmt(NodeKind::Wait) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(cond.get());
        if (stmt)
            fn(stmt.get());
    }
};

/** -> event_name; */
struct TriggerEvent : Stmt
{
    std::string name;

    explicit TriggerEvent(std::string n)
        : Stmt(NodeKind::TriggerEvent), name(std::move(n))
    {}

    NodePtr cloneNode() const override;
    void forEachChild(const std::function<void(Node *)> &) override {}
};

/** $display / $finish / $stop / $monitor style statement. */
struct SysTask : Stmt
{
    std::string name;
    /** The first arg may be a format string (stored here, not an Expr). */
    std::optional<std::string> format;
    std::vector<ExprPtr> args;

    SysTask() : Stmt(NodeKind::SysTask) {}
    explicit SysTask(std::string n)
        : Stmt(NodeKind::SysTask), name(std::move(n))
    {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &a : args)
            fn(a.get());
    }
};

struct NullStmt : Stmt
{
    NullStmt() : Stmt(NodeKind::NullStmt) {}

    NodePtr cloneNode() const override;
    void forEachChild(const std::function<void(Node *)> &) override {}
};

// --------------------------------------------------------------------
// Module items
// --------------------------------------------------------------------

enum class VarKind { Wire, Reg, Integer, Parameter, Localparam, Event };

/** Declaration of one name (comma lists are split by the parser). */
struct VarDecl : Item
{
    VarKind varKind = VarKind::Wire;
    std::string name;
    /** Vector range [msb:lsb]; both null for scalars. */
    ExprPtr msb, lsb;
    /** 1-D memory bounds [first:last]; both null for non-arrays. */
    ExprPtr arrayFirst, arrayLast;
    /** Initializer (parameters; also "reg r = 0" style). */
    ExprPtr init;
    /** True if this declaration is signed (unused by benchmarks). */
    bool isSigned = false;

    VarDecl() : Item(NodeKind::VarDecl) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (msb)
            fn(msb.get());
        if (lsb)
            fn(lsb.get());
        if (arrayFirst)
            fn(arrayFirst.get());
        if (arrayLast)
            fn(arrayLast.get());
        if (init)
            fn(init.get());
    }
};

/** assign lhs = rhs; */
struct ContAssign : Item
{
    ExprPtr lhs;
    ExprPtr rhs;

    ContAssign() : Item(NodeKind::ContAssign) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        fn(lhs.get());
        fn(rhs.get());
    }
};

/** always body (the body is typically an EventCtrl or DelayStmt). */
struct AlwaysBlock : Item
{
    StmtPtr body;

    AlwaysBlock() : Item(NodeKind::AlwaysBlock) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (body)
            fn(body.get());
    }
};

struct InitialBlock : Item
{
    StmtPtr body;

    InitialBlock() : Item(NodeKind::InitialBlock) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (body)
            fn(body.get());
    }
};

/**
 * A Verilog function declaration (IEEE 1364 §10.4): a combinational
 * subroutine usable in expression context. Function bodies execute
 * without consuming simulation time (no timing controls), assigning
 * the result to the function's own name.
 */
struct FunctionDecl : Item
{
    std::string name;
    /** Return range [msb:lsb]; both null for a 1-bit function. */
    ExprPtr msb, lsb;
    /** Inputs (in declaration order) and local reg/integer decls. */
    std::vector<std::unique_ptr<VarDecl>> locals;
    std::vector<std::string> inputOrder;
    StmtPtr body;

    FunctionDecl() : Item(NodeKind::FunctionDecl) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        if (msb)
            fn(msb.get());
        if (lsb)
            fn(lsb.get());
        for (auto &l : locals)
            fn(l.get());
        if (body)
            fn(body.get());
    }
};

/** One port connection of a module instance. */
struct PortConn
{
    std::string port;  //!< empty for positional connections
    ExprPtr expr;      //!< may be null for .port() (unconnected)

    PortConn clone() const;
};

/** mod_name inst_name (.a(x), .b(y)); */
struct Instance : Item
{
    std::string moduleName;
    std::string instName;
    std::vector<PortConn> conns;

    Instance() : Item(NodeKind::Instance) {}

    NodePtr cloneNode() const override;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &c : conns)
            if (c.expr)
                fn(c.expr.get());
    }
};

// --------------------------------------------------------------------
// Structure
// --------------------------------------------------------------------

enum class PortDir { Input, Output, Inout };

struct Port
{
    std::string name;
    PortDir dir = PortDir::Input;
};

struct Module : Node
{
    std::string name;
    std::vector<Port> ports;
    std::vector<ItemPtr> items;
    /** Next free Node::bindSlot number for this module's nodes. */
    mutable std::atomic<int32_t> bindSlots{0};

    Module() : Node(NodeKind::Module) {}

    NodePtr cloneNode() const override;
    std::unique_ptr<Module> cloneModule() const;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &i : items)
            fn(i.get());
    }

    /** Find the declaration of a name, or nullptr. */
    const VarDecl *findDecl(const std::string &n) const;
    /** Port direction for a name, if it is a port. */
    std::optional<PortDir> portDir(const std::string &n) const;
};

/** One or more modules from a single source text. */
struct SourceFile : Node
{
    std::vector<std::unique_ptr<Module>> modules;
    /** Next fresh node id; maintained by numberNodes(). */
    int nextId = 0;

    SourceFile() : Node(NodeKind::SourceFile) {}

    NodePtr cloneNode() const override;
    std::unique_ptr<SourceFile> cloneFile() const;
    void
    forEachChild(const std::function<void(Node *)> &fn) override
    {
        for (auto &m : modules)
            fn(m.get());
    }

    Module *findModule(const std::string &name) const;
};

// --------------------------------------------------------------------
// Utilities
// --------------------------------------------------------------------

/** Assign sequential ids to every node; returns the next free id. */
int numberNodes(SourceFile &file, int first_id = 0);

/** Assign fresh ids (starting at file.nextId) to @p subtree nodes. */
void numberSubtree(SourceFile &file, Node &subtree);

/** Depth-first pre-order visit of every node in the tree. */
void visitAll(Node &root, const std::function<void(Node &)> &fn);

/** Find a node by id anywhere under @p root (nullptr if absent). */
Node *findNode(Node &root, int id);

/** Collect all identifier names appearing under @p root. */
std::vector<std::string> collectIdents(const Node &root);

/** Count the nodes under (and including) @p root. */
int countNodes(Node &root);

} // namespace cirfix::verilog
