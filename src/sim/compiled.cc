#include "sim/compiled.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "lint/netgraph.h"
#include "sim/interp.h"

namespace cirfix::sim {

using namespace verilog;

namespace {

constexpr int kMaxTsStack = 32;
constexpr size_t kMaxTsCode = 512;

inline uint64_t
tsMask(int w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

/** True when the subtree contains any of the statement/expression
 *  kinds that make a *combinational* item non-replayable: constructs
 *  whose side effects depend on how many times the body runs. */
bool
combImpure(const Stmt &s)
{
    bool bad = false;
    visitAll(const_cast<Stmt &>(s), [&](Node &n) {
        switch (n.kind) {
          case NodeKind::SysTask:
          case NodeKind::SysFuncCall:
          case NodeKind::FuncCall:
          case NodeKind::TriggerEvent:
            bad = true;
            break;
          case NodeKind::Assign: {
            auto *a = n.as<Assign>();
            if (!a->blocking || a->delay)
                bad = true;
            break;
          }
          default:
            break;
        }
    });
    return bad;
}

bool
exprHasCall(const Expr &e)
{
    bool found = false;
    visitAll(const_cast<Expr &>(e), [&](Node &n) {
        if (n.kind == NodeKind::FuncCall ||
            n.kind == NodeKind::SysFuncCall)
            found = true;
    });
    return found;
}

bool
subtreeHasNba(const Node &n)
{
    bool found = false;
    visitAll(const_cast<Node &>(n), [&](Node &c) {
        if (c.kind == NodeKind::Assign && !c.as<Assign>()->blocking)
            found = true;
    });
    return found;
}

/** Signal names assigned anywhere under @p s (escape-aware). */
void
collectAssignTargets(const Stmt &s, std::vector<std::string> &out)
{
    visitAll(const_cast<Stmt &>(s), [&](Node &n) {
        if (n.kind == NodeKind::Assign)
            lint::collectTargets(*n.as<Assign>()->lhs, out);
    });
}

// --------------------------------------------------------------------
// Two-state expression compiler
// --------------------------------------------------------------------

/**
 * Lowers an expression to a postfix uint64 program, tracking result
 * widths at compile time so every op can mask exactly like the
 * LogicVec operator it replaces. Fails (whole expression stays on the
 * 4-state evaluator) for anything whose two-state meaning is not
 * provably identical: >64-bit operands, x/z literals, function calls,
 * memory reads, non-constant or out-of-range selects, width-mismatched
 * ternaries, and ** .
 */
class TsCompiler
{
  public:
    explicit TsCompiler(InstanceScope &scope) : scope_(scope) {}

    bool
    compile(const Expr &e, TsProg &out)
    {
        int w = emit(e);
        if (!ok_ || w <= 0 || prog_.code.size() > kMaxTsCode)
            return false;
        prog_.width = w;
        prog_.maxStack = maxDepth_;
        out = std::move(prog_);
        return true;
    }

  private:
    InstanceScope &scope_;
    TsProg prog_;
    int depth_ = 0, maxDepth_ = 0;
    bool ok_ = true;

    int
    fail()
    {
        ok_ = false;
        return -1;
    }

    void
    op(TsInstr::Op o, int w, int wa = 0, int32_t arg = 0)
    {
        prog_.code.push_back({o, static_cast<uint8_t>(w),
                              static_cast<uint8_t>(wa), arg});
    }

    void
    push()
    {
        if (++depth_ > maxDepth_)
            maxDepth_ = depth_;
        if (depth_ > kMaxTsStack)
            ok_ = false;
    }

    int
    sigIndex(Signal *s)
    {
        for (size_t i = 0; i < prog_.sigs.size(); ++i)
            if (prog_.sigs[i] == s)
                return static_cast<int>(i);
        prog_.sigs.push_back(s);
        return static_cast<int>(prog_.sigs.size() - 1);
    }

    int
    pushConst(const LogicVec &v)
    {
        if (v.hasUnknown() || v.width() > 64)
            return fail();
        prog_.consts.push_back(v.toUint64());
        op(TsInstr::Op::Const, v.width(), 0,
           static_cast<int32_t>(prog_.consts.size() - 1));
        push();
        return v.width();
    }

    /** Emit a full-signal push; fails for wide or unresolved names. */
    int
    pushSig(const SignalRef &r)
    {
        if (!r.sig || r.sig->width() > 64)
            return fail();
        op(TsInstr::Op::Sig, r.sig->width(), 0, sigIndex(r.sig));
        push();
        return r.sig->width();
    }

    bool
    tryConst(const Expr &e, LogicVec &out)
    {
        try {
            out = evalConst(e, scope_.params);
            return !out.hasUnknown();
        } catch (const ElabError &) {
            return false;
        }
    }

    int
    emit(const Expr &e)
    {
        if (!ok_)
            return -1;
        switch (e.kind) {
          case NodeKind::Number:
            return pushConst(e.as<Number>()->value);
          case NodeKind::Ident: {
            const std::string &n = e.as<Ident>()->name;
            if (SignalRef r = scope_.findSignal(n); r.sig)
                return pushSig(r);
            auto p = scope_.params.find(n);
            if (p != scope_.params.end())
                return pushConst(p->second);
            return fail();
          }
          case NodeKind::Index: {
            auto *ix = e.as<Index>();
            if (scope_.findMemory(ix->name))
                return fail();
            SignalRef r = scope_.findSignal(ix->name);
            LogicVec iv{1, Bit::X};
            if (!r.sig || !tryConst(*ix->index, iv))
                return fail();
            int bit = static_cast<int>(iv.toUint64()) - r.lsb;
            if (bit < 0 || bit >= r.sig->width())
                return fail();
            if (pushSig(r) < 0)
                return -1;
            op(TsInstr::Op::Slice, 1, 0, bit);
            return 1;
          }
          case NodeKind::RangeSel: {
            auto *rs = e.as<RangeSel>();
            SignalRef r = scope_.findSignal(rs->name);
            LogicVec mv{1, Bit::X}, lv{1, Bit::X};
            if (!r.sig || !tryConst(*rs->msb, mv) ||
                !tryConst(*rs->lsb, lv))
                return fail();
            int msb = static_cast<int>(mv.toUint64()) - r.lsb;
            int lsb = static_cast<int>(lv.toUint64()) - r.lsb;
            int w = msb - lsb + 1;
            if (msb < lsb || lsb < 0 || msb >= r.sig->width())
                return fail();
            if (pushSig(r) < 0)
                return -1;
            op(TsInstr::Op::Slice, w, 0, lsb);
            return w;
          }
          case NodeKind::Unary: {
            auto *u = e.as<Unary>();
            int w = emit(*u->operand);
            if (w < 0)
                return -1;
            switch (u->op) {
              case UnaryOp::Plus: return w;
              case UnaryOp::Minus: op(TsInstr::Op::Neg, w); return w;
              case UnaryOp::Not: op(TsInstr::Op::LogNot, 1); return 1;
              case UnaryOp::BitNot: op(TsInstr::Op::BitNot, w); return w;
              case UnaryOp::RedAnd:
                op(TsInstr::Op::RedAnd, 1, w); return 1;
              case UnaryOp::RedOr:
                op(TsInstr::Op::RedOr, 1, w); return 1;
              case UnaryOp::RedXor:
                op(TsInstr::Op::RedXor, 1, w); return 1;
              case UnaryOp::RedNand:
                op(TsInstr::Op::RedNand, 1, w); return 1;
              case UnaryOp::RedNor:
                op(TsInstr::Op::RedNor, 1, w); return 1;
              case UnaryOp::RedXnor:
                op(TsInstr::Op::RedXnor, 1, w); return 1;
            }
            return fail();
          }
          case NodeKind::Binary: {
            auto *b = e.as<Binary>();
            int wl = emit(*b->lhs);
            int wr = emit(*b->rhs);
            if (wl < 0 || wr < 0)
                return -1;
            int wm = std::max(wl, wr);
            depth_ -= 1;  // binary ops pop one operand
            switch (b->op) {
              case BinaryOp::Add: op(TsInstr::Op::Add, wm); return wm;
              case BinaryOp::Sub: op(TsInstr::Op::Sub, wm); return wm;
              case BinaryOp::Mul: op(TsInstr::Op::Mul, wm); return wm;
              case BinaryOp::Div: op(TsInstr::Op::Div, wm); return wm;
              case BinaryOp::Mod: op(TsInstr::Op::Mod, wm); return wm;
              case BinaryOp::Pow: return fail();
              case BinaryOp::BitAnd:
                op(TsInstr::Op::BitAnd, wm); return wm;
              case BinaryOp::BitOr:
                op(TsInstr::Op::BitOr, wm); return wm;
              case BinaryOp::BitXor:
                op(TsInstr::Op::BitXor, wm); return wm;
              case BinaryOp::BitXnor:
                op(TsInstr::Op::BitXnor, wm); return wm;
              case BinaryOp::LogAnd:
                op(TsInstr::Op::LogAnd, 1); return 1;
              case BinaryOp::LogOr:
                op(TsInstr::Op::LogOr, 1); return 1;
              case BinaryOp::Eq:
              case BinaryOp::CaseEq:
                op(TsInstr::Op::Eq, 1); return 1;
              case BinaryOp::Neq:
              case BinaryOp::CaseNeq:
                op(TsInstr::Op::Neq, 1); return 1;
              case BinaryOp::Lt: op(TsInstr::Op::Lt, 1); return 1;
              case BinaryOp::Le: op(TsInstr::Op::Le, 1); return 1;
              case BinaryOp::Gt: op(TsInstr::Op::Gt, 1); return 1;
              case BinaryOp::Ge: op(TsInstr::Op::Ge, 1); return 1;
              case BinaryOp::Shl:
                op(TsInstr::Op::Shl, wl, wl); return wl;
              case BinaryOp::Shr:
                op(TsInstr::Op::Shr, wl, wl); return wl;
            }
            return fail();
          }
          case NodeKind::Ternary: {
            auto *t = e.as<Ternary>();
            int wc = emit(*t->cond);
            int wt = emit(*t->thenExpr);
            int we = emit(*t->elseExpr);
            if (wc < 0 || wt < 0 || we < 0)
                return -1;
            // Branch widths must agree: with a defined condition the
            // 4-state evaluator returns the taken branch at *its own*
            // width, so a static result width needs wt == we.
            if (wt != we)
                return fail();
            depth_ -= 2;
            op(TsInstr::Op::Ternary, wt);
            return wt;
          }
          case NodeKind::Concat: {
            auto *c = e.as<Concat>();
            if (c->parts.empty())
                return fail();
            int w = emit(*c->parts[0]);
            if (w < 0)
                return -1;
            for (size_t i = 1; i < c->parts.size(); ++i) {
                int wp = emit(*c->parts[i]);
                if (wp < 0)
                    return -1;
                if (w + wp > 64)
                    return fail();
                depth_ -= 1;
                op(TsInstr::Op::Concat2, w + wp, 0, wp);
                w += wp;
            }
            return w;
          }
          case NodeKind::Repl: {
            auto *r = e.as<Repl>();
            LogicVec cv{1, Bit::X};
            if (!tryConst(*r->count, cv))
                return fail();
            uint64_t k = cv.toUint64();
            if (k == 0 || k > 4096)
                return fail();
            int wv = emit(*r->value);
            if (wv < 0)
                return -1;
            if (k * static_cast<uint64_t>(wv) > 64)
                return fail();
            op(TsInstr::Op::Repl, static_cast<int>(k) * wv, wv,
               static_cast<int32_t>(k));
            return static_cast<int>(k) * wv;
          }
          default:
            return fail();
        }
    }
};

} // namespace

// --------------------------------------------------------------------
// Module compiler
// --------------------------------------------------------------------

/**
 * Walks one module's items, decides compilability, and lowers bodies
 * to bytecode. Any check failure returns nullptr and the elaborator
 * keeps the module on the event-driven interpreter.
 */
class ModuleCompiler
{
  public:
    ModuleCompiler(Design &design, InstanceScope &scope,
                   const Module &mod)
        : design_(design), scope_(scope), mod_(mod),
          cm_(new CompiledModule(design, scope))
    {}

    std::unique_ptr<CompiledModule>
    run()
    {
        std::vector<const Item *> cas, always;
        for (auto &item : mod_.items) {
            if (item->kind == NodeKind::ContAssign)
                cas.push_back(item.get());
            else if (item->kind == NodeKind::AlwaysBlock)
                always.push_back(item.get());
        }
        if (cas.empty() && always.empty())
            return std::move(cm_);  // nothing behavioral to compile

        // Reject modules whose zero-delay netlist has an SCC that can
        // oscillate: the interpreter's event cascade and the settle
        // loop would both run away, but on different budgets.
        if (!lint::buildCombGraph(mod_).cycles().empty())
            return nullptr;

        for (const Item *it : cas)
            if (!lowerContAssign(*it->as<ContAssign>(), it))
                return nullptr;
        for (const Item *it : always)
            if (!lowerAlways(*it->as<AlwaysBlock>(), it))
                return nullptr;

        if (!checkDrivers())
            return nullptr;
        levelize();

        cm_->dirty_.assign(cm_->combItems_.size(), 0);
        design_.compiledStats().combItems += cm_->combItems_.size();
        design_.compiledStats().seqItems += cm_->seqItems_.size();
        return std::move(cm_);
    }

  private:
    Design &design_;
    InstanceScope &scope_;
    const Module &mod_;
    std::unique_ptr<CompiledModule> cm_;

    /** Per comb/seq item: target + trigger signal sets for the driver
     *  checks and the levelization edges. */
    std::vector<std::unordered_set<Signal *>> combTargetSigs_;
    std::vector<std::unordered_set<Signal *>> combTriggerSigs_;
    std::unordered_set<Signal *> seqTargetSigs_;
    std::unordered_set<Signal *> seqEventSigs_;

    void
    resolveNames(const std::vector<std::string> &names,
                 std::unordered_set<Signal *> &out)
    {
        for (const auto &n : names)
            if (SignalRef r = scope_.findSignal(n); r.sig)
                out.insert(r.sig);
    }

    int
    addExpr(const Expr &e)
    {
        ExprSlot slot;
        slot.ast = &e;
        TsCompiler tc(scope_);
        slot.hasTs = tc.compile(e, slot.ts);
        cm_->exprs_.push_back(std::move(slot));
        return static_cast<int>(cm_->exprs_.size() - 1);
    }

    int
    addTarget(const Expr &lhs)
    {
        TargetSlot slot;
        slot.ast = &lhs;
        if (lhs.kind == NodeKind::Ident) {
            // Identifier targets have no runtime-evaluated indices, so
            // the WriteTarget the interpreter would resolve on every
            // execution is a constant; resolve it once here.
            slot.fixed = resolveLValue(design_, scope_, lhs);
            const WriteSlot &only = slot.fixed.first;
            if (slot.fixed.count == 1 && only.sig && only.lsb == 0 &&
                only.width == only.sig->width())
                slot.sig = only.sig;
            else
                slot.fixed = WriteTarget{};  // unresolved: re-resolve
        }
        cm_->targets_.push_back(std::move(slot));
        return static_cast<int>(cm_->targets_.size() - 1);
    }

    size_t
    emit(Instr::Op op, int32_t a = 0, int32_t b = 0)
    {
        code_->push_back({op, a, b});
        return code_->size() - 1;
    }

    std::vector<Instr> *code_ = nullptr;
    bool escNba_ = false;

    void
    compileStmt(const Stmt *stmt)
    {
        if (!stmt)
            return;
        auto &code = *code_;
        switch (stmt->kind) {
          case NodeKind::SeqBlock:
            for (auto &s : stmt->as<SeqBlock>()->stmts)
                compileStmt(s.get());
            return;
          case NodeKind::If: {
            auto *s = stmt->as<If>();
            int c = addExpr(*s->cond);
            size_t jf = emit(Instr::Op::JumpIfFalse, c);
            compileStmt(s->thenStmt.get());
            if (s->elseStmt) {
                size_t j = emit(Instr::Op::Jump);
                code[jf].b = static_cast<int32_t>(code.size());
                compileStmt(s->elseStmt.get());
                code[j].b = static_cast<int32_t>(code.size());
            } else {
                code[jf].b = static_cast<int32_t>(code.size());
            }
            return;
          }
          case NodeKind::Case: {
            auto *s = stmt->as<Case>();
            CaseInfo ci;
            ci.type = s->type;
            ci.subj = addExpr(*s->subject);
            size_t cpos = emit(Instr::Op::Case);
            const CaseItem *dflt = nullptr;
            std::vector<size_t> jumps;
            for (auto &item : s->items) {
                if (item.labels.empty()) {
                    dflt = &item;
                    continue;
                }
                CaseInfo::Arm arm;
                for (auto &lab : item.labels)
                    arm.labels.push_back(addExpr(*lab));
                arm.pc = static_cast<int>(code.size());
                compileStmt(item.body.get());
                jumps.push_back(emit(Instr::Op::Jump));
                ci.arms.push_back(std::move(arm));
            }
            if (dflt) {
                ci.defaultPc = static_cast<int>(code.size());
                compileStmt(dflt->body.get());
            }
            int end = static_cast<int>(code.size());
            if (!dflt)
                ci.defaultPc = end;
            for (size_t j : jumps)
                code[j].b = end;
            cm_->cases_.push_back(std::move(ci));
            code[cpos].a =
                static_cast<int32_t>(cm_->cases_.size() - 1);
            return;
          }
          case NodeKind::For: {
            auto *s = stmt->as<For>();
            compileStmt(s->init.get());
            size_t loop = code.size();
            int c = addExpr(*s->cond);
            size_t jf = emit(Instr::Op::JumpIfFalse, c);
            compileStmt(s->body.get());
            compileStmt(s->step.get());
            emit(Instr::Op::Jump, 0, static_cast<int32_t>(loop));
            code[jf].b = static_cast<int32_t>(code.size());
            return;
          }
          case NodeKind::While: {
            auto *s = stmt->as<While>();
            size_t loop = code.size();
            int c = addExpr(*s->cond);
            size_t jf = emit(Instr::Op::JumpIfFalse, c);
            compileStmt(s->body.get());
            emit(Instr::Op::Jump, 0, static_cast<int32_t>(loop));
            code[jf].b = static_cast<int32_t>(code.size());
            return;
          }
          case NodeKind::Assign: {
            auto *s = stmt->as<Assign>();
            if (!s->delay) {
                emit(s->blocking ? Instr::Op::Assign
                                 : Instr::Op::AssignNba,
                     addExpr(*s->rhs), addTarget(*s->lhs));
                return;
            }
            break;  // delayed NBA: escape below
          }
          case NodeKind::NullStmt:
            return;
          default:
            break;
        }
        // Escape: run the statement through the interpreter's
        // synchronous executor for exact semantics.
        if (subtreeHasNba(*stmt))
            escNba_ = true;
        cm_->stmts_.push_back(stmt);
        emit(Instr::Op::Exec,
             static_cast<int32_t>(cm_->stmts_.size() - 1));
    }

    void
    compileBody(const Stmt *stmt, Program &prog, bool &escNba)
    {
        code_ = &prog.code;
        escNba_ = false;
        compileStmt(stmt);
        emit(Instr::Op::End);
        escNba = escNba_;
        code_ = nullptr;
    }

    bool
    lowerContAssign(const ContAssign &ca, const Item *item)
    {
        // $random / function calls in a drive would run a different
        // number of times under batched settling.
        if (exprHasCall(*ca.rhs) || exprHasCall(*ca.lhs))
            return false;

        CompiledModule::CombItem ci;
        ci.isContAssign = true;

        // Mirror makeContAssign's subscribe set: every identifier the
        // rhs reads plus the identifiers inside target index
        // expressions (not the target name itself).
        std::unordered_set<Signal *> trig;
        resolveNames(collectIdents(*ca.rhs), trig);
        const_cast<Expr &>(*ca.lhs).forEachChild([&](Node *c) {
            if (c)
                resolveNames(collectIdents(*c), trig);
        });
        ci.triggers.assign(trig.begin(), trig.end());
        std::sort(ci.triggers.begin(), ci.triggers.end());

        code_ = &ci.prog.code;
        emit(Instr::Op::Assign, addExpr(*ca.rhs), addTarget(*ca.lhs));
        emit(Instr::Op::End);
        code_ = nullptr;

        std::vector<std::string> tnames;
        lint::collectTargets(*ca.lhs, tnames);
        combTargetSigs_.emplace_back();
        resolveNames(tnames, combTargetSigs_.back());
        combTriggerSigs_.push_back(trig);

        cm_->combItems_.push_back(std::move(ci));
        cm_->combByItem_.emplace_back(
            item, static_cast<int>(cm_->combItems_.size() - 1));
        return true;
    }

    bool
    lowerAlways(const AlwaysBlock &b, const Item *item)
    {
        if (!b.body)
            return true;  // elaborator skips bodyless blocks entirely
        if (b.body->kind != NodeKind::EventCtrl)
            return false;  // delay-paced or free-running process
        auto *ec = b.body->as<EventCtrl>();
        const Stmt *inner = ec->stmt.get();
        if (inner && mightSuspend(*inner))
            return false;

        if (lint::isCombAlways(b))
            return lowerComb(*ec, inner, item);
        return lowerSeq(*ec, inner, item);
    }

    bool
    lowerComb(const EventCtrl &ec, const Stmt *inner, const Item *item)
    {
        if (inner && combImpure(*inner))
            return false;

        // Trigger set: exactly resolveEvents' sensitivity. @* watches
        // every identifier the body reads; an explicit list watches the
        // listed names. Names resolving to named events need event
        // waiters we cannot model with watchers -> fall back.
        std::unordered_set<Signal *> trig;
        if (ec.star) {
            if (inner)
                resolveNames(collectIdents(*inner), trig);
        } else {
            for (auto &ev : ec.events) {
                std::vector<std::string> names;
                if (ev.signal->kind == NodeKind::Ident)
                    names.push_back(ev.signal->as<Ident>()->name);
                else if (ev.signal->kind == NodeKind::Index)
                    return false;  // bit-select waits need waiters
                else
                    names = collectIdents(*ev.signal);
                for (auto &n : names) {
                    if (SignalRef r = scope_.findSignal(n); r.sig)
                        trig.insert(r.sig);
                    else if (scope_.findEvent(n))
                        return false;
                }
            }
        }

        CompiledModule::CombItem ci;
        ci.isContAssign = false;
        ci.triggers.assign(trig.begin(), trig.end());
        std::sort(ci.triggers.begin(), ci.triggers.end());

        bool escNba = false;
        compileBody(inner, ci.prog, escNba);
        if (escNba)
            return false;  // unreachable (combImpure rejects NBAs)

        std::vector<std::string> tnames;
        if (inner)
            collectAssignTargets(*inner, tnames);
        combTargetSigs_.emplace_back();
        resolveNames(tnames, combTargetSigs_.back());
        combTriggerSigs_.push_back(trig);

        cm_->combItems_.push_back(std::move(ci));
        cm_->combByItem_.emplace_back(
            item, static_cast<int>(cm_->combItems_.size() - 1));
        return true;
    }

    bool
    lowerSeq(const EventCtrl &ec, const Stmt *inner, const Item *item)
    {
        if (ec.star || ec.events.empty())
            return false;
        CompiledModule::SeqItem si;
        for (auto &ev : ec.events) {
            if (ev.edge == Edge::Level)
                return false;  // mixed sensitivity
            if (ev.signal->kind != NodeKind::Ident)
                return false;
            const std::string &n = ev.signal->as<Ident>()->name;
            if (SignalRef r = scope_.findSignal(n); r.sig) {
                si.events.push_back({r.sig, ev.edge});
                seqEventSigs_.insert(r.sig);
            } else if (scope_.findEvent(n)) {
                return false;  // named-event wait
            }
            // Unresolved names never wake the process in either
            // backend; simply skip them.
        }

        compileBody(inner, si.prog, si.directNba);

        std::vector<std::string> tnames;
        if (inner)
            collectAssignTargets(*inner, tnames);
        resolveNames(tnames, seqTargetSigs_);

        cm_->seqItems_.push_back(std::move(si));
        cm_->seqByItem_.emplace_back(
            item, static_cast<int>(cm_->seqItems_.size() - 1));
        return true;
    }

    /**
     * Structural safety checks:
     *  - a signal driven by two comb items (or by a comb item and a
     *    seq item) keeps interpreter-defined race behavior -> fallback;
     *  - a seq event signal driven by a comb item of the same module
     *    (gated clock) is sensitive to t=0 arm/update interleaving
     *    the settle batching would change -> fallback.
     */
    bool
    checkDrivers()
    {
        std::unordered_set<Signal *> seen;
        for (auto &tset : combTargetSigs_)
            for (Signal *s : tset) {
                if (!seen.insert(s).second)
                    return false;
                if (seqTargetSigs_.count(s))
                    return false;
                if (seqEventSigs_.count(s))
                    return false;
            }
        return true;
    }

    /** Kahn levelization of comb items over trigger edges. Items left
     *  over by a trigger-graph cycle (possible even without a netlist
     *  SCC) are appended in source order; the settle loop's re-marking
     *  still reaches the same fixpoint, just in more passes. */
    void
    levelize()
    {
        int n = static_cast<int>(cm_->combItems_.size());
        std::vector<std::vector<int>> adj(n);
        std::vector<int> indeg(n, 0);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                bool edge = false;
                for (Signal *s : combTargetSigs_[i])
                    if (combTriggerSigs_[j].count(s)) {
                        edge = true;
                        break;
                    }
                if (edge) {
                    adj[i].push_back(j);
                    ++indeg[j];
                }
            }
        std::vector<char> done(n, 0);
        cm_->topo_.clear();
        for (;;) {
            int pick = -1;
            for (int i = 0; i < n; ++i)
                if (!done[i] && indeg[i] == 0) {
                    pick = i;
                    break;
                }
            if (pick < 0)
                break;
            done[pick] = 1;
            cm_->topo_.push_back(pick);
            for (int j : adj[pick])
                --indeg[j];
        }
        for (int i = 0; i < n; ++i)
            if (!done[i])
                cm_->topo_.push_back(i);
    }
};

// --------------------------------------------------------------------
// CompiledModule
// --------------------------------------------------------------------

CompiledModule::CompiledModule(Design &design, InstanceScope &scope)
    : design_(design), scope_(scope)
{}

CompiledModule::~CompiledModule() = default;

std::unique_ptr<CompiledModule>
CompiledModule::compile(Design &design, InstanceScope &scope,
                        const Module &mod)
{
    ModuleCompiler mc(design, scope, mod);
    return mc.run();
}

void
CompiledModule::placeItem(const Item &item)
{
    for (auto &[it, idx] : combByItem_) {
        if (it != &item)
            continue;
        int i = idx;
        if (combItems_[i].isContAssign) {
            // Mirror makeContAssign: watchers attach immediately and
            // an unconditional initial evaluation runs at this queue
            // position.
            armComb(i);
            dirty_[i] = 1;
            design_.scheduler().scheduleActive([this, i] {
                if (!dirty_[i])
                    return;
                dirty_[i] = 0;
                try {
                    execComb(i);
                } catch (const SimAbort &e) {
                    design_.scheduler().noteAbort(e.what());
                } catch (const std::exception &e) {
                    design_.scheduler().noteCrash(
                        std::string("process crashed: ") + e.what());
                }
            });
        } else {
            // Mirror Process::start: the process would run to its
            // event control at this position and only then arm its
            // waiters; no initial execution.
            design_.scheduler().scheduleActive(
                [this, i] { armComb(i); });
        }
        return;
    }
    for (auto &[it, idx] : seqByItem_) {
        if (it != &item)
            continue;
        int i = idx;
        design_.scheduler().scheduleActive([this, i] { armSeq(i); });
        return;
    }
}

void
CompiledModule::markDirty(int idx)
{
    dirty_[idx] = 1;
    if (settlePending_)
        return;
    settlePending_ = true;
    design_.scheduler().scheduleActive([this] { settle(); });
}

void
CompiledModule::settle()
{
    try {
        bool progress = true;
        while (progress) {
            progress = false;
            for (int i : topo_) {
                if (!dirty_[i])
                    continue;
                dirty_[i] = 0;
                progress = true;
                execComb(i);
            }
        }
    } catch (const SimAbort &e) {
        design_.scheduler().noteAbort(e.what());
    } catch (const std::exception &e) {
        design_.scheduler().noteCrash(
            std::string("process crashed: ") + e.what());
    }
    settlePending_ = false;
}

void
CompiledModule::execComb(int idx)
{
    design_.chargeStmt();
    execProgram(combItems_[idx].prog, nullptr);
}

void
CompiledModule::armComb(int idx)
{
    for (Signal *s : combItems_[idx].triggers)
        s->addWatcher([this, idx](const LogicVec &, const LogicVec &) {
            markDirty(idx);
        });
}

void
CompiledModule::armSeq(int idx)
{
    auto handle = std::make_shared<WaitHandle>(
        &design_.scheduler(), [this, idx] { fireSeq(idx); });
    for (auto &ev : seqItems_[idx].events)
        ev.sig->addWaiter(ev.edge, -1, handle);
}

void
CompiledModule::fireSeq(int idx)
{
    SeqItem &it = seqItems_[idx];
    try {
        design_.chargeStmt();
        nbaStage_.clear();
        execProgram(it.prog, &it);
        if (!nbaStage_.empty()) {
            design_.scheduler().scheduleNba(
                [batch = std::move(nbaStage_)] {
                    for (auto &s : batch) {
                        if (s.sig)
                            s.sig->set(s.value);
                        else
                            performWrite(s.dyn, s.value);
                    }
                });
            nbaStage_.clear();
        }
    } catch (const SimAbort &e) {
        design_.scheduler().noteAbort(e.what());
        return;
    } catch (const std::exception &e) {
        design_.scheduler().noteCrash(
            std::string("process crashed: ") + e.what());
        return;
    }
    if (!design_.scheduler().finishRequested())
        armSeq(idx);
}

void
CompiledModule::execProgram(const Program &prog, SeqItem *seq)
{
    Scheduler &sched = design_.scheduler();
    size_t pc = 0;
    for (;;) {
        if (sched.finishRequested())
            return;
        const Instr &in = prog.code[pc];
        switch (in.op) {
          case Instr::Op::End:
            return;
          case Instr::Op::Assign:
            design_.chargeStmt();
            doAssign(in, false, seq);
            ++pc;
            break;
          case Instr::Op::AssignNba:
            design_.chargeStmt();
            doAssign(in, true, seq);
            ++pc;
            break;
          case Instr::Op::JumpIfFalse:
            design_.chargeStmt();
            pc = evalCond(exprs_[in.a])
                     ? pc + 1
                     : static_cast<size_t>(in.b);
            break;
          case Instr::Op::Jump:
            pc = static_cast<size_t>(in.b);
            break;
          case Instr::Op::Case:
            design_.chargeStmt();
            pc = static_cast<size_t>(dispatchCase(in));
            break;
          case Instr::Op::Exec:
            execStmtSync(design_, scope_, *stmts_[in.a]);
            ++pc;
            break;
        }
    }
}

void
CompiledModule::doAssign(const Instr &in, bool nba, SeqItem *seq)
{
    const ExprSlot &es = exprs_[in.a];
    const TargetSlot &ts = targets_[in.b];
    bool haveValue = false;
    LogicVec value{1, Bit::X};

    if (es.hasTs) {
        uint64_t v;
        if (runTs(es.ts, v)) {
            ++design_.compiledStats().twoStateEvals;
            if (ts.sig) {
                if (!nba) {
                    // Settle re-evaluations usually recompute the
                    // value a signal already holds; skipping the
                    // write (and its LogicVec temporary) here is the
                    // compiled backend's hottest shortcut.
                    const LogicVec &cur = ts.sig->value();
                    if (!(cur.toUint64() == v && !cur.hasUnknown()))
                        ts.sig->set(LogicVec(ts.sig->width(), v));
                    return;
                }
                if (seq && !seq->directNba) {
                    nbaStage_.push_back(
                        {ts.sig, WriteTarget{},
                         LogicVec(ts.sig->width(), v)});
                    return;
                }
            }
            value = LogicVec(es.ts.width, v);
            haveValue = true;
        } else {
            ++design_.compiledStats().fourStateFallbacks;
        }
    }
    if (!haveValue)
        value = evalExpr(*es.ast, scope_, design_);

    if (ts.sig) {
        if (!nba) {
            ts.sig->set(value.resized(ts.sig->width()));
            return;
        }
        if (seq && !seq->directNba) {
            nbaStage_.push_back({ts.sig, WriteTarget{},
                                 value.resized(ts.sig->width())});
            return;
        }
        WriteTarget t = ts.fixed;
        design_.scheduler().scheduleNba(
            [t = std::move(t), value] { performWrite(t, value); });
        return;
    }

    WriteTarget t = resolveLValue(design_, scope_, *ts.ast);
    if (!nba) {
        performWrite(t, value);
        return;
    }
    if (seq && !seq->directNba) {
        nbaStage_.push_back({nullptr, std::move(t), value});
        return;
    }
    design_.scheduler().scheduleNba(
        [t = std::move(t), value] { performWrite(t, value); });
}

int
CompiledModule::dispatchCase(const Instr &in)
{
    const CaseInfo &ci = cases_[in.a];
    LogicVec subj = evalOperand(exprs_[ci.subj]);
    for (const auto &arm : ci.arms) {
        for (int lab : arm.labels) {
            LogicVec lv = evalOperand(exprs_[lab]);
            if (caseLabelMatches(ci.type, subj, lv))
                return arm.pc;
        }
    }
    return ci.defaultPc;
}

LogicVec
CompiledModule::evalOperand(const ExprSlot &slot)
{
    if (slot.hasTs) {
        uint64_t v;
        if (runTs(slot.ts, v)) {
            ++design_.compiledStats().twoStateEvals;
            return LogicVec(slot.ts.width, v);
        }
        ++design_.compiledStats().fourStateFallbacks;
    }
    return evalExpr(*slot.ast, scope_, design_);
}

bool
CompiledModule::evalCond(const ExprSlot &slot)
{
    if (slot.hasTs) {
        uint64_t v;
        if (runTs(slot.ts, v)) {
            ++design_.compiledStats().twoStateEvals;
            return v != 0;
        }
        ++design_.compiledStats().fourStateFallbacks;
    }
    return evalExpr(*slot.ast, scope_, design_).isTrue();
}

bool
CompiledModule::runTs(const TsProg &prog, uint64_t &out)
{
    for (Signal *s : prog.sigs)
        if (s->value().hasUnknown())
            return false;

    uint64_t st[kMaxTsStack];
    int sp = 0;
    for (const TsInstr &i : prog.code) {
        switch (i.op) {
          case TsInstr::Op::Sig:
            st[sp++] = prog.sigs[i.arg]->value().toUint64();
            break;
          case TsInstr::Op::Const:
            st[sp++] = prog.consts[i.arg];
            break;
          case TsInstr::Op::Slice:
            st[sp - 1] = (st[sp - 1] >> i.arg) & tsMask(i.w);
            break;
          case TsInstr::Op::Add: {
            uint64_t b = st[--sp];
            st[sp - 1] = (st[sp - 1] + b) & tsMask(i.w);
            break;
          }
          case TsInstr::Op::Sub: {
            uint64_t b = st[--sp];
            st[sp - 1] = (st[sp - 1] - b) & tsMask(i.w);
            break;
          }
          case TsInstr::Op::Mul: {
            uint64_t b = st[--sp];
            st[sp - 1] = (st[sp - 1] * b) & tsMask(i.w);
            break;
          }
          case TsInstr::Op::Div: {
            uint64_t b = st[--sp];
            if (b == 0)
                return false;  // x result: 4-state path
            st[sp - 1] = st[sp - 1] / b;
            break;
          }
          case TsInstr::Op::Mod: {
            uint64_t b = st[--sp];
            if (b == 0)
                return false;
            st[sp - 1] = st[sp - 1] % b;
            break;
          }
          case TsInstr::Op::BitAnd: {
            uint64_t b = st[--sp];
            st[sp - 1] &= b;
            break;
          }
          case TsInstr::Op::BitOr: {
            uint64_t b = st[--sp];
            st[sp - 1] |= b;
            break;
          }
          case TsInstr::Op::BitXor: {
            uint64_t b = st[--sp];
            st[sp - 1] ^= b;
            break;
          }
          case TsInstr::Op::BitXnor: {
            uint64_t b = st[--sp];
            st[sp - 1] = ~(st[sp - 1] ^ b) & tsMask(i.w);
            break;
          }
          case TsInstr::Op::BitNot:
            st[sp - 1] = ~st[sp - 1] & tsMask(i.w);
            break;
          case TsInstr::Op::Neg:
            st[sp - 1] = (~st[sp - 1] + 1) & tsMask(i.w);
            break;
          case TsInstr::Op::Shl: {
            uint64_t n = st[--sp];
            uint64_t a = st[sp - 1];
            st[sp - 1] = n >= static_cast<uint64_t>(i.wa)
                             ? 0
                             : (a << n) & tsMask(i.w);
            break;
          }
          case TsInstr::Op::Shr: {
            uint64_t n = st[--sp];
            uint64_t a = st[sp - 1];
            st[sp - 1] = n >= static_cast<uint64_t>(i.wa) ? 0 : a >> n;
            break;
          }
          case TsInstr::Op::Eq: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] == b;
            break;
          }
          case TsInstr::Op::Neq: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] != b;
            break;
          }
          case TsInstr::Op::Lt: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] < b;
            break;
          }
          case TsInstr::Op::Le: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] <= b;
            break;
          }
          case TsInstr::Op::Gt: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] > b;
            break;
          }
          case TsInstr::Op::Ge: {
            uint64_t b = st[--sp];
            st[sp - 1] = st[sp - 1] >= b;
            break;
          }
          case TsInstr::Op::LogAnd: {
            uint64_t b = st[--sp];
            st[sp - 1] = (st[sp - 1] != 0) && (b != 0);
            break;
          }
          case TsInstr::Op::LogOr: {
            uint64_t b = st[--sp];
            st[sp - 1] = (st[sp - 1] != 0) || (b != 0);
            break;
          }
          case TsInstr::Op::LogNot:
            st[sp - 1] = st[sp - 1] == 0;
            break;
          case TsInstr::Op::RedAnd:
            st[sp - 1] = st[sp - 1] == tsMask(i.wa);
            break;
          case TsInstr::Op::RedOr:
            st[sp - 1] = st[sp - 1] != 0;
            break;
          case TsInstr::Op::RedXor:
            st[sp - 1] =
                static_cast<uint64_t>(__builtin_popcountll(st[sp - 1]) &
                                      1);
            break;
          case TsInstr::Op::RedNand:
            st[sp - 1] = st[sp - 1] != tsMask(i.wa);
            break;
          case TsInstr::Op::RedNor:
            st[sp - 1] = st[sp - 1] == 0;
            break;
          case TsInstr::Op::RedXnor:
            st[sp - 1] = static_cast<uint64_t>(
                ~__builtin_popcountll(st[sp - 1]) & 1);
            break;
          case TsInstr::Op::Ternary: {
            uint64_t e = st[--sp];
            uint64_t t = st[--sp];
            st[sp - 1] = st[sp - 1] ? t : e;
            break;
          }
          case TsInstr::Op::Concat2: {
            uint64_t lo = st[--sp];
            st[sp - 1] = (i.arg >= 64 ? 0 : (st[sp - 1] << i.arg)) | lo;
            break;
          }
          case TsInstr::Op::Repl: {
            uint64_t v = st[sp - 1];
            uint64_t r = 0;
            for (int32_t k = 0; k < i.arg; ++k)
                r = (r << i.wa) | v;
            st[sp - 1] = r & tsMask(i.w);
            break;
          }
        }
    }
    out = st[0];
    return true;
}

} // namespace cirfix::sim
