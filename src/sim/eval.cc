#include "sim/eval.h"

#include "sim/interp.h"

namespace cirfix::sim {

using namespace verilog;

namespace {

/**
 * Evaluate a call of a user-defined function (IEEE 1364 §10.4).
 *
 * A temporary scope overlays local Signals for the inputs, local
 * variables, and the function-name result register on top of the
 * caller's module scope; the body executes synchronously (function
 * bodies cannot contain timing controls).
 */
LogicVec
callFunction(const FunctionDecl &fn, const FuncCall &call,
             InstanceScope &scope, Design &design)
{
    static thread_local int depth = 0;
    if (depth >= 64)
        return LogicVec::xs(1);  // runaway recursion

    // Argument values evaluated in the caller's scope.
    std::vector<LogicVec> args;
    for (auto &a : call.args)
        args.push_back(evalExpr(*a, scope, design));
    if (args.size() != fn.inputOrder.size())
        return LogicVec::xs(1);

    int ret_width = 1;
    if (fn.msb) {
        try {
            int64_t m = evalConstInt(*fn.msb, scope.params);
            int64_t l = evalConstInt(*fn.lsb, scope.params);
            ret_width = static_cast<int>(m - l + 1);
        } catch (const ElabError &) {
            return LogicVec::xs(1);
        }
    }
    if (ret_width <= 0)
        return LogicVec::xs(1);

    // Local storage for the call frame (stack-owned Signals). The
    // call scope copies the module's name maps (children excluded:
    // InstanceScope owns those) and overlays the frame's locals.
    std::vector<std::unique_ptr<Signal>> frame;
    InstanceScope local;
    local.path = scope.path;
    local.module = scope.module;
    local.parent = scope.parent;
    local.signals = scope.signals;
    local.memories = scope.memories;
    local.events = scope.events;
    local.params = scope.params;
    local.functions = scope.functions;

    auto add_local = [&](const std::string &name, int width,
                         int lsb) {
        frame.push_back(std::make_unique<Signal>(
            name, width, true, &design.scheduler()));
        local.signals[name] = SignalRef{frame.back().get(), lsb};
        local.memories.erase(name);
        return frame.back().get();
    };

    Signal *ret = add_local(fn.name, ret_width, 0);
    for (auto &decl : fn.locals) {
        int width = 1, lsb = 0;
        if (decl->varKind == VarKind::Integer)
            width = 32;
        if (decl->msb) {
            try {
                int64_t m = evalConstInt(*decl->msb, scope.params);
                int64_t l = evalConstInt(*decl->lsb, scope.params);
                width = static_cast<int>(m - l + 1);
                lsb = static_cast<int>(l);
            } catch (const ElabError &) {
                return LogicVec::xs(ret_width);
            }
        }
        add_local(decl->name, width, lsb);
    }
    for (size_t i = 0; i < fn.inputOrder.size(); ++i) {
        SignalRef r = local.findSignal(fn.inputOrder[i]);
        if (r.sig)
            r.sig->initValue(args[i]);
    }

    if (fn.body && !mightSuspend(*fn.body)) {
        ++depth;
        try {
            execStmtSync(design, local, *fn.body);
        } catch (...) {
            --depth;
            throw;
        }
        --depth;
    }
    return ret->value();
}

LogicVec
applyUnary(UnaryOp op, const LogicVec &v)
{
    switch (op) {
      case UnaryOp::Plus: return v;
      case UnaryOp::Minus: return v.negate();
      case UnaryOp::Not: return v.logicNot();
      case UnaryOp::BitNot: return v.bitNot();
      case UnaryOp::RedAnd: return v.reduceAnd();
      case UnaryOp::RedOr: return v.reduceOr();
      case UnaryOp::RedXor: return v.reduceXor();
      case UnaryOp::RedNand: return v.reduceNand();
      case UnaryOp::RedNor: return v.reduceNor();
      case UnaryOp::RedXnor: return v.reduceXnor();
    }
    return LogicVec::xs(v.width());
}

LogicVec
applyBinary(BinaryOp op, const LogicVec &a, const LogicVec &b)
{
    switch (op) {
      case BinaryOp::Add: return a.add(b);
      case BinaryOp::Sub: return a.sub(b);
      case BinaryOp::Mul: return a.mul(b);
      case BinaryOp::Div: return a.div(b);
      case BinaryOp::Mod: return a.mod(b);
      case BinaryOp::Pow: return a.pow(b);
      case BinaryOp::BitAnd: return a.bitAnd(b);
      case BinaryOp::BitOr: return a.bitOr(b);
      case BinaryOp::BitXor: return a.bitXor(b);
      case BinaryOp::BitXnor: return a.bitXnor(b);
      case BinaryOp::LogAnd: return a.logicAnd(b);
      case BinaryOp::LogOr: return a.logicOr(b);
      case BinaryOp::Eq: return a.logicEq(b);
      case BinaryOp::Neq: return a.logicNeq(b);
      case BinaryOp::CaseEq: return a.caseEq(b);
      case BinaryOp::CaseNeq: return a.caseNeq(b);
      case BinaryOp::Lt: return a.lt(b);
      case BinaryOp::Le: return a.le(b);
      case BinaryOp::Gt: return a.gt(b);
      case BinaryOp::Ge: return a.ge(b);
      case BinaryOp::Shl: return a.shl(b);
      case BinaryOp::Shr: return a.shr(b);
    }
    return LogicVec::xs(std::max(a.width(), b.width()));
}

/** Ternary with ambiguous condition merges branches bitwise (IEEE). */
LogicVec
mergeTernary(const LogicVec &t, const LogicVec &e)
{
    int w = std::max(t.width(), e.width());
    LogicVec a = t.resized(w), b = e.resized(w), r(w, Bit::X);
    for (int i = 0; i < w; ++i)
        if (a.bit(i) == b.bit(i) &&
            (a.bit(i) == Bit::Zero || a.bit(i) == Bit::One))
            r.setBit(i, a.bit(i));
    return r;
}

} // namespace

LogicVec
evalExpr(const Expr &e, InstanceScope &scope, Design &design)
{
    using Kind = NameBinding::Kind;
    switch (e.kind) {
      case NodeKind::Number:
        return e.as<Number>()->value;
      case NodeKind::Ident: {
        NameBinding b = scope.bind(e);
        if (b.kind == Kind::Signal)
            return b.sig->value();
        if (b.kind == Kind::Param)
            return *b.param;
        return LogicVec::xs(1);
      }
      case NodeKind::Index: {
        auto *ix = e.as<Index>();
        std::optional<LogicVec> t;
        const LogicVec &idx = evalRef(*ix->index, scope, design, t);
        NameBinding b = scope.bind(e);
        const LogicVec *base = nullptr;
        int lsb = 0;
        switch (b.kind) {
          case Kind::Memory:
            return b.mem->read(idx);
          case Kind::Signal:
            base = &b.sig->value();
            lsb = b.lsb;
            break;
          case Kind::Param:
            base = b.param;
            break;
          default:
            return LogicVec::xs(1);
        }
        if (idx.hasUnknown())
            return LogicVec::xs(1);
        int bit = static_cast<int>(idx.toUint64()) - lsb;
        LogicVec out(1, Bit::X);
        out.setBit(0, base->bit(bit));
        return out;
      }
      case NodeKind::RangeSel: {
        auto *r = e.as<RangeSel>();
        std::optional<LogicVec> tm, tl;
        const LogicVec &m = evalRef(*r->msb, scope, design, tm);
        const LogicVec &l = evalRef(*r->lsb, scope, design, tl);
        NameBinding b = scope.bind(e);
        const LogicVec *base = nullptr;
        int lsb_off = 0;
        if (b.kind == Kind::Signal) {
            base = &b.sig->value();
            lsb_off = b.lsb;
        } else if (b.kind == Kind::Param) {
            base = b.param;
        } else {
            return LogicVec::xs(1);
        }
        if (m.hasUnknown() || l.hasUnknown())
            return LogicVec::xs(1);
        int msb = static_cast<int>(m.toUint64()) - lsb_off;
        int lsb = static_cast<int>(l.toUint64()) - lsb_off;
        if (msb < lsb)
            return LogicVec::xs(1);
        return base->slice(msb, lsb);
      }
      case NodeKind::Unary: {
        auto *u = e.as<Unary>();
        std::optional<LogicVec> t;
        return applyUnary(u->op, evalRef(*u->operand, scope, design, t));
      }
      case NodeKind::Binary: {
        auto *b = e.as<Binary>();
        std::optional<LogicVec> ta, tb;
        const LogicVec &lhs = evalRef(*b->lhs, scope, design, ta);
        const LogicVec &rhs = evalRef(*b->rhs, scope, design, tb);
        return applyBinary(b->op, lhs, rhs);
      }
      case NodeKind::Ternary: {
        auto *t = e.as<Ternary>();
        std::optional<LogicVec> tc;
        const LogicVec &c = evalRef(*t->cond, scope, design, tc);
        if (c.hasOne())
            return evalExpr(*t->thenExpr, scope, design);
        if (!c.hasUnknown())
            return evalExpr(*t->elseExpr, scope, design);
        return mergeTernary(evalExpr(*t->thenExpr, scope, design),
                            evalExpr(*t->elseExpr, scope, design));
      }
      case NodeKind::Concat: {
        auto *c = e.as<Concat>();
        if (c->parts.empty())
            return LogicVec(1, Bit::Zero);
        LogicVec acc = evalExpr(*c->parts[0], scope, design);
        for (size_t i = 1; i < c->parts.size(); ++i) {
            std::optional<LogicVec> t;
            acc = LogicVec::concat(
                acc, evalRef(*c->parts[i], scope, design, t));
        }
        return acc;
      }
      case NodeKind::Repl: {
        auto *r = e.as<Repl>();
        std::optional<LogicVec> tn, tv;
        const LogicVec &n = evalRef(*r->count, scope, design, tn);
        const LogicVec &v = evalRef(*r->value, scope, design, tv);
        if (n.hasUnknown() || n.toUint64() == 0 || n.toUint64() > 4096)
            return LogicVec::xs(v.width());
        return v.replicate(static_cast<int>(n.toUint64()));
      }
      case NodeKind::FuncCall: {
        auto *f = e.as<FuncCall>();
        if (const FunctionDecl *fn = scope.findFunction(f->name))
            return callFunction(*fn, *f, scope, design);
        return LogicVec::xs(1);
      }
      case NodeKind::SysFuncCall: {
        auto *f = e.as<SysFuncCall>();
        if (f->name == "$time" || f->name == "$stime" ||
            f->name == "$realtime")
            return LogicVec(64, design.scheduler().now());
        if (f->name == "$random" || f->name == "$urandom")
            return LogicVec(32, static_cast<uint64_t>(design.nextRandom()));
        return LogicVec::xs(32);
      }
      default:
        return LogicVec::xs(1);
    }
}

LogicVec
evalConst(const Expr &e,
          const std::unordered_map<std::string, LogicVec> &params)
{
    switch (e.kind) {
      case NodeKind::Number:
        return e.as<Number>()->value;
      case NodeKind::Ident: {
        auto it = params.find(e.as<Ident>()->name);
        if (it == params.end())
            throw ElabError("non-constant identifier '" +
                            e.as<Ident>()->name + "' in constant context");
        return it->second;
      }
      case NodeKind::Unary: {
        auto *u = e.as<Unary>();
        return applyUnary(u->op, evalConst(*u->operand, params));
      }
      case NodeKind::Binary: {
        auto *b = e.as<Binary>();
        return applyBinary(b->op, evalConst(*b->lhs, params),
                           evalConst(*b->rhs, params));
      }
      case NodeKind::Ternary: {
        auto *t = e.as<Ternary>();
        LogicVec c = evalConst(*t->cond, params);
        if (c.hasOne())
            return evalConst(*t->thenExpr, params);
        if (!c.hasUnknown())
            return evalConst(*t->elseExpr, params);
        // Ambiguous condition: IEEE bitwise merge, same as evalExpr.
        return mergeTernary(evalConst(*t->thenExpr, params),
                            evalConst(*t->elseExpr, params));
      }
      case NodeKind::Concat: {
        auto *c = e.as<Concat>();
        LogicVec acc(1, Bit::Zero);
        bool first = true;
        for (auto &p : c->parts) {
            LogicVec v = evalConst(*p, params);
            acc = first ? v : LogicVec::concat(acc, v);
            first = false;
        }
        return acc;
      }
      case NodeKind::Repl: {
        auto *r = e.as<Repl>();
        LogicVec n = evalConst(*r->count, params);
        LogicVec v = evalConst(*r->value, params);
        if (n.hasUnknown() || n.toUint64() == 0)
            throw ElabError("bad replication count in constant context");
        return v.replicate(static_cast<int>(n.toUint64()));
      }
      default:
        throw ElabError(std::string("non-constant expression of kind ") +
                        nodeKindName(e.kind));
    }
}

int64_t
evalConstInt(const Expr &e,
             const std::unordered_map<std::string, LogicVec> &params)
{
    LogicVec v = evalConst(e, params);
    if (v.hasUnknown())
        throw ElabError("x/z value in integer constant context");
    return static_cast<int64_t>(v.toUint64());
}

namespace {

void
resolveInto(Design &design, InstanceScope &scope, const Expr &lhs,
            WriteTarget &out)
{
    using Kind = NameBinding::Kind;
    WriteSlot s;
    switch (lhs.kind) {
      case NodeKind::Ident: {
        NameBinding b = scope.bind(lhs);
        if (b.kind == Kind::Signal) {
            s.sig = b.sig;
            s.width = b.sig->width();
        }
        break;
      }
      case NodeKind::Index: {
        auto *ix = lhs.as<Index>();
        std::optional<LogicVec> t;
        const LogicVec &idx = evalRef(*ix->index, scope, design, t);
        NameBinding b = scope.bind(lhs);
        if (b.kind == Kind::Memory) {
            s.width = b.mem->width();
            if (!idx.hasUnknown()) {
                s.mem = b.mem;
                s.addr = static_cast<int64_t>(idx.toUint64());
            }
        } else if (b.kind == Kind::Signal && !idx.hasUnknown()) {
            int bit = static_cast<int>(idx.toUint64()) - b.lsb;
            if (bit >= 0 && bit < b.sig->width()) {
                s.sig = b.sig;
                s.lsb = bit;
            }
        }
        break;
      }
      case NodeKind::RangeSel: {
        auto *rs = lhs.as<RangeSel>();
        std::optional<LogicVec> tm, tl;
        const LogicVec &m = evalRef(*rs->msb, scope, design, tm);
        const LogicVec &l = evalRef(*rs->lsb, scope, design, tl);
        NameBinding b = scope.bind(lhs);
        if (b.kind == Kind::Signal && !m.hasUnknown() &&
            !l.hasUnknown()) {
            int msb = static_cast<int>(m.toUint64()) - b.lsb;
            int lsb = static_cast<int>(l.toUint64()) - b.lsb;
            if (msb >= lsb)
                s.width = msb - lsb + 1;
            if (msb >= lsb && lsb >= 0 && msb < b.sig->width()) {
                s.sig = b.sig;
                s.lsb = lsb;
            }
        }
        break;
      }
      case NodeKind::Concat:
        for (auto &p : lhs.as<Concat>()->parts)
            resolveInto(design, scope, *p, out);
        return;
      default:
        // Invalid target (validator rejects these); drop the write.
        break;
    }
    out.add(s);
}

/** Write @p value, resized to the piece's width, into one piece. */
void
writePiece(const WriteSlot &s, const LogicVec &value)
{
    if (s.mem) {
        s.mem->writeAt(s.addr, value);  // resizes to the element width
    } else if (!s.sig) {
        return;
    } else if (s.lsb == 0 && s.width == s.sig->width()) {
        s.sig->set(value);  // resizes to the signal width
    } else if (value.width() == s.width) {
        s.sig->writeBits(s.lsb, value);
    } else {
        s.sig->writeBits(s.lsb, value.resized(s.width));
    }
}

} // namespace

WriteTarget
resolveLValue(Design &design, InstanceScope &scope, const Expr &lhs)
{
    WriteTarget t;
    resolveInto(design, scope, lhs, t);
    return t;
}

void
performWrite(const WriteTarget &target, const LogicVec &value)
{
    if (target.count <= 1) {
        if (target.count == 1)
            writePiece(target.first, value);
        return;
    }
    LogicVec v = value.resized(target.totalWidth);
    int off = 0;  // distribute from the LSB end == last piece first
    auto put = [&](const WriteSlot &s) {
        if (s.sig || s.mem)
            writePiece(s, v.slice(off + s.width - 1, off));
        off += s.width;
    };
    for (auto it = target.rest.rbegin(); it != target.rest.rend(); ++it)
        put(*it);
    put(target.first);
}

} // namespace cirfix::sim
