#pragma once

/**
 * @file
 * Expression evaluation over an elaborated scope.
 *
 * Width rules follow a simplified model: operands are evaluated
 * bottom-up at their natural widths, binary arithmetic/bitwise
 * operators extend to the wider operand, and assignment resizes to the
 * target width. This matches IEEE context-determined sizing for all the
 * expression shapes used by the benchmark suite.
 */

#include <optional>

#include "sim/design.h"
#include "verilog/ast.h"

namespace cirfix::sim {

/** Evaluate @p e in @p scope. Unresolvable names evaluate to x. */
LogicVec evalExpr(const verilog::Expr &e, InstanceScope &scope,
                  Design &design);

/**
 * Evaluate @p e for reading: a literal, a parameter, or (while no
 * function call could write it) a signal is returned by reference to
 * its stored value; anything else is evaluated into @p tmp. The
 * reference is valid until the next write to a signal.
 */
inline const LogicVec &
evalRef(const verilog::Expr &e, InstanceScope &scope, Design &design,
        std::optional<LogicVec> &tmp)
{
    if (e.kind == verilog::NodeKind::Number)
        return e.as<verilog::Number>()->value;
    if (e.kind == verilog::NodeKind::Ident) {
        NameBinding b = scope.bind(e);
        if (b.kind == NameBinding::Kind::Param)
            return *b.param;
        // A signal's stored value may be handed out only while nothing
        // evaluated before the caller is done with it can write it:
        // function calls are the only expressions with side effects.
        if (b.kind == NameBinding::Kind::Signal && scope.functions.empty())
            return b.sig->value();
    }
    return tmp.emplace(evalExpr(e, scope, design));
}

/**
 * Elaboration-time constant evaluation (numbers, parameters, and
 * operators only).
 *
 * @throws ElabError when the expression is not compile-time constant.
 */
LogicVec evalConst(const verilog::Expr &e,
                   const std::unordered_map<std::string, LogicVec> &params);

/** evalConst() narrowed to a signed 64-bit integer. */
int64_t evalConstInt(const verilog::Expr &e,
                     const std::unordered_map<std::string, LogicVec> &params);

// --------------------------------------------------------------------
// Assignment targets
// --------------------------------------------------------------------

/**
 * One piece of a (possibly concatenated) assignment target. With both
 * sig and mem null the piece is dropped (unresolved name, unknown or
 * out-of-range index) but still consumes its width of the value.
 */
struct WriteSlot
{
    Signal *sig = nullptr;
    Memory *mem = nullptr;
    int64_t addr = 0;  //!< memory element address
    int lsb = 0;       //!< physical LSB within the signal
    int width = 1;
};

/**
 * A fully resolved assignment target (indices already evaluated). The
 * first piece is stored inline, so a target without concatenation is
 * built without touching the heap.
 */
struct WriteTarget
{
    WriteSlot first;              //!< the most significant piece
    std::vector<WriteSlot> rest;  //!< further pieces, MSB-first
    int totalWidth = 0;
    int count = 0;                //!< number of pieces

    void
    add(const WriteSlot &s)
    {
        if (count++ == 0)
            first = s;
        else
            rest.push_back(s);
        totalWidth += s.width;
    }
};

/** Resolve an lvalue expression, evaluating indices now. */
WriteTarget resolveLValue(Design &design, InstanceScope &scope,
                          const verilog::Expr &lhs);

/** Write @p value (resized to the target width) into the target. */
void performWrite(const WriteTarget &target, const LogicVec &value);

} // namespace cirfix::sim
