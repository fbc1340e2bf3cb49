/**
 * @file
 * Printer tests: regenerated Verilog must re-parse, and printing is a
 * fixed point (print(parse(print(x))) == print(x)).
 */

#include <random>
#include <unordered_set>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/mutation.h"
#include "core/scenario.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"
#include "verilog/printer.h"
#include "verilog/validate.h"

using namespace cirfix::verilog;

namespace {

void
expectRoundTrip(const std::string &src)
{
    auto f1 = parse(src);
    std::string p1 = print(*f1);
    std::unique_ptr<SourceFile> f2;
    ASSERT_NO_THROW(f2 = parse(p1)) << p1;
    std::string p2 = print(*f2);
    EXPECT_EQ(p1, p2) << "printing is not idempotent for:\n" << src;
}

TEST(Printer, SimpleModule)
{
    expectRoundTrip(R"(
module m (clk, q);
    input clk;
    output q;
    reg q;
    always @(posedge clk) q <= !q;
endmodule
)");
}

TEST(Printer, Expressions)
{
    expectRoundTrip(R"(
module m;
    wire [7:0] a, b;
    wire [7:0] y1, y2, y3, y4, y5;
    assign y1 = a + b * 2 - (a / b) % 3;
    assign y2 = (a << 2) | (b >> 1) & ~a ^ b;
    assign y3 = a == b ? {a[3:0], b[7:4]} : {2{a[1]}} + 6'd12;
    assign y4 = {8{a < b && b >= 3}};
    assign y5 = (a === 8'hzz) ? ^a : ~|b;
endmodule
)");
}

TEST(Printer, Statements)
{
    expectRoundTrip(R"(
module m;
    reg [3:0] q;
    reg clk;
    integer i;
    event done;
    always @(posedge clk or negedge q[0])
    begin : BLK
        if (q == 4'b1111) begin
            q <= #1 4'd0;
        end
        else begin
            q <= q + 1;
        end
        case (q)
            4'h0, 4'h1 : q <= 4'h2;
            4'h2 : ;
            default : begin
                q <= 4'hf;
            end
        endcase
        for (i = 0; i < 4; i = i + 1) q = q ^ 4'b0001;
        while (q > 0) q = q - 1;
        repeat (3) @(negedge clk);
        wait (q == 0) q = 4'h1;
        -> done;
        #5;
        $display("q=%b", q);
    end
endmodule
)");
}

TEST(Printer, NumbersKeepBases)
{
    auto file = parse(
        "module m; wire [7:0] w; assign w = 8'hab + 8'b101 + 13 + "
        "4'bx01z; endmodule");
    std::string out = print(*file);
    EXPECT_NE(out.find("8'hab"), std::string::npos);
    EXPECT_NE(out.find("13"), std::string::npos);
    EXPECT_NE(out.find("4'bx01z"), std::string::npos);
    expectRoundTrip(out);
}

TEST(Printer, Hierarchy)
{
    expectRoundTrip(R"(
module child (input a, input b, output y);
    assign y = a & b;
endmodule
module top (input x, output z);
    wire t;
    child c1 (.a(x), .b(1'b1), .y(t));
    child c2 (x, t, z);
endmodule
)");
}

TEST(Printer, AnsiPortsPrintStandalone)
{
    // ANSI input must regenerate as valid traditional-style output.
    expectRoundTrip(
        "module m (input clk, output reg [3:0] q);\n"
        "    always @(posedge clk) q <= q + 1;\nendmodule\n");
}

TEST(Printer, MemoriesAndParameters)
{
    expectRoundTrip(R"(
module m;
    parameter W = 4;
    parameter DEPTH = 16;
    localparam LAST = DEPTH - 1;
    reg [W-1:0] mem [0:LAST];
    reg [W-1:0] q;
    wire [3:0] addr;
    initial q = mem[addr];
endmodule
)");
}

TEST(Printer, EventControlWithoutStatement)
{
    expectRoundTrip(R"(
module m;
    reg clk;
    event go;
    initial begin
        @(go);
        @(posedge clk);
        @*;
    end
    always #5 clk = !clk;
endmodule
)");
}

TEST(Printer, StringEscapes)
{
    expectRoundTrip(
        "module m; initial $display(\"a\\nb\\t\\\"c\\\"\"); "
        "endmodule");
}

TEST(Printer, ExprPrinterStandalone)
{
    auto file = parse(
        "module m; wire [3:0] a; wire y; assign y = a[2] ^ a[3:1] == "
        "2; endmodule");
    const ContAssign *ca = nullptr;
    for (auto &it : file->modules[0]->items)
        if (it->kind == NodeKind::ContAssign)
            ca = it->as<ContAssign>();
    ASSERT_NE(ca, nullptr);
    std::string s = printExpr(*ca->rhs);
    EXPECT_NE(s.find("a[2]"), std::string::npos);
    EXPECT_NE(s.find("a[3:1]"), std::string::npos);
}

TEST(Printer, BenchmarkStyleSource)
{
    // A representative chunk of the benchmark idioms in one module.
    expectRoundTrip(R"(
module tb;
    reg clk, reset, enable;
    wire [3:0] counter_out;
    reg [7:0] slave_data;
    event reset_trigger, terminate_sim;
    integer i;

    always #5 clk = !clk;

    initial begin
        clk = 0;
        #10 -> reset_trigger;
        @(reset_trigger);
        @(negedge clk);
        reset = 1;
        repeat (21) begin
            @(negedge clk);
        end
        for (i = 0; i < 8; i = i + 1) begin
            slave_data <= {slave_data[6:0], slave_data[7]};
            @(negedge clk);
        end
        wait (counter_out == 4'hf);
        #5 -> terminate_sim;
        $finish;
    end
endmodule
)");
}

TEST(Printer, DanglingElseKeepsItsIf)
{
    // An else-less if as the then-branch of an if/else (directly, as a
    // loop or timing-control body, or as the tail of an else chain)
    // must be printed inside begin/end, or the else would re-attach to
    // the inner if.
    const char *kSrc = R"(
module m (clk);
    input clk;
    reg a, b, c, q;
    integer i;
    always @(posedge clk) begin
        if (a) begin
            if (b) q = 1;
        end
        else q = 0;
        if (a) begin
            for (i = 0; i < 2; i = i + 1)
                @(negedge clk) if (b) q = 1;
        end
        else q = 0;
        if (a) begin
            if (b) q = 1;
            else if (c) q = 0;
        end
        else q = 1;
        if (a) begin
            if (b) q = 1;
            else q = 0;
        end
        else q = 1;
    end
endmodule
)";
    auto f = parse(kSrc);
    // Drop the begin/end the source needed: the then-branches become
    // the bare statements the printer has to protect.
    int unwrapped = 0;
    visitAll(*f, [&](Node &n) {
        if (n.kind != NodeKind::If)
            return;
        auto *i = n.as<If>();
        if (i->elseStmt && i->thenStmt &&
            i->thenStmt->kind == NodeKind::SeqBlock) {
            auto *blk = i->thenStmt->as<SeqBlock>();
            if (blk->stmts.size() == 1) {
                StmtPtr inner = std::move(blk->stmts[0]);
                i->thenStmt = std::move(inner);
                ++unwrapped;
            }
        }
    });
    ASSERT_EQ(unwrapped, 4);
    std::string p1 = print(*f);
    auto f2 = parse(p1);
    EXPECT_EQ(print(*f2), p1);
    // Every outer if keeps its else; the inner ones keep theirs.
    int outer_with_else = 0, inner_without_else = 0;
    visitAll(*f2, [&](Node &n) {
        if (n.kind != NodeKind::If)
            return;
        auto *i = n.as<If>();
        if (i->elseStmt && i->thenStmt &&
            i->thenStmt->kind == NodeKind::SeqBlock)
            ++outer_with_else;
        if (!i->elseStmt)
            ++inner_without_else;
    });
    // The last then-branch is a closed if/else: it needs no begin/end,
    // so only three wrappers (plus the always body) are printed.
    EXPECT_EQ(outer_with_else, 3);
    EXPECT_EQ(inner_without_else, 3);
    size_t begins = 0;
    for (size_t at = p1.find("begin\n"); at != std::string::npos;
         at = p1.find("begin\n", at + 1))
        ++begins;
    EXPECT_EQ(begins, 4u) << p1;
}

/** Sampled trace of @p file under its testbench, or "" if the run did
 *  not end cleanly (budget aborts depend on statement counts, which a
 *  begin/end wrapper changes). */
std::string
traceOf(std::shared_ptr<const SourceFile> file,
        const cirfix::core::Scenario &sc)
{
    using namespace cirfix::sim;
    RunLimits limits;
    limits.maxStatements = 400'000;
    limits.maxCallbacks = 400'000;
    try {
        auto design = elaborate(std::move(file), sc.project->tbModule);
        TraceRecorder rec(*design, sc.probe);
        auto r = design->run(limits);
        if (r.status != Scheduler::Status::Finished &&
            r.status != Scheduler::Status::Idle &&
            r.status != Scheduler::Status::MaxTime)
            return "";
        return rec.takeTrace().toCsv();
    } catch (const std::exception &) {
        return "";
    }
}

/**
 * print(parse(print(a))) == print(a) over every benchmark design
 * (golden and faulty, with its testbench) and seeded mutants of each,
 * and the re-parsed tree simulates to the same trace.
 */
TEST(Printer, RoundTripOverBenchmarksAndMutants)
{
    using namespace cirfix;
    std::vector<core::Scenario> scenarios;
    core::DefectSpec golden_spec;
    for (auto &p : bench::allProjects())
        scenarios.push_back(core::buildScenario(p, golden_spec));
    for (auto &d : bench::allDefects())
        scenarios.push_back(
            core::buildScenario(bench::getProject(d.project), d));
    ASSERT_EQ(scenarios.size(), 43u);

    std::mt19937_64 rng(2024);
    core::Mutator mutator(rng, core::MutationConfig{});
    int mutants = 0, traced = 0;
    for (auto &sc : scenarios) {
        const SourceFile &base = *sc.faulty;
        const std::string dut_name = sc.defect && !sc.defect->repairModule.empty()
                                         ? sc.defect->repairModule
                                         : sc.project->dutModule;
        for (int k = 0; k < 6; ++k) {
            core::Patch patch;
            std::shared_ptr<const SourceFile> a;
            if (k == 0) {
                a = base.cloneFile();
            } else {
                // A chain of k mutation edits over the whole module.
                std::shared_ptr<SourceFile> cur = base.cloneFile();
                for (int e = 0; e < k; ++e) {
                    const Module *dut = cur->findModule(dut_name);
                    ASSERT_NE(dut, nullptr);
                    std::unordered_set<int> fl;
                    visitAll(const_cast<Module &>(*dut),
                             [&](Node &n) { fl.insert(n.id); });
                    if (auto ed = mutator.mutate(*cur, *dut, fl))
                        patch.edits.push_back(std::move(*ed));
                    cur = core::applyPatch(base, patch);
                }
                a = cur;
                ++mutants;
            }
            const std::string p1 = print(*a);
            std::shared_ptr<const SourceFile> b;
            try {
                b = parse(p1);
            } catch (const std::exception &) {
                // Only designs validation rejects may fail to parse.
                EXPECT_FALSE(isValid(*a)) << sc.project->name << "\n" << p1;
                continue;
            }
            EXPECT_EQ(print(*b), p1) << sc.project->name;
            if (!isValid(*a))
                continue;
            std::string ta = traceOf(a, sc);
            if (ta.empty())
                continue;
            EXPECT_EQ(traceOf(b, sc), ta) << sc.project->name << "\n" << p1;
            ++traced;
        }
    }
    EXPECT_EQ(mutants, 43 * 5);
    EXPECT_GT(traced, 43);
}

} // namespace
