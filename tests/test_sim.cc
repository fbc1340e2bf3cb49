/**
 * @file
 * Integration tests for the event-driven simulator: scheduling
 * semantics, nonblocking assignments, delays, events, hierarchy,
 * memories, continuous assignments and the testbench probe.
 */

#include <gtest/gtest.h>

#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::sim;
using namespace cirfix::verilog;

namespace {

struct Sim
{
    std::unique_ptr<Design> design;
    Scheduler::RunResult result;

    explicit Sim(const std::string &src, const std::string &top = "t",
                 RunLimits limits = RunLimits())
    {
        std::shared_ptr<const SourceFile> file = parse(src);
        design = elaborate(file, top);
        result = design->run(limits);
    }

    uint64_t
    value(const std::string &path)
    {
        SignalRef r = design->findSignal(path);
        EXPECT_NE(r.sig, nullptr) << path;
        return r.sig->value().toUint64();
    }

    std::string
    bits(const std::string &path)
    {
        SignalRef r = design->findSignal(path);
        EXPECT_NE(r.sig, nullptr) << path;
        return r.sig->value().toString();
    }
};

TEST(Sim, InitialBlockRunsOnce)
{
    Sim s("module t; reg [7:0] a; initial a = 8'h7e; endmodule");
    EXPECT_EQ(s.value("a"), 0x7eu);
    EXPECT_EQ(s.result.status, Scheduler::Status::Idle);
}

TEST(Sim, BlockingOrderWithinBlock)
{
    Sim s(R"(
module t;
    reg [7:0] a, b;
    initial begin
        a = 8'd1;
        b = a + 1;
        a = b * 2;
    end
endmodule
)");
    EXPECT_EQ(s.value("b"), 2u);
    EXPECT_EQ(s.value("a"), 4u);
}

TEST(Sim, NonblockingReadsOldValue)
{
    // The classic swap: with NBA both regs read pre-update values.
    Sim s(R"(
module t;
    reg [3:0] a, b;
    reg clk;
    initial begin
        clk = 0;
        a = 4'h5;
        b = 4'ha;
        #10 clk = 1;
    end
    always @(posedge clk) begin
        a <= b;
        b <= a;
    end
endmodule
)");
    EXPECT_EQ(s.value("a"), 0xau);
    EXPECT_EQ(s.value("b"), 0x5u);
}

TEST(Sim, NbaVisibleToOtherProcessesNextCycle)
{
    // A second always block sampling at the same edge sees the OLD
    // value; blocking in the writer would expose the new one.
    Sim s(R"(
module t;
    reg clk;
    reg [3:0] src, snoop;
    initial begin
        clk = 0;
        src = 4'h0;
        #5 clk = 1;
        #5 clk = 0;
        #5 clk = 1;
    end
    always @(posedge clk) src <= src + 1;
    always @(posedge clk) snoop <= src;
endmodule
)");
    // Two posedges: src 0->1->2; snoop samples pre-edge src: 0 then 1.
    EXPECT_EQ(s.value("src"), 2u);
    EXPECT_EQ(s.value("snoop"), 1u);
}

TEST(Sim, DelaysAdvanceTime)
{
    Sim s(R"(
module t;
    reg [7:0] a;
    initial begin
        a = 8'd0;
        #7 a = 8'd1;
        #13 a = 8'd2;
    end
endmodule
)");
    EXPECT_EQ(s.value("a"), 2u);
    EXPECT_EQ(s.result.endTime, 20u);
}

TEST(Sim, IntraAssignmentDelays)
{
    Sim s(R"(
module t;
    reg [7:0] a, b, witness;
    initial begin
        a = 8'd1;
        b = #5 a + 1;
        witness = b;
    end
    initial begin
        #2 a = 8'd10;
    end
endmodule
)");
    // Blocking intra-delay: RHS evaluated at t=0 (a=1 -> 2), written
    // at t=5, then witness copies it.
    EXPECT_EQ(s.value("b"), 2u);
    EXPECT_EQ(s.value("witness"), 2u);
}

TEST(Sim, NbaIntraDelayScheduledLater)
{
    Sim s(R"(
module t;
    reg [7:0] a, sample_before, sample_after;
    initial begin
        a = 8'd1;
        a <= #10 8'd9;
        #5 sample_before = a;
        #10 sample_after = a;
    end
endmodule
)");
    EXPECT_EQ(s.value("sample_before"), 1u);
    EXPECT_EQ(s.value("sample_after"), 9u);
}

TEST(Sim, ZeroDelayGoesToInactiveRegion)
{
    Sim s(R"(
module t;
    reg [7:0] a, b;
    initial begin
        #0 b = a;
    end
    initial begin
        a = 8'd42;
    end
endmodule
)");
    // The #0 defers past the second initial block's active execution.
    EXPECT_EQ(s.value("b"), 42u);
}

TEST(Sim, ClockGeneratorAndEdges)
{
    Sim s(R"(
module t;
    reg clk;
    reg [7:0] pos_count, neg_count;
    initial begin
        clk = 0;
        pos_count = 0;
        neg_count = 0;
        #52 $finish;
    end
    always #5 clk = !clk;
    always @(posedge clk) pos_count <= pos_count + 1;
    always @(negedge clk) neg_count <= neg_count + 1;
endmodule
)");
    // Posedges at 5,15,25,35,45; negedges at 10,20,30,40,50.
    EXPECT_EQ(s.value("pos_count"), 5u);
    EXPECT_EQ(s.value("neg_count"), 5u);
    EXPECT_EQ(s.result.status, Scheduler::Status::Finished);
}

TEST(Sim, XToOneIsAPosedge)
{
    Sim s(R"(
module t;
    reg clk;
    reg [3:0] edges;
    initial edges = 4'd0;
    initial #3 clk = 1;   // x -> 1 must count as a rising edge
    always @(posedge clk) edges <= edges + 1;
endmodule
)");
    EXPECT_EQ(s.value("edges"), 1u);
}

TEST(Sim, NamedEvents)
{
    Sim s(R"(
module t;
    event go, done;
    reg [7:0] stage;
    initial begin
        stage = 8'd0;
        #10 -> go;
        @(done);
        stage = stage + 8'd100;
    end
    initial begin
        @(go);
        stage = 8'd7;
        -> done;
    end
endmodule
)");
    EXPECT_EQ(s.value("stage"), 107u);
}

TEST(Sim, WaitStatement)
{
    Sim s(R"(
module t;
    reg flag;
    reg [7:0] when_seen;
    initial begin
        flag = 0;
        #25 flag = 1;
    end
    initial begin
        wait (flag == 1'b1);
        when_seen = $time;
    end
endmodule
)");
    EXPECT_EQ(s.value("when_seen"), 25u);
}

TEST(Sim, ForWhileRepeatLoops)
{
    Sim s(R"(
module t;
    integer i;
    reg [15:0] sum;
    reg [7:0] w, r;
    initial begin
        sum = 0;
        for (i = 1; i <= 10; i = i + 1) sum = sum + i[15:0];
        w = 8'd0;
        while (w < 5) w = w + 1;
        r = 8'd0;
        repeat (6) r = r + 2;
    end
endmodule
)");
    EXPECT_EQ(s.value("sum"), 55u);
    EXPECT_EQ(s.value("w"), 5u);
    EXPECT_EQ(s.value("r"), 12u);
}

TEST(Sim, CaseSelectsArmAndDefault)
{
    Sim s(R"(
module t;
    reg [1:0] sel;
    reg [7:0] out;
    always @(sel) begin
        case (sel)
            2'b00 : out = 8'd10;
            2'b01, 2'b10 : out = 8'd20;
            default : out = 8'd99;
        endcase
    end
    reg [7:0] r0, r1, r2, r3;
    initial begin
        sel = 2'b01; #1 r1 = out;
        sel = 2'b00; #1 r0 = out;
        sel = 2'b10; #1 r2 = out;
        sel = 2'b11; #1 r3 = out;
    end
endmodule
)");
    EXPECT_EQ(s.value("r0"), 10u);
    EXPECT_EQ(s.value("r1"), 20u);
    EXPECT_EQ(s.value("r2"), 20u);
    EXPECT_EQ(s.value("r3"), 99u);
}

TEST(Sim, CasezTreatsZAsDontCare)
{
    Sim s(R"(
module t;
    reg [3:0] v;
    reg [7:0] out;
    always @(v) begin
        casez (v)
            4'b1??? : out = 8'd1;
            4'b01?? : out = 8'd2;
            default : out = 8'd0;
        endcase
    end
    reg [7:0] r1, r2, r3;
    initial begin
        v = 4'b1000; #1 r1 = out;
        v = 4'b0111; #1 r2 = out;
        v = 4'b0011; #1 r3 = out;
    end
endmodule
)");
    EXPECT_EQ(s.value("r1"), 1u);
    EXPECT_EQ(s.value("r2"), 2u);
    EXPECT_EQ(s.value("r3"), 0u);
}

TEST(Sim, ContinuousAssignTracksSources)
{
    Sim s(R"(
module t;
    reg [3:0] a, b;
    wire [3:0] sum;
    reg [3:0] seen_early, seen_late;
    assign sum = a + b;
    initial begin
        a = 4'd1;
        b = 4'd2;
        #1 seen_early = sum;
        a = 4'd7;
        #1 seen_late = sum;
    end
endmodule
)");
    EXPECT_EQ(s.value("seen_early"), 3u);
    EXPECT_EQ(s.value("seen_late"), 9u);
}

TEST(Sim, HierarchyAliasesPorts)
{
    Sim s(R"(
module inv (input a, output y);
    assign y = !a;
endmodule
module t;
    reg a;
    wire y;
    inv u (.a(a), .y(y));
    reg r0, r1;
    initial begin
        a = 0;
        #1 r0 = y;
        a = 1;
        #1 r1 = y;
    end
endmodule
)");
    EXPECT_EQ(s.value("r0"), 1u);
    EXPECT_EQ(s.value("r1"), 0u);
    // Child scope sees the same signal.
    EXPECT_EQ(s.value("u.y"), 0u);
}

TEST(Sim, InputPortExpressionBinding)
{
    Sim s(R"(
module add1 (input [3:0] a, output [3:0] y);
    assign y = a + 1;
endmodule
module t;
    reg [3:0] x;
    wire [3:0] y;
    add1 u (.a(x ^ 4'b0011), .y(y));
    reg [3:0] r;
    initial begin
        x = 4'b0101;
        #1 r = y;
    end
endmodule
)");
    // (0101 ^ 0011) + 1 = 0110 + 1 = 0111.
    EXPECT_EQ(s.value("r"), 7u);
}

TEST(Sim, NameResolutionPrecedence)
{
    // A name may denote a signal, memory or named event and also a
    // parameter; which one wins depends on the reference's form.
    Sim s(R"(
module t;
    parameter S = 4'b1010;
    parameter P = 4'b0110;
    parameter M = 4'b1111;
    reg [3:0] S;
    reg [3:0] M [0:1];
    reg [3:0] r_ident, r_pident, r_mident, r_rs, r_prs, r_mem, r_m1;
    reg [3:0] r_pafter;
    reg r_idx, r_pidx;
    initial begin
        S = 4'b0001;
        M[0] = 4'b0101;
        M[1] = 4'hc;
        P[0] = 1'b1;
        S[3] = 1'b1;
        r_ident = S;
        r_pident = P;
        r_mident = M;
        r_idx = S[0];
        r_pidx = P[1];
        r_rs = S[3:1];
        r_prs = P[2:1];
        r_mem = M[0];
        r_m1 = M[1];
        r_pafter = P;
    end
endmodule
)");
    EXPECT_EQ(s.bits("r_ident"), "1001");   // Ident: signal first
    EXPECT_EQ(s.bits("r_pident"), "0110");  // ... then parameter
    EXPECT_EQ(s.bits("r_mident"), "1111");  // Ident never reads memory
    EXPECT_EQ(s.value("r_idx"), 1u);        // Index: signal over param
    EXPECT_EQ(s.value("r_pidx"), 1u);       // ... then parameter bit
    EXPECT_EQ(s.bits("r_rs"), "0100");      // RangeSel: signal first
    EXPECT_EQ(s.bits("r_prs"), "0011");     // ... then parameter
    EXPECT_EQ(s.bits("r_mem"), "0101");     // Index: memory over param
    EXPECT_EQ(s.bits("r_m1"), "1100");      // Index lvalue: memory
    EXPECT_EQ(s.bits("r_pafter"), "0110");  // writes to a param drop
}

TEST(Sim, InstancesOfOneModuleBindTheirOwnNames)
{
    // Both instances execute the same AST nodes; each scope resolves
    // them to its own signals and parameter values.
    Sim s(R"(
module inc (input [3:0] a, output [3:0] y);
    parameter K = 1;
    reg [3:0] q;
    always @(a) q = a + K;
    assign y = q;
endmodule
module t;
    reg [3:0] x1, x2;
    wire [3:0] y1, y2;
    inc u1 (.a(x1), .y(y1));
    inc u2 (.a(x2), .y(y2));
    reg [3:0] r1, r2;
    initial begin
        #1 x1 = 4'd3;
        x2 = 4'd9;
        #1 r1 = y1;
        r2 = y2;
    end
endmodule
)");
    EXPECT_EQ(s.value("r1"), 4u);
    EXPECT_EQ(s.value("r2"), 10u);
    EXPECT_EQ(s.value("u1.q"), 4u);
    EXPECT_EQ(s.value("u2.q"), 10u);
}

TEST(Sim, EventOnRunTimeBitSelect)
{
    // The watched bit of @(posedge v[i]) is taken from i at each wait.
    Sim s(R"(
module t;
    reg [3:0] v;
    reg [1:0] i;
    reg [3:0] hits;
    initial begin
        hits = 0;
        v = 0;
        i = 2;
        #1 v[1] = 1;       // not watched
        #1 i = 3;
        v[2] = 1;          // hit 1; the next wait watches v[3]
        #1 v[2] = 0;
        #1 v[2] = 1;       // no longer watched
        #1 v[3] = 1;       // hit 2
    end
    always @(posedge v[i]) hits = hits + 1;
endmodule
)");
    EXPECT_EQ(s.value("hits"), 2u);
}

TEST(Sim, WidthMismatchedPortBridges)
{
    // 1-bit output into a 4-bit parent wire: low bit drives, rest 0.
    Sim s(R"(
module one (output y);
    reg y;
    initial y = 1'b1;
endmodule
module t;
    wire [3:0] w;
    one u (.y(w));
    reg [3:0] r;
    initial #1 r = w;
endmodule
)");
    EXPECT_EQ(s.value("r"), 1u);
}

TEST(Sim, MemoriesReadWrite)
{
    Sim s(R"(
module t;
    reg [7:0] mem [0:15];
    reg [7:0] a, b;
    integer i;
    initial begin
        for (i = 0; i < 16; i = i + 1) mem[i[3:0]] = i[7:0] * 3;
        a = mem[5];
        b = mem[15];
    end
endmodule
)");
    EXPECT_EQ(s.value("a"), 15u);
    EXPECT_EQ(s.value("b"), 45u);
}

TEST(Sim, FinishStopsSimulation)
{
    Sim s(R"(
module t;
    reg [7:0] a;
    initial begin
        a = 8'd1;
        #10 $finish;
        a = 8'd2;
    end
endmodule
)");
    EXPECT_EQ(s.result.status, Scheduler::Status::Finished);
    EXPECT_EQ(s.result.endTime, 10u);
    EXPECT_EQ(s.value("a"), 1u);
}

TEST(Sim, CombinationalLoopOfXStabilizes)
{
    // A ring of inverters with no defined value reaches the all-x
    // fixpoint (!x == x), so the simulation goes idle instead of
    // oscillating -- standard 4-state behavior.
    Sim s(R"(
module t;
    wire a, b;
    assign a = !b;
    assign b = !a;
endmodule
)",
          "t", RunLimits{1000, 20'000, 1'000'000});
    EXPECT_EQ(s.result.status, Scheduler::Status::Idle);
}

TEST(Sim, RunawayCombinationalLoopAborts)
{
    // Two cross-triggering combinational blocks ping-pong in zero
    // time once kicked with a defined value; the callback budget
    // catches the runaway. (A single self-triggering block stabilizes
    // because its own change happens while it is not waiting.)
    Sim s(R"(
module t;
    reg a, b;
    always @(b) a = !b;
    always @(a) b = a;
    initial #5 b = 1'b1;
endmodule
)",
          "t", RunLimits{1000, 20'000, 1'000'000});
    EXPECT_EQ(s.result.status, Scheduler::Status::Runaway);
}

TEST(Sim, RunawayZeroDelayLoopAborts)
{
    Sim s(R"(
module t;
    reg a;
    initial forever a = !a;
endmodule
)",
          "t", RunLimits{1000, 100'000, 50'000});
    EXPECT_EQ(s.result.status, Scheduler::Status::Runaway);
}

TEST(Sim, MaxTimeBound)
{
    Sim s(R"(
module t;
    reg clk;
    initial clk = 0;
    always #5 clk = !clk;
endmodule
)",
          "t", RunLimits{100, 100'000, 1'000'000});
    EXPECT_EQ(s.result.status, Scheduler::Status::MaxTime);
}

TEST(Sim, DisplayFormatting)
{
    Sim s(R"(
module t;
    reg [7:0] v;
    initial begin
        v = 8'd77;
        $display("dec=%d hex=%h bin=%b at %t", v, v, v, $time);
        $display("pct=%% done");
    end
endmodule
)");
    ASSERT_EQ(s.design->displayLog().size(), 2u);
    EXPECT_EQ(s.design->displayLog()[0], "dec=77 hex=4d bin=01001101 at 0");
    EXPECT_EQ(s.design->displayLog()[1], "pct=% done");
}

TEST(Sim, ProbeRecordsAtPosedges)
{
    std::shared_ptr<const SourceFile> file = parse(R"(
module dut (input clk, output reg [3:0] q);
    always @(posedge clk) q <= q + 1;
endmodule
module tb;
    reg clk;
    wire [3:0] q;
    dut d (.clk(clk), .q(q));
    initial begin
        clk = 0;
        #47 $finish;
    end
    always #5 clk = !clk;
endmodule
)");
    ProbeConfig cfg = deriveProbeConfig(*file, "tb");
    EXPECT_EQ(cfg.clock, "clk");
    ASSERT_EQ(cfg.signals.size(), 1u);
    EXPECT_EQ(cfg.signals[0], "d.q");
    auto design = elaborate(file, "tb");
    TraceRecorder rec(*design, cfg);
    design->run();
    // Posedges at 5,15,25,35,45 -> 5 samples.
    ASSERT_EQ(rec.trace().size(), 5u);
    EXPECT_EQ(rec.trace().rows()[0].time, 5u);
    // q is x before the first edge commits... the sample happens in
    // the postponed region, after the NBA: q increments from x -> x.
    // With q uninitialized the increments stay x forever.
    EXPECT_TRUE(rec.trace().rows()[4].values[0].hasUnknown());
}

TEST(Sim, ProbeSettledValuesAfterNba)
{
    std::shared_ptr<const SourceFile> file = parse(R"(
module dut (input clk, input rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else q <= q + 1;
    end
endmodule
module tb;
    reg clk, rst;
    wire [3:0] q;
    dut d (.clk(clk), .q(q), .rst(rst));
    initial begin
        clk = 0;
        rst = 1;
        #12 rst = 0;
        #40 $finish;
    end
    always #5 clk = !clk;
endmodule
)");
    ProbeConfig cfg = deriveProbeConfig(*file, "tb");
    auto design = elaborate(file, "tb");
    TraceRecorder rec(*design, cfg);
    design->run();
    // Samples show the post-edge (settled) q: reset drives q to 0 at
    // t=5 already (sample reads the NBA-updated value).
    const Trace &t = rec.trace();
    ASSERT_GE(t.size(), 4u);
    EXPECT_EQ(t.rows()[0].values[0].toUint64(), 0u);  // t=5, reset
    EXPECT_EQ(t.rows()[1].values[0].toUint64(), 1u);  // t=15, count
    EXPECT_EQ(t.rows()[2].values[0].toUint64(), 2u);
}

TEST(Sim, ScopeLookupPaths)
{
    Sim s(R"(
module leaf (input x);
    reg [1:0] inner;
    initial inner = 2'b10;
endmodule
module mid;
    leaf l (.x(1'b0));
endmodule
module t;
    mid m ();
endmodule
)");
    EXPECT_EQ(s.bits("m.l.inner"), "10");
    EXPECT_EQ(s.design->findSignal("m.l.missing").sig, nullptr);
    EXPECT_EQ(s.design->findSignal("nope.inner").sig, nullptr);
    EXPECT_NE(s.design->findScope("m.l"), nullptr);
}

TEST(Sim, ElaborationErrors)
{
    auto expect_elab_error = [](const std::string &src) {
        std::shared_ptr<const SourceFile> f = parse(src);
        EXPECT_THROW(elaborate(f, "t"), ElabError);
    };
    // Missing top module.
    {
        std::shared_ptr<const SourceFile> f =
            parse("module other; endmodule");
        EXPECT_THROW(elaborate(f, "t"), ElabError);
    }
    // Unknown instantiated module.
    expect_elab_error("module t; nonexistent u (); endmodule");
    // Parameter without value cannot occur syntactically; ascending
    // ranges are rejected.
    expect_elab_error("module t; wire [0:3] w; endmodule");
}

TEST(Sim, RecursiveInstantiationRejected)
{
    std::shared_ptr<const SourceFile> f =
        parse("module t; t u (); endmodule");
    EXPECT_THROW(elaborate(f, "t"), ElabError);
}

} // namespace
