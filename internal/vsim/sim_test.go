package vsim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"freehw/internal/vlog"
)

// simOf parses, elaborates, and simulates src's module top, returning the
// simulator (caller closes) and the captured $display output.
func simOf(t *testing.T, src, top string, limit uint64) (*Simulator, string) {
	t.Helper()
	f, err := vlog.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	var out strings.Builder
	s := New(d, Options{Output: &out, Seed: 1})
	t.Cleanup(s.Close)
	if err := s.Run(limit); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	return s, out.String()
}

func peek(t *testing.T, s *Simulator, name string) Value {
	t.Helper()
	v, err := s.Peek(name)
	if err != nil {
		t.Fatalf("peek %s: %v", name, err)
	}
	return v
}

func peekU(t *testing.T, s *Simulator, name string) uint64 {
	t.Helper()
	v := peek(t, s, name)
	u, ok := v.Uint64()
	if !ok {
		t.Fatalf("%s has x/z bits: %s", name, v)
	}
	return u
}

func TestValueBasics(t *testing.T) {
	v := FromUint64(0xAB, 8)
	if v.String() != "10101011" {
		t.Fatalf("got %s", v.String())
	}
	if u, ok := v.Uint64(); !ok || u != 0xAB {
		t.Fatalf("Uint64 = %d, %v", u, ok)
	}
	z := NewZ(4)
	if z.String() != "zzzz" {
		t.Fatalf("got %s", z.String())
	}
	x := NewValue(4)
	if x.String() != "xxxx" {
		t.Fatalf("got %s", x.String())
	}
}

func TestValueArith(t *testing.T) {
	a := FromUint64(200, 8)
	b := FromUint64(100, 8)
	if got, _ := Add(a, b).Uint64(); got != 44 { // 300 mod 256
		t.Fatalf("add: %d", got)
	}
	if got, _ := Sub(b, a).Uint64(); got != 156 { // -100 mod 256
		t.Fatalf("sub: %d", got)
	}
	if got, _ := Mul(FromUint64(16, 8), FromUint64(17, 8)).Uint64(); got != 16 { // 272 mod 256
		t.Fatalf("mul: %d", got)
	}
	q, r := DivMod(FromUint64(77, 8), FromUint64(10, 8))
	if qu, _ := q.Uint64(); qu != 7 {
		t.Fatalf("div: %d", qu)
	}
	if ru, _ := r.Uint64(); ru != 7 {
		t.Fatalf("mod: %d", ru)
	}
}

func TestValueSignedDiv(t *testing.T) {
	a := FromInt64(-7, 8)
	b := FromInt64(2, 8)
	q, r := DivMod(a, b)
	if got, _ := q.Int64(); got != -3 {
		t.Fatalf("-7/2 = %d, want -3", got)
	}
	if got, _ := r.Int64(); got != -1 {
		t.Fatalf("-7%%2 = %d, want -1", got)
	}
}

func TestValueWideArith(t *testing.T) {
	// 128-bit add with carry across words.
	a := NewZero(128)
	a.A[0] = ^uint64(0)
	b := FromUint64(1, 128)
	sum := Add(a, b)
	if sum.A[0] != 0 || sum.A[1] != 1 {
		t.Fatalf("wide add: %x %x", sum.A[1], sum.A[0])
	}
	// 128-bit decimal printing: 2^64 = 18446744073709551616.
	p := NewZero(128)
	p.A[1] = 1
	if s := DecimalString(p); s != "18446744073709551616" {
		t.Fatalf("decimal: %s", s)
	}
}

func TestValueXPropagation(t *testing.T) {
	x := NewValue(8)
	d := FromUint64(5, 8)
	if Add(x, d).IsDefined() {
		t.Fatal("x + 5 should be x")
	}
	// 0 & x == 0, 1 | x == 1
	zero := FromUint64(0, 1)
	one := FromUint64(1, 1)
	xb := NewValue(1)
	if got := And(zero, xb); !got.IsZero() {
		t.Fatalf("0&x = %s", got)
	}
	if got, _ := Or(one, xb).Uint64(); got != 1 {
		t.Fatalf("1|x wrong")
	}
	if Xor(one, xb).IsDefined() {
		t.Fatal("1^x should be x")
	}
}

func TestResolveDrivers(t *testing.T) {
	z := NewZ(4)
	v5 := FromUint64(5, 4)
	v3 := FromUint64(3, 4)
	if got := Resolve([]Value{z, v5}, 4); !got.Equal4(v5) {
		t.Fatalf("z vs 5: %s", got)
	}
	got := Resolve([]Value{v5, v3}, 4)
	// 0101 vs 0011: bits 1,2 conflict -> x; bits 0,3: 1 vs 1 = 1? bit0: 1vs1=1, bit3: 0vs0=0
	if got.String() != "0xx1" {
		t.Fatalf("conflict resolve: %s", got)
	}
}

func TestSimCombinationalAssign(t *testing.T) {
	s, _ := simOf(t, `
module m;
  wire [7:0] y;
  reg [7:0] a, b;
  assign y = a + b;
  initial begin
    a = 10; b = 32;
  end
endmodule`, "m", 100)
	if got := peekU(t, s, "y"); got != 42 {
		t.Fatalf("y = %d, want 42", got)
	}
}

func TestSimClockedCounter(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg clk = 0;
  reg rst = 1;
  reg [7:0] q;
  always #5 clk = ~clk;
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
  initial begin
    #12 rst = 0;
    #100 $finish;
  end
endmodule`, "m", 1000)
	// posedges at 5 (rst), 15,25,...: q increments from t=15 on.
	if got := peekU(t, s, "q"); got != 10 {
		t.Fatalf("q = %d, want 10", got)
	}
	if !s.Finished() {
		t.Fatal("should have hit $finish")
	}
}

func TestSimNonblockingSwap(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg clk = 0;
  reg [3:0] a = 4'd1, b = 4'd2;
  always #5 clk = ~clk;
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
  initial #22 $finish;
endmodule`, "m", 100)
	// Two posedges (t=5,15): swap twice returns to original.
	if a := peekU(t, s, "a"); a != 1 {
		t.Fatalf("a = %d, want 1", a)
	}
	if b := peekU(t, s, "b"); b != 2 {
		t.Fatalf("b = %d, want 2", b)
	}
}

func TestSimBlockingVsNonblocking(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg clk = 0;
  reg [3:0] x = 1, y;
  reg [3:0] p = 1, q;
  always #5 clk = ~clk;
  // Blocking: y sees updated x.
  always @(posedge clk) begin
    x = x + 1;
    y = x;
  end
  initial #8 $finish;
endmodule`, "m", 100)
	if y := peekU(t, s, "y"); y != 2 {
		t.Fatalf("blocking y = %d, want 2", y)
	}
}

func TestSimHierarchy(t *testing.T) {
	s, _ := simOf(t, `
module addsub(input [7:0] a, b, input sel, output [7:0] y);
  assign y = sel ? a - b : a + b;
endmodule
module m;
  reg [7:0] a = 50, b = 8;
  reg sel = 0;
  wire [7:0] y;
  addsub u0 (.a(a), .b(b), .sel(sel), .y(y));
  initial begin
    #10 sel = 1;
  end
endmodule`, "m", 5)
	if got := peekU(t, s, "y"); got != 58 {
		t.Fatalf("add: y = %d, want 58", got)
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := peekU(t, s, "y"); got != 42 {
		t.Fatalf("sub: y = %d, want 42", got)
	}
}

func TestSimParameterOverride(t *testing.T) {
	s, _ := simOf(t, `
module ct #(parameter W = 4, parameter INIT = 0) (output [W-1:0] q);
  assign q = INIT;
endmodule
module m;
  wire [7:0] q8;
  wire [3:0] q4;
  ct #(.W(8), .INIT(200)) u0 (q8);
  ct u1 (q4);
endmodule`, "m", 10)
	if got := peekU(t, s, "q8"); got != 200 {
		t.Fatalf("q8 = %d", got)
	}
	if got := peekU(t, s, "q4"); got != 0 {
		t.Fatalf("q4 = %d", got)
	}
}

func TestSimMemory(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg [7:0] mem [0:15];
  reg [7:0] rd, last;
  integer i;
  initial begin
    for (i = 0; i < 16; i = i + 1)
      mem[i] = i * 3;
    rd = mem[7];
    last = mem[15];
  end
endmodule`, "m", 10)
	if got := peekU(t, s, "rd"); got != 21 {
		t.Fatalf("rd = %d, want 21", got)
	}
	if got := peekU(t, s, "last"); got != 45 {
		t.Fatalf("mem[15] = %d, want 45", got)
	}
}

func TestSimFunction(t *testing.T) {
	s, _ := simOf(t, `
module m;
  function [7:0] fib;
    input [7:0] n;
    begin
      if (n < 2) fib = n;
      else fib = fib(n-1) + fib(n-2);
    end
  endfunction
  wire [7:0] f10 = fib(10);
endmodule`, "m", 10)
	if got := peekU(t, s, "f10"); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestSimTask(t *testing.T) {
	s, out := simOf(t, `
module m;
  reg [7:0] total = 0;
  task bump;
    input [7:0] n;
    output [7:0] r;
    begin
      r = n + 1;
      #2 $display("bump at %0t", $time);
    end
  endtask
  reg [7:0] res;
  initial begin
    bump(5, res);
    total = res;
  end
endmodule`, "m", 100)
	if got := peekU(t, s, "total"); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	if !strings.Contains(out, "bump at 2") {
		t.Fatalf("task timing broken: %q", out)
	}
}

func TestSimGenerate(t *testing.T) {
	s, _ := simOf(t, `
module m #(parameter N = 8) ();
  reg [N-1:0] a = 8'b1100_1010, b = 8'b1010_0101;
  wire [N-1:0] y;
  genvar i;
  generate
    for (i = 0; i < N; i = i + 1) begin : g
      assign y[i] = a[i] ^ b[i];
    end
  endgenerate
endmodule`, "m", 10)
	if got := peekU(t, s, "y"); got != 0b01101111 {
		t.Fatalf("y = %08b", got)
	}
}

func TestSimGatePrimitives(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg a = 1, b = 0;
  wire w_and, w_or, w_nand, w_xor, w_not;
  and g0 (w_and, a, b);
  or  g1 (w_or, a, b);
  nand g2 (w_nand, a, b);
  xor g3 (w_xor, a, b);
  not g4 (w_not, a);
endmodule`, "m", 10)
	checks := map[string]uint64{"w_and": 0, "w_or": 1, "w_nand": 1, "w_xor": 1, "w_not": 0}
	for name, want := range checks {
		if got := peekU(t, s, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestSimDisplayFormats(t *testing.T) {
	_, out := simOf(t, `
module m;
  reg [7:0] v = 8'hA5;
  reg signed [7:0] sv = -8'sd3;
  initial begin
    $display("d=%0d h=%h b=%b o=%0o", v, v, v, v);
    $display("signed=%0d", sv);
    $display("str=%s ch=%c", "hi", 8'h41);
    $display("pct=%%");
  end
endmodule`, "m", 10)
	for _, want := range []string{
		"d=165 h=a5 b=10100101 o=245",
		"signed=-3",
		"str=hi ch=A",
		"pct=%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestSimMonitorAndStrobe(t *testing.T) {
	_, out := simOf(t, `
module m;
  reg [3:0] v = 0;
  initial $monitor("mon v=%0d t=%0t", v, $time);
  initial begin
    #5 v = 1;
    #5 v = 2;
    v = 3; // same time step as v=2: monitor prints once with final value
    #5 $finish;
  end
endmodule`, "m", 100)
	if !strings.Contains(out, "mon v=0 t=0") ||
		!strings.Contains(out, "mon v=1 t=5") ||
		!strings.Contains(out, "mon v=3 t=10") {
		t.Fatalf("monitor output wrong:\n%s", out)
	}
	if strings.Contains(out, "mon v=2") {
		t.Fatalf("monitor should not see intermediate value:\n%s", out)
	}
}

func TestSimCasezWildcard(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg [3:0] in = 4'b1010;
  reg [1:0] sel;
  always @* begin
    casez (in)
      4'b1???: sel = 2'd3;
      4'b01??: sel = 2'd2;
      default: sel = 2'd0;
    endcase
  end
endmodule`, "m", 10)
	if got := peekU(t, s, "sel"); got != 3 {
		t.Fatalf("sel = %d, want 3", got)
	}
}

func TestSimSignedArith(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg signed [7:0] a = -5, b = 3;
  wire signed [7:0] sum = a + b;
  wire lt = a < b;
  wire signed [7:0] sr = a >>> 1;
  wire [7:0] usr = a >> 1;
endmodule`, "m", 10)
	v := peek(t, s, "sum")
	if got, _ := v.Int64(); got != -2 {
		t.Fatalf("sum = %d, want -2", got)
	}
	if got := peekU(t, s, "lt"); got != 1 {
		t.Fatalf("signed compare broken")
	}
	sr := peek(t, s, "sr")
	if got, _ := sr.Int64(); got != -3 { // -5 >>> 1 = -3 (arithmetic)
		t.Fatalf("sr = %d, want -3", got)
	}
	if got := peekU(t, s, "usr"); got != 0x7D { // logical shift of 0xFB
		t.Fatalf("usr = %x, want 7d", got)
	}
}

func TestSimPartSelects(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg [15:0] w = 16'hBEEF;
  wire [7:0] hi = w[15:8];
  wire [7:0] dyn;
  reg [3:0] base = 4;
  assign dyn = w[base +: 8];
  reg [15:0] target;
  initial begin
    target = 0;
    target[11:4] = 8'hFF;
  end
endmodule`, "m", 10)
	if got := peekU(t, s, "hi"); got != 0xBE {
		t.Fatalf("hi = %x", got)
	}
	if got := peekU(t, s, "dyn"); got != 0xEE { // bits 11:4 of BEEF
		t.Fatalf("dyn = %x", got)
	}
	if got := peekU(t, s, "target"); got != 0x0FF0 {
		t.Fatalf("target = %x", got)
	}
}

func TestSimConcatLHS(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg [3:0] a, b;
  reg c;
  initial {c, a, b} = 9'b1_1010_0101;
endmodule`, "m", 10)
	if got := peekU(t, s, "c"); got != 1 {
		t.Fatalf("c = %d", got)
	}
	if got := peekU(t, s, "a"); got != 0b1010 {
		t.Fatalf("a = %04b", got)
	}
	if got := peekU(t, s, "b"); got != 0b0101 {
		t.Fatalf("b = %04b", got)
	}
}

func TestSimSetInputStepTo(t *testing.T) {
	f, err := vlog.ParseFile(`
module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(f, "dff", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, Options{Seed: 1})
	defer s.Close()
	now := uint64(0)
	tick := func(dv uint64) {
		if err := s.SetInput("d", FromUint64(dv, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput("clk", FromUint64(0, 1)); err != nil {
			t.Fatal(err)
		}
		now += 5
		if err := s.StepTo(now); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput("clk", FromUint64(1, 1)); err != nil {
			t.Fatal(err)
		}
		now += 5
		if err := s.StepTo(now); err != nil {
			t.Fatal(err)
		}
	}
	tick(1)
	if got := peekU(t, s, "q"); got != 1 {
		t.Fatalf("q after d=1 tick: %d", got)
	}
	tick(0)
	if got := peekU(t, s, "q"); got != 0 {
		t.Fatalf("q after d=0 tick: %d", got)
	}
}

func TestSimWaitStatement(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg go = 0;
  reg [3:0] done = 0;
  initial begin
    wait (go) done = 7;
  end
  initial #20 go = 1;
endmodule`, "m", 100)
	if got := peekU(t, s, "done"); got != 7 {
		t.Fatalf("done = %d", got)
	}
}

func TestSimForeverClock(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg clk = 0;
  reg [7:0] n = 0;
  initial forever #5 clk = ~clk;
  always @(posedge clk) n <= n + 1;
  initial #52 $finish;
endmodule`, "m", 1000)
	if got := peekU(t, s, "n"); got != 5 {
		t.Fatalf("n = %d, want 5", got)
	}
}

func TestSimZeroDelayLoopDetected(t *testing.T) {
	f, err := vlog.ParseFile(`module m; reg a = 0; always a = ~a; endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(f, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, Options{Seed: 1})
	defer s.Close()
	if err := s.Run(10); err == nil {
		t.Fatal("zero-delay always loop should be detected")
	}
}

func TestSimCombinationalLoopSettlesToX(t *testing.T) {
	// assign a = ~a settles at x under 4-state semantics (no oscillation).
	s, _ := simOf(t, `module m; wire a; assign a = ~a; endmodule`, "m", 10)
	v := peek(t, s, "a")
	if v.IsDefined() {
		t.Fatalf("a = %s, want x", v)
	}
}

func TestSimNBAFeedbackLoopDetected(t *testing.T) {
	// A defined-value zero-delay NBA feedback loop must trip the delta guard.
	f, err := vlog.ParseFile(`module m; reg a = 0; always @(a) a <= ~a; endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(f, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, Options{Seed: 1, MaxDeltas: 1000})
	defer s.Close()
	if err := s.Run(10); err == nil {
		t.Fatal("NBA feedback loop should be detected")
	}
}

func TestSimUndrivenNetIsZ(t *testing.T) {
	s, _ := simOf(t, `module m; wire [3:0] w; endmodule`, "m", 10)
	v := peek(t, s, "w")
	if v.String() != "zzzz" {
		t.Fatalf("undriven wire = %s", v)
	}
}

func TestSimXInitialReg(t *testing.T) {
	s, _ := simOf(t, `module m; reg [3:0] r; endmodule`, "m", 10)
	v := peek(t, s, "r")
	if v.String() != "xxxx" {
		t.Fatalf("uninitialized reg = %s", v)
	}
}

func TestSimShiftRegisterPipeline(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg clk = 0;
  reg [7:0] d = 8'h11;
  reg [7:0] s1, s2, s3;
  always #5 clk = ~clk;
  always @(posedge clk) begin
    s1 <= d;
    s2 <= s1;
    s3 <= s2;
  end
  initial begin
    @(posedge clk); @(posedge clk); @(posedge clk);
    #1 $finish;
  end
endmodule`, "m", 1000)
	for _, n := range []string{"s1", "s2", "s3"} {
		if got := peekU(t, s, n); got != 0x11 {
			t.Fatalf("%s = %x", n, got)
		}
	}
}

func TestSimEventNamed(t *testing.T) {
	s, _ := simOf(t, `
module m;
  event ev;
  reg [3:0] hits = 0;
  initial begin
    #5 -> ev;
    #5 -> ev;
  end
  always @(ev) hits = hits + 1;
endmodule`, "m", 100)
	if got := peekU(t, s, "hits"); got != 2 {
		t.Fatalf("hits = %d", got)
	}
}

func TestSimDisableBreak(t *testing.T) {
	s, _ := simOf(t, `
module m;
  integer i;
  reg [7:0] found = 0;
  initial begin : search
    for (i = 0; i < 100; i = i + 1) begin
      if (i == 42) begin
        found = i;
        disable search;
      end
    end
    found = 99; // must not execute
  end
endmodule`, "m", 10)
	if got := peekU(t, s, "found"); got != 42 {
		t.Fatalf("found = %d", got)
	}
}

func TestSimTernaryXBlend(t *testing.T) {
	s, _ := simOf(t, `
module m;
  reg sel; // x
  reg [3:0] a = 4'b1010, b = 4'b1000;
  wire [3:0] y = sel ? a : b;
endmodule`, "m", 10)
	v := peek(t, s, "y")
	// a=1010 b=1000 (MSB first): bit1 differs -> x, others agree.
	if v.String() != "10x0" {
		t.Fatalf("y = %s, want 10x0", v)
	}
}

// A disable of a named block inside a function leaves that block, as it
// does in a process; it does not return from the function.
func TestSimFunctionDisableBlock(t *testing.T) {
	_, out := simOf(t, `
module m;
  function [7:0] f;
    input [7:0] a;
    begin
      f = a;
      begin : blk
        if (a > 3) disable blk;
        f = 99;
      end
      f = f + 1;
    end
  endfunction
  initial $display("f(5)=%0d f(2)=%0d", f(5), f(2));
endmodule`, "m", 10)
	if want := "f(5)=6 f(2)=100\n"; out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

// A function body may not wait, call a task or schedule an assignment:
// each such statement fails the run.
func TestSimFunctionBodyRules(t *testing.T) {
	for _, stmt := range []string{
		"#1 f = 0;",
		"@(posedge c) f = 0;",
		"wait (c) f = 0;",
		"forever f = 0;",
		"x <= y;",
		"x = #1 y;",
		"t;",
	} {
		f, err := vlog.ParseFile(`
module m;
  reg c = 0, x, y = 1;
  task t; x = 1; endtask
  function [7:0] f;
    input [7:0] a;
    begin
      ` + stmt + `
      f = a;
    end
  endfunction
  reg [7:0] r;
  initial r = f(1);
endmodule`)
		if err != nil {
			t.Fatalf("%s: parse: %v", stmt, err)
		}
		d, err := Elaborate(f, "m", nil)
		if err != nil {
			t.Fatalf("%s: elaborate: %v", stmt, err)
		}
		s := New(d, Options{Seed: 1})
		err = s.Run(10)
		s.Close()
		if err == nil || !strings.Contains(err.Error(), "inside a function") {
			t.Errorf("%s in a function: Run error %v, want one naming the function", stmt, err)
		}
	}
}

// A block-local of a function starts all-x once per call: a loop that
// re-enters its block within one call sees the value it left.
func TestSimFunctionBlockLocalOncePerCall(t *testing.T) {
	_, out := simOf(t, `
module m;
  function [7:0] count;
    input [7:0] n;
    integer i;
    begin
      count = 0;
      for (i = 0; i < n; i = i + 1) begin : body
        reg [7:0] seen;
        if (i == 0) begin
          if (seen !== 8'bx) count = 8'hee;
          seen = 0;
        end
        seen = seen + 1;
        if (count != 8'hee) count = seen;
      end
    end
  endfunction
  initial $display("%0d %0d", count(3), count(4));
endmodule`, "m", 10)
	if want := "3 4\n"; out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

// Close ends every process coroutine, a second Close does nothing, and a
// closed simulator refuses to run.
func TestSimCloseEndsEveryProcess(t *testing.T) {
	f, err := vlog.ParseFile(`module m; reg clk = 0; always #5 clk = ~clk; endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	newSim := func() *Simulator {
		d, err := Elaborate(f, "m", nil)
		if err != nil {
			t.Fatal(err)
		}
		return New(d, Options{Seed: 1})
	}
	base := runtime.NumGoroutine()
	sims := make([]*Simulator, 50)
	for i := range sims {
		sims[i] = newSim()
		if err := sims[i].Run(100); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	// Each process is a goroutine until it ends; the baseline may include a
	// transient goroutine of the test runtime, hence the slack.
	if n := runtime.NumGoroutine(); n < base+len(sims)/2 {
		t.Fatalf("%d goroutines with %d clocks running, baseline %d", n, len(sims), base)
	}
	for _, s := range sims {
		s.Close()
		s.Close()
		if err := s.Run(200); err == nil || !strings.Contains(err.Error(), "simulator is closed") {
			t.Fatalf("Run after Close: %v", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}

	s := newSim()
	s.Close()
	s.Close()
	if err := s.Run(100); err == nil || !strings.Contains(err.Error(), "simulator is closed") {
		t.Fatalf("Run after Close before Run: %v", err)
	}
}
