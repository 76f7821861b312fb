// Package corpus deterministically synthesizes the Verilog world this
// reproduction curates: realistic parameterized RTL modules across ~20
// design families, license and proprietary headers, repository layouts with
// duplicates and junk files, and the copyright-protected corpus used by the
// infringement benchmark. It stands in for GitHub's ~1.3M real Verilog
// files.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// Module is one generated Verilog module.
type Module struct {
	Family string
	Name   string
	Source string
}

// Families lists the design families the generator knows, ordered by
// popularity (the Zipf order used for canonical emission). veval's problem
// suite draws on the same families, which is what lets a model trained on
// FreeSet solve a nonzero fraction of VerilogEval-style problems (the
// paper's functional-improvement mechanism).
var Families = []string{
	"counter", "adder", "mux2", "shiftreg", "comparator", "alu",
	"mux4", "subtractor", "gray", "parity", "regfile", "decoder",
	"priority_encoder", "clkdiv", "edgedet", "absval", "minmax",
	"popcount", "seqdet", "addsub",
}

// pick returns a random element.
func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

func pick2(rng *rand.Rand, opts ...int) int { return opts[rng.Intn(len(opts))] }

// synonyms provide the non-canonical port spellings. Canonical modules use
// the map key itself; non-canonical instances draw an alternative, so their
// bodies do not transfer verbatim onto the canonical problem interfaces —
// corpus coverage of a problem therefore comes from canonical instances
// only, which is the knob Table II is calibrated with.
var synonyms = map[string][]string{
	"a":        {"in0", "x", "opa", "lhs", "da"},
	"b":        {"in1", "y2", "opb", "rhs", "db"},
	"sum":      {"s_out", "total", "result", "acc"},
	"diff":     {"d_out", "delta", "res"},
	"borrow":   {"bout", "brw", "under"},
	"sel":      {"s", "select", "choose"},
	"y":        {"out", "dout", "o", "res"},
	"q":        {"count", "val", "data_q", "o_q"},
	"d":        {"din", "sin", "bit_in"},
	"clk":      {"clock", "clk_i", "ck"},
	"rst":      {"reset", "rst_i", "clr"},
	"en":       {"enable", "ce", "ena"},
	"in":       {"data_in", "vec", "i_bus"},
	"out":      {"data_out", "enc", "o_bus"},
	"valid":    {"vld", "any", "hit"},
	"eq":       {"equal", "same", "is_eq"},
	"lt":       {"less", "below", "is_lt"},
	"gt":       {"greater", "above", "is_gt"},
	"bin":      {"binary", "b_in", "value"},
	"gray":     {"g_out", "gcode", "enc_g"},
	"data":     {"payload", "word", "d_in"},
	"parity":   {"p_bit", "par", "chk"},
	"op":       {"opcode", "func", "operation"},
	"we":       {"wr_en", "wen", "write"},
	"waddr":    {"wr_addr", "wa", "windex"},
	"wdata":    {"wr_data", "wd", "wval"},
	"raddr":    {"rd_addr", "ra", "rindex"},
	"rdata":    {"rd_data", "rd", "rval"},
	"sig":      {"signal", "line", "s_in"},
	"pulse":    {"tick", "edge_o", "strobe"},
	"min":      {"lo", "smallest", "m_min"},
	"max":      {"hi", "largest", "m_max"},
	"mode":     {"sub_en", "ctl", "dir"},
	"din":      {"ser_in", "bitstream", "d_i"},
	"dout":     {"ser_out", "o_bit", "d_o"},
	"count":    {"ones", "total_set", "n_bits"},
	"detected": {"found", "match", "seen"},
	"clk_out":  {"clk_div", "slow_clk", "co"},
}

// names resolves a list of canonical port names for one module instance.
type names struct {
	rng   *rand.Rand
	canon bool
	used  map[string]string
}

func newNames(rng *rand.Rand, canon bool) *names {
	return &names{rng: rng, canon: canon, used: map[string]string{}}
}

func (n *names) p(canonical string) string {
	if n.canon {
		return canonical
	}
	if v, ok := n.used[canonical]; ok {
		return v
	}
	v := canonical
	if alts, ok := synonyms[canonical]; ok && n.rng.Intn(4) != 0 {
		v = alts[n.rng.Intn(len(alts))]
	}
	n.used[canonical] = v
	return v
}

// modName picks the module's own name.
func (n *names) modName(canonical string, alts ...string) string {
	if n.canon {
		return canonical
	}
	suffix := ""
	switch n.rng.Intn(4) {
	case 0:
		suffix = fmt.Sprintf("_%d", n.rng.Intn(100))
	case 1:
		suffix = pick(n.rng, "_core", "_unit", "_top", "_mod")
	}
	return pick(n.rng, append(alts, canonical)...) + suffix
}

// CanonWidths is the width set shared between canonical corpus emission and
// the veval problem suite: a model's corpus coverage of a (family, width)
// combination is exactly what makes the corresponding problem solvable.
var CanonWidths = []int{2, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64}

var (
	genMu       sync.Mutex
	forcedWidth int
)

// GenerateCanonical deterministically produces the canonical module of a
// family at a given width — veval's reference implementations.
func GenerateCanonical(family string, width int) Module {
	genMu.Lock()
	defer genMu.Unlock()
	forcedWidth = width
	defer func() { forcedWidth = 0 }()
	return Generate(rand.New(rand.NewSource(1)), family, true)
}

// widthFor picks a vector width; canonical modules draw from CanonWidths.
func widthFor(rng *rand.Rand, canon bool) int {
	if forcedWidth > 0 {
		return forcedWidth
	}
	if canon {
		return CanonWidths[rng.Intn(len(CanonWidths))]
	}
	return pick2(rng, 4, 8, 8, 16, 32)
}

// familyZipf draws a family with Zipfian weights: counters and adders are
// everywhere on GitHub, sequence detectors are rare. The skew is what makes
// extra training data saturate (a base model already knows the common
// families; FreeSet mostly adds the tail) — the diminishing-returns shape
// of Table II.
func familyZipf(rng *rand.Rand) string {
	total := 0.0
	for i := range Families {
		total += 1 / float64(i+1)
	}
	r := rng.Float64() * total
	for i, f := range Families {
		r -= 1 / float64(i+1)
		if r <= 0 {
			return f
		}
	}
	return Families[len(Families)-1]
}

// Generate produces one module of the given family ("" = random family).
// Canonical naming (canon=true) fixes the interface to the form veval's
// problems use, so that corpus exposure transfers to benchmark problems.
func Generate(rng *rand.Rand, family string, canon bool) Module {
	if family == "" {
		if canon {
			family = familyZipf(rng)
		} else {
			family = Families[rng.Intn(len(Families))]
		}
	}
	g, ok := generators[family]
	if !ok {
		g = genCounter
	}
	return g(rng, canon)
}

var generators map[string]func(*rand.Rand, bool) Module

func init() {
	generators = map[string]func(*rand.Rand, bool) Module{
		"counter":          genCounter,
		"adder":            genAdder,
		"subtractor":       genSubtractor,
		"mux2":             genMux2,
		"mux4":             genMux4,
		"decoder":          genDecoder,
		"priority_encoder": genPriorityEncoder,
		"comparator":       genComparator,
		"shiftreg":         genShiftReg,
		"gray":             genGray,
		"parity":           genParity,
		"alu":              genALU,
		"regfile":          genRegfile,
		"clkdiv":           genClkDiv,
		"edgedet":          genEdgeDet,
		"absval":           genAbs,
		"minmax":           genMinMax,
		"popcount":         genPopcount,
		"seqdet":           genSeqDet,
		"addsub":           genAddSub,
	}
}

func genCounter(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("counter", "up_counter", "cnt", "binary_counter")
	clk, rst, q := nm.p("clk"), nm.p("rst"), nm.p("q")
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    output reg [%d:0] %s
);
  always @(posedge %s) begin
    if (%s)
      %s <= %d'd0;
    else
      %s <= %s + 1;
  end
endmodule`, name, clk, rst, w-1, q, clk, rst, q, w, q, q)
	return Module{Family: "counter", Name: name, Source: src}
}

func genAdder(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("adder", "add_unit", "sum_block")
	a, b, sum := nm.p("a"), nm.p("b"), nm.p("sum")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    output [%d:0] %s
);
  assign %s = {1'b0, %s} + {1'b0, %s};
endmodule`, name, w-1, a, w-1, b, w, sum, sum, a, b)
	return Module{Family: "adder", Name: name, Source: src}
}

func genSubtractor(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("subtractor", "sub_unit", "diff_block")
	a, b, diff, borrow := nm.p("a"), nm.p("b"), nm.p("diff"), nm.p("borrow")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    output [%d:0] %s,
    output        %s
);
  assign {%s, %s} = {1'b0, %s} - {1'b0, %s};
endmodule`, name, w-1, a, w-1, b, w-1, diff, borrow, borrow, diff, a, b)
	return Module{Family: "subtractor", Name: name, Source: src}
}

func genMux2(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("mux2", "mux_2to1", "sel_mux", "data_mux")
	a, b, sel, y := nm.p("a"), nm.p("b"), nm.p("sel"), nm.p("y")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    input         %s,
    output [%d:0] %s
);
  assign %s = %s ? %s : %s;
endmodule`, name, w-1, a, w-1, b, sel, w-1, y, y, sel, b, a)
	return Module{Family: "mux2", Name: name, Source: src}
}

func genMux4(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("mux4", "mux_4to1", "quad_mux")
	sel, y := nm.p("sel"), nm.p("y")
	d := []string{"d0", "d1", "d2", "d3"}
	if !canon {
		base := pick(rng, "d", "in", "src")
		for i := range d {
			d[i] = fmt.Sprintf("%s%d", base, i)
		}
	}
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    input  [%d:0] %s,
    input  [%d:0] %s,
    input  [1:0]  %s,
    output reg [%d:0] %s
);
  always @(*) begin
    case (%s)
      2'd0: %s = %s;
      2'd1: %s = %s;
      2'd2: %s = %s;
      default: %s = %s;
    endcase
  end
endmodule`, name, w-1, d[0], w-1, d[1], w-1, d[2], w-1, d[3], sel, w-1, y,
		sel, y, d[0], y, d[1], y, d[2], y, d[3])
	return Module{Family: "mux4", Name: name, Source: src}
}

func genDecoder(rng *rand.Rand, canon bool) Module {
	nm := newNames(rng, canon)
	name := nm.modName("decoder3to8", "dec38", "addr_decoder")
	sel, en, y := nm.p("sel"), nm.p("en"), nm.p("y")
	src := fmt.Sprintf(`module %s (
    input  [2:0] %s,
    input        %s,
    output reg [7:0] %s
);
  always @(*) begin
    if (%s)
      %s = 8'b1 << %s;
    else
      %s = 8'b0;
  end
endmodule`, name, sel, en, y, en, y, sel, y)
	return Module{Family: "decoder", Name: name, Source: src}
}

func genPriorityEncoder(rng *rand.Rand, canon bool) Module {
	nm := newNames(rng, canon)
	name := nm.modName("priority_encoder", "prio_enc", "first_one")
	in, out, valid := nm.p("in"), nm.p("out"), nm.p("valid")
	src := fmt.Sprintf(`module %s (
    input  [7:0] %s,
    output reg [2:0] %s,
    output reg       %s
);
  integer i;
  always @(*) begin
    %s = 3'd0;
    %s = 1'b0;
    for (i = 7; i >= 0; i = i - 1) begin
      if (%s[i] && !%s) begin
        %s = i[2:0];
        %s = 1'b1;
      end
    end
  end
endmodule`, name, in, out, valid, out, valid, in, valid, out, valid)
	return Module{Family: "priority_encoder", Name: name, Source: src}
}

func genComparator(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("comparator", "cmp_unit", "magnitude_cmp")
	a, b, eq, lt, gt := nm.p("a"), nm.p("b"), nm.p("eq"), nm.p("lt"), nm.p("gt")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    output        %s,
    output        %s,
    output        %s
);
  assign %s = (%s == %s);
  assign %s = (%s < %s);
  assign %s = (%s > %s);
endmodule`, name, w-1, a, w-1, b, eq, lt, gt, eq, a, b, lt, a, b, gt, a, b)
	return Module{Family: "comparator", Name: name, Source: src}
}

func genShiftReg(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("shiftreg", "shift_register", "sipo")
	clk, rst, d, q := nm.p("clk"), nm.p("rst"), nm.p("d"), nm.p("q")
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    input %s,
    output reg [%d:0] %s
);
  always @(posedge %s) begin
    if (%s)
      %s <= %d'd0;
    else
      %s <= {%s[%d:0], %s};
  end
endmodule`, name, clk, rst, d, w-1, q, clk, rst, q, w, q, q, w-2, d)
	return Module{Family: "shiftreg", Name: name, Source: src}
}

func genGray(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("bin2gray", "gray_encoder", "gray_conv")
	bin, gray := nm.p("bin"), nm.p("gray")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    output [%d:0] %s
);
  assign %s = %s ^ (%s >> 1);
endmodule`, name, w-1, bin, w-1, gray, gray, bin, bin)
	return Module{Family: "gray", Name: name, Source: src}
}

func genParity(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("parity_gen", "parity", "even_parity")
	data, parity := nm.p("data"), nm.p("parity")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    output        %s
);
  assign %s = ^%s;
endmodule`, name, w-1, data, parity, parity, data)
	return Module{Family: "parity", Name: name, Source: src}
}

func genALU(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("alu", "alu_core", "arith_unit")
	a, b, op, y := nm.p("a"), nm.p("b"), nm.p("op"), nm.p("y")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    input  [2:0]  %s,
    output reg [%d:0] %s
);
  always @(*) begin
    case (%s)
      3'd0: %s = %s + %s;
      3'd1: %s = %s - %s;
      3'd2: %s = %s & %s;
      3'd3: %s = %s | %s;
      3'd4: %s = %s ^ %s;
      3'd5: %s = ~%s;
      3'd6: %s = %s << 1;
      default: %s = %s >> 1;
    endcase
  end
endmodule`, name, w-1, a, w-1, b, op, w-1, y,
		op, y, a, b, y, a, b, y, a, b, y, a, b, y, a, b, y, a, y, a, y, a)
	return Module{Family: "alu", Name: name, Source: src}
}

func genRegfile(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("regfile", "register_file", "rf8")
	clk, we, waddr, wdata, raddr, rdata :=
		nm.p("clk"), nm.p("we"), nm.p("waddr"), nm.p("wdata"), nm.p("raddr"), nm.p("rdata")
	mem := "mem"
	if !canon {
		mem = pick(rng, "mem", "regs", "bank", "storage")
	}
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    input [2:0] %s,
    input [%d:0] %s,
    input [2:0] %s,
    output [%d:0] %s
);
  reg [%d:0] %s [0:7];
  always @(posedge %s) begin
    if (%s)
      %s[%s] <= %s;
  end
  assign %s = %s[%s];
endmodule`, name, clk, we, waddr, w-1, wdata, raddr, w-1, rdata,
		w-1, mem, clk, we, mem, waddr, wdata, rdata, mem, raddr)
	return Module{Family: "regfile", Name: name, Source: src}
}

func genClkDiv(rng *rand.Rand, canon bool) Module {
	div := 4
	if !canon {
		div = pick2(rng, 2, 4, 8, 16)
	}
	nm := newNames(rng, canon)
	name := nm.modName("clkdiv", "clock_divider", "div_by_n")
	clk, rst, clkOut := nm.p("clk"), nm.p("rst"), nm.p("clk_out")
	cnt := "cnt"
	if !canon {
		cnt = pick(rng, "cnt", "div_cnt", "ticks")
	}
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    output reg %s
);
  reg [7:0] %s;
  always @(posedge %s) begin
    if (%s) begin
      %s <= 8'd0;
      %s <= 1'b0;
    end else if (%s == 8'd%d) begin
      %s <= 8'd0;
      %s <= ~%s;
    end else begin
      %s <= %s + 1;
    end
  end
endmodule`, name, clk, rst, clkOut, cnt, clk, rst, cnt, clkOut,
		cnt, div-1, cnt, clkOut, clkOut, cnt, cnt)
	return Module{Family: "clkdiv", Name: name, Source: src}
}

func genEdgeDet(rng *rand.Rand, canon bool) Module {
	nm := newNames(rng, canon)
	name := nm.modName("edge_detector", "rising_edge", "edge_det")
	clk, sig, pulse := nm.p("clk"), nm.p("sig"), nm.p("pulse")
	prev := "prev"
	if !canon {
		prev = pick(rng, "prev", "last", "sig_d")
	}
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    output %s
);
  reg %s;
  always @(posedge %s)
    %s <= %s;
  assign %s = %s & ~%s;
endmodule`, name, clk, sig, pulse, prev, clk, prev, sig, pulse, sig, prev)
	return Module{Family: "edgedet", Name: name, Source: src}
}

func genAbs(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("absval", "abs_unit", "magnitude")
	in, out := nm.p("in"), nm.p("out")
	src := fmt.Sprintf(`module %s (
    input  signed [%d:0] %s,
    output [%d:0] %s
);
  assign %s = %s[%d] ? (~%s + 1'b1) : %s;
endmodule`, name, w-1, in, w-1, out, out, in, w-1, in, in)
	return Module{Family: "absval", Name: name, Source: src}
}

func genMinMax(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("minmax", "min_max", "extrema")
	a, b, mn, mx := nm.p("a"), nm.p("b"), nm.p("min"), nm.p("max")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    output [%d:0] %s,
    output [%d:0] %s
);
  assign %s = (%s < %s) ? %s : %s;
  assign %s = (%s < %s) ? %s : %s;
endmodule`, name, w-1, a, w-1, b, w-1, mn, w-1, mx,
		mn, a, b, a, b, mx, a, b, b, a)
	return Module{Family: "minmax", Name: name, Source: src}
}

func genPopcount(rng *rand.Rand, canon bool) Module {
	nm := newNames(rng, canon)
	name := nm.modName("popcount", "ones_counter", "bit_count")
	in, count := nm.p("in"), nm.p("count")
	src := fmt.Sprintf(`module %s (
    input  [7:0] %s,
    output reg [3:0] %s
);
  integer i;
  always @(*) begin
    %s = 4'd0;
    for (i = 0; i < 8; i = i + 1)
      %s = %s + {3'b0, %s[i]};
  end
endmodule`, name, in, count, count, count, count, in)
	return Module{Family: "popcount", Name: name, Source: src}
}

func genSeqDet(rng *rand.Rand, canon bool) Module {
	nm := newNames(rng, canon)
	name := nm.modName("seq101", "seq_detector", "pattern_101")
	clk, rst, din, det := nm.p("clk"), nm.p("rst"), nm.p("din"), nm.p("detected")
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    input %s,
    output reg %s
);
  localparam S0 = 2'd0;
  localparam S1 = 2'd1;
  localparam S2 = 2'd2;
  reg [1:0] state;
  always @(posedge %s) begin
    if (%s) begin
      state <= S0;
      %s <= 1'b0;
    end else begin
      %s <= 1'b0;
      case (state)
        S0: state <= %s ? S1 : S0;
        S1: state <= %s ? S1 : S2;
        S2: begin
          if (%s) begin
            %s <= 1'b1;
            state <= S1;
          end else begin
            state <= S0;
          end
        end
        default: state <= S0;
      endcase
    end
  end
endmodule`, name, clk, rst, din, det, clk, rst, det, det, din, din, din, det)
	return Module{Family: "seqdet", Name: name, Source: src}
}

func genAddSub(rng *rand.Rand, canon bool) Module {
	w := widthFor(rng, canon)
	nm := newNames(rng, canon)
	name := nm.modName("addsub", "add_sub", "arith_as")
	a, b, mode, y := nm.p("a"), nm.p("b"), nm.p("mode"), nm.p("y")
	src := fmt.Sprintf(`module %s (
    input  [%d:0] %s,
    input  [%d:0] %s,
    input         %s,
    output [%d:0] %s
);
  assign %s = %s ? (%s - %s) : (%s + %s);
endmodule`, name, w-1, a, w-1, b, mode, w-1, y, y, mode, a, b, a, b)
	return Module{Family: "addsub", Name: name, Source: src}
}

// CorruptSyntax damages a module's source so it fails the syntax check
// (simulating broken files in the wild).
func CorruptSyntax(rng *rand.Rand, src string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.Replace(src, "endmodule", "", 1)
	case 1:
		return strings.Replace(src, ");", ");;(", 1)
	case 2:
		return strings.Replace(src, "assign", "assgin kk", 1) + "\n)"
	default:
		out := strings.Replace(src, "begin", "begin begin (", 1)
		if out == src {
			// Assign-only module without a begin: break the header instead.
			out = strings.Replace(src, "module", "module (", 1)
		}
		return out
	}
}

// CanonVariant rewrites a canonical module into a behavioral near-miss with
// the identical interface: an off-by-one, a flipped operator, an inverted
// select. The rewrites keep the source parseable and simulable.
func CanonVariant(rng *rand.Rand, src string) string {
	type rewrite struct{ from, to string }
	candidates := []rewrite{
		{"q + 1", "q + 2"},
		{"a + b", "a - b"},
		{"a - b", "a + b"},
		{"sel ? b : a", "sel ? a : b"},
		{"(a < b)", "(a > b)"},
		{"bin ^ (bin >> 1)", "bin ^ (bin << 1)"},
		{"^data", "~^data"},
		{"& ~prev", "| ~prev"},
		{"<< sel", ">> sel"},
		{"mode ? (a - b) : (a + b)", "mode ? (a + b) : (a - b)"},
		{"q + 1", "q - 1"},
		{"{q[", "{~q["},
	}
	order := rng.Perm(len(candidates))
	for _, i := range order {
		c := candidates[i]
		if strings.Contains(src, c.from) {
			return strings.Replace(src, c.from, c.to, 1)
		}
	}
	// Fallback: invert the first output assignment's RHS.
	if i := strings.Index(src, "assign "); i >= 0 {
		if j := strings.Index(src[i:], "= "); j >= 0 {
			k := i + j + 2
			return src[:k] + "~(" + strings.Replace(src[k:], ";", ");", 1)
		}
	}
	return src
}

// MutateIdentifiers renames the module and tweaks literals, producing a
// near-duplicate (for dedup realism: files copied between repos with small
// local edits).
func MutateIdentifiers(rng *rand.Rand, src string) string {
	out := src
	if i := strings.Index(out, "module "); i >= 0 {
		j := i + len("module ")
		k := j
		for k < len(out) && (out[k] == '_' || out[k] >= 'a' && out[k] <= 'z' || out[k] >= '0' && out[k] <= '9') {
			k++
		}
		out = out[:j] + out[j:k] + fmt.Sprintf("_v%d", rng.Intn(10)) + out[k:]
	}
	// Append a harmless localized edit.
	out = strings.Replace(out, "endmodule",
		fmt.Sprintf("  // local fix %d\nendmodule", rng.Intn(1000)), 1)
	return out
}
