package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// ProtectedFile is one copyright-protected Verilog file: a proprietary
// header plus a lexically distinctive "secret IP" implementation. The same
// files double as (a) the benchmark's protected reference corpus (§III-A)
// and (b) the contamination injected into the simulated GitHub world.
type ProtectedFile struct {
	Name    string
	Company string
	Source  string // header + body
	Body    string // code only
	// HasEmbeddedKey marks files carrying key material in comments (the
	// paper reports finding "possible encryption keys").
	HasEmbeddedKey bool
}

// BuildProtectedCorpus generates n protected files deterministically.
func BuildProtectedCorpus(seed int64, n int) []ProtectedFile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ProtectedFile, 0, n)
	for i := 0; i < n; i++ {
		company := companies[rng.Intn(len(companies))]
		body, hasKey := protectedBody(rng, i)
		header := proprietaryHeader(rng, company)
		out = append(out, ProtectedFile{
			Name:           fmt.Sprintf("ip_%04d.v", i),
			Company:        company,
			Source:         header + body,
			Body:           body,
			HasEmbeddedKey: hasKey,
		})
	}
	return out
}

// protectedBody builds a distinctive module. Random "magic" constants make
// every file lexically unique, so cosine similarity cleanly separates
// regurgitation from coincidence.
func protectedBody(rng *rand.Rand, idx int) (string, bool) {
	switch rng.Intn(4) {
	case 0:
		return cipherRound(rng, idx)
	case 1:
		return scrambler(rng, idx)
	case 2:
		return checksum(rng, idx)
	default:
		return busBridge(rng, idx)
	}
}

func hex32(rng *rand.Rand) string { return fmt.Sprintf("32'h%08X", rng.Uint32()) }

// ident invents a fresh identifier so every protected file has its own
// vocabulary; shared structure alone then cannot push cosine similarity
// over the violation threshold.
func ident(rng *rand.Rand, role string) string {
	syll := []string{"ka", "zor", "mel", "tri", "vex", "qua", "lum", "dra",
		"sil", "nor", "fex", "bol", "ryn", "tox", "gim", "pax"}
	return fmt.Sprintf("%s_%s%s%d", role, syll[rng.Intn(len(syll))], syll[rng.Intn(len(syll))], rng.Intn(100))
}

func cipherRound(rng *rand.Rand, idx int) (string, bool) {
	name := fmt.Sprintf("%s_round_%04d", ident(rng, "cr"), idx)
	din := ident(rng, "d")
	key := ident(rng, "k")
	dout := ident(rng, "q")
	hasKey := rng.Intn(3) == 0
	keyComment := ""
	if hasKey {
		keyComment = fmt.Sprintf("  // encryption_key = 64'h%08X_%08X\n", rng.Uint32(), rng.Uint32())
	}
	stages := 4 + rng.Intn(8)
	var sb strings.Builder
	fmt.Fprintf(&sb, `module %s (
    input  [31:0] %s,
    input  [31:0] %s,
    output [31:0] %s
);
%s`, name, din, key, dout, keyComment)
	prev := din
	for s := 0; s < stages; s++ {
		cur := ident(rng, "st")
		rot := 1 + rng.Intn(15)
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&sb, "  wire [31:0] %s = %s ^ %s;\n", cur, prev, hex32(rng))
		case 1:
			fmt.Fprintf(&sb, "  wire [31:0] %s = {%s[%d:0], %s[31:%d]} + %s;\n",
				cur, prev, 31-rot, prev, 32-rot, hex32(rng))
		case 2:
			fmt.Fprintf(&sb, "  wire [31:0] %s = %s ^ (%s + %s);\n", cur, prev, key, hex32(rng))
		case 3:
			fmt.Fprintf(&sb, "  wire [31:0] %s = (%s + %s) ^ {%s[7:0], %s[31:8]};\n",
				cur, prev, hex32(rng), prev, prev)
		case 4:
			fmt.Fprintf(&sb, "  wire [31:0] %s = ~%s + (%s ^ %s);\n", cur, prev, key, hex32(rng))
		case 5:
			fmt.Fprintf(&sb, "  wire [31:0] %s = {%s[15:0], %s[31:16]} & (%s | %s);\n",
				cur, prev, prev, key, hex32(rng))
		default:
			fmt.Fprintf(&sb, "  wire [31:0] %s = (%s << %d) | (%s >> %d);\n",
				cur, prev, rot, prev, 32-rot)
		}
		prev = cur
	}
	fmt.Fprintf(&sb, "  assign %s = {%s[15:0], %s[31:16]};\nendmodule", dout, prev, prev)
	return sb.String(), hasKey
}

func scrambler(rng *rand.Rand, idx int) (string, bool) {
	n := 8 + rng.Intn(24) // LFSR length 8..31
	taps := fmt.Sprintf("%d'h%X", n, (rng.Int63()&((1<<n)-1))|1)
	seedv := fmt.Sprintf("%d'h%X", n, (rng.Int63()&((1<<n)-1))|1)
	name := fmt.Sprintf("%s_%04d", ident(rng, "scr"), idx)
	clk := ident(rng, "ck")
	rst := ident(rng, "rs")
	din := ident(rng, "si")
	dout := ident(rng, "so")
	state := ident(rng, "lf")
	fb := ident(rng, "fb")
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    input %s,
    output %s
);
  reg [%d:0] %s;
  wire %s = ^(%s & %s);
  always @(posedge %s) begin
    if (%s)
      %s <= %s;
    else
      %s <= {%s[%d:0], %s};
  end
  assign %s = %s ^ %s[%d];
endmodule`, name, clk, rst, din, dout, n-1, state, fb, state, taps,
		clk, rst, state, seedv, state, state, n-2, fb, dout, din, state, n-1)
	return src, false
}

func checksum(rng *rand.Rand, idx int) (string, bool) {
	w := []int{8, 16, 24, 32}[rng.Intn(4)]
	poly := fmt.Sprintf("%d'h%X", w, (rng.Int63()&((1<<w)-1))|1)
	init := fmt.Sprintf("%d'h%X", w, rng.Int63()&((1<<w)-1))
	name := fmt.Sprintf("%s_%04d", ident(rng, "chk"), idx)
	clk := ident(rng, "ck")
	rst := ident(rng, "rs")
	data := ident(rng, "db")
	valid := ident(rng, "vld")
	crc := ident(rng, "cs")
	next := ident(rng, "nx")
	src := fmt.Sprintf(`module %s (
    input %s,
    input %s,
    input [%d:0] %s,
    input %s,
    output reg [%d:0] %s
);
  integer i;
  reg [%d:0] %s;
  always @(*) begin
    %s = %s ^ %s;
    for (i = 0; i < %d; i = i + 1) begin
      if (%s[%d])
        %s = {%s[%d:0], 1'b0} ^ %s;
      else
        %s = {%s[%d:0], 1'b0};
    end
  end
  always @(posedge %s) begin
    if (%s)
      %s <= %s;
    else if (%s)
      %s <= %s;
  end
endmodule`, name, clk, rst, w-1, data, valid, w-1, crc, w-1, next,
		next, crc, data, w, next, w-1, next, next, w-2, poly, next, next, w-2,
		clk, rst, crc, init, valid, crc, next)
	return src, false
}

func busBridge(rng *rand.Rand, idx int) (string, bool) {
	name := fmt.Sprintf("%s_%04d", ident(rng, "brg"), idx)
	addr := ident(rng, "ad")
	wdata := ident(rng, "wd")
	wen := ident(rng, "we")
	rdata := ident(rng, "rd")
	ctrl := ident(rng, "cr")
	stat := ident(rng, "sr")
	entries := 6 + rng.Intn(12)
	var sb strings.Builder
	fmt.Fprintf(&sb, `module %s (
    input  [7:0]  %s,
    input  [31:0] %s,
    input         %s,
    output reg [31:0] %s
);
  reg [31:0] %s;
  reg [31:0] %s;
  always @(*) begin
    case (%s)
`, name, addr, wdata, wen, rdata, ctrl, stat, addr)
	used := map[int]bool{}
	for e := 0; e < entries; e++ {
		a := rng.Intn(256)
		for used[a] {
			a = rng.Intn(256)
		}
		used[a] = true
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&sb, "      8'd%d: %s = %s;\n", a, rdata, ctrl)
		case 1:
			fmt.Fprintf(&sb, "      8'd%d: %s = %s ^ %s;\n", a, rdata, stat, hex32(rng))
		case 2:
			fmt.Fprintf(&sb, "      8'd%d: %s = %s;\n", a, rdata, hex32(rng))
		case 3:
			fmt.Fprintf(&sb, "      8'd%d: %s = {%s[15:0], %s[31:16]};\n", a, rdata, ctrl, stat)
		case 4:
			fmt.Fprintf(&sb, "      8'd%d: %s = %s + %s;\n", a, rdata, stat, hex32(rng))
		case 5:
			fmt.Fprintf(&sb, "      8'd%d: %s = ~%s | %s;\n", a, rdata, ctrl, hex32(rng))
		default:
			fmt.Fprintf(&sb, "      8'd%d: %s = %s & %s;\n", a, rdata, stat, hex32(rng))
		}
	}
	fmt.Fprintf(&sb, `      default: %s = 32'h%08X | {24'b0, %s};
    endcase
  end
  always @(*) begin
    %s = %s ? %s : 32'b0;
    %s = {%s[15:0], 16'h%04X};
  end
endmodule`, rdata, rng.Uint32(), addr, ctrl, wen, wdata, stat, wdata, rng.Intn(0xFFFF))
	return sb.String(), false
}

// GeneralText generates n "pre-training documents" of generic English and
// software-flavored text — the base models' world knowledge, standing in
// for the web-scale pre-training mix of Llama/CodeGen-class models.
func GeneralText(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	subjects := []string{"the compiler", "a register", "the network", "this function",
		"the scheduler", "an interrupt", "the cache", "a pipeline", "the kernel", "the parser"}
	verbs := []string{"handles", "ignores", "processes", "transforms", "rejects",
		"buffers", "emits", "decodes", "allocates", "retires"}
	objects := []string{"each request", "every packet", "the input stream", "stale data",
		"the configuration", "all branches", "pending writes", "the event queue"}
	snippets := []string{
		"for (int i = 0; i < n; i++) { sum += a[i]; }",
		"def main():\n    print('hello world')",
		"if err != nil { return err }",
		"SELECT name FROM users WHERE active = 1;",
		"while (!done) { step(); }",
	}
	docs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		sentences := 20 + rng.Intn(60)
		for s := 0; s < sentences; s++ {
			fmt.Fprintf(&sb, "%s %s %s. ",
				subjects[rng.Intn(len(subjects))],
				verbs[rng.Intn(len(verbs))],
				objects[rng.Intn(len(objects))])
			if rng.Intn(8) == 0 {
				sb.WriteString(snippets[rng.Intn(len(snippets))])
				sb.WriteString(" ")
			}
		}
		docs = append(docs, sb.String())
	}
	return docs
}
