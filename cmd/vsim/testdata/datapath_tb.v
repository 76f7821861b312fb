// A signed datapath behind `define and `ifdef: multiply-accumulate with
// saturation, divide/modulo/power, reductions, shifts, indexed part-selects,
// a function with local variables and a loop, and a bench that reads the
// design's state through a hierarchical name.
`timescale 1ns / 1ps
`define WIDTH 16
`define SATURATE
`ifdef NEVER_DEFINED
module broken (
`else
`undef NEVER_DEFINED
`endif

module mac #(parameter W = `WIDTH) (
    input                       clk,
    input                       clear,
    input  signed [W-1:0]       x,
    input  signed [W-1:0]       y,
    output reg signed [2*W-1:0] acc
);
  localparam signed [2*W-1:0] MAX = {1'b0, {(2*W-1){1'b1}}};
  wire signed [2*W-1:0] product = x * y;
  wire signed [2*W:0]   sum = acc + product;
  wire overflow = (sum[2*W] != sum[2*W-1]);

  always @(posedge clk) begin
    if (clear) acc <= 0;
`ifdef SATURATE
    else if (overflow) acc <= sum[2*W] ? ~MAX : MAX;
`endif
    else acc <= sum[2*W-1:0];
  end
endmodule

module tb;
  reg clk = 0, clear = 1;
  reg signed [15:0] x, y;
  wire signed [31:0] acc;
  reg [31:0] word;
  reg [7:0] bytes [0:3];
  integer i, n;
  time started;

  mac dut (.clk(clk), .clear(clear), .x(x), .y(y), .acc(acc));

  always #(5) clk = ~clk;

  // Population count, with a local and a loop inside a function.
  function integer popcount(input [31:0] v);
    integer k;
    reg [5:0] total;
    begin
      total = 0;
      for (k = 0; k < 32; k = k + 1)
        if (v[k]) total = total + 1'b1;
      popcount = total;
    end
  endfunction

  function signed [15:0] clamp;
    input signed [31:0] v;
    input signed [15:0] lo, hi;
    begin
      case (1'b1)
        (v < lo): clamp = lo;
        (v > hi): clamp = hi;
        default: clamp = v[15:0];
      endcase
    end
  endfunction

  task step(input signed [15:0] a, input signed [15:0] b);
    begin
      x = a;
      y = b;
      @(posedge clk);
      #1 $display("%0t: %0d * %0d -> acc %0d (dut.overflow=%b)", $time, a, b, acc, dut.overflow);
    end
  endtask

  initial begin
    started = $time;
    x = 0; y = 0;
    @(posedge clk);
    #1 clear = 0;
    step(16'sd3, 16'sd4);
    step(-16'sd5, 16'sd6);
    step(16'sd32767, 16'sd32767);
    step(16'sd32767, 16'sd32767);
    step(16'sd32767, 16'sd32767);
    step(-16'sd32768, 16'sd32767);
    clear = 1;
    @(posedge clk);
    #1 $display("cleared: %0d", acc);

    $display("div %0d mod %0d neg-div %0d neg-mod %0d pow %0d by-zero %d",
             32'd100 / 7, 32'd100 % 7, -32'sd100 / 32'sd7, -32'sd100 % 32'sd7, 2 ** 10, 8'd1 / 8'd0);
    word = 32'hDEAD_BEEF;
    $display("reductions &%b |%b ^%b ~&%b ~|%b ~^%b", &word, |word, ^word, ~&word, ~|word, ~^word);
    $display("shifts %h %h %h %h", word << 4, word >> 4, $signed(word) >>> 4, word <<< 1);
    for (i = 0; i < 4; i = i + 1)
      bytes[i] = word[8*i +: 8];
    $display("bytes %h %h %h %h top-nibble %h", bytes[3], bytes[2], bytes[1], bytes[0], word[31 -: 4]);
    word[15 -: 8] = 8'h00;
    {bytes[0], bytes[1]} = 16'h1234;
    $display("word %h bytes %h%h", word, bytes[0], bytes[1]);
    $display("popcount %0d clog2 %0d bits %0d clamp %0d %0d %0d",
             popcount(word), $clog2(1000), $bits(word), clamp(100000, -100, 100), clamp(-7, -100, 100), clamp(-100000, -100, 100));
    n = -17;
    $display("compare %b %b %b %b logic %b %b cond %0d", n < 0, $unsigned(n) < 0, 4'b10x1 == 4'b1001, 4'b10x1 === 4'b10x1,
             n && !word, n || 0, (n > 0) ? 1 : (n == -17) ? 2 : 3);
    $display("x-ternary %b concat %b repl %b", 1'bx ? 4'b1100 : 4'b1010, {2'b10, 1'bz, 1'b1}, {3{2'b01}});
    $display("string \"quoted\"\ttab \\ backslash elapsed %0t", $time - started);
    $finish;
  end
endmodule
