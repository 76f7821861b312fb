// A ripple-carry adder built by generate-for out of gate primitives, its
// width set by a parameter override; generate-if picks the carry-out stage.
// Run with -stats: the top's final signal values go to stderr.
module full_adder (input a, input b, input cin, output s, output cout);
  wire p, g, t;
  xor x1 (p, a, b);
  xor x2 (s, p, cin);
  and a1 (g, a, b);
  and a2 (t, p, cin);
  or  o1 (cout, g, t);
endmodule

module ripple #(parameter W = 4, parameter WITH_COUT = 1) (
    input  [W-1:0] a,
    input  [W-1:0] b,
    input          cin,
    output [W-1:0] sum,
    output         cout
);
  wire [W:0] c;
  assign c[0] = cin;
  genvar i;
  generate
    for (i = 0; i < W; i = i + 1) begin : stage
      full_adder fa (.a(a[i]), .b(b[i]), .cin(c[i]), .s(sum[i]), .cout(c[i+1]));
    end
    if (WITH_COUT) begin : carry
      buf b1 (cout, c[W]);
    end else begin : nocarry
      assign cout = 1'b0;
    end
  endgenerate
endmodule

module tb;
  localparam W = 8;
  reg  [W-1:0] a, b;
  reg          cin;
  wire [W-1:0] sum, sum4;
  wire         cout, cout4;
  integer      errors;

  ripple #(.W(W)) wide (.a(a), .b(b), .cin(cin), .sum(sum), .cout(cout));
  ripple #(.WITH_COUT(0)) narrow (.a(a[3:0]), .b(b[3:0]), .cin(cin), .sum(sum4), .cout(cout4));

  task check;
    input [W:0] want;
    begin
      #1;
      if ({cout, sum} !== want) begin
        errors = errors + 1;
        $display("FAIL %0d + %0d + %b = %0d, want %0d", a, b, cin, {cout, sum}, want);
      end
      if (cout4 !== 1'b0 || sum4 !== want[3:0])
        errors = errors + 1;
    end
  endtask

  initial begin
    errors = 0;
    a = 8'd0;   b = 8'd0;   cin = 0; check(9'd0);
    a = 8'd25;  b = 8'd17;  cin = 1; check(9'd43);
    a = 8'd255; b = 8'd1;   cin = 0; check(9'd256);
    a = 8'd170; b = 8'd85;  cin = 1; check(9'd256);
    a = 8'd200; b = 8'd100; cin = 0; check(9'd300);
    $strobe("strobe: sum=%0d cout=%b", sum, cout);
    if (errors == 0) $display("PASS: %0d-bit ripple adder", W);
    else $display("%0d errors", errors);
    #1 $finish;
  end
endmodule
