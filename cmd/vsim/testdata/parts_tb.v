// Part-selects on both sides of assignments: constant, indexed up (+:) and
// down (-:), on a vector whose low bound is 1, on memory words, on a
// function's own variables, and through a concatenation; writes at an x
// index are dropped. The functions also run while, repeat, case and an early
// return through disable.
module tb;
  reg [15:0] v;
  reg [8:1]  h;
  reg [31:0] mem [0:3];
  reg [3:0]  xi; // never assigned: x
  integer i;

  // Reverses the nibbles of w, one indexed part-select at a time.
  function [15:0] swapnib(input [15:0] w);
    reg [15:0] r;
    integer k;
    begin
      r = 16'h0000;
      k = 0;
      while (k < 4) begin
        r[4*k +: 4] = w[15 - 4*k -: 4];
        k = k + 1;
      end
      r[xi +: 4] = 4'h0;
      swapnib = r;
    end
  endfunction

  // Shifts n ones into r[5:1] under a fixed frame of bits; with early set it
  // returns the frame alone, and n == 0 answers all ones.
  function [7:0] fill(input [2:0] n, input early);
    reg [7:0] r;
    begin
      r = 8'h00;
      r[7:6] = 2'b10;
      r[0] = 1'b1;
      fill = r;
      if (early) disable fill;
      repeat (n) r[5:1] = {r[4:1], 1'b1};
      case (n)
        3'd0: fill = 8'hff;
        default: fill = r;
      endcase
    end
  endfunction

  initial begin
    v = 16'hABCD;
    v[7:0] = v[15:8];
    $display("const %h %h %h", v, v[11:4], v[3:0]);

    h = 8'h00;
    h[8 -: 4] = 4'hC;
    h[1 +: 3] = 3'b101;
    $display("low-bound-1 %h %b %b", h, h[3 +: 2], h[8 -: 3]);

    for (i = 0; i < 4; i = i + 1)
      mem[i] = 32'h0;
    for (i = 0; i < 4; i = i + 1) begin
      mem[i][8*i +: 8] = 8'hA0 + i;
      mem[i][31 - 8*i -: 4] = i + 1;
    end
    mem[2][3:0] = 4'hF;
    mem[1][0] = 1'b1;
    $display("mem %h %h %h %h byte %h", mem[0], mem[1], mem[2], mem[3], mem[3][31 -: 8]);

    v[xi +: 4] = 4'h0;
    v[xi] = 1'b0;
    mem[xi][7:0] = 8'h00;
    $display("x-index %h read %b", v, v[xi +: 2]);

    {v[3:0], v[15:12]} = 8'h5E;
    $display("concat %h", v);

    $display("swapnib %h %h fill %h %h %h", swapnib(16'h1234), swapnib(v), fill(3'd3, 1'b0), fill(3'd0, 1'b0), fill(3'd5, 1'b1));
    $finish;
  end
endmodule
