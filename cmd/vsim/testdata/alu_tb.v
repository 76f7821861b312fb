// A non-ANSI ALU with a function, a task, casez, a register file and every
// $display format; no $finish — the run ends when the events do.
module alu (op, a, b, y, zero);
  input [2:0] op;
  input [7:0] a, b;
  output [7:0] y;
  output zero;
  reg [7:0] y;

  function [7:0] rotl;
    input [7:0] v;
    input [2:0] n;
    begin
      rotl = (v << n) | (v >> (8 - n));
    end
  endfunction

  always @(*) begin
    casez (op)
      3'b000: y = a + b;
      3'b001: y = a - b;
      3'b010: y = a & b;
      3'b011: y = a ^ b;
      3'b10?: y = rotl(a, b[2:0]);
      default: y = {a[3:0], b[3:0]};
    endcase
  end

  assign zero = (y == 8'd0);
endmodule

module tb;
  reg [2:0] op;
  reg [7:0] a, b;
  wire [7:0] y;
  wire zero;
  reg [7:0] regfile [0:7];
  reg [8*5:1] label;
  integer i, checks;

  alu dut (op, a, b, y, zero);

  task apply;
    input [2:0] t_op;
    input [7:0] t_a, t_b;
    begin
      op = t_op;
      a = t_a;
      b = t_b;
      #2;
      regfile[t_op] = y;
      checks = checks + 1;
    end
  endtask

  initial begin
    checks = 0;
    label = "alu";
    apply(3'd0, 8'd200, 8'd100);
    apply(3'd1, 8'd5, 8'd5);
    $display("sub: y=%d zero=%b at %t", y, zero, $time);
    apply(3'd2, 8'hF0, 8'h3C);
    apply(3'd3, 8'hAA, 8'h55);
    apply(3'd4, 8'h81, 8'd1);
    apply(3'd5, 8'h81, 8'd4);
    apply(3'd6, 8'h12, 8'h34);
    apply(3'd7, 8'hAB, 8'hCD);
    for (i = 0; i < 8; i = i + 1)
      $display("%s[%0d] = %d %0d %h %o %b", label, i, regfile[i], regfile[i], regfile[i], regfile[i], regfile[i]);
    $display("%0d checks, 100%% done in %m", checks);
    $write("bare: ");
    $write(regfile[0], " ");
    $displayh(regfile[3]);
    $displayb(regfile[2][3:0]);
    $displayo(regfile[1]);
    $display("signed %0d unknown %d %h %h char %c", -8'sd3, 8'bx, 8'b1x01zzzz, 4'bxxxx, 8'd65);
  end
endmodule
