// Self-checking bench for counter.v; vsim is given both files.
module tb;
  reg clk = 0;
  reg rst = 1;
  wire [7:0] q;
  integer errors = 0;

  counter dut (.clk(clk), .rst(rst), .q(q));

  always #5 clk = ~clk;

  initial begin
    $display("time  q");
    $monitor("%0t    %0d", $time, q);
    @(posedge clk);
    #1 rst = 0;
    repeat (10) @(posedge clk);
    #1;
    if (q !== 8'd10) begin
      $display("FAIL: q = %0d, want 10", q);
      errors = errors + 1;
    end
    rst = 1;
    @(posedge clk);
    #1;
    if (q !== 8'd0) begin
      $display("FAIL: reset did not clear q");
      errors = errors + 1;
    end
    if (errors == 0)
      $display("PASS: counter behaves");
    $finish;
  end
endmodule
