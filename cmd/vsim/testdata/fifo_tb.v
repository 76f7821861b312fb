// A synchronous FIFO driven by $random traffic against a scoreboard memory.
// Run with -seed 7 -top fifo_tb -time 2000: the stimulus is a function of the
// seed, the clock runs forever, and the time limit — not $finish — ends it.
module fifo #(parameter DEPTH = 4, parameter AW = 2) (
    input            clk,
    input            rst,
    input            push,
    input            pop,
    input      [7:0] din,
    output reg [7:0] dout,
    output           empty,
    output           full
);
  reg [7:0] mem [0:DEPTH-1];
  reg [AW:0] count;
  reg [AW-1:0] rp, wp;

  assign empty = (count == 0);
  assign full = (count == DEPTH);

  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count <= 0;
      rp <= 0;
      wp <= 0;
    end else begin
      case ({push && !full, pop && !empty})
        2'b10: count <= count + 1;
        2'b01: count <= count - 1;
        default: ;
      endcase
      if (push && !full) begin
        mem[wp] <= din;
        wp <= wp + 1;
      end
      if (pop && !empty) begin
        dout <= mem[rp];
        rp <= rp + 1;
      end
    end
  end
endmodule

module fifo_tb;
  reg clk, rst, push, pop;
  reg [7:0] din;
  wire [7:0] dout;
  wire empty, full;
  reg [7:0] expect_q [0:63];
  integer head, tail, popped, mismatches, r;
  reg check_next;
  event drained;

  fifo dut (.clk(clk), .rst(rst), .push(push), .pop(pop), .din(din),
            .dout(dout), .empty(empty), .full(full));

  initial begin
    clk = 0;
    forever #5 clk = ~clk;
  end

  // Scoreboard: what was accepted, in order.
  always @(posedge clk) begin
    if (!rst && push && !full) begin
      expect_q[tail] = din;
      tail = tail + 1;
    end
    check_next <= !rst && pop && !empty;
    if (check_next) begin
      if (dout !== expect_q[head]) mismatches = mismatches + 1;
      head = head + 1;
      popped = popped + 1;
    end
  end

  initial begin : stimulus
    head = 0; tail = 0; popped = 0; mismatches = 0; check_next = 0;
    rst = 1; push = 0; pop = 0; din = 0;
    #12 rst = 0;
    while (tail < 20) begin
      @(negedge clk);
      r = $random;
      push = r[0] | r[1];
      pop = r[2] & r[3];
      din = $random;
    end
    @(negedge clk);
    push = 0;
    pop = 1;
    wait (empty);
    @(negedge clk);
    @(negedge clk);
    pop = 0;
    -> drained;
  end

  initial begin : watchdog
    #1990;
    $display("watchdog: still running at %0t", $time);
  end

  always @(drained) begin
    $display("pushed %0d popped %0d mismatches %0d at %0t", tail, popped, mismatches, $time);
    $display("first three accepted: %h %h %h", expect_q[0], expect_q[1], expect_q[2]);
    if (mismatches == 0 && popped == tail) $display("PASS: fifo order holds");
  end
endmodule

// A second top in the same file: -top picks fifo_tb over this, the last.
module unused_top;
  initial $display("FAIL: -top was ignored");
endmodule
