//go:build amd64

#include "textflag.h"

// func axpyRunBody(acc, rows []float64, offs []int, qs []float64)
//
// acc[i] += qs[r]*rows[offs[r]+i] for r = 0..len(offs)-1 in that order, for
// every i < len(acc): a run of dense rows added with the accumulator held in
// registers. Sixteen documents at a time sit in X8-X15 while every row of
// the run is multiplied by its query count and added, so acc is loaded and
// stored once per run instead of once per row; per document the additions
// are those of one row-at-a-time pass, in the same order. SSE2 only — the
// amd64 baseline, so there is nothing to detect — and MULPD then ADDPD,
// never a fused multiply-add: each product is rounded before it is added,
// exactly as axpyRunGo and the scatter loop round it, so every score is the
// same float64 whichever loop produced it. Unaligned loads and stores: rows
// of Segment.dws and pooled accumulators start wherever the allocator put
// them. No bounds are checked here; axpyRun, the only caller, has checked
// offs[r]+len(acc) <= len(rows) and len(qs) >= len(offs).
TEXT ·axpyRunBody(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ offs_base+48(FP), R8
	MOVQ offs_len+56(FP), R9
	MOVQ qs_base+72(FP), R10
	XORQ AX, AX               // i
	MOVQ CX, DX
	ANDQ $~15, DX             // len(acc) rounded down to a multiple of 16

chunk16:
	CMPQ AX, DX
	JGE  tail
	MOVUPD (DI)(AX*8), X8
	MOVUPD 16(DI)(AX*8), X9
	MOVUPD 32(DI)(AX*8), X10
	MOVUPD 48(DI)(AX*8), X11
	MOVUPD 64(DI)(AX*8), X12
	MOVUPD 80(DI)(AX*8), X13
	MOVUPD 96(DI)(AX*8), X14
	MOVUPD 112(DI)(AX*8), X15
	LEAQ (SI)(AX*8), R11      // &rows[i]
	XORQ BX, BX               // r

row16:
	CMPQ BX, R9
	JGE  store16
	MOVQ (R8)(BX*8), R12
	LEAQ (R11)(R12*8), R12    // &rows[offs[r]+i]
	MOVSD (R10)(BX*8), X0
	UNPCKLPD X0, X0           // qs[r] in both lanes
	MOVUPD (R12), X1
	MOVUPD 16(R12), X2
	MOVUPD 32(R12), X3
	MOVUPD 48(R12), X4
	MULPD X0, X1
	MULPD X0, X2
	MULPD X0, X3
	MULPD X0, X4
	ADDPD X1, X8
	ADDPD X2, X9
	ADDPD X3, X10
	ADDPD X4, X11
	MOVUPD 64(R12), X1
	MOVUPD 80(R12), X2
	MOVUPD 96(R12), X3
	MOVUPD 112(R12), X4
	MULPD X0, X1
	MULPD X0, X2
	MULPD X0, X3
	MULPD X0, X4
	ADDPD X1, X12
	ADDPD X2, X13
	ADDPD X3, X14
	ADDPD X4, X15
	INCQ BX
	JMP  row16

store16:
	MOVUPD X8, (DI)(AX*8)
	MOVUPD X9, 16(DI)(AX*8)
	MOVUPD X10, 32(DI)(AX*8)
	MOVUPD X11, 48(DI)(AX*8)
	MOVUPD X12, 64(DI)(AX*8)
	MOVUPD X13, 80(DI)(AX*8)
	MOVUPD X14, 96(DI)(AX*8)
	MOVUPD X15, 112(DI)(AX*8)
	ADDQ $16, AX
	JMP  chunk16

tail:
	CMPQ AX, CX
	JGE  done
	MOVSD (DI)(AX*8), X8
	LEAQ (SI)(AX*8), R11
	XORQ BX, BX

row1:
	CMPQ BX, R9
	JGE  store1
	MOVQ (R8)(BX*8), R12
	MOVSD (R11)(R12*8), X1
	MULSD (R10)(BX*8), X1
	ADDSD X1, X8
	INCQ BX
	JMP  row1

store1:
	MOVSD X8, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	RET
