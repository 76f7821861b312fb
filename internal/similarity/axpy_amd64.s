//go:build amd64

#include "textflag.h"

// func axpy(acc, ws []float64, q float64)
//
// acc[i] += q*ws[i]. SSE2 only — the amd64 baseline, so there is nothing to
// detect — and MULPD then ADDPD, never a fused multiply-add: each product is
// rounded before it is added, exactly as axpyGo and the scatter loop round
// it, so every score is the same float64 whichever loop produced it. The
// pass is bound by memory bandwidth (an AVX2 body measured the same), hence
// nothing wider. Unaligned loads and stores: rows of Segment.dws and pooled
// accumulators start wherever the allocator put them.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ ws_base+24(FP), SI
	MOVQ ws_len+32(FP), AX
	CMPQ AX, CX
	CMOVQLT AX, CX            // n = min(len(acc), len(ws)): never past either slice
	MOVSD q+48(FP), X0
	UNPCKLPD X0, X0           // q in both lanes
	XORQ AX, AX               // i
	MOVQ CX, DX
	ANDQ $~7, DX              // n rounded down to a multiple of 8

loop8:
	CMPQ AX, DX
	JGE  tail
	MOVUPD (SI)(AX*8), X1
	MOVUPD 16(SI)(AX*8), X2
	MOVUPD 32(SI)(AX*8), X3
	MOVUPD 48(SI)(AX*8), X4
	MULPD X0, X1
	MULPD X0, X2
	MULPD X0, X3
	MULPD X0, X4
	MOVUPD (DI)(AX*8), X5
	MOVUPD 16(DI)(AX*8), X6
	MOVUPD 32(DI)(AX*8), X7
	MOVUPD 48(DI)(AX*8), X8
	ADDPD X5, X1
	ADDPD X6, X2
	ADDPD X7, X3
	ADDPD X8, X4
	MOVUPD X1, (DI)(AX*8)
	MOVUPD X2, 16(DI)(AX*8)
	MOVUPD X3, 32(DI)(AX*8)
	MOVUPD X4, 48(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail:
	CMPQ AX, CX
	JGE  done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	RET
