//go:build amd64

#include "textflag.h"

// func denseRunBody(acc []int32, rows []int16, offs []int, qs []uint32)
//
// acc[i] += qa·rows[offs[2j]+i] + qb·rows[offs[2j+1]+i] for every pair j,
// qa and qb the low and high 16 bits of qs[4j] (which qs[4j+1..4j+3]
// repeat, so one load puts them in every doubleword of a register), for
// every i < len(acc): dense rows of int16 counts added into int32 row sums
// two rows at a time. Thirty-two documents at a time sit in X8-X15 while
// every pair is added (HALF), so acc is loaded and stored once per call: a
// document's two terms in one PMADDWL, with no rounding anywhere — the sums
// are integers, the same whatever the order. SSE2 only — the amd64 baseline, so there is nothing to
// detect. Unaligned loads and stores: rows of Segment.rows and pooled
// accumulators start wherever the allocator put them. No bounds are checked
// here; denseRun, the only caller, has checked offs[r]+len(acc) <=
// len(rows), 2·len(offs) == len(qs), that every count is at most 32 767
// (PMADDWL multiplies signed words) and that len(acc) is a multiple of 32.
// HALF adds sixteen documents of the pair at R12 and R13, off bytes in,
// into four accumulators: PUNPCKLWL and PUNPCKHWL interleave the two rows'
// counts document by document, PMADDWL multiplies each interleaved pair by
// (qa, qb) in X0 and adds the two products into one int32.
#define HALF(off, A0, A1, A2, A3) \
	MOVOU off(R12), X1; MOVOU off+16(R12), X2; MOVOU off(R13), X3; MOVOU off+16(R13), X4 \
	MOVO X1, X5; MOVO X2, X6 \
	PUNPCKLWL X3, X1; PUNPCKHWL X3, X5; PUNPCKLWL X4, X2; PUNPCKHWL X4, X6 \
	PMADDWL X0, X1; PMADDWL X0, X5; PMADDWL X0, X2; PMADDWL X0, X6 \
	PADDL X1, A0; PADDL X5, A1; PADDL X2, A2; PADDL X6, A3

TEXT ·denseRunBody(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ offs_base+48(FP), R8
	MOVQ qs_base+72(FP), R10
	MOVQ qs_len+80(FP), R9
	LEAQ (R10)(R9*4), R9      // &qs[len(qs)]
	XORQ AX, AX               // i

chunk:
	CMPQ AX, CX
	JGE  done
	MOVOU (DI)(AX*4), X8
	MOVOU 16(DI)(AX*4), X9
	MOVOU 32(DI)(AX*4), X10
	MOVOU 48(DI)(AX*4), X11
	MOVOU 64(DI)(AX*4), X12
	MOVOU 80(DI)(AX*4), X13
	MOVOU 96(DI)(AX*4), X14
	MOVOU 112(DI)(AX*4), X15
	LEAQ (SI)(AX*2), R11      // &rows[i]
	MOVQ R8, DX               // &offs[2j]
	MOVQ R10, BX              // &qs[4j]

pair:
	CMPQ BX, R9
	JGE  store
	MOVQ (DX), R12
	MOVQ 8(DX), R13
	LEAQ (R11)(R12*2), R12    // &rows[offs[2j]+i]
	LEAQ (R11)(R13*2), R13    // &rows[offs[2j+1]+i]
	MOVOU (BX), X0            // (qa, qb) in every doubleword

	HALF(0, X8, X9, X10, X11)   // documents i..i+15
	HALF(32, X12, X13, X14, X15) // documents i+16..i+31

	ADDQ $16, DX
	ADDQ $16, BX
	JMP  pair

store:
	MOVOU X8, (DI)(AX*4)
	MOVOU X9, 16(DI)(AX*4)
	MOVOU X10, 32(DI)(AX*4)
	MOVOU X11, 48(DI)(AX*4)
	MOVOU X12, 64(DI)(AX*4)
	MOVOU X13, 80(DI)(AX*4)
	MOVOU X14, 96(DI)(AX*4)
	MOVOU X15, 112(DI)(AX*4)
	ADDQ $32, AX
	JMP  chunk

done:
	RET
