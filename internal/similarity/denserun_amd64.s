#include "textflag.h"

// func denseRunAVX2(acc []int32, rows []int16, offs []int, qs []uint32)
//
// denseRunBody's pair sums, 32 documents a chunk summed in Y8-Y11 over every
// pair and then added to acc: one VPMADDWD puts a document's two terms in
// one int32. VPUNPCKLWD and VPUNPCKHWD interleave within 128-bit lanes, so
// Y8 sums documents 0-3 and 8-11, Y9 4-7 and 12-15 (Y10 and Y11 the next
// 16): VPERM2I128 restores the order at the store. Loads and stores are
// unaligned. No bounds are checked here; denseRun, the only caller, has
// checked offs[r]+len(acc) <= len(rows), 2·len(qs) == len(offs), that every
// count is at most 32 767 (VPMADDWD multiplies signed words) and that
// len(acc) is a multiple of 32.
TEXT ·denseRunAVX2(SB), NOSPLIT, $0-96
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
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	LEAQ (SI)(AX*2), R11      // &rows[i]
	MOVQ R8, DX               // &offs[2j]
	MOVQ R10, BX              // &qs[j]

pair:
	CMPQ BX, R9
	JGE  store
	MOVQ (DX), R12
	MOVQ 8(DX), R13
	VPBROADCASTD (BX), Y0     // (qa, qb) in every doubleword
	VMOVDQU (R11)(R12*2), Y1  // rows[offs[2j]+i:][:16]
	VMOVDQU 32(R11)(R12*2), Y2
	VMOVDQU (R11)(R13*2), Y3  // rows[offs[2j+1]+i:][:16]
	VMOVDQU 32(R11)(R13*2), Y4
	VPUNPCKHWD Y3, Y1, Y5
	VPUNPCKLWD Y3, Y1, Y1
	VPUNPCKHWD Y4, Y2, Y6
	VPUNPCKLWD Y4, Y2, Y2
	VPMADDWD Y0, Y1, Y1
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y0, Y2, Y2
	VPMADDWD Y0, Y6, Y6
	VPADDD Y1, Y8, Y8
	VPADDD Y5, Y9, Y9
	VPADDD Y2, Y10, Y10
	VPADDD Y6, Y11, Y11
	ADDQ $16, DX
	ADDQ $4, BX
	JMP  pair

store:
	VPERM2I128 $0x20, Y9, Y8, Y0  // documents 0-7
	VPERM2I128 $0x31, Y9, Y8, Y1  // 8-15
	VPERM2I128 $0x20, Y11, Y10, Y2
	VPERM2I128 $0x31, Y11, Y10, Y3
	VPADDD (DI)(AX*4), Y0, Y0
	VPADDD 32(DI)(AX*4), Y1, Y1
	VPADDD 64(DI)(AX*4), Y2, Y2
	VPADDD 96(DI)(AX*4), Y3, Y3
	VMOVDQU Y0, (DI)(AX*4)
	VMOVDQU Y1, 32(DI)(AX*4)
	VMOVDQU Y2, 64(DI)(AX*4)
	VMOVDQU Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  chunk

done:
	VZEROUPPER
	RET

// func scanAVX2(acc []float64, acci []int32, inv []float64, inflate, theta float64) int
//
// scanFrom's loop, four documents a step over the first len(acc)&^3: a =
// acc[i] + float64(acci[i])·inv[i], each operation rounded as Go rounds it,
// then Go's !(a·inflate < theta) and !(a == 0) (NLT_UQ, NEQ_UQ). It returns
// the first i where both hold, or len(acc)&^3; scanFrom has checked that
// acci and inv are as long as acc.
TEXT ·scanAVX2(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), SI
	MOVQ acc_len+8(FP), CX
	MOVQ acci_base+24(FP), DX
	MOVQ inv_base+48(FP), R8
	VBROADCASTSD inflate+72(FP), Y14
	VBROADCASTSD theta+80(FP), Y15
	VXORPD Y13, Y13, Y13
	ANDQ $~3, CX
	XORQ AX, AX               // i

step:
	CMPQ AX, CX
	JGE  done
	VCVTDQ2PD (DX)(AX*4), Y0  // acci[i:i+4]
	VMULPD (R8)(AX*8), Y0, Y0 // · inv[i:i+4]
	VADDPD (SI)(AX*8), Y0, Y0 // + acc[i:i+4]: a
	VMULPD Y14, Y0, Y1
	VCMPPD $0x05, Y15, Y1, Y1 // !(a·inflate < theta)
	VCMPPD $0x04, Y13, Y0, Y0 // !(a == 0)
	VANDPD Y0, Y1, Y1
	VMOVMSKPD Y1, BX
	TESTL BX, BX
	JNZ  found
	ADDQ $4, AX
	JMP  step

found:
	BSFL BX, BX
	ADDQ BX, AX

done:
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// Whether the CPU has AVX2 (CPUID.7.0:EBX bit 5) and the OS saves the YMM
// registers: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and
// XGETBV(0) has the SSE and AVX state bits (1 and 2). XSAVE support, which
// OSXSAVE implies, needs leaf 0DH, so leaf 7 exists once those pass.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	SETCS ret+0(FP)

no:
	RET
