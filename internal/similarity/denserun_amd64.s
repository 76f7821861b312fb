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

// func denseRunVNNI(acc []int32, rows []int16, offs []int, qs []uint32)
//
// denseRunAVX2 at twice the width: 64 documents a chunk summed in Z8-Z11,
// where one AVX-512 VNNI VPDPWSSD multiplies a document's two terms and adds
// them to its sum (it does not saturate, so it wraps as VPADDD does).
// VPUNPCKLWD and VPUNPCKHWD interleave within each of the four 128-bit
// lanes, so Z8 sums documents 0-3, 8-11, 16-19 and 24-27 and Z9 the four
// after each; VPERMI2Q by permLo and permHi restores the order at the store.
// denseRunBody passes whole chunks of 64 only and the rest to denseRunAVX2;
// denseRun has checked what denseRunAVX2 relies on.
TEXT ·denseRunVNNI(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ offs_base+48(FP), R8
	MOVQ qs_base+72(FP), R10
	MOVQ qs_len+80(FP), R9
	LEAQ (R10)(R9*4), R9      // &qs[len(qs)]
	VMOVDQU64 permLo<>(SB), Z12
	VMOVDQU64 permHi<>(SB), Z13
	XORQ AX, AX               // i

chunk:
	CMPQ AX, CX
	JGE  done
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	LEAQ (SI)(AX*2), R11      // &rows[i]
	MOVQ R8, DX               // &offs[2j]
	MOVQ R10, BX              // &qs[j]

pair:
	CMPQ BX, R9
	JGE  store
	MOVQ (DX), R12
	MOVQ 8(DX), R13
	VPBROADCASTD (BX), Z0     // (qa, qb) in every doubleword
	VMOVDQU16 (R11)(R12*2), Z1  // rows[offs[2j]+i:][:32]
	VMOVDQU16 64(R11)(R12*2), Z2
	VMOVDQU16 (R11)(R13*2), Z3  // rows[offs[2j+1]+i:][:32]
	VMOVDQU16 64(R11)(R13*2), Z4
	VPUNPCKHWD Z3, Z1, Z5
	VPUNPCKLWD Z3, Z1, Z1
	VPUNPCKHWD Z4, Z2, Z6
	VPUNPCKLWD Z4, Z2, Z2
	VPDPWSSD Z1, Z0, Z8
	VPDPWSSD Z5, Z0, Z9
	VPDPWSSD Z2, Z0, Z10
	VPDPWSSD Z6, Z0, Z11
	ADDQ $16, DX
	ADDQ $4, BX
	JMP  pair

store:
	VMOVDQA64 Z12, Z0
	VPERMI2Q Z9, Z8, Z0       // documents 0-15
	VMOVDQA64 Z13, Z1
	VPERMI2Q Z9, Z8, Z1       // 16-31
	VMOVDQA64 Z12, Z2
	VPERMI2Q Z11, Z10, Z2     // 32-47
	VMOVDQA64 Z13, Z3
	VPERMI2Q Z11, Z10, Z3     // 48-63
	VPADDD (DI)(AX*4), Z0, Z0
	VPADDD 64(DI)(AX*4), Z1, Z1
	VPADDD 128(DI)(AX*4), Z2, Z2
	VPADDD 192(DI)(AX*4), Z3, Z3
	VMOVDQU32 Z0, (DI)(AX*4)
	VMOVDQU32 Z1, 64(DI)(AX*4)
	VMOVDQU32 Z2, 128(DI)(AX*4)
	VMOVDQU32 Z3, 192(DI)(AX*4)
	ADDQ $64, AX
	JMP  chunk

done:
	VZEROUPPER
	RET

// The quadword orders VPERMI2Q takes from (Z8, Z9): 0-7 name Z8's and 8-15
// Z9's, a 128-bit lane being two. permLo gathers the first two lanes of
// each, documents 0-15; permHi the last two, documents 16-31.
DATA permLo<>+0(SB)/8, $0
DATA permLo<>+8(SB)/8, $1
DATA permLo<>+16(SB)/8, $8
DATA permLo<>+24(SB)/8, $9
DATA permLo<>+32(SB)/8, $2
DATA permLo<>+40(SB)/8, $3
DATA permLo<>+48(SB)/8, $10
DATA permLo<>+56(SB)/8, $11
GLOBL permLo<>(SB), RODATA|NOPTR, $64
DATA permHi<>+0(SB)/8, $4
DATA permHi<>+8(SB)/8, $5
DATA permHi<>+16(SB)/8, $12
DATA permHi<>+24(SB)/8, $13
DATA permHi<>+32(SB)/8, $6
DATA permHi<>+40(SB)/8, $7
DATA permHi<>+48(SB)/8, $14
DATA permHi<>+56(SB)/8, $15
GLOBL permHi<>(SB), RODATA|NOPTR, $64

// func rescoreRowAVX2(exact []float64, row []int16, docs []int32, norm []float64, qw float64)
//
// rescoreRow's loop, four documents a step over len(exact), a multiple of 4:
// exact[j] += qw·(float64(row[docs[j]])/norm[j]), converted, divided,
// multiplied and added as Go does each, with no FMA, so every lane is the
// scalar loop's float64 bit for bit. The four counts are loaded one by one
// and inserted (a VPGATHERDD is microcode on Downfall-mitigated hosts);
// rescoreRow has checked that docs and norm are as long as exact and that
// every document is in row.
TEXT ·rescoreRowAVX2(SB), NOSPLIT, $0-104
	MOVQ exact_base+0(FP), DI
	MOVQ exact_len+8(FP), CX
	MOVQ row_base+24(FP), SI
	MOVQ docs_base+48(FP), DX
	MOVQ norm_base+72(FP), R8
	VBROADCASTSD qw+96(FP), Y15
	XORQ AX, AX               // j

step:
	CMPQ AX, CX
	JGE  done
	MOVLQSX (DX)(AX*4), R9    // docs[j:j+4]
	MOVLQSX 4(DX)(AX*4), R10
	MOVLQSX 8(DX)(AX*4), R11
	MOVLQSX 12(DX)(AX*4), R12
	MOVWLSX (SI)(R9*2), R9    // their counts
	MOVWLSX (SI)(R10*2), R10
	MOVWLSX (SI)(R11*2), R11
	MOVWLSX (SI)(R12*2), R12
	VMOVD R9, X0
	VPINSRD $1, R10, X0, X0
	VPINSRD $2, R11, X0, X0
	VPINSRD $3, R12, X0, X0
	VCVTDQ2PD X0, Y0
	VDIVPD (R8)(AX*8), Y0, Y0 // / norm[j:j+4]
	VMULPD Y15, Y0, Y0        // · qw
	VADDPD (DI)(AX*8), Y0, Y0 // + exact[j:j+4]
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  step

done:
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, vnni bool)
//
// Whether the CPU has AVX2 (CPUID.7.0:EBX bit 5) and the OS saves the YMM
// registers: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and
// XGETBV(0) has the SSE and AVX state bits (1 and 2). XSAVE support, which
// OSXSAVE implies, needs leaf 0DH, so leaf 7 exists once those pass. vnni
// needs avx2, AVX-512F (EBX bit 16), AVX-512BW (EBX bit 30) and AVX-512
// VNNI (ECX bit 11), and the OS saving the opmask and ZMM registers too
// (XCR0 bits 5, 6 and 7).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, vnni+1(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	MOVL AX, R8               // XCR0
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, avx2+0(FP)
	ANDL $0xe0, R8
	CMPL R8, $0xe0
	JNE  no
	ANDL $0x40010000, BX
	CMPL BX, $0x40010000
	JNE  no
	BTL  $11, CX
	SETCS vnni+1(FP)

no:
	RET
