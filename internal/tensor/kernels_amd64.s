//go:build amd64

#include "textflag.h"

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func daxpyAVX2(dst, src []float64, alpha float64)
// dst[j] += alpha*src[j]; len(dst) is a positive multiple of 8.
// VMULPD+VADDPD, never FMA: per element this rounds the product first,
// then the sum — exactly like the scalar Go loop it replaces, so the
// float64 path stays bitwise-reference.
TEXT ·daxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0

daxpy_loop:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     daxpy_loop
	VZEROUPPER
	RET

// func dgemmRowJ16(drow, arow, b []float64, ldb int)
// 16-column float64 output tile held in Y1..Y4 across the whole k loop.
// Per k: skip when arow[k] is ±0 (its bits shifted left by one are
// zero; NaN is never skipped), else broadcast arow[k], VMULPD it
// against B row k and VADDPD the product (first operand) into the
// tile. Never FMA, k ascending: bitwise the scalar loop per element.
TEXT ·dgemmRowJ16(SB), NOSPLIT, $0-80
	MOVQ    drow_base+0(FP), DI
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    ldb+72(FP), R8
	SHLQ    $3, R8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	TESTQ   CX, CX
	JZ      dgemm16_done

dgemm16_loop:
	MOVQ         (SI), AX
	SHLQ         $1, AX
	JZ           dgemm16_next
	VBROADCASTSD (SI), Y0
	VMULPD       (DX), Y0, Y5
	VMULPD       32(DX), Y0, Y6
	VMULPD       64(DX), Y0, Y7
	VMULPD       96(DX), Y0, Y8
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	VADDPD       Y3, Y7, Y3
	VADDPD       Y4, Y8, Y4

dgemm16_next:
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  dgemm16_loop

dgemm16_done:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	VZEROUPPER
	RET

// func dgemmRowJ8(drow, arow, b []float64, ldb int)
// The 8-column variant of dgemmRowJ16.
TEXT ·dgemmRowJ8(SB), NOSPLIT, $0-80
	MOVQ    drow_base+0(FP), DI
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    ldb+72(FP), R8
	SHLQ    $3, R8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	TESTQ   CX, CX
	JZ      dgemm8_done

dgemm8_loop:
	MOVQ         (SI), AX
	SHLQ         $1, AX
	JZ           dgemm8_next
	VBROADCASTSD (SI), Y0
	VMULPD       (DX), Y0, Y5
	VMULPD       32(DX), Y0, Y6
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2

dgemm8_next:
	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  dgemm8_loop

dgemm8_done:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VZEROUPPER
	RET

// func dcsrRowJ16(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int)
// Gathered-row aggregate: drow[j] += w[p]*h[r*ldh+j] over all p, where
// r = cols[p], or pos[cols[p]] when pos is non-nil, with the 16-column
// tile in Y1..Y4 throughout. No zero test (the scalar CSR loops have
// none); VMULPD then VADDPD with the product first, never FMA. Each
// gathered index is bounds-checked (cols[p] against len(pos), r against
// rows) with one unsigned compare, so a negative or too-large index
// never reads memory: the first bad p is returned and drow is left
// unwritten. bad is -1 when every row was in range.
TEXT ·dcsrRowJ16(SB), NOSPLIT, $0-144
	MOVQ    drow_base+0(FP), DI
	MOVQ    cols_base+24(FP), SI
	MOVQ    cols_len+32(FP), CX
	MOVQ    pos_base+48(FP), BX
	MOVQ    pos_len+56(FP), R10
	MOVQ    w_base+72(FP), R9
	MOVQ    h_base+96(FP), DX
	MOVQ    ldh+120(FP), R8
	MOVQ    rows+128(FP), R11
	SHLQ    $3, R8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	TESTQ   CX, CX
	JZ      dcsr16_done

dcsr16_loop:
	MOVQ         (SI), AX
	TESTQ        BX, BX
	JZ           dcsr16_row
	CMPQ         AX, R10
	JAE          dcsr16_bad
	MOVQ         (BX)(AX*8), AX

dcsr16_row:
	CMPQ         AX, R11
	JAE          dcsr16_bad
	IMULQ        R8, AX
	ADDQ         DX, AX
	VBROADCASTSD (R9), Y0
	VMULPD       (AX), Y0, Y5
	VMULPD       32(AX), Y0, Y6
	VMULPD       64(AX), Y0, Y7
	VMULPD       96(AX), Y0, Y8
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	VADDPD       Y3, Y7, Y3
	VADDPD       Y4, Y8, Y4
	ADDQ         $8, SI
	ADDQ         $8, R9
	DECQ         CX
	JNZ          dcsr16_loop

dcsr16_done:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	MOVQ    $-1, bad+136(FP)
	VZEROUPPER
	RET

dcsr16_bad:
	MOVQ cols_len+32(FP), AX
	SUBQ CX, AX
	MOVQ AX, bad+136(FP)
	VZEROUPPER
	RET

// func dcsrRowJ8(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int)
// The 8-column variant of dcsrRowJ16, with the same bounds checks.
TEXT ·dcsrRowJ8(SB), NOSPLIT, $0-144
	MOVQ    drow_base+0(FP), DI
	MOVQ    cols_base+24(FP), SI
	MOVQ    cols_len+32(FP), CX
	MOVQ    pos_base+48(FP), BX
	MOVQ    pos_len+56(FP), R10
	MOVQ    w_base+72(FP), R9
	MOVQ    h_base+96(FP), DX
	MOVQ    ldh+120(FP), R8
	MOVQ    rows+128(FP), R11
	SHLQ    $3, R8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	TESTQ   CX, CX
	JZ      dcsr8_done

dcsr8_loop:
	MOVQ         (SI), AX
	TESTQ        BX, BX
	JZ           dcsr8_row
	CMPQ         AX, R10
	JAE          dcsr8_bad
	MOVQ         (BX)(AX*8), AX

dcsr8_row:
	CMPQ         AX, R11
	JAE          dcsr8_bad
	IMULQ        R8, AX
	ADDQ         DX, AX
	VBROADCASTSD (R9), Y0
	VMULPD       (AX), Y0, Y5
	VMULPD       32(AX), Y0, Y6
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	ADDQ         $8, SI
	ADDQ         $8, R9
	DECQ         CX
	JNZ          dcsr8_loop

dcsr8_done:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	MOVQ    $-1, bad+136(FP)
	VZEROUPPER
	RET

dcsr8_bad:
	MOVQ cols_len+32(FP), AX
	SUBQ CX, AX
	MOVQ AX, bad+136(FP)
	VZEROUPPER
	RET

// func saxpyAVX2(dst, src []float32, alpha float32)
// dst[j] += alpha*src[j]; len(dst) is a positive multiple of 8. FMA.
TEXT ·saxpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSS alpha+48(FP), Y0

saxpy_loop:
	VMOVUPS     (SI), Y1
	VFMADD213PS (DI), Y0, Y1
	VMOVUPS     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JNZ         saxpy_loop
	VZEROUPPER
	RET

// func sgemmRowJ32(drow, arow, b []float32, ldb int)
// 32-column output tile held in Y1..Y4 across the whole k loop:
// per k, one broadcast of arow[k] and four FMAs against B row k.
TEXT ·sgemmRowJ32(SB), NOSPLIT, $0-80
	MOVQ    drow_base+0(FP), DI
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    ldb+72(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	TESTQ   CX, CX
	JZ      sgemm32_done

sgemm32_loop:
	VBROADCASTSS (SI), Y0
	VFMADD231PS  (DX), Y0, Y1
	VFMADD231PS  32(DX), Y0, Y2
	VFMADD231PS  64(DX), Y0, Y3
	VFMADD231PS  96(DX), Y0, Y4
	ADDQ         $4, SI
	ADDQ         R8, DX
	DECQ         CX
	JNZ          sgemm32_loop

sgemm32_done:
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	VZEROUPPER
	RET

// func sgemmRowJ16(drow, arow, b []float32, ldb int)
TEXT ·sgemmRowJ16(SB), NOSPLIT, $0-80
	MOVQ    drow_base+0(FP), DI
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    ldb+72(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	TESTQ   CX, CX
	JZ      sgemm16_done

sgemm16_loop:
	VBROADCASTSS (SI), Y0
	VFMADD231PS  (DX), Y0, Y1
	VFMADD231PS  32(DX), Y0, Y2
	ADDQ         $4, SI
	ADDQ         R8, DX
	DECQ         CX
	JNZ          sgemm16_loop

sgemm16_done:
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VZEROUPPER
	RET

// func sgemmRowJ8(drow, arow, b []float32, ldb int)
TEXT ·sgemmRowJ8(SB), NOSPLIT, $0-80
	MOVQ    drow_base+0(FP), DI
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    ldb+72(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	TESTQ   CX, CX
	JZ      sgemm8_done

sgemm8_loop:
	VBROADCASTSS (SI), Y0
	VFMADD231PS  (DX), Y0, Y1
	ADDQ         $4, SI
	ADDQ         R8, DX
	DECQ         CX
	JNZ          sgemm8_loop

sgemm8_done:
	VMOVUPS Y1, (DI)
	VZEROUPPER
	RET

// func sgemmRows4J16(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int)
//
// Four consecutive output rows × 16 columns in one pass: eight
// register-resident accumulators, so each k step loads the two b
// vectors once and feeds four independent FMA chains per vector —
// amortizing the B-panel traffic 4× and hiding the FMA latency that
// serializes the one-row kernels.
TEXT ·sgemmRows4J16(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ ldd+24(FP), R10
	SHLQ $2, R10               // d row stride in bytes
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9        // a row stride in elements
	MOVQ k+64(FP), CX
	MOVQ b_base+72(FP), DX
	MOVQ ldb+96(FP), R8
	SHLQ $2, R8                // b row stride in bytes

	LEAQ (DI)(R10*1), R11      // d row 1
	LEAQ (R11)(R10*1), R12     // d row 2
	LEAQ (R12)(R10*1), R13     // d row 3
	LEAQ (R9)(R9*1), R14       // 2*lda (elements)
	LEAQ (R9)(R14*1), R15      // 3*lda (elements)

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R11), Y2
	VMOVUPS 32(R11), Y3
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7
	TESTQ   CX, CX
	JZ      sgemm4x16_done

sgemm4x16_loop:
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (SI)(R9*4), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (SI)(R14*4), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (SI)(R15*4), Y11
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7
	ADDQ         $4, SI
	ADDQ         R8, DX
	DECQ         CX
	JNZ          sgemm4x16_loop

sgemm4x16_done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R11)
	VMOVUPS Y3, 32(R11)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func sgemmRows4J8(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int)
//
// Four consecutive output rows × 8 columns: same structure as
// sgemmRows4J16 with one b vector and four accumulators.
TEXT ·sgemmRows4J8(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ ldd+24(FP), R10
	SHLQ $2, R10
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	MOVQ k+64(FP), CX
	MOVQ b_base+72(FP), DX
	MOVQ ldb+96(FP), R8
	SHLQ $2, R8

	LEAQ (DI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	LEAQ (R9)(R9*1), R14
	LEAQ (R9)(R14*1), R15

	VMOVUPS (DI), Y0
	VMOVUPS (R11), Y1
	VMOVUPS (R12), Y2
	VMOVUPS (R13), Y3
	TESTQ   CX, CX
	JZ      sgemm4x8_done

sgemm4x8_loop:
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (SI)(R9*4), Y11
	VFMADD231PS  Y8, Y11, Y1
	VBROADCASTSS (SI)(R14*4), Y10
	VFMADD231PS  Y8, Y10, Y2
	VBROADCASTSS (SI)(R15*4), Y11
	VFMADD231PS  Y8, Y11, Y3
	ADDQ         $4, SI
	ADDQ         R8, DX
	DECQ         CX
	JNZ          sgemm4x8_loop

sgemm4x8_done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (R11)
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, (R13)
	VZEROUPPER
	RET

// func sscal32AVX2(v []float32, alpha float32)
// v[j] *= alpha, 8-wide. len(v) must be a positive multiple of 8.
TEXT ·sscal32AVX2(SB), NOSPLIT, $0-28
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSS alpha+24(FP), Y0
	SHRQ         $3, CX

sscal_loop:
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sscal_loop

	VZEROUPPER
	RET

// Shared constant table for the vectorized float32 transcendentals:
// Cephes expf reduction x = n·ln2 + r and degree-7 minimax polynomial,
// the same constants as the scalar Exp32.
DATA exp32consts<>+0x00(SB)/4, $0x42b00000 // 88.0   clamp hi
DATA exp32consts<>+0x04(SB)/4, $0xc2ae0000 // -87.0  clamp lo
DATA exp32consts<>+0x08(SB)/4, $0x3fb8aa3b // log2(e)
DATA exp32consts<>+0x0c(SB)/4, $0x3f318000 // C1 = 0.693359375
DATA exp32consts<>+0x10(SB)/4, $0xb95e8083 // C2 = -2.12194440e-4
DATA exp32consts<>+0x14(SB)/4, $0x39506967 // P0 = 1.9875691500e-4
DATA exp32consts<>+0x18(SB)/4, $0x3ab743ce // P1 = 1.3981999507e-3
DATA exp32consts<>+0x1c(SB)/4, $0x3c088908 // P2 = 8.3334519073e-3
DATA exp32consts<>+0x20(SB)/4, $0x3d2aa9c1 // P3 = 4.1665795894e-2
DATA exp32consts<>+0x24(SB)/4, $0x3e2aaa94 // P4 = 1.6666665459e-1
DATA exp32consts<>+0x28(SB)/4, $0x3f000008 // P5 = 5.0000001201e-1
DATA exp32consts<>+0x2c(SB)/4, $0x3f800000 // 1.0 (float) == 127<<23 (exponent bias)
GLOBL exp32consts<>(SB), RODATA, $48

// EXP32_LOAD_CONSTS broadcasts the table into Y4..Y15, leaving Y0..Y3
// as scratch for EXP32_CORE.
#define EXP32_LOAD_CONSTS \
	VBROADCASTSS exp32consts<>+0x00(SB), Y4  \
	VBROADCASTSS exp32consts<>+0x04(SB), Y5  \
	VBROADCASTSS exp32consts<>+0x08(SB), Y6  \
	VBROADCASTSS exp32consts<>+0x0c(SB), Y7  \
	VBROADCASTSS exp32consts<>+0x10(SB), Y8  \
	VBROADCASTSS exp32consts<>+0x14(SB), Y9  \
	VBROADCASTSS exp32consts<>+0x18(SB), Y10 \
	VBROADCASTSS exp32consts<>+0x1c(SB), Y11 \
	VBROADCASTSS exp32consts<>+0x20(SB), Y12 \
	VBROADCASTSS exp32consts<>+0x24(SB), Y13 \
	VBROADCASTSS exp32consts<>+0x28(SB), Y14 \
	VBROADCASTSS exp32consts<>+0x2c(SB), Y15

// EXP32_CORE computes Y3 = e^Y0 for 8 lanes, clobbering Y0..Y3. Inputs
// are clamped to [-87, 88] (so ±Inf and NaN lanes produce finite
// values); n = rint(x·log2e) uses round-to-nearest-even and the r
// reduction and polynomial use FMA, so lanes may differ from the scalar
// Exp32 in the final ulp. Step by step: clamp x; n = rint(x·log2e);
// r = x - n·C1 - n·C2; build 2^n bits as (n+127)<<23 reusing bits(1.0)
// as the bias; Horner q = ((((P0·r+P1)·r+P2)·r+P3)·r+P4)·r+P5; then
// y = (q·r² + r + 1)·2^n.
#define EXP32_CORE \
	VMINPS       Y4, Y0, Y0   \
	VMAXPS       Y5, Y0, Y0   \
	VMULPS       Y6, Y0, Y1   \
	VROUNDPS     $0, Y1, Y1   \
	VMOVAPS      Y0, Y2       \
	VFNMADD231PS Y7, Y1, Y2   \
	VFNMADD231PS Y8, Y1, Y2   \
	VCVTPS2DQ    Y1, Y1       \
	VPSLLD       $23, Y1, Y1  \
	VPADDD       Y15, Y1, Y1  \
	VMULPS       Y2, Y2, Y0   \
	VMOVAPS      Y9, Y3       \
	VFMADD213PS  Y10, Y2, Y3  \
	VFMADD213PS  Y11, Y2, Y3  \
	VFMADD213PS  Y12, Y2, Y3  \
	VFMADD213PS  Y13, Y2, Y3  \
	VFMADD213PS  Y14, Y2, Y3  \
	VFMADD213PS  Y2, Y0, Y3   \
	VADDPS       Y15, Y3, Y3  \
	VMULPS       Y1, Y3, Y3

// func exp32AVX2(v []float32)
// v[i] = e^v[i]; len(v) is a positive multiple of 8.
TEXT ·exp32AVX2(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	EXP32_LOAD_CONSTS

exp32_loop:
	VMOVUPS (DI), Y0
	EXP32_CORE
	VMOVUPS Y3, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     exp32_loop
	VZEROUPPER
	RET

// func tanh32AVX2(v []float32)
// v[i] = tanh(v[i]) via t = e^{2x}, (t-1)/(t+1); len(v) is a positive
// multiple of 8. The exp clamp bounds 2x, so |x| ≥ 44 saturates to ±1.
TEXT ·tanh32AVX2(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	EXP32_LOAD_CONSTS

tanh32_loop:
	VMOVUPS (DI), Y0
	VADDPS  Y0, Y0, Y0 // 2x
	EXP32_CORE
	VSUBPS  Y15, Y3, Y0 // t - 1
	VADDPS  Y15, Y3, Y1 // t + 1
	VDIVPS  Y1, Y0, Y3
	VMOVUPS Y3, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     tanh32_loop
	VZEROUPPER
	RET

// func sigmoid32AVX2(v []float32)
// v[i] = 1/(1+e^{-v[i]}); len(v) is a positive multiple of 8. The exp
// clamp keeps e^{-x} finite (e^88 < MaxFloat32), so no sign branch is
// needed.
TEXT ·sigmoid32AVX2(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	EXP32_LOAD_CONSTS

sigmoid32_loop:
	VMOVUPS (DI), Y2
	VXORPS  Y0, Y0, Y0
	VSUBPS  Y2, Y0, Y0 // -x
	EXP32_CORE
	VADDPS  Y15, Y3, Y1 // e^{-x} + 1
	VDIVPS  Y1, Y15, Y3 // 1/(e^{-x}+1)
	VMOVUPS Y3, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     sigmoid32_loop
	VZEROUPPER
	RET

// func relu32AVX2(v []float32)
// v[i] = max(v[i], 0); len(v) is a positive multiple of 8. Matches the
// scalar branch except that -0 maps to +0 (VMAXPS returns the second
// source on ties), which is invisible downstream.
TEXT ·relu32AVX2(SB), NOSPLIT, $0-24
	MOVQ   v_base+0(FP), DI
	MOVQ   v_len+8(FP), CX
	VXORPS Y0, Y0, Y0

relu32_loop:
	VMAXPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     relu32_loop
	VZEROUPPER
	RET

// func csrRowJ32(drow []float32, cols []int32, w, h []float32, ldh int)
// Sparse row aggregate: drow[j] += w[p]*h[cols[p]*ldh+j] over all
// nonzeros p, with the 32-column tile register-resident throughout.
TEXT ·csrRowJ32(SB), NOSPLIT, $0-104
	MOVQ    drow_base+0(FP), DI
	MOVQ    cols_base+24(FP), SI
	MOVQ    cols_len+32(FP), CX
	MOVQ    w_base+48(FP), R9
	MOVQ    h_base+72(FP), DX
	MOVQ    ldh+96(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	TESTQ   CX, CX
	JZ      csr32_done

csr32_loop:
	MOVL         (SI), AX
	IMULQ        R8, AX
	ADDQ         DX, AX
	VBROADCASTSS (R9), Y0
	VFMADD231PS  (AX), Y0, Y1
	VFMADD231PS  32(AX), Y0, Y2
	VFMADD231PS  64(AX), Y0, Y3
	VFMADD231PS  96(AX), Y0, Y4
	ADDQ         $4, SI
	ADDQ         $4, R9
	DECQ         CX
	JNZ          csr32_loop

csr32_done:
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	VZEROUPPER
	RET

// func csrRowJ16(drow []float32, cols []int32, w, h []float32, ldh int)
TEXT ·csrRowJ16(SB), NOSPLIT, $0-104
	MOVQ    drow_base+0(FP), DI
	MOVQ    cols_base+24(FP), SI
	MOVQ    cols_len+32(FP), CX
	MOVQ    w_base+48(FP), R9
	MOVQ    h_base+72(FP), DX
	MOVQ    ldh+96(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	TESTQ   CX, CX
	JZ      csr16_done

csr16_loop:
	MOVL         (SI), AX
	IMULQ        R8, AX
	ADDQ         DX, AX
	VBROADCASTSS (R9), Y0
	VFMADD231PS  (AX), Y0, Y1
	VFMADD231PS  32(AX), Y0, Y2
	ADDQ         $4, SI
	ADDQ         $4, R9
	DECQ         CX
	JNZ          csr16_loop

csr16_done:
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VZEROUPPER
	RET

// func csrRowJ8(drow []float32, cols []int32, w, h []float32, ldh int)
TEXT ·csrRowJ8(SB), NOSPLIT, $0-104
	MOVQ    drow_base+0(FP), DI
	MOVQ    cols_base+24(FP), SI
	MOVQ    cols_len+32(FP), CX
	MOVQ    w_base+48(FP), R9
	MOVQ    h_base+72(FP), DX
	MOVQ    ldh+96(FP), R8
	SHLQ    $2, R8
	VMOVUPS (DI), Y1
	TESTQ   CX, CX
	JZ      csr8_done

csr8_loop:
	MOVL         (SI), AX
	IMULQ        R8, AX
	ADDQ         DX, AX
	VBROADCASTSS (R9), Y0
	VFMADD231PS  (AX), Y0, Y1
	ADDQ         $4, SI
	ADDQ         $4, R9
	DECQ         CX
	JNZ          csr8_loop

csr8_done:
	VMOVUPS Y1, (DI)
	VZEROUPPER
	RET
