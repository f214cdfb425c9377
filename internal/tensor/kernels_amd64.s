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

// func dgemmRowNZ(drow, arow, b []float64, ldb int)
// drow[j] += Σ_k arow[k]*b[k*ldb+j] over k ascending, skipping every k
// whose arow[k] is ±0 (NaN is never skipped); len(drow) is a positive
// multiple of 8. arow is taken in chunks of up to 64 entries. Each chunk
// is first compacted, without a branch on any entry, into a bit mask of
// its nonzero entries, built from the last entry down so that bit i is
// entry i:
//   - four entries at a time, VCMPPD NEQ_UQ against zero (false exactly
//     for ±0) and VMOVMSKPD, shifted in four bits at a time;
//   - the tail under four, one bit at a time: the entry's bits shifted
//     left by one are zero exactly for ±0, NEG sets the carry iff they
//     are not, and ADC adds the carry as the new low bit.
// The column tiles (16 wide in Y1..Y4, then 8 wide in Y1..Y2) then run
// over the chunk: straight down arow when the mask has no zero bit (a
// dense chunk needs no test at all), otherwise over the set bits in
// ascending order (BSF, then clear the lowest bit). The set-bit loop
// pays a BSF, an IMUL and an ADD per entry beside the vector work; on
// dense rows it ran 11-46 % slower than the straight loop, and dense
// rows (the raw-feature layer) are about 29 % of what reaches this
// kernel, so both loops stay. In it, XORL zeroes AX before the BSF:
// BSF leaves its destination unwritten for a zero source, so the CPU
// treats AX as an input and would chain each entry's BSF to the last
// entry's IMUL. The B address is formed in AX so that every VMULPD
// has a base-only memory operand, which Intel cores issue as one fused
// operation where an indexed one splits in two. Per entry: broadcast a[k], VMULPD
// against B row k, VADDPD the product (first operand) into the tile.
// Never FMA, k ascending: bitwise the scalar skip-zero loop per
// element. No branch tests a single entry: the data-dependent branches
// are the dense-or-not choice, once per chunk, and the exit of the loop
// over set bits, once per tile.
TEXT ·dgemmRowNZ(SB), NOSPLIT, $0-80
	MOVQ  drow_base+0(FP), DI
	MOVQ  drow_len+8(FP), R12
	MOVQ  arow_base+24(FP), SI
	MOVQ  arow_len+32(FP), CX
	MOVQ  b_base+48(FP), DX
	MOVQ  ldb+72(FP), R8
	SHLQ  $3, R8            // B row stride in bytes
	VXORPD Y9, Y9, Y9
	TESTQ CX, CX
	JZ    nz_ret

nz_chunk:
	MOVQ CX, R10
	CMPQ R10, $64
	JBE  nz_take
	MOVQ $64, R10

nz_take:
	SUBQ R10, CX
	XORQ R11, R11           // nonzero mask
	LEAQ (SI)(R10*8), AX    // one past the chunk's last entry
	MOVQ R10, R9
	ANDQ $3, R9
	JZ   nz_groups

nz_tail:
	SUBQ $8, AX
	SHLQ $1, R11
	MOVQ (AX), BX
	SHLQ $1, BX
	NEGQ BX
	ADCQ $0, R11
	DECQ R9
	JNZ  nz_tail

nz_groups:
	CMPQ AX, SI
	JEQ  nz_masked

nz_group:
	SUBQ      $32, AX
	VCMPPD    $0x04, (AX), Y9, Y11 // a != 0 (NEQ_UQ)
	VMOVMSKPD Y11, BX
	SHLQ      $4, R11
	ORQ       BX, R11
	CMPQ      AX, SI
	JNE       nz_group

nz_masked:
	TESTQ R11, R11
	JZ    nz_next
	MOVQ  DI, R15           // drow tile
	MOVQ  DX, R13           // B column of the tile
	MOVQ  R12, R14          // columns left
	MOVQ  R11, BX
	NOTQ  BX
	BSFQ  BX, BX            // the first ±0 entry, if any
	JEQ   nz_dense16
	CMPQ  BX, R10
	JAE   nz_dense16

nz_tile16:
	CMPQ    R14, $16
	JB      nz_tile8
	VMOVUPD (R15), Y1
	VMOVUPD 32(R15), Y2
	VMOVUPD 64(R15), Y3
	VMOVUPD 96(R15), Y4
	MOVQ    R11, R9

nz_loop16:
	XORL         AX, AX
	BSFQ         R9, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	ADDQ         R13, AX
	VMULPD       (AX), Y0, Y5
	VMULPD       32(AX), Y0, Y6
	VMULPD       64(AX), Y0, Y7
	VMULPD       96(AX), Y0, Y8
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	VADDPD       Y3, Y7, Y3
	VADDPD       Y4, Y8, Y4
	LEAQ         -1(R9), BX
	ANDQ         BX, R9
	JNZ          nz_loop16
	VMOVUPD      Y1, (R15)
	VMOVUPD      Y2, 32(R15)
	VMOVUPD      Y3, 64(R15)
	VMOVUPD      Y4, 96(R15)
	ADDQ         $128, R15
	ADDQ         $128, R13
	SUBQ         $16, R14
	JMP          nz_tile16

nz_tile8:
	TESTQ   R14, R14
	JZ      nz_next
	VMOVUPD (R15), Y1
	VMOVUPD 32(R15), Y2
	MOVQ    R11, R9

nz_loop8:
	XORL         AX, AX
	BSFQ         R9, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	ADDQ         R13, AX
	VMULPD       (AX), Y0, Y5
	VMULPD       32(AX), Y0, Y6
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	LEAQ         -1(R9), BX
	ANDQ         BX, R9
	JNZ          nz_loop8
	VMOVUPD      Y1, (R15)
	VMOVUPD      Y2, 32(R15)
	JMP          nz_next

nz_dense16:
	CMPQ    R14, $16
	JB      nz_dense8
	VMOVUPD (R15), Y1
	VMOVUPD 32(R15), Y2
	VMOVUPD 64(R15), Y3
	VMOVUPD 96(R15), Y4
	MOVQ    SI, AX
	MOVQ    R13, R9
	MOVQ    R10, BX

nz_dense16_loop:
	VBROADCASTSD (AX), Y0
	VMULPD       (R9), Y0, Y5
	VMULPD       32(R9), Y0, Y6
	VMULPD       64(R9), Y0, Y7
	VMULPD       96(R9), Y0, Y8
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	VADDPD       Y3, Y7, Y3
	VADDPD       Y4, Y8, Y4
	ADDQ         $8, AX
	ADDQ         R8, R9
	DECQ         BX
	JNZ          nz_dense16_loop
	VMOVUPD      Y1, (R15)
	VMOVUPD      Y2, 32(R15)
	VMOVUPD      Y3, 64(R15)
	VMOVUPD      Y4, 96(R15)
	ADDQ         $128, R15
	ADDQ         $128, R13
	SUBQ         $16, R14
	JMP          nz_dense16

nz_dense8:
	TESTQ   R14, R14
	JZ      nz_next
	VMOVUPD (R15), Y1
	VMOVUPD 32(R15), Y2
	MOVQ    SI, AX
	MOVQ    R13, R9
	MOVQ    R10, BX

nz_dense8_loop:
	VBROADCASTSD (AX), Y0
	VMULPD       (R9), Y0, Y5
	VMULPD       32(R9), Y0, Y6
	VADDPD       Y1, Y5, Y1
	VADDPD       Y2, Y6, Y2
	ADDQ         $8, AX
	ADDQ         R8, R9
	DECQ         BX
	JNZ          nz_dense8_loop
	VMOVUPD      Y1, (R15)
	VMOVUPD      Y2, 32(R15)

nz_next:
	LEAQ  (SI)(R10*8), SI   // next chunk of arow
	IMULQ R8, R10
	ADDQ  R10, DX           // and of B's rows
	TESTQ CX, CX
	JNZ   nz_chunk

nz_ret:
	VZEROUPPER
	RET

// func dgemv4AVX2(d, a, b []float64)
// The one-column product for four rows at once: d[r] += Σ_k
// a[r*len(b)+k]*b[k] for r in 0..3, k ascending, one row per lane of
// Y0. A term whose a is ±0 adds −0 instead of its product (which may be
// NaN when b[k] is ±Inf or NaN): −0 is the additive identity, so the
// lane's sum is bitwise that of the scalar loop that skips the term.
// VMULPD then VADDPD (accumulator first, as in s += p), never FMA.
TEXT ·dgemv4AVX2(SB), NOSPLIT, $0-72
	MOVQ      d_base+0(FP), DI
	MOVQ      a_base+24(FP), SI
	MOVQ      b_base+48(FP), DX
	MOVQ      b_len+56(FP), CX
	LEAQ      (CX*8), R8        // row stride in bytes
	LEAQ      (R8)(R8*2), R9    // three rows
	VMOVUPD   (DI), Y0
	VXORPD    Y14, Y14, Y14     // +0
	VPCMPEQQ  Y15, Y15, Y15
	VPSLLQ    $63, Y15, Y15     // −0
	TESTQ     CX, CX
	JZ        gemv4_done

gemv4_loop:
	VMOVSD       (SI), X1
	VMOVHPD      (SI)(R8*1), X1, X1
	VMOVSD       (SI)(R8*2), X2
	VMOVHPD      (SI)(R9*1), X2, X2
	VINSERTF128  $1, X2, Y1, Y1     // (a[0][k], a[1][k], a[2][k], a[3][k])
	VBROADCASTSD (DX), Y3
	VMULPD       Y3, Y1, Y4
	VCMPPD       $0x00, Y14, Y1, Y5 // a == ±0
	VBLENDVPD    Y5, Y15, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          gemv4_loop

gemv4_done:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func relu64AVX2(v []float64)
// v[i] = +0 where v[i] < 0, 4-wide; len(v) is a positive multiple of 4.
// A mask, not max: −0 and NaN fail the ordered compare and are kept,
// exactly as by the scalar `if v < 0 { v = 0 }`.
TEXT ·relu64AVX2(SB), NOSPLIT, $0-24
	MOVQ   v_base+0(FP), DI
	MOVQ   v_len+8(FP), CX
	VXORPD Y0, Y0, Y0

relu64_loop:
	VMOVUPD (DI), Y1
	VCMPPD  $0x11, Y0, Y1, Y2 // v < 0 (LT_OQ)
	VANDNPD Y1, Y2, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     relu64_loop
	VZEROUPPER
	RET

// Constants of tanh64AVX2, each replicated into four lanes: the
// constants of math.tanh (tanh.go) and of math.archExp
// (exp_amd64.s), written as those files write them.
#define TANH64C(off, v) \
	DATA tanh64c<>+(off)(SB)/8, v \
	DATA tanh64c<>+(off+8)(SB)/8, v \
	DATA tanh64c<>+(off+16)(SB)/8, v \
	DATA tanh64c<>+(off+24)(SB)/8, v

TANH64C(0x000, $0x7fffffffffffffff)         // |x| mask
TANH64C(0x020, $0x404601e678fc457b)         // 0.5*MAXLOG, as Go folds it
TANH64C(0x040, $0.625)
TANH64C(0x060, $-9.64399179425052238628e-1) // tanhP
TANH64C(0x080, $-9.92877231001918586564e1)
TANH64C(0x0a0, $-1.61468768441708447952e3)
TANH64C(0x0c0, $1.12811678491632931402e2)   // tanhQ
TANH64C(0x0e0, $2.23548839060100448583e3)
TANH64C(0x100, $4.84406305325125486048e3)
TANH64C(0x120, $1.4426950408889634073599246810018920)            // LOG2E
TANH64C(0x140, $0.69314718055966295651160180568695068359375)     // LN2U
TANH64C(0x160, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
TANH64C(0x180, $0.0625)
TANH64C(0x1a0, $2.4801587301587301587e-5)   // exprodata+64 down to +24
TANH64C(0x1c0, $1.9841269841269841270e-4)
TANH64C(0x1e0, $1.3888888888888888889e-3)
TANH64C(0x200, $8.3333333333333333333e-3)
TANH64C(0x220, $4.1666666666666666667e-2)
TANH64C(0x240, $1.6666666666666666667e-1)
TANH64C(0x260, $0.5)
TANH64C(0x280, $1.0)
TANH64C(0x2a0, $2.0)
TANH64C(0x2c0, $0x3ff)                      // exponent bias
GLOBL tanh64c<>(SB), RODATA, $0x2e0

// func tanh64AVX2(v []float64)
// v[i] = math.Tanh(v[i]) bit for bit, 4-wide; len(v) is a positive
// multiple of 4. Every lane computes both branches of math.tanh and
// blends them:
//   - |x| < 0.625: x + x*s*P(s)/Q(s) with s = x*x, in the order and
//     with the separate roundings the Go compiler emits for tanh.go (gc
//     never contracts a*b+c into an FMA on amd64, at any GOAMD64 level);
//   - 0.625 ≤ |x| ≤ 0.5*MAXLOG: 1 - 2/(e+1), sign of x, where e is
//     archExp(2|x|) on its avxfma path instruction for instruction:
//     n = rint(w*LOG2E) (VCVTPD2DQ rounds like CVTSD2SL), the two FMA
//     reduction steps, the FMA Taylor polynomial, the four doublings and
//     the scale by 2^n. 2|x| lies in [1.25, 88.03], where archExp takes
//     neither its overflow, denormal nor non-finite exits;
//   - |x| > 0.5*MAXLOG (±Inf included): ±1;
//   - x = ±0: x itself.
// The two branches share one VDIVPD: each lane divides the operands of
// its own branch (x*s*P by Q, or 2 by e+1), picked by |x| ≥ 0.625
// before the division, so every lane's quotient is the one its branch
// rounds. NaN fails every compare and keeps the rational branch's NaN.
// simdEnabled requires AVX and FMA, exactly the condition under which
// math.archExp takes its avxfma path.
TEXT ·tanh64AVX2(SB), NOSPLIT, $0-24
	MOVQ    v_base+0(FP), DI
	MOVQ    v_len+8(FP), CX
	VMOVUPD tanh64c<>+0x280(SB), Y13 // 1
	VMOVUPD tanh64c<>+0x2a0(SB), Y14 // 2

tanh64_loop:
	VMOVUPD (DI), Y0
	VANDPD  tanh64c<>+0x000(SB), Y0, Y1     // z = |x|
	VXORPD  Y1, Y0, Y15                     // sign bit of x
	VCMPPD  $0x1d, tanh64c<>+0x040(SB), Y1, Y11 // big: z >= 0.625

	// Rational branch's operands: x*s*P(s) in Y2, Q(s) in Y4.
	VMULPD Y0, Y0, Y2                  // s = x*x
	VMULPD tanh64c<>+0x060(SB), Y2, Y3 // P0*s
	VADDPD tanh64c<>+0x080(SB), Y3, Y3 // +P1
	VMULPD Y2, Y3, Y3                  // *s
	VADDPD tanh64c<>+0x0a0(SB), Y3, Y3 // +P2
	VADDPD tanh64c<>+0x0c0(SB), Y2, Y4 // s+Q0
	VMULPD Y2, Y4, Y4                  // *s
	VADDPD tanh64c<>+0x0e0(SB), Y4, Y4 // +Q1
	VMULPD Y2, Y4, Y4                  // *s
	VADDPD tanh64c<>+0x100(SB), Y4, Y4 // +Q2
	VMULPD Y2, Y0, Y2                  // x*s
	VMULPD Y3, Y2, Y2                  // x*s*P

	// Exponential branch's operand: e+1 in Y3.
	VADDPD       Y1, Y1, Y3                  // w = 2z
	VMULPD       tanh64c<>+0x120(SB), Y3, Y5 // w*LOG2E
	VCVTPD2DQY   Y5, X5                      // n
	VCVTDQ2PD    X5, Y6
	VFNMADD231PD tanh64c<>+0x140(SB), Y6, Y3 // w -= n*LN2U
	VFNMADD231PD tanh64c<>+0x160(SB), Y6, Y3 // w -= n*LN2L
	VMULPD       tanh64c<>+0x180(SB), Y3, Y3 // r = w/16
	VMOVUPD      tanh64c<>+0x1a0(SB), Y6
	VFMADD213PD  tanh64c<>+0x1c0(SB), Y3, Y6
	VFMADD213PD  tanh64c<>+0x1e0(SB), Y3, Y6
	VFMADD213PD  tanh64c<>+0x200(SB), Y3, Y6
	VFMADD213PD  tanh64c<>+0x220(SB), Y3, Y6
	VFMADD213PD  tanh64c<>+0x240(SB), Y3, Y6
	VFMADD213PD  tanh64c<>+0x260(SB), Y3, Y6
	VFMADD213PD  Y13, Y3, Y6
	VMULPD       Y6, Y3, Y3                  // y = r*poly ≈ e^r - 1
	VADDPD       Y14, Y3, Y6
	VMULPD       Y6, Y3, Y3                  // y = y*(y+2), three times
	VADDPD       Y14, Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y14, Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y14, Y3, Y6
	VFMADD213PD  Y13, Y6, Y3                 // y*(y+2) + 1 = e^(16r)
	VPMOVSXDQ    X5, Y5
	VPADDQ       tanh64c<>+0x2c0(SB), Y5, Y5
	VPSLLQ       $52, Y5, Y5                 // 2^n
	VMULPD       Y5, Y3, Y3                  // e = archExp(w)
	VADDPD       Y13, Y3, Y3                 // e+1

	// One division for both branches, then each branch's last step.
	VBLENDVPD Y11, Y14, Y2, Y2       // big ? 2 : x*s*P
	VBLENDVPD Y11, Y3, Y4, Y4        // big ? e+1 : Q
	VDIVPD    Y4, Y2, Y2             // q
	VADDPD    Y2, Y0, Y12            // x + q
	VSUBPD    Y2, Y13, Y3            // 1 - q
	VORPD     Y15, Y3, Y3            // sign of x (1 - q > 0 here)
	VBLENDVPD Y11, Y3, Y12, Y12

	// Saturate, then pass ±0 through.
	VCMPPD    $0x1e, tanh64c<>+0x020(SB), Y1, Y6 // z > 0.5*MAXLOG
	VORPD     Y15, Y13, Y3                       // ±1
	VBLENDVPD Y6, Y3, Y12, Y12
	VXORPD    Y7, Y7, Y7
	VCMPPD    $0x00, Y7, Y0, Y6                  // x == ±0
	VBLENDVPD Y6, Y0, Y12, Y12
	VMOVUPD   Y12, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       tanh64_loop
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
