#include "textflag.h"

// AVX2/FMA bodies of the register-tiled sgemm micro-kernels in kernels.go.
// Each processes n float32 elements, where n is a positive multiple of 8
// (one YMM register); the Go wrappers finish the n%8 remainder with their
// scalar loops. Loads and stores are unaligned (VMOVUPS): rows are
// subslices at arbitrary offsets.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4p2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x, z, y0, y1, y2, y3 *float32, n int)
//
// y_r[i] += a_r·x[i] + b_r·z[i] for r = 0..3: two FMAs per loaded and stored
// C element.
TEXT ·axpy4p2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	VBROADCASTSS b0+16(FP), Y4
	VBROADCASTSS b1+20(FP), Y5
	VBROADCASTSS b2+24(FP), Y6
	VBROADCASTSS b3+28(FP), Y7
	MOVQ x+32(FP), SI
	MOVQ z+40(FP), DI
	MOVQ y0+48(FP), R8
	MOVQ y1+56(FP), R9
	MOVQ y2+64(FP), R10
	MOVQ y3+72(FP), R11
	MOVQ n+80(FP), CX
	XORQ AX, AX

axpy4p2loop:
	VMOVUPS     (SI)(AX*4), Y8
	VMOVUPS     (DI)(AX*4), Y9
	VMOVUPS     (R8)(AX*4), Y10
	VMOVUPS     (R9)(AX*4), Y11
	VMOVUPS     (R10)(AX*4), Y12
	VMOVUPS     (R11)(AX*4), Y13
	VFMADD231PS Y8, Y0, Y10
	VFMADD231PS Y8, Y1, Y11
	VFMADD231PS Y8, Y2, Y12
	VFMADD231PS Y8, Y3, Y13
	VFMADD231PS Y9, Y4, Y10
	VFMADD231PS Y9, Y5, Y11
	VFMADD231PS Y9, Y6, Y12
	VFMADD231PS Y9, Y7, Y13
	VMOVUPS     Y10, (R8)(AX*4)
	VMOVUPS     Y11, (R9)(AX*4)
	VMOVUPS     Y12, (R10)(AX*4)
	VMOVUPS     Y13, (R11)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         axpy4p2loop
	VZEROUPPER
	RET

// func axpy4in2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x0, x1, x2, x3, y, z *float32, n int)
//
// y[i] += Σ_r a_r·x_r[i] and z[i] += Σ_r b_r·x_r[i]: the four X loads feed
// both output rows.
TEXT ·axpy4in2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	VBROADCASTSS b0+16(FP), Y4
	VBROADCASTSS b1+20(FP), Y5
	VBROADCASTSS b2+24(FP), Y6
	VBROADCASTSS b3+28(FP), Y7
	MOVQ x0+32(FP), SI
	MOVQ x1+40(FP), DI
	MOVQ x2+48(FP), R8
	MOVQ x3+56(FP), R9
	MOVQ y+64(FP), R10
	MOVQ z+72(FP), R11
	MOVQ n+80(FP), CX
	XORQ AX, AX

axpy4in2loop:
	VMOVUPS     (SI)(AX*4), Y8
	VMOVUPS     (DI)(AX*4), Y9
	VMOVUPS     (R8)(AX*4), Y10
	VMOVUPS     (R9)(AX*4), Y11
	VMOVUPS     (R10)(AX*4), Y12
	VMOVUPS     (R11)(AX*4), Y13
	VFMADD231PS Y8, Y0, Y12
	VFMADD231PS Y8, Y4, Y13
	VFMADD231PS Y9, Y1, Y12
	VFMADD231PS Y9, Y5, Y13
	VFMADD231PS Y10, Y2, Y12
	VFMADD231PS Y10, Y6, Y13
	VFMADD231PS Y11, Y3, Y12
	VFMADD231PS Y11, Y7, Y13
	VMOVUPS     Y12, (R10)(AX*4)
	VMOVUPS     Y13, (R11)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         axpy4in2loop
	VZEROUPPER
	RET

// func dot4x2AVX2(x0, x1, y0, y1, y2, y3 *float32, n int) (s00, s01, s02, s03, s10, s11, s12, s13 float32)
//
// s_rj = Σ_i x_r[i]·y_j[i]: eight YMM accumulators, each B load feeding two
// FMAs. The lanes are reduced with a horizontal-add tree and each set of
// four sums is stored with one 16-byte write (the four results are
// contiguous in the frame).
TEXT ·dot4x2AVX2(SB), NOSPLIT, $0-88
	MOVQ   x0+0(FP), SI
	MOVQ   x1+8(FP), DI
	MOVQ   y0+16(FP), R8
	MOVQ   y1+24(FP), R9
	MOVQ   y2+32(FP), R10
	MOVQ   y3+40(FP), R11
	MOVQ   n+48(FP), CX
	XORQ   AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

dot4x2loop:
	VMOVUPS     (SI)(AX*4), Y8
	VMOVUPS     (DI)(AX*4), Y9
	VMOVUPS     (R8)(AX*4), Y10
	VMOVUPS     (R9)(AX*4), Y11
	VMOVUPS     (R10)(AX*4), Y12
	VMOVUPS     (R11)(AX*4), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         dot4x2loop

	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVUPS      X0, s00+56(FP)
	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4
	VMOVUPS      X4, s10+72(FP)
	VZEROUPPER
	RET

// func dot4AVX2(x, y0, y1, y2, y3 *float32, n int) (s0, s1, s2, s3 float32)
//
// s_j = Σ_i x[i]·y_j[i]: dot4x2 with one A row.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-64
	MOVQ   x+0(FP), SI
	MOVQ   y0+8(FP), R8
	MOVQ   y1+16(FP), R9
	MOVQ   y2+24(FP), R10
	MOVQ   y3+32(FP), R11
	MOVQ   n+40(FP), CX
	XORQ   AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot4loop:
	VMOVUPS     (SI)(AX*4), Y8
	VFMADD231PS (R8)(AX*4), Y8, Y0
	VFMADD231PS (R9)(AX*4), Y8, Y1
	VFMADD231PS (R10)(AX*4), Y8, Y2
	VFMADD231PS (R11)(AX*4), Y8, Y3
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         dot4loop

	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVUPS      X0, s0+48(FP)
	VZEROUPPER
	RET

// func axpy4inAVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y *float32, n int)
//
// y[i] += Σ_r a_r·x_r[i]: axpy4in2 with one output row.
TEXT ·axpy4inAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ x0+16(FP), SI
	MOVQ x1+24(FP), DI
	MOVQ x2+32(FP), R8
	MOVQ x3+40(FP), R9
	MOVQ y+48(FP), R10
	MOVQ n+56(FP), CX
	XORQ AX, AX

axpy4inloop:
	VMOVUPS     (R10)(AX*4), Y12
	VFMADD231PS (SI)(AX*4), Y0, Y12
	VFMADD231PS (DI)(AX*4), Y1, Y12
	VFMADD231PS (R8)(AX*4), Y2, Y12
	VFMADD231PS (R9)(AX*4), Y3, Y12
	VMOVUPS     Y12, (R10)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         axpy4inloop
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 *float32, n int)
//
// y_r[i] += a_r·x[i] for r = 0..3: axpy4p2 with one B row.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ x+16(FP), SI
	MOVQ y0+24(FP), R8
	MOVQ y1+32(FP), R9
	MOVQ y2+40(FP), R10
	MOVQ y3+48(FP), R11
	MOVQ n+56(FP), CX
	XORQ AX, AX

axpy4loop:
	VMOVUPS     (SI)(AX*4), Y8
	VMOVUPS     (R8)(AX*4), Y10
	VMOVUPS     (R9)(AX*4), Y11
	VMOVUPS     (R10)(AX*4), Y12
	VMOVUPS     (R11)(AX*4), Y13
	VFMADD231PS Y8, Y0, Y10
	VFMADD231PS Y8, Y1, Y11
	VFMADD231PS Y8, Y2, Y12
	VFMADD231PS Y8, Y3, Y13
	VMOVUPS     Y10, (R8)(AX*4)
	VMOVUPS     Y11, (R9)(AX*4)
	VMOVUPS     Y12, (R10)(AX*4)
	VMOVUPS     Y13, (R11)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         axpy4loop
	VZEROUPPER
	RET
