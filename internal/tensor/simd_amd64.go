package tensor

// useAVX2 selects the AVX2/FMA assembly bodies (simd_amd64.s) of the sgemm
// micro-kernels. It is decided once per process from CPUID, so a binary
// built for the baseline amd64 ISA (GOAMD64=v1) still uses the vector units
// where they exist. When it is false the scalar loops in kernels.go are the
// only path; tests flip it to compare the two.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the OS
// saves the YMM register state across context switches (OSXSAVE set and
// XCR0 enabling both the XMM and the YMM state components).
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0; call it only when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// The kernels below take base pointers and a length n that is a positive
// multiple of 8; see the scalar wrappers in kernels.go for the semantics.

//go:noescape
//photon:hotpath
func axpy4p2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x, z, y0, y1, y2, y3 *float32, n int)

//go:noescape
//photon:hotpath
func axpy4in2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x0, x1, x2, x3, y, z *float32, n int)

//go:noescape
//photon:hotpath
func dot4x2AVX2(x0, x1, y0, y1, y2, y3 *float32, n int) (s00, s01, s02, s03, s10, s11, s12, s13 float32)

//go:noescape
//photon:hotpath
func dot4AVX2(x, y0, y1, y2, y3 *float32, n int) (s0, s1, s2, s3 float32)

//go:noescape
//photon:hotpath
func axpy4inAVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y *float32, n int)

//go:noescape
//photon:hotpath
func axpy4AVX2(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 *float32, n int)
