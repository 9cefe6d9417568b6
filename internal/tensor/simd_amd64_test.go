package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// setAVX2 switches the micro-kernels to the assembly (on) or the scalar
// (off) path for the rest of t, restoring the detected choice afterwards.
func setAVX2(t *testing.T, on bool) {
	t.Helper()
	if on && !hasAVX2FMA() {
		t.Skip("CPU lacks AVX2/FMA: the scalar kernels are the only path")
	}
	saved := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = saved })
}

// microKernel adapts one register-tiled kernel to a uniform harness: c holds
// its scalar coefficients, in its streamed input rows, out the rows it
// accumulates into, and dots the sums it returns.
type microKernel struct {
	name             string
	coefs, ins, outs int
	dots             int
	// terms is the number of floating-point terms summed into one output
	// element of an axpy kernel (its products plus the old value); a dot
	// kernel sums n.
	terms int
	run   func(c []float32, in, out [][]float32, dots []float32)
}

var microKernels = []microKernel{
	{name: "axpy4", coefs: 4, ins: 1, outs: 4, terms: 2,
		run: func(c []float32, in, out [][]float32, _ []float32) {
			axpy4(c[0], c[1], c[2], c[3], in[0], out[0], out[1], out[2], out[3])
		}},
	{name: "axpy4p2", coefs: 8, ins: 2, outs: 4, terms: 3,
		run: func(c []float32, in, out [][]float32, _ []float32) {
			axpy4p2(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], in[0], in[1], out[0], out[1], out[2], out[3])
		}},
	{name: "axpy4in", coefs: 4, ins: 4, outs: 1, terms: 5,
		run: func(c []float32, in, out [][]float32, _ []float32) {
			axpy4in(c[0], c[1], c[2], c[3], in[0], in[1], in[2], in[3], out[0])
		}},
	{name: "axpy4in2", coefs: 8, ins: 4, outs: 2, terms: 5,
		run: func(c []float32, in, out [][]float32, _ []float32) {
			axpy4in2(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], in[0], in[1], in[2], in[3], out[0], out[1])
		}},
	{name: "dot4", ins: 5, dots: 4,
		run: func(_ []float32, in, _ [][]float32, s []float32) {
			s[0], s[1], s[2], s[3] = dot4(in[0], in[1], in[2], in[3], in[4])
		}},
	{name: "dot4x2", ins: 6, dots: 8,
		run: func(_ []float32, in, _ [][]float32, s []float32) {
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = dot4x2(in[0], in[1], in[2], in[3], in[4], in[5])
		}},
}

// gamma is Higham's γ_k = k·u/(1−k·u) for float32 (u = 2⁻²⁴). A sum of k
// products (or of k terms), evaluated in any order and association, with or
// without fused multiply-add, lies within γ_k·Σ|term| of the exact sum
// (Accuracy and Stability of Numerical Algorithms, §3.1). The scalar and
// the SIMD kernel each meet that bound, so they differ by at most twice it.
func gamma(k int) float64 {
	ku := float64(k) / (1 << 24)
	return ku / (1 - ku)
}

// rowsAt returns count rows of length n, each a subslice of a guarded
// buffer at offset (off+r)%4 so the kernels see every float32 alignment
// relative to a 32-byte vector; the buffers keep 8 guard elements past the
// row so an overrun shows up as a changed guard.
func rowsAt(rng *rand.Rand, count, n, off int) (bufs, rows [][]float32) {
	for r := 0; r < count; r++ {
		o := (off + r) % 4
		buf := make([]float32, o+n+8)
		RandNormal(rng, buf, 0, 1)
		bufs = append(bufs, buf)
		rows = append(rows, buf[o:o+n])
	}
	return bufs, rows
}

// absRows returns copies of rows with every element replaced by its
// absolute value, sharing no memory with rows.
func absRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for r, row := range rows {
		out[r] = make([]float32, len(row))
		for i, v := range row {
			out[r][i] = float32(math.Abs(float64(v)))
		}
	}
	return out
}

// cloneRows copies the output buffers and returns the rows re-based onto
// the copies at the same offsets.
func cloneRows(bufs, rows [][]float32) (cb, cr [][]float32) {
	for r, buf := range bufs {
		c := append([]float32(nil), buf...)
		o := len(buf) - len(rows[r]) - 8
		cb = append(cb, c)
		cr = append(cr, c[o:o+len(rows[r])])
	}
	return cb, cr
}

func TestSIMDKernelsMatchGeneric(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU lacks AVX2/FMA: the scalar kernels are the only path")
	}
	rng := rand.New(rand.NewSource(41))
	for _, kc := range microKernels {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				checkMicroKernel(t, rng, kc, n, off)
			}
		}
	}
}

func checkMicroKernel(t *testing.T, rng *rand.Rand, kc microKernel, n, off int) {
	t.Helper()
	coef := make([]float32, kc.coefs)
	RandNormal(rng, coef, 0, 1)
	_, in := rowsAt(rng, kc.ins, n, off)
	outBufs, out := rowsAt(rng, kc.outs, n, off+1)

	run := func(avx bool, c []float32, in, out [][]float32, dots []float32) {
		saved := useAVX2
		useAVX2 = avx
		defer func() { useAVX2 = saved }()
		kc.run(c, in, out, dots)
	}
	gBufs, gOut := cloneRows(outBufs, out)
	sBufs, sOut := cloneRows(outBufs, out)
	gDots := make([]float32, kc.dots)
	sDots := make([]float32, kc.dots)
	run(false, coef, in, gOut, gDots)
	run(true, coef, in, sOut, sDots)

	// The same kernel over absolute values computes Σ|term| for every
	// output element, the scale of the rounding bound.
	magOut := absRows(out)
	magDots := make([]float32, kc.dots)
	run(false, absRows([][]float32{coef})[0], absRows(in), magOut, magDots)

	terms := kc.terms
	if kc.dots > 0 {
		terms = n
	}
	check := func(what string, i int, g, s, mag float32) {
		t.Helper()
		g64, s64 := float64(g), float64(s)
		if n < 8 && g != s {
			// No full vector: the SIMD path must not have run at all.
			t.Fatalf("%s n=%d off=%d %s[%d]: scalar %g, dispatch %g for a row shorter than one vector",
				kc.name, n, off, what, i, g, s)
		}
		gm := gamma(terms)
		if tol := 2 * gm * float64(mag) / (1 - gm); math.Abs(g64-s64) > tol {
			t.Fatalf("%s n=%d off=%d %s[%d]: scalar %g, simd %g, |diff| %g > bound %g",
				kc.name, n, off, what, i, g64, s64, math.Abs(g64-s64), tol)
		}
	}
	for j := range gDots {
		check("dot", j, gDots[j], sDots[j], magDots[j])
	}
	for r := range out {
		o := len(outBufs[r]) - n - 8
		for i, v := range outBufs[r] {
			inRow := i >= o && i < o+n
			if !inRow {
				if gBufs[r][i] != v || sBufs[r][i] != v {
					t.Fatalf("%s n=%d off=%d out%d[%d]: element outside the row changed", kc.name, n, off, r, i)
				}
				continue
			}
			check(fmt.Sprintf("out%d", r), i-o, gBufs[r][i], sBufs[r][i], magOut[r][i-o])
		}
	}
}

// TestKernelSuiteBothPaths reruns the matmul and attention correctness
// tests with the assembly kernels switched off and on, so each path is
// checked against the naive references whichever one this CPU selects.
func TestKernelSuiteBothPaths(t *testing.T) {
	suite := []struct {
		name string
		f    func(*testing.T)
	}{
		{"MatMulMatchesNaive", TestMatMulMatchesNaive},
		{"MatMulAccum", TestMatMulAccum},
		{"MatMulTransA", TestMatMulTransA},
		{"MatMulTransB", TestMatMulTransB},
		{"BatchMatMulMatchesNaive", TestBatchMatMulMatchesNaive},
		{"BatchMatMulTransBMatchesNaive", TestBatchMatMulTransBMatchesNaive},
		{"BatchMatMulTransAMatchesNaive", TestBatchMatMulTransAMatchesNaive},
		{"CausalBatchKernelsMatchDense", TestCausalBatchKernelsMatchDense},
		{"ParallelKernelsLargeShapes", TestParallelKernelsLargeShapes},
		{"AttendDecodeMatchesReference", TestAttendDecodeMatchesReference},
		{"AttendDecodeMatchesTrainingKernels", TestAttendDecodeMatchesTrainingKernels},
	}
	for _, avx := range []bool{false, true} {
		for _, tc := range suite {
			t.Run(fmt.Sprintf("avx2=%v/%s", avx, tc.name), func(t *testing.T) {
				setAVX2(t, avx)
				tc.f(t)
			})
		}
	}
}
