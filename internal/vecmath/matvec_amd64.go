//go:build amd64 && !purego

package vecmath

// matvecPanel accumulates one panel's full 4-column blocks into acc, laid
// out acc[lane*PanelRows+row]. cols is a positive multiple of 4 and a holds
// the panel's PanelRows·dim packed entries.
//
// The SSE2 kernel keeps the panel's sixteen scalar accumulators in eight
// xmm registers (two rows per register, one register pair per lane), so the
// packed MULPD/ADDPD perform exactly the per-lane IEEE operations of the
// scalar kernel in the same order — results are bitwise identical. SSE2 is
// the amd64 baseline, so no feature detection is needed.
func matvecPanel(a []float64, v []float32, cols int, acc *[4 * PanelRows]float64) {
	matvecKernelSSE2(&a[0], &v[0], cols, acc)
}

//go:noescape
func matvecKernelSSE2(a *float64, v *float32, cols int, acc *[16]float64)

// matvec4Panel is matvecPanel for four vectors at once (matvec_amd64.s):
// one pass over the panel's full 4-column blocks feeds all four vectors'
// accumulators, acc[k][lane*PanelRows+row]. e holds the four vectors
// pre-expanded, vector k's column c at e[k·4·cols + 4c + i] for i < 4, so
// each zmm register of panel entries meets a zmm register of the same
// element in its rows' lanes. Only called when hasAVX512 reported true.
//
//go:noescape
func matvec4Panel(a, e *float64, cols int, acc *[4][4 * PanelRows]float64)

// hasAVX512 reports whether the CPU implements AVX512F and AVX512DQ and the
// OS saves the opmask and zmm state (XCR0 bits 1, 2, 5, 6 and 7).
func hasAVX512() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, xcr0zmm = 1 << 27, 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || xgetbv()&xcr0zmm != xcr0zmm {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512dq) == avx512f|avx512dq
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
