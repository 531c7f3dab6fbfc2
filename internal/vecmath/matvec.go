package vecmath

import "fmt"

// PanelRows is the row-panel height of the packed GEMV layout: MatVec
// computes four output rows per panel, so every query element loaded from
// memory is reused four times before it leaves the registers.
const PanelRows = 4

// Panels is a rows×dim matrix packed into row panels for MatVec. Element
// (r, c) of panel p = r/PanelRows lives at p·PanelRows·dim + c·PanelRows +
// (r mod PanelRows), so a panel's column block is contiguous and the kernel
// streams it front to back. The final panel is zero-padded when rows is not
// a multiple of PanelRows.
//
// Entries are stored widened to float64 at pack time: float64(float32) is
// exact, so results are unchanged, and the hot loop sheds one conversion per
// element. One MatVec over an L·M-row panel matrix replaces L·M
// independent Dot calls on the query hot path.
type Panels struct {
	rows, dim int
	data      []float64
}

// PackPanels packs a row-major rows×dim float32 matrix into the panel
// layout.
func PackPanels(rowMajor []float32, rows, dim int) *Panels {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("vecmath: PackPanels requires positive rows/dim, got %d/%d", rows, dim))
	}
	if len(rowMajor) != rows*dim {
		panic(fmt.Sprintf("vecmath: PackPanels input length %d, want %d", len(rowMajor), rows*dim))
	}
	padded := (rows + PanelRows - 1) / PanelRows * PanelRows
	p := &Panels{rows: rows, dim: dim, data: make([]float64, padded*dim)}
	for r := 0; r < rows; r++ {
		base := (r / PanelRows) * PanelRows * dim
		lane := r % PanelRows
		row := rowMajor[r*dim : (r+1)*dim]
		for c, x := range row {
			p.data[base+c*PanelRows+lane] = float64(x)
		}
	}
	return p
}

// Rows returns the number of (unpadded) matrix rows.
func (p *Panels) Rows() int { return p.rows }

// Dim returns the row length.
func (p *Panels) Dim() int { return p.dim }

// Row unpacks row r into dst (length dim) and returns it. It is the slow
// path for callers that need a contiguous row view.
func (p *Panels) Row(dst []float32, r int) []float32 {
	if r < 0 || r >= p.rows {
		panic(fmt.Sprintf("vecmath: Row %d out of range [0,%d)", r, p.rows))
	}
	if len(dst) != p.dim {
		panic(fmt.Sprintf("vecmath: Row buffer length %d, want %d", len(dst), p.dim))
	}
	base := (r / PanelRows) * PanelRows * p.dim
	lane := r % PanelRows
	for c := range dst {
		dst[c] = float32(p.data[base+c*PanelRows+lane])
	}
	return dst
}

// RowDot returns the dot product of packed row r with v. It accumulates in
// exactly Dot's lane order, so the result is bitwise identical to Dot on the
// unpacked row. It is the single-row slow path (per-table hashing, tests).
func (p *Panels) RowDot(r int, v []float32) float64 {
	if r < 0 || r >= p.rows {
		panic(fmt.Sprintf("vecmath: RowDot row %d out of range [0,%d)", r, p.rows))
	}
	if len(v) != p.dim {
		panic(fmt.Sprintf("vecmath: RowDot length mismatch: vector %d, matrix %d", len(v), p.dim))
	}
	base := (r / PanelRows) * PanelRows * p.dim
	lane := r % PanelRows
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= p.dim; i += 4 {
		off := base + i*PanelRows + lane
		s0 += float64(p.data[off] * float64(v[i]))
		s1 += float64(p.data[off+PanelRows] * float64(v[i+1]))
		s2 += float64(p.data[off+2*PanelRows] * float64(v[i+2]))
		s3 += float64(p.data[off+3*PanelRows] * float64(v[i+3]))
	}
	for ; i < p.dim; i++ {
		s0 += float64(p.data[base+i*PanelRows+lane] * float64(v[i]))
	}
	return s0 + s1 + s2 + s3
}

// MatVec computes dst = A·v over the packed matrix: the row-panel blocked
// matrix-vector kernel of the query hot path. Each output row is accumulated
// in Dot's four-lane order with scalar-identical IEEE operations, so dst[r]
// is bitwise identical to Dot(row r, v) — on amd64 the full column blocks
// run through a packed SSE2 kernel whose vector lanes are exactly those
// accumulators.
func MatVec(dst []float64, a *Panels, v []float32) { a.MatVec(dst, v) }

// MatVec is the method form of the package-level MatVec.
//
// The tail and the lane sums are written out here, not shared with MatVec4
// through finishPanel: a call per panel costs this single-vector query path
// ≈ 3% (BenchmarkMatVec).
//
//lsh:hotpath
func (p *Panels) MatVec(dst []float64, v []float32) {
	if len(v) != p.dim {
		panic(fmt.Sprintf("vecmath: MatVec length mismatch: vector %d, matrix %d", len(v), p.dim))
	}
	if len(dst) != p.rows {
		panic(fmt.Sprintf("vecmath: MatVec output length %d, want %d", len(dst), p.rows))
	}
	dim := p.dim
	cols := dim &^ 3 // full 4-column blocks; the scalar tail follows
	for pi := 0; pi < len(p.data)/(PanelRows*dim); pi++ {
		base := pi * PanelRows * dim
		// acc[lane*PanelRows+row] mirrors Dot's four lane accumulators for
		// each of the panel's four rows.
		var acc [4 * PanelRows]float64
		if cols > 0 {
			matvecPanel(p.data[base:base+PanelRows*dim], v, cols, &acc)
		}
		for c := cols; c < dim; c++ {
			// Scalar tail: Dot folds it into lane 0.
			vv := float64(v[c])
			off := base + c*PanelRows
			blk := p.data[off : off+PanelRows : off+PanelRows]
			acc[0] += float64(vv * blk[0])
			acc[1] += float64(vv * blk[1])
			acc[2] += float64(vv * blk[2])
			acc[3] += float64(vv * blk[3])
		}
		r := pi * PanelRows
		if r+PanelRows <= p.rows {
			dst[r] = acc[0] + acc[4] + acc[8] + acc[12]
			dst[r+1] = acc[1] + acc[5] + acc[9] + acc[13]
			dst[r+2] = acc[2] + acc[6] + acc[10] + acc[14]
			dst[r+3] = acc[3] + acc[7] + acc[11] + acc[15]
		} else {
			tail := [PanelRows]float64{
				acc[0] + acc[4] + acc[8] + acc[12],
				acc[1] + acc[5] + acc[9] + acc[13],
				acc[2] + acc[6] + acc[10] + acc[14],
				acc[3] + acc[7] + acc[11] + acc[15],
			}
			copy(dst[r:], tail[:p.rows-r])
		}
	}
}

// MatVec4 is MatVec for four vectors: dst[k] = A·v[k], each bitwise what
// MatVec returns. On CPUs with AVX512F and AVX512DQ (amd64, without the
// purego tag) one pass over each panel feeds all four vectors from zmm
// registers, so the matrix streams from memory once per four vectors instead
// of once per vector; elsewhere it is four MatVec calls. e is the kernel's
// scratch for the vectors pre-expanded four-fold and must hold at least
// MatVec4Scratch(dim) elements.
//
//lsh:hotpath
func (p *Panels) MatVec4(dst *[4][]float64, v *[4][]float32, e []float64) {
	cols := p.dim &^ 3
	if !useAVX512 || cols == 0 {
		for k := range v {
			p.MatVec(dst[k], v[k])
		}
		return
	}
	for k := range v {
		if len(v[k]) != p.dim || len(dst[k]) != p.rows {
			panic(fmt.Sprintf("vecmath: MatVec4 vector %d: length %d and output %d, want %d and %d", k, len(v[k]), len(dst[k]), p.dim, p.rows))
		}
	}
	if len(e) < MatVec4Scratch(p.dim) {
		panic(fmt.Sprintf("vecmath: MatVec4 scratch length %d, want %d", len(e), MatVec4Scratch(p.dim)))
	}
	// Vector k's column c, four times over at e[k·4·cols + 4c + i]: the
	// multiplicand each panel entry of column c meets in its row's lane.
	for k := range v {
		ek := e[k*4*cols : (k+1)*4*cols]
		for c, x := range v[k][:cols] {
			f := float64(x)
			blk := ek[4*c : 4*c+4 : 4*c+4]
			blk[0], blk[1], blk[2], blk[3] = f, f, f, f
		}
	}
	stride := PanelRows * p.dim
	for pi := 0; pi < len(p.data)/stride; pi++ {
		panel := p.data[pi*stride : (pi+1)*stride]
		var acc [4][4 * PanelRows]float64
		matvec4Panel(&panel[0], &e[0], cols, &acc)
		for k := range v {
			p.finishPanel(dst[k], pi*PanelRows, panel, v[k], cols, &acc[k])
		}
	}
}

// MatVec4Scratch is the scratch length MatVec4 needs for dim-element
// vectors.
func MatVec4Scratch(dim int) int { return 4 * PanelRows * dim }

// HasAVX512 reports whether MatVec4 runs its AVX-512 kernel: the CPU has
// AVX512F and AVX512DQ, the OS saves the zmm and opmask registers, and the
// build is amd64 without the purego tag. It is decided once, at start-up.
func HasAVX512() bool { return useAVX512 }

// useAVX512 is HasAVX512's answer; tests clear it to force the portable
// path.
var useAVX512 = hasAVX512()

// finishPanel is MatVec's per-panel ending for MatVec4: it folds the scalar
// tail columns cols..dim of one panel into lane 0, as Dot does, sums each
// row's four lanes in Dot's order and writes the panel's rows r.. of dst.
//
//lsh:hotpath
func (p *Panels) finishPanel(dst []float64, r int, panel []float64, v []float32, cols int, acc *[4 * PanelRows]float64) {
	for c := cols; c < p.dim; c++ {
		vv := float64(v[c])
		blk := panel[c*PanelRows : (c+1)*PanelRows : (c+1)*PanelRows]
		acc[0] += float64(vv * blk[0])
		acc[1] += float64(vv * blk[1])
		acc[2] += float64(vv * blk[2])
		acc[3] += float64(vv * blk[3])
	}
	if r+PanelRows <= p.rows {
		dst[r] = acc[0] + acc[4] + acc[8] + acc[12]
		dst[r+1] = acc[1] + acc[5] + acc[9] + acc[13]
		dst[r+2] = acc[2] + acc[6] + acc[10] + acc[14]
		dst[r+3] = acc[3] + acc[7] + acc[11] + acc[15]
		return
	}
	tail := [PanelRows]float64{
		acc[0] + acc[4] + acc[8] + acc[12],
		acc[1] + acc[5] + acc[9] + acc[13],
		acc[2] + acc[6] + acc[10] + acc[14],
		acc[3] + acc[7] + acc[11] + acc[15],
	}
	copy(dst[r:], tail[:p.rows-r])
}
