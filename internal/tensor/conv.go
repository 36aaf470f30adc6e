package tensor

import "sync"

// Conv2DShape describes a 2-D convolution with square stride 1 and symmetric
// zero padding — the only configuration the paper's Gomoku network needs
// (3x3 "same" convolutions over a 15x15 board), though arbitrary kernel and
// padding sizes are supported.
type Conv2DShape struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels
	KH, KW        int // kernel height/width
	PadH, PadW    int // zero padding on each side
}

// OutH returns the output height.
func (s Conv2DShape) OutH() int { return s.InH + 2*s.PadH - s.KH + 1 }

// OutW returns the output width.
func (s Conv2DShape) OutW() int { return s.InW + 2*s.PadW - s.KW + 1 }

// ColRows returns the number of rows of the im2col matrix (one per output
// pixel).
func (s Conv2DShape) ColRows() int { return s.OutH() * s.OutW() }

// ColCols returns the number of columns of the im2col matrix (one per
// kernel tap).
func (s Conv2DShape) ColCols() int { return s.InC * s.KH * s.KW }

// Im2Col expands a single image (InC x InH x InW, row-major) into a
// (OutH*OutW) x (InC*KH*KW) patch matrix, so convolution becomes one matrix
// multiply. col must have ColRows()*ColCols() capacity.
func Im2Col(col, img []float32, s Conv2DShape) {
	Im2ColStrided(col, img, s, 0, s.InH*s.InW)
}

// Im2ColStrided is Im2Col for an image embedded inside a larger activation
// matrix: channel plane c of the image starts at img[base+c*planeStride].
// With base = sample*InH*InW and planeStride = batch*InH*InW this extracts
// one sample from the batch-major activation layout used by
// Conv2DForwardBatch; Im2Col is the base = 0, planeStride = InH*InW case.
func Im2ColStrided(col, img []float32, s Conv2DShape, base, planeStride int) {
	pad := scratchPool.Get().(*[]float32)
	im2colStrided(col, img, s, base, planeStride, pad)
	scratchPool.Put(pad)
}

// im2colStrided picks the gather for the shape: the two configurations the
// network uses have their own, every other shape takes the general loop.
// All three write the same col. pad is the 3x3 gather's scratch, grown here
// to the shape's padded plane.
func im2colStrided(col, img []float32, s Conv2DShape, base, planeStride int, pad *[]float32) {
	switch {
	case s.KH == 3 && s.KW == 3 && s.PadH == 1 && s.PadW == 1:
		if n := (s.InH + 2) * (s.InW + 2); cap(*pad) < n {
			*pad = make([]float32, n)
		}
		im2col3x3(col, img, s, base, planeStride, *pad)
	case s.KH == 1 && s.KW == 1 && s.PadH == 0 && s.PadW == 0:
		im2col1x1(col, img, s, base, planeStride)
	default:
		im2colGeneral(col, img, s, base, planeStride)
	}
}

// scratchPool holds float32 scratch each user grows to what it needs: the
// zero-bordered planes im2col3x3 gathers from (sized from the shape in
// im2colStrided) and MatMul's transposed B.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// im2col3x3 is the 3x3, pad-1 gather without a bounds decision per tap: each
// channel plane is copied once into pad — (InH+2) x (InW+2), border zero —
// and every output pixel then takes its nine taps as three unconditional
// 3-element moves.
func im2col3x3(col, img []float32, s Conv2DShape, base, planeStride int, pad []float32) {
	h, w := s.InH, s.InW
	pw := w + 2
	pad = pad[:(h+2)*pw]
	// Only the border needs zeroing: the interior is overwritten per channel.
	clear(pad[:pw+1])
	for y := 1; y <= h; y++ {
		pad[y*pw+w+1], pad[(y+1)*pw] = 0, 0
	}
	clear(pad[(h+1)*pw+1 : (h+2)*pw])
	cols := s.InC * 9
	for c := 0; c < s.InC; c++ {
		plane := img[base+c*planeStride:]
		for y := 0; y < h; y++ {
			copy(pad[(y+1)*pw+1:(y+1)*pw+1+w], plane[y*w:(y+1)*w])
		}
		off := c * 9
		for oy := 0; oy < h; oy++ {
			r0 := pad[oy*pw : (oy+1)*pw]
			r1 := pad[(oy+1)*pw : (oy+2)*pw]
			r2 := pad[(oy+2)*pw : (oy+3)*pw]
			for ox := 0; ox < w; ox++ {
				d := col[off : off+9 : off+9]
				t0, t1, t2 := r0[ox:ox+3:ox+3], r1[ox:ox+3:ox+3], r2[ox:ox+3:ox+3]
				d[0], d[1], d[2] = t0[0], t0[1], t0[2]
				d[3], d[4], d[5] = t1[0], t1[1], t1[2]
				d[6], d[7], d[8] = t2[0], t2[1], t2[2]
				off += cols
			}
		}
	}
}

// transposeBlock is the channel width of the 1x1 gather's blocks: eight
// source planes read in step fill half a cache line of each destination row
// per pass.
const transposeBlock = 8

// im2col1x1 is the 1x1, unpadded gather: the patch matrix is just a channel
// transpose, done in blocks of channels so each destination row is written
// 32 bytes at a time instead of one element per pass over it.
func im2col1x1(col, img []float32, s Conv2DShape, base, planeStride int) {
	cols := s.InC
	pix := s.InH * s.InW
	c := 0
	for ; c+transposeBlock <= s.InC; c += transposeBlock {
		at := base + c*planeStride
		s0 := img[at:][:pix]
		s1 := img[at+planeStride:][:pix]
		s2 := img[at+2*planeStride:][:pix]
		s3 := img[at+3*planeStride:][:pix]
		s4 := img[at+4*planeStride:][:pix]
		s5 := img[at+5*planeStride:][:pix]
		s6 := img[at+6*planeStride:][:pix]
		s7 := img[at+7*planeStride:][:pix]
		for p := range s0 {
			d := col[p*cols+c:][:transposeBlock]
			d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
			d[4], d[5], d[6], d[7] = s4[p], s5[p], s6[p], s7[p]
		}
	}
	for ; c < s.InC; c++ {
		for p, v := range img[base+c*planeStride:][:pix] {
			col[p*cols+c] = v
		}
	}
}

// im2colGeneral gathers any kernel and padding, structured so the iy bounds
// check runs once per (oy, c, ky) row instead of once per output pixel.
func im2colGeneral(col, img []float32, s Conv2DShape, base, planeStride int) {
	outH, outW := s.OutH(), s.OutW()
	cols := s.ColCols()
	for oy := 0; oy < outH; oy++ {
		rowDst := col[oy*outW*cols:]
		for c := 0; c < s.InC; c++ {
			plane := img[base+c*planeStride:]
			cOff := c * s.KH * s.KW
			for ky := 0; ky < s.KH; ky++ {
				iy := oy + ky - s.PadH
				off := cOff + ky*s.KW
				if iy < 0 || iy >= s.InH {
					for ox := 0; ox < outW; ox++ {
						d := rowDst[off : off+s.KW]
						for kx := range d {
							d[kx] = 0
						}
						off += cols
					}
					continue
				}
				row := plane[iy*s.InW : iy*s.InW+s.InW]
				for ox := 0; ox < outW; ox++ {
					d := rowDst[off : off+s.KW]
					ix0 := ox - s.PadW
					if ix0 >= 0 && ix0+s.KW <= s.InW {
						src := row[ix0 : ix0+s.KW]
						for kx := range d {
							d[kx] = src[kx]
						}
					} else {
						for kx := range d {
							ix := ix0 + kx
							if ix < 0 || ix >= s.InW {
								d[kx] = 0
							} else {
								d[kx] = row[ix]
							}
						}
					}
					off += cols
				}
			}
		}
	}
}

// Col2Im scatters a patch-matrix gradient back into an image gradient,
// accumulating overlapping contributions. dImg must be zeroed by the caller
// if accumulation from scratch is intended.
func Col2Im(dImg, col []float32, s Conv2DShape) {
	outH, outW := s.OutH(), s.OutW()
	cols := s.ColCols()
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := col[(oy*outW+ox)*cols:]
			idx := 0
			for c := 0; c < s.InC; c++ {
				plane := dImg[c*s.InH*s.InW:]
				for ky := 0; ky < s.KH; ky++ {
					iy := oy + ky - s.PadH
					if iy < 0 || iy >= s.InH {
						idx += s.KW
						continue
					}
					rowBase := iy * s.InW
					for kx := 0; kx < s.KW; kx++ {
						ix := ox + kx - s.PadW
						if ix >= 0 && ix < s.InW {
							plane[rowBase+ix] += src[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// Conv2DForwardBatch computes out = conv(imgs, weight) + bias for a whole
// batch, one gather and one GEMM (weight * col^T via MatMulTransB) per sample
// against the same weight panel.
//
// Activations use a batch-major layout: channel plane c of sample b lives
// at imgs[(c*batch+b)*InH*InW]. The same layout is produced on output
// (out[(oc*batch+b)*OutH*OutW]), so consecutive conv layers chain without
// repacking — only the im2col gather needs the per-sample stride; at batch 1
// it is the plain single-image layout. Each sample's OutH*OutW patch rows are
// gathered into col and multiplied into that sample's columns of out
// straight away, so the patch matrix is still in cache when the GEMM reads it
// and the weight panel stays there across the batch. Sample b's outputs are
// bit for bit those of a batch holding sample b alone, whatever the batch
// size and wherever b sits in it.
//
//	imgs:   InC x (batch*InH*InW)  batch-major
//	weight: OutC x (InC*KH*KW) row-major
//	bias:   OutC
//	out:    OutC x (batch*OutH*OutW) batch-major
//	col:    scratch of size ColRows()*ColCols()
func Conv2DForwardBatch(out, imgs, weight, bias, col []float32, s Conv2DShape, batch int) {
	pix := s.ColRows()
	kk := s.ColCols()
	imgLen := s.InH * s.InW
	n := batch * pix
	for b := 0; b < batch; b++ {
		Im2ColStrided(col, imgs, s, b*imgLen, batch*imgLen)
		// out[oc][b*pix+p] = sum_k weight[oc][k] * col[p][k]
		matMulTransBInto(out, n, b*pix, weight, col, s.OutC, kk, pix)
	}
	for oc := 0; oc < s.OutC; oc++ {
		b := bias[oc]
		row := out[oc*n : (oc+1)*n]
		for i := range row {
			row[i] += b
		}
	}
}

// PackBatch gathers per-sample images (each c*hw channel-major) into the
// batch-major activation layout consumed by Conv2DForwardBatch:
// dst[(ch*batch+b)*hw + p] = imgs[b][ch*hw + p].
func PackBatch(dst []float32, imgs [][]float32, c, hw int) {
	batch := len(imgs)
	for ch := 0; ch < c; ch++ {
		for b, img := range imgs {
			copy(dst[(ch*batch+b)*hw:(ch*batch+b+1)*hw], img[ch*hw:(ch+1)*hw])
		}
	}
}

// UnpackBatch scatters a batch-major activation matrix back into per-sample
// row vectors (one c*hw channel-major row per sample), the layout dense
// heads expect: dst[b*c*hw + ch*hw + p] = src[(ch*batch+b)*hw + p].
func UnpackBatch(dst, src []float32, c, hw, batch int) {
	for ch := 0; ch < c; ch++ {
		for b := 0; b < batch; b++ {
			copy(dst[(b*c+ch)*hw:(b*c+ch+1)*hw], src[(ch*batch+b)*hw:(ch*batch+b+1)*hw])
		}
	}
}

// Conv2DBackward computes gradients for one image given dOut
// (OutC x OutH*OutW):
//
//	dW     += dOut * col           (OutC x ColCols)
//	dB     += row sums of dOut     (OutC)
//	dImg   = col2im(weight^T dOut) (InC*InH*InW, overwritten)
//
// col must contain the im2col expansion of the forward input (recompute it
// with Im2Col if it was not retained). dCol is scratch of the same size.
func Conv2DBackward(dImg, dW, dB, dOut, weight, col, dCol []float32, s Conv2DShape) {
	pix := s.ColRows()
	kk := s.ColCols()
	// dW[oc][k] += sum_p dOut[oc][p] * col[p][k]
	for oc := 0; oc < s.OutC; oc++ {
		dwRow := dW[oc*kk : (oc+1)*kk]
		doRow := dOut[oc*pix : (oc+1)*pix]
		var bsum float32
		for p := 0; p < pix; p++ {
			g := doRow[p]
			bsum += g
			if g == 0 {
				continue
			}
			cRow := col[p*kk : (p+1)*kk]
			for k := range cRow {
				dwRow[k] += g * cRow[k]
			}
		}
		dB[oc] += bsum
	}
	// dCol[p][k] = sum_oc dOut[oc][p] * weight[oc][k]
	for p := 0; p < pix; p++ {
		row := dCol[p*kk : (p+1)*kk]
		for k := range row {
			row[k] = 0
		}
		for oc := 0; oc < s.OutC; oc++ {
			g := dOut[oc*pix+p]
			if g == 0 {
				continue
			}
			wRow := weight[oc*kk : (oc+1)*kk]
			for k := range row {
				row[k] += g * wRow[k]
			}
		}
	}
	for i := range dImg {
		dImg[i] = 0
	}
	Col2Im(dImg, dCol, s)
}
