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
	pad := scratchPool.Get().(*[]float32)
	im2colStrided(col, img, s, 0, s.InH*s.InW, pad)
	scratchPool.Put(pad)
}

// im2colStrided is Im2Col for an image embedded inside a larger activation
// matrix: channel plane c starts at img[base+c*planeStride] (one sample of
// Conv2DForwardBatch's batch-major layout). The two shapes the network uses
// have their own gathers, every other shape takes the general loop; all
// write the same col and nothing past ColRows()*ColCols(). pad is the 3x3
// gather's scratch, grown by padPlanes.
func im2colStrided(col, img []float32, s Conv2DShape, base, planeStride int, pad *[]float32) {
	switch {
	case s.KH == 3 && s.KW == 3 && s.PadH == 1 && s.PadW == 1:
		gather3x3(col, padPlanes(pad, img, s, base, planeStride), s)
	case s.KH == 1 && s.KW == 1 && s.PadH == 0 && s.PadW == 0:
		im2col1x1(col, img, s, base, planeStride)
	default:
		im2colGeneral(col, img, s, base, planeStride)
	}
}

// scratchPool holds float32 scratch each user grows to what it needs: the
// zero-bordered planes of the 3x3 gather (sized from the shape in padPlanes)
// and MatMul's transposed B.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// padPlanes copies the image's InC channel planes into *pad, grown to fit,
// as zero-bordered (InH+2) x (InW+2) planes one after another, and returns
// them. The whole pad is cleared first, so a pad left dirty by another shape
// cannot leak into the gather.
func padPlanes(pad *[]float32, img []float32, s Conv2DShape, base, planeStride int) []float32 {
	pw := s.InW + 2
	plane := (s.InH + 2) * pw
	if n := s.InC * plane; cap(*pad) < n {
		*pad = make([]float32, n)
	}
	p := (*pad)[:s.InC*plane]
	clear(p)
	padRows(p[pw+1:], img[base:], s.InC, s.InH, s.InW, planeStride, plane)
	return p
}

// padRowsGeneric is the portable padRows: one copy per row.
func padRowsGeneric(dst, src []float32, channels, h, w, srcPlane, dstPlane int) {
	for c := 0; c < channels; c++ {
		for y := 0; y < h; y++ {
			copy(dst[c*dstPlane+y*(w+2):][:w], src[c*srcPlane+y*w:][:w])
		}
	}
}

// im2col3x3 is the generic gather3x3, channel-outer: every output pixel
// takes a channel's nine taps as three unconditional 3-element moves, with
// no bounds decision per tap.
func im2col3x3(col, pad []float32, s Conv2DShape) {
	h, w := s.InH, s.InW
	pw := w + 2
	plane := (h + 2) * pw
	cols := s.InC * 9
	for c := 0; c < s.InC; c++ {
		p := pad[c*plane : (c+1)*plane]
		off := c * 9
		for oy := 0; oy < h; oy++ {
			r0 := p[oy*pw : (oy+1)*pw]
			r1 := p[(oy+1)*pw : (oy+2)*pw]
			r2 := p[(oy+2)*pw : (oy+3)*pw]
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

// im2colGeneral gathers any kernel and padding, tap by tap. No network
// shape runs it: it is the definition the specialised gathers are tested
// against, so it is written as one.
func im2colGeneral(col, img []float32, s Conv2DShape, base, planeStride int) {
	i := 0
	for oy := 0; oy < s.OutH(); oy++ {
		for ox := 0; ox < s.OutW(); ox++ {
			for c := 0; c < s.InC; c++ {
				for ky := 0; ky < s.KH; ky++ {
					for kx := 0; kx < s.KW; kx++ {
						iy, ix := oy+ky-s.PadH, ox+kx-s.PadW
						col[i] = 0
						if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
							col[i] = img[base+c*planeStride+iy*s.InW+ix]
						}
						i++
					}
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

// ConvOut is one output group of Conv2DForwardBatch: len(Bias) channels.
type ConvOut struct{ Out, Weight, Bias []float32 }

// Conv2DForwardBatch computes o.Out = conv(imgs, o.Weight) + o.Bias for a
// whole batch and every group o, with one gather per sample and one GEMM per
// sample and group; the network's two heads are two groups. s.OutC is unread.
//
// Activations use a batch-major layout: channel plane c of sample b lives
// at imgs[(c*batch+b)*InH*InW]. The same layout is produced on output
// (Out[(oc*batch+b)*OutH*OutW]), so consecutive conv layers chain without
// repacking — only the im2col gather needs the per-sample stride; at batch 1
// it is the plain single-image layout. Each sample's OutH*OutW patch rows are
// gathered into col and multiplied into that sample's columns of every Out
// straight away, so the patch matrix is still in cache when the GEMMs read
// it and the weight panels stay there across the batch. Sample b's outputs
// are bit for bit those of a batch holding sample b alone, whatever the
// batch size, wherever b sits in it and whichever groups share its gather.
//
//	imgs:     InC x (batch*InH*InW)  batch-major
//	o.Weight: len(o.Bias) x (InC*KH*KW) row-major
//	o.Out:    len(o.Bias) x (batch*OutH*OutW) batch-major
//	col:      scratch of size ColRows()*ColCols()
func Conv2DForwardBatch(imgs, col []float32, s Conv2DShape, batch int, outs ...ConvOut) {
	pix := s.ColRows()
	kk := s.ColCols()
	imgLen := s.InH * s.InW
	n := batch * pix
	pad := scratchPool.Get().(*[]float32)
	for b := 0; b < batch; b++ {
		im2colStrided(col, imgs, s, b*imgLen, batch*imgLen, pad)
		// Out[oc][b*pix+p] = sum_k Weight[oc][k] * col[p][k]
		for _, o := range outs {
			matMulTransBInto(o.Out, n, b*pix, o.Weight, col, len(o.Bias), kk, pix)
		}
	}
	scratchPool.Put(pad)
	for _, o := range outs {
		for oc, v := range o.Bias {
			addScalar(o.Out[oc*n:(oc+1)*n], v)
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
