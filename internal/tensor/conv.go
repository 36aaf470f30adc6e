package tensor

import "sync"

// Conv2DShape describes a 2-D convolution with square stride 1 and symmetric
// zero padding — the only configuration the paper's Gomoku network needs
// (3x3 "same" convolutions over a 15x15 board), though arbitrary kernel and
// padding sizes are supported.
//
// Images are channels-last: pixel (y, x) of an image holds its InC channels
// at img[(y*InW+x)*InC:]. A patch-matrix row holds one output pixel's taps in
// the order (ky, kx, c), and a weight matrix is ColCols() x OutC in the same
// row order, so a convolution is Dense(patches, weight) and its pixels x
// OutC output is the next layer's channels-last input.
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
// kernel tap and input channel).
func (s Conv2DShape) ColCols() int { return s.InC * s.KH * s.KW }

// Im2Col expands a single channels-last image into its ColRows() x
// ColCols() patch matrix, so convolution becomes one matrix multiply. col
// must have ColRows()*ColCols() capacity; nothing past that is written.
func Im2Col(col, img []float32, s Conv2DShape) {
	if s.KH != 3 || s.KW != 3 || s.PadH != 1 || s.PadW != 1 {
		im2colGeneral(col, img, s)
		return
	}
	pad := scratchPool.Get().(*[]float32)
	gather3x3(col, padImage(pad, img, s), s)
	scratchPool.Put(pad)
}

// scratchPool holds the 3x3 gather's bordered images and DenseBackward's
// transposes; each user grows a buffer and writes every float it reads.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// padImage copies the image into *pad, grown to fit, as a zero-bordered
// (InH+2) x (InW+2) channels-last image, and returns it: one copy per image
// row, and the border cleared around it.
func padImage(pad *[]float32, img []float32, s Conv2DShape) []float32 {
	c, w := s.InC, s.InW
	rowLen := (w + 2) * c
	n := (s.InH + 2) * rowLen
	if cap(*pad) < n {
		*pad = make([]float32, n)
	}
	p := (*pad)[:n]
	at := rowLen + c // the first interior pixel
	clear(p[:at])
	for y := 0; y < s.InH; y++ {
		copy(p[at:at+w*c], img[y*w*c:])
		clear(p[at+w*c : at+rowLen]) // right border, next row's left
		at += rowLen
	}
	clear(p[at:])
	return p
}

// gather3x3 is the 3x3/pad-1 im2col out of a zero-bordered image: output
// pixel (y, x)'s taps (ky, kx, c) are the 3*InC floats at (y+ky, x) of the
// bordered image, for ky = 0, 1, 2 — three copies per patch row.
func gather3x3(col, pad []float32, s Conv2DShape) {
	c3 := 3 * s.InC
	rowLen := (s.InW + 2) * s.InC
	for y := 0; y < s.InH; y++ {
		for x := 0; x < s.InW; x++ {
			d := col[(y*s.InW+x)*3*c3:][:3*c3]
			src := pad[y*rowLen+x*s.InC:]
			copy(d[:c3], src[:c3])
			copy(d[c3:2*c3], src[rowLen:rowLen+c3])
			copy(d[2*c3:], src[2*rowLen:2*rowLen+c3])
		}
	}
}

// im2colGeneral gathers any kernel and padding, tap by tap. No network
// shape runs it forward: it is the definition the 3x3 gather is tested
// against, so it is written as one.
func im2colGeneral(col, img []float32, s Conv2DShape) {
	i := 0
	for oy := 0; oy < s.OutH(); oy++ {
		for ox := 0; ox < s.OutW(); ox++ {
			for ky := 0; ky < s.KH; ky++ {
				for kx := 0; kx < s.KW; kx++ {
					iy, ix := oy+ky-s.PadH, ox+kx-s.PadW
					for c := 0; c < s.InC; c++ {
						col[i] = 0
						if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
							col[i] = img[(iy*s.InW+ix)*s.InC+c]
						}
						i++
					}
				}
			}
		}
	}
}

// Col2Im scatters a patch-matrix gradient back into a channels-last image
// gradient, accumulating overlapping contributions. dImg must be zeroed by
// the caller if accumulation from scratch is intended.
func Col2Im(dImg, col []float32, s Conv2DShape) {
	i := 0
	for oy := 0; oy < s.OutH(); oy++ {
		for ox := 0; ox < s.OutW(); ox++ {
			for ky := 0; ky < s.KH; ky++ {
				for kx := 0; kx < s.KW; kx++ {
					iy, ix := oy+ky-s.PadH, ox+kx-s.PadW
					if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
						px := dImg[(iy*s.InW+ix)*s.InC:][:s.InC]
						for c, g := range col[i : i+s.InC] {
							px[c] += g
						}
					}
					i += s.InC
				}
			}
		}
	}
}

// Conv2DForward computes out = conv(img, weight) + bias, through a ReLU when
// relu is set, for one channels-last image: out is OutH*OutW x OutC, the next
// layer's channels-last input. weight is ColCols() x OutC and col scratch of
// ColRows()*ColCols(). The image is gathered into col and multiplied
// straight away, while its patch matrix is in cache.
func Conv2DForward(out, img, col, weight, bias []float32, s Conv2DShape, relu bool) {
	Im2Col(col, img, s)
	Dense(out, col, weight, bias, s.ColRows(), s.ColCols(), s.OutC, relu)
}

// PackChannelsLast converts a channel-major image (c planes of hw pixels,
// the layout games encode positions in) to the channels-last layout
// Conv2DForward reads: dst[p*c+ch] = img[ch*hw+p].
func PackChannelsLast(dst, img []float32, c, hw int) {
	for ch := 0; ch < c; ch++ {
		for p, v := range img[ch*hw : (ch+1)*hw] {
			dst[p*c+ch] = v
		}
	}
}

// Conv2DBackward is the adjoint of Conv2DForward without its ReLU, given
// dOut (OutH*OutW x OutC): DenseBackward on the patch matrix col (the
// forward input's Im2Col), whose gradient dCol (of col's size) Col2Im
// scatters into the channels-last dImg, overwritten. A nil dCol skips the
// input gradient, as a network's first layer needs none.
func Conv2DBackward(dImg, dW, dB, dOut, weight, col, dCol []float32, s Conv2DShape) {
	DenseBackward(dCol, dW, dB, dOut, col, weight, s.ColRows(), s.ColCols(), s.OutC)
	if dCol != nil {
		clear(dImg)
		Col2Im(dImg, dCol, s)
	}
}
