use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::backend::SimdTier;
use crate::matmul::{gemm_into, gemm_into_src, transpose_into, ARows};
use crate::shape::checked_volume;
use crate::{Result, Scratch, Tensor, TensorError};

/// Work (in multiply-adds) below which spatial loops stay sequential;
/// thread fan-out costs more than it saves under this.
const PAR_WORK: usize = 1 << 16;

/// Stride and zero-padding configuration for convolution and pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Stride applied to both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied symmetrically to both spatial dimensions.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a spec with the given stride and padding.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSpec`] when `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidSpec("stride must be non-zero".into()));
        }
        Ok(ConvSpec { stride, padding })
    }

    /// A unit-stride spec whose padding keeps the spatial size unchanged
    /// ("same" convolution). Only odd kernels admit a symmetric "same"
    /// padding; even kernels are rejected instead of silently producing an
    /// output one pixel short.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSpec`] when `kernel` is zero or even.
    pub fn same(kernel: usize) -> Result<Self> {
        if kernel == 0 || kernel.is_multiple_of(2) {
            return Err(TensorError::InvalidSpec(format!(
                "\"same\" convolution requires an odd kernel, got {kernel}"
            )));
        }
        Ok(ConvSpec {
            stride: 1,
            padding: kernel / 2,
        })
    }

    /// A unit-stride, zero-padding ("valid") spec.
    pub fn valid() -> Self {
        ConvSpec {
            stride: 1,
            padding: 0,
        }
    }

    /// Output spatial extent for an input extent and kernel extent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSpec`] if the kernel does not fit the
    /// padded input, or [`TensorError::SizeOverflow`] when the padded
    /// extent itself overflows `usize` (possible with untrusted recorded
    /// `input_dims`).
    pub fn output_extent(&self, input: usize, kernel: usize) -> Result<usize> {
        let padded = self
            .padding
            .checked_mul(2)
            .and_then(|p| input.checked_add(p))
            .ok_or(TensorError::SizeOverflow {
                dims: vec![input, self.padding],
            })?;
        if kernel == 0 || kernel > padded {
            return Err(TensorError::InvalidSpec(format!(
                "kernel {kernel} does not fit padded input {padded}"
            )));
        }
        Ok((padded - kernel) / self.stride + 1)
    }
}

impl Default for ConvSpec {
    fn default() -> Self {
        ConvSpec {
            stride: 1,
            padding: 0,
        }
    }
}

fn dims4(t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.shape().rank(),
        });
    }
    let d = t.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// Output-column split for one spatial row: `[0, interior_lo)` and
/// `[interior_hi, ow)` need per-tap horizontal bounds checks, while every
/// `ox` in `[interior_lo, interior_hi)` keeps the full kernel width inside
/// the image.
fn interior_cols(w: usize, kw: usize, ow: usize, spec: ConvSpec) -> (usize, usize) {
    let lo = spec.padding.div_ceil(spec.stride).min(ow);
    let hi = if w + spec.padding >= kw {
        ((w + spec.padding - kw) / spec.stride + 1).min(ow)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Fills one im2col row group (all patches of one input image row `oy` of
/// image `ni`) into `cols`. `cols` rows must be pre-zeroed (padding taps).
///
/// The vertical kernel range is hoisted per call and the output columns are
/// split into border/interior ranges, so the interior — almost every patch —
/// runs without any per-tap bounds arithmetic. The values and write order
/// are exactly those of the naive bounds-checked loop.
#[allow(clippy::too_many_arguments)]
fn im2col_rows(
    cols: &mut [f32],
    data: &[f32],
    ni: usize,
    oy: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ow: usize,
    spec: ConvSpec,
) {
    let cols_cols = c * kh * kw;
    let pad = spec.padding as isize;
    let y0 = (oy * spec.stride) as isize - pad;
    // Valid kernel rows for this output row (y = y0 + ky must be in [0, h)).
    let ky_lo = (-y0).max(0) as usize;
    let ky_hi = ((h as isize - y0).min(kh as isize)).max(0) as usize;
    if ky_lo >= ky_hi {
        return;
    }
    let (ilo, ihi) = interior_cols(w, kw, ow, spec);

    let mut border = |ox: usize| {
        let row = ox * cols_cols;
        let x0 = (ox * spec.stride) as isize - pad;
        let x_lo = (-x0).max(0) as usize;
        let x_hi = ((w as isize - x0).min(kw as isize)).max(0) as usize;
        if x_lo >= x_hi {
            return;
        }
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w;
            let col_base = row + ci * kh * kw;
            for ky in ky_lo..ky_hi {
                let in_row = in_base + (y0 + ky as isize) as usize * w;
                let col_row = col_base + ky * kw;
                // x0 + x_lo >= 0 by construction of x_lo.
                let src_start = in_row + (x0 + x_lo as isize) as usize;
                let src = &data[src_start..src_start + (x_hi - x_lo)];
                cols[col_row + x_lo..col_row + x_hi].copy_from_slice(src);
            }
        }
    };
    for ox in 0..ilo {
        border(ox);
    }
    for ox in ihi..ow {
        border(ox);
    }
    for ox in ilo..ihi {
        let row = ox * cols_cols;
        // Interior: x0 >= 0 and x0 + kw <= w, full-width copies only.
        let x0 = ox * spec.stride - spec.padding;
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w + x0;
            let col_base = row + ci * kh * kw;
            for ky in ky_lo..ky_hi {
                let src_start = in_base + (y0 + ky as isize) as usize * w;
                cols[col_base + ky * kw..col_base + (ky + 1) * kw]
                    .copy_from_slice(&data[src_start..src_start + kw]);
            }
        }
    }
}

/// Unfolds an `[N, C, H, W]` input into a pre-zeroed `[N*OH*OW, C*KH*KW]`
/// buffer, parallel over image rows.
fn im2col_into(
    input: &Tensor,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let (n, c, h, w) = {
        let d = input.dims();
        (d[0], d[1], d[2], d[3])
    };
    let cols_cols = c * kh * kw;
    let data = input.data();
    let row_group = ow * cols_cols;
    if n * oh * row_group < PAR_WORK || rayon::current_num_threads() <= 1 {
        for ni in 0..n {
            for oy in 0..oh {
                let base = (ni * oh + oy) * row_group;
                im2col_rows(
                    &mut cols[base..base + row_group],
                    data,
                    ni,
                    oy,
                    c,
                    h,
                    w,
                    kh,
                    kw,
                    ow,
                    spec,
                );
            }
        }
    } else {
        cols.par_chunks_mut(row_group)
            .enumerate()
            .for_each(|(g, chunk)| {
                im2col_rows(chunk, data, g / oh, g % oh, c, h, w, kh, kw, ow, spec);
            });
    }
}

/// The fused-im2col `A` operand for the convolution GEMM: patch rows are
/// generated on demand, straight into the GEMM's L1-resident pack buffers,
/// so the `[N·OH·OW, C·KH·KW]` patch matrix is never written to (or read
/// back from) memory. Row values are exactly those [`im2col_into`] would
/// have materialized, so the GEMM result is bit-identical.
struct Im2colRows<'a> {
    data: &'a [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ow: usize,
    hw_out: usize,
    spec: ConvSpec,
}

impl ARows for Im2colRows<'_> {
    fn fill(&self, row: usize, kk: usize, dst: &mut [f32]) {
        let (h, w, kh, kw) = (self.h, self.w, self.kh, self.kw);
        let (ni, rem) = (row / self.hw_out, row % self.hw_out);
        let (oy, ox) = (rem / self.ow, rem % self.ow);
        let pad = self.spec.padding as isize;
        let y0 = (oy * self.spec.stride) as isize - pad;
        let x0 = (ox * self.spec.stride) as isize - pad;
        // Interior fast path: the whole kernel window is inside the image
        // and the whole row was requested — plain stripe copies, no zero
        // fill, no bounds arithmetic. Almost every patch of a typical
        // feature map takes this branch.
        if kk == 0
            && dst.len() == self.c * kh * kw
            && y0 >= 0
            && x0 >= 0
            && (y0 as usize) + kh <= h
            && (x0 as usize) + kw <= w
        {
            let (y0, x0) = (y0 as usize, x0 as usize);
            let mut d = 0;
            for ci in 0..self.c {
                let base = (ni * self.c + ci) * h * w + y0 * w + x0;
                for ky in 0..kh {
                    let src = base + ky * w;
                    dst[d..d + kw].copy_from_slice(&self.data[src..src + kw]);
                    d += kw;
                }
            }
            return;
        }
        dst.fill(0.0);
        let kend = kk + dst.len();
        // Kernel-row stripes (ci, ky) overlapping the requested k-segment.
        let first = kk / kw;
        let last = (kend - 1) / kw;
        for s in first..=last {
            let (ci, ky) = (s / kh, s % kh);
            let y = y0 + ky as isize;
            if y < 0 || y >= h as isize {
                continue;
            }
            let s_base = s * kw;
            // Intersection of the stripe with the segment and the image.
            let seg_lo = kk.max(s_base) - s_base;
            let seg_hi = kend.min(s_base + kw) - s_base;
            let x_lo = seg_lo.max((-x0).max(0) as usize);
            let x_hi = seg_hi.min(((w as isize - x0).min(kw as isize)).max(0) as usize);
            if x_lo >= x_hi {
                continue;
            }
            // x0 + x_lo >= 0 by construction of x_lo.
            let src_start =
                (ni * self.c + ci) * h * w + y as usize * w + (x0 + x_lo as isize) as usize;
            dst[s_base + x_lo - kk..s_base + x_hi - kk]
                .copy_from_slice(&self.data[src_start..src_start + (x_hi - x_lo)]);
        }
    }
}

/// Folds an `[N*OH*OW, C*KH*KW]` patch matrix back into an `[N, C, H, W]`
/// tensor by scatter-adding overlapping patches (the adjoint of
/// [`im2col_into`]). Parallel over output planes — each `(image, channel)`
/// plane gathers only its own column entries, so there are no write
/// conflicts.
///
/// # Errors
///
/// Returns an error if the column matrix shape is inconsistent with the
/// target dimensions and spec.
fn col2im(
    cols: &Tensor,
    input_dims: &[usize],
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let oh = spec.output_extent(h, kh)?;
    let ow = spec.output_extent(w, kw)?;
    let cols_rows = checked_volume(&[n, oh, ow])?;
    let cols_cols = checked_volume(&[c, kh, kw])?;
    if cols.dims() != [cols_rows, cols_cols] {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: vec![cols_rows, cols_cols],
        });
    }
    let mut out = vec![0.0f32; checked_volume(input_dims)?];
    let data = cols.data();
    let pad = spec.padding as isize;

    // The exact adjoint of `im2col_rows`: the same kernel-row stripes, with
    // `+=` instead of a copy, the vertical kernel range hoisted per output
    // row and the horizontal bounds hoisted out of the interior columns.
    // `ox` stays ascending and each stripe adds in (ky, kx) order, so the
    // per-element accumulation order — and therefore every bit of the
    // result — matches the per-pixel gather this replaces.
    let plane = |pi: usize, out_plane: &mut [f32]| {
        let (ni, ci) = (pi / c, pi % c);
        let (ilo, ihi) = interior_cols(w, kw, ow, spec);
        for oy in 0..oh {
            let y0 = (oy * spec.stride) as isize - pad;
            let ky_lo = (-y0).max(0) as usize;
            let ky_hi = ((h as isize - y0).min(kh as isize)).max(0) as usize;
            if ky_lo >= ky_hi {
                continue;
            }
            let row_base = (ni * oh + oy) * ow;
            let border = |ox: usize, out_plane: &mut [f32]| {
                let x0 = (ox * spec.stride) as isize - pad;
                let col_base = (row_base + ox) * cols_cols + ci * kh * kw;
                let x_lo = (-x0).max(0) as usize;
                let x_hi = ((w as isize - x0).min(kw as isize)).max(0) as usize;
                if x_lo >= x_hi {
                    return;
                }
                for ky in ky_lo..ky_hi {
                    // x0 + x_lo >= 0 by construction of x_lo.
                    let out_start = (y0 + ky as isize) as usize * w + (x0 + x_lo as isize) as usize;
                    let col_row = col_base + ky * kw;
                    let dst = &mut out_plane[out_start..out_start + (x_hi - x_lo)];
                    let src = &data[col_row + x_lo..col_row + x_hi];
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            };
            for ox in 0..ilo {
                border(ox, out_plane);
            }
            for ox in ilo..ihi {
                let x0 = ox * spec.stride - spec.padding;
                let col_base = (row_base + ox) * cols_cols + ci * kh * kw;
                for ky in ky_lo..ky_hi {
                    let out_start = (y0 + ky as isize) as usize * w + x0;
                    let col_row = col_base + ky * kw;
                    let dst = &mut out_plane[out_start..out_start + kw];
                    let src = &data[col_row..col_row + kw];
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
            for ox in ihi..ow {
                border(ox, out_plane);
            }
        }
    };

    if cols_rows * cols_cols < PAR_WORK || rayon::current_num_threads() <= 1 {
        for (pi, out_plane) in out.chunks_mut(h * w).enumerate() {
            plane(pi, out_plane);
        }
    } else {
        out.par_chunks_mut(h * w)
            .enumerate()
            .for_each(|(pi, p)| plane(pi, p));
    }
    Tensor::from_vec(out, input_dims)
}

/// Gradients produced by [`Backend::conv2d_backward`](crate::Backend::conv2d_backward).
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the convolution input.
    pub d_input: Tensor,
    /// Gradient with respect to the filter weights.
    pub d_weight: Tensor,
    /// Gradient with respect to the bias (one entry per output channel).
    pub d_bias: Tensor,
}

/// Convolution filter weights pre-transposed into the layout the GEMM core
/// consumes: `[C·KH·KW, F]`, i.e. `Wᵀ` of the `[F, C·KH·KW]` filter matrix.
///
/// Every convolution kernel runs against a pack. The unpacked
/// [`Backend::conv2d`](crate::Backend::conv2d) and
/// [`Backend::conv2d_input_grad`](crate::Backend::conv2d_input_grad) pack
/// per call; the batch-inference engine packs each layer once and shares
/// the pack read-only across batch shards and calls through the
/// `*_prepacked` methods, amortising the transpose and tap flip.
#[derive(Debug, Clone)]
pub struct PackedConvWeights {
    wt: Tensor,
    /// Original `[F, C·KH·KW]` layout, kept for the direct stride-1 kernel
    /// (which reads filter-major taps rather than the GEMM transpose).
    w: Tensor,
    /// Tap-flipped, channel-swapped `[C, F, KH, KW]` layout for the direct
    /// transposed-convolution backward (square kernels only); built once at
    /// pack time so gradient loops never rebuild it per batch shard.
    flipped: Option<Tensor>,
    f: usize,
    c: usize,
    kh: usize,
    kw: usize,
}

/// Builds the `[C, F, KH, KW]` tap-flipped weights the transposed
/// convolution consumes: `flipped[ci][fi][ky][kx] =
/// w[fi][ci][KH−1−ky][KW−1−kx]`.
fn flip_weights(weight: &[f32], f: usize, c: usize, kh: usize, kw: usize) -> Vec<f32> {
    let mut flipped = vec![0.0f32; f * c * kh * kw];
    for ci in 0..c {
        for fi in 0..f {
            for ky in 0..kh {
                for kx in 0..kw {
                    flipped[((ci * f + fi) * kh + ky) * kw + kx] =
                        weight[((fi * c + ci) * kh + kh - 1 - ky) * kw + kw - 1 - kx];
                }
            }
        }
    }
    flipped
}

impl PackedConvWeights {
    /// Packs an `[F, C, KH, KW]` filter tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 4.
    pub fn pack(weight: &Tensor) -> Result<Self> {
        let (f, c, kh, kw) = dims4(weight)?;
        let kdim = checked_volume(&[c, kh, kw])?;
        let mut wt = vec![0.0f32; checked_volume(&[kdim, f])?];
        transpose_into(&mut wt, weight.data(), f, kdim);
        let flipped = if kh == kw && kh > 0 {
            Some(Tensor::from_vec(
                flip_weights(weight.data(), f, c, kh, kw),
                &[c, f, kh, kw],
            )?)
        } else {
            None
        };
        Ok(PackedConvWeights {
            wt: Tensor::from_vec(wt, &[kdim, f])?,
            w: weight.clone(),
            flipped,
            f,
            c,
            kh,
            kw,
        })
    }
}

/// Register-blocked direct stride-1 convolution over a zero-padded input:
/// `out[co][y][x] = bias[co] + Σ_{ci,ky,kx} w[co][ci][ky][kx] ·
/// padded[ci][y+ky][x+kx]`, for a compile-time row width `OW` and
/// output-channel block `CB`.
///
/// For the narrow layers this workspace runs (8–32 channels), im2col+GEMM
/// is dominated by materializing and re-reading the `[N·OH·OW, C·KH·KW]`
/// patch matrix; this kernel touches each input element straight out of a
/// padded plane copy instead. `CB` output-channel rows of constant width
/// accumulate in registers across the whole `(ci, ky, kx)` reduction — the
/// same fixed-size-array trick as the GEMM micro-kernel, and the same
/// reduction order as the GEMM formulation's k dimension; `CB` only blocks
/// independent outputs, so it never affects results.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn direct_s1_image<const OW: usize, const CB: usize, const FMA: bool>(
    out_img: &mut [f32],
    padded: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    ci_n: usize,
    co_n: usize,
    k: usize,
    oh: usize,
    pw: usize,
) {
    let mut co0 = 0;
    while co0 < co_n {
        let cob = CB.min(co_n - co0);
        for y in 0..oh {
            let mut acc = [[0.0f32; OW]; CB];
            if let Some(b) = bias {
                for (j, row) in acc.iter_mut().enumerate().take(cob) {
                    row.fill(b[co0 + j]);
                }
            }
            for ci in 0..ci_n {
                let plane_row = (ci * (oh + k - 1) + y) * pw;
                for ky in 0..k {
                    let prow = &padded[plane_row + ky * pw..plane_row + (ky + 1) * pw];
                    let w_row = (ci * k + ky) * k;
                    for kx in 0..k {
                        let src: &[f32; OW] =
                            prow[kx..kx + OW].try_into().expect("OW-sized source row");
                        for (j, row) in acc.iter_mut().enumerate().take(cob) {
                            let wv = weight[(co0 + j) * ci_n * k * k + w_row + kx];
                            for (o, &s) in row.iter_mut().zip(src.iter()) {
                                *o = crate::matmul::madd::<FMA>(*o, wv, s);
                            }
                        }
                    }
                }
            }
            for (j, row) in acc.iter().enumerate().take(cob) {
                let dst_start = ((co0 + j) * oh + y) * OW;
                out_img[dst_start..dst_start + OW].copy_from_slice(row);
            }
        }
        co0 += cob;
    }
}

/// AVX2+FMA instantiations of [`direct_s1_image`]; callers must verify
/// support at runtime. The narrow-row variant doubles the channel block
/// (8 one-ymm accumulator rows instead of 4 idle-half tiles).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_s1_image_avx2<const OW: usize, const CB: usize>(
    out_img: &mut [f32],
    padded: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    ci_n: usize,
    co_n: usize,
    k: usize,
    oh: usize,
    pw: usize,
) {
    direct_s1_image::<OW, CB, true>(out_img, padded, weight, bias, ci_n, co_n, k, oh, pw);
}

/// Whether the direct stride-1 kernel handles this shape: square stride-1
/// kernels with sub-kernel padding on the two row widths the kernel is
/// instantiated for (8 and 16 — the LISA-CNN feature-map extents; wider
/// maps would need more accumulator registers than AVX2 offers).
fn direct_s1_applies(spec: ConvSpec, kh: usize, kw: usize, ow: usize) -> bool {
    spec.stride == 1 && kh == kw && kh > 0 && spec.padding < kh && (ow == 8 || ow == 16)
}

/// Runs the direct stride-1 convolution over a batch: pads each image's
/// planes into a scratch buffer (zero borders written once), then runs the
/// register-blocked kernel per image at the matching compile-time width.
/// Dispatch follows the caller's pre-resolved `tier` — no per-image CPU
/// feature queries.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct_s1(
    tier: SimdTier,
    out: &mut [f32],
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    ci_n: usize,
    h: usize,
    w: usize,
    co_n: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    scratch: &mut Scratch,
) {
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    // The interior is overwritten per image; only the border needs zeroing,
    // and only once — it is never written again.
    let mut padded = scratch.take_dirty(ci_n * ph * pw);
    for ci in 0..ci_n {
        let plane = &mut padded[ci * ph * pw..(ci + 1) * ph * pw];
        plane[..pad * pw].fill(0.0);
        plane[(h + pad) * pw..].fill(0.0);
        for y in 0..h {
            let row = &mut plane[(y + pad) * pw..(y + pad + 1) * pw];
            row[..pad].fill(0.0);
            row[pad + w..].fill(0.0);
        }
    }
    for ni in 0..n {
        for ci in 0..ci_n {
            for y in 0..h {
                let src = &input[((ni * ci_n + ci) * h + y) * w..][..w];
                padded[(ci * ph + y + pad) * pw + pad..(ci * ph + y + pad) * pw + pad + w]
                    .copy_from_slice(src);
            }
        }
        let out_img = &mut out[ni * co_n * oh * ow..(ni + 1) * co_n * oh * ow];
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => {
                // SAFETY: an Avx2Fma tier is only ever constructed after
                // runtime verification that the CPU supports AVX2+FMA
                // (SimdTier::detect / CpuBackend::with_tier clamping).
                unsafe {
                    match ow {
                        8 => direct_s1_image_avx2::<8, 8>(
                            out_img, &padded, weight, bias, ci_n, co_n, k, oh, pw,
                        ),
                        _ => direct_s1_image_avx2::<16, 4>(
                            out_img, &padded, weight, bias, ci_n, co_n, k, oh, pw,
                        ),
                    }
                };
            }
            // Scalar tier (and the only arm on non-x86 targets) keeps 4-row
            // blocks: 8 rows of 8 floats would need every SSE2 register for
            // accumulators alone. FMA=true keeps it bit-identical to the
            // AVX2 tier (CB only blocks independent outputs).
            _ => match ow {
                8 => direct_s1_image::<8, 4, true>(
                    out_img, &padded, weight, bias, ci_n, co_n, k, oh, pw,
                ),
                _ => direct_s1_image::<16, 4, true>(
                    out_img, &padded, weight, bias, ci_n, co_n, k, oh, pw,
                ),
            },
        }
    }
    scratch.put(padded);
}

/// Standard 2-D convolution of an `[N, C, H, W]` input against packed
/// `[F, C, KH, KW]` filters, with optional `[F]` bias; returns
/// `[N, F, OH, OW]`.
///
/// Narrow stride-1 convolutions take the register-blocked direct kernel
/// ([`conv2d_direct_s1`]); everything else runs fused-im2col GEMM against
/// the pack's pre-transposed `[C·KH·KW, F]` weights followed by the
/// `[N·OH·OW, F]` → `[N, F, OH, OW]` reorder with bias. Every workspace
/// buffer comes from `scratch`.
pub(crate) fn conv2d_prepacked(
    tier: SimdTier,
    input: &Tensor,
    weights: &PackedConvWeights,
    bias: Option<&Tensor>,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let (n, c, h, w) = dims4(input)?;
    if c != weights.c {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: vec![0, weights.c, 0, 0],
        });
    }
    let (f, kh, kw) = (weights.f, weights.kh, weights.kw);
    if let Some(b) = bias.filter(|b| b.dims() != [f]) {
        return Err(TensorError::ShapeMismatch {
            left: b.dims().to_vec(),
            right: vec![f],
        });
    }
    let oh = spec.output_extent(h, kh)?;
    let ow = spec.output_extent(w, kw)?;
    let rows = n * oh * ow;
    let kdim = c * kh * kw;

    if direct_s1_applies(spec, kh, kw, ow) {
        let mut out = vec![0.0f32; n * f * oh * ow];
        conv2d_direct_s1(
            tier,
            &mut out,
            input.data(),
            weights.w.data(),
            bias.map(|b| b.data()),
            n,
            c,
            h,
            w,
            f,
            kh,
            spec.padding,
            oh,
            ow,
            scratch,
        );
        return Tensor::from_vec(out, &[n, f, oh, ow]);
    }

    // prod: [N*OH*OW, F], with the im2col patch rows generated inside the
    // GEMM's packing step — the patch matrix is never materialized.
    let patches = Im2colRows {
        data: input.data(),
        c,
        h,
        w,
        kh,
        kw,
        ow,
        hw_out: oh * ow,
        spec,
    };
    let mut prod = scratch.take_dirty(rows * f);
    gemm_into_src(tier, &mut prod, &patches, weights.wt.data(), rows, kdim, f);

    // [N·OH·OW, F] -> [N, F, OH, OW] as one blocked transpose per image
    // (far kinder to the cache than a stride-F gather), then a streaming
    // bias pass.
    let mut out = vec![0.0f32; n * f * oh * ow];
    let hw = oh * ow;
    for ni in 0..n {
        transpose_into(
            &mut out[ni * f * hw..(ni + 1) * f * hw],
            &prod[ni * hw * f..(ni + 1) * hw * f],
            hw,
            f,
        );
    }
    scratch.put(prod);
    if let Some(bias) = bias {
        let b = bias.data();
        for ni in 0..n {
            for fi in 0..f {
                let plane = &mut out[(ni * f + fi) * hw..(ni * f + fi + 1) * hw];
                for o in plane.iter_mut() {
                    *o += b[fi];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, f, oh, ow])
}

/// Full backward pass of [`conv2d_prepacked`]: input, weight and bias
/// gradients. `grad_output` must be `[N, F, OH, OW]` matching the forward
/// output.
pub(crate) fn conv2d_backward(
    tier: SimdTier,
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Result<Conv2dGrads> {
    let (n, c, h, w) = dims4(input)?;
    let (f, _, kh, kw) = dims4(weight)?;
    let (gn, gf, oh, ow) = dims4(grad_output)?;
    let exp_oh = spec.output_extent(h, kh)?;
    let exp_ow = spec.output_extent(w, kw)?;
    if gn != n || gf != f || oh != exp_oh || ow != exp_ow {
        return Err(TensorError::ShapeMismatch {
            left: grad_output.dims().to_vec(),
            right: vec![n, f, exp_oh, exp_ow],
        });
    }
    let rows = n * oh * ow;
    let kdim = c * kh * kw;
    let hw = oh * ow;
    // `rows` and `kdim` each fit (they index real tensors), but their
    // product sizes the im2col workspace and can overflow on its own.
    let cols_len = checked_volume(&[rows, kdim])?;

    // Bias gradients: plane sums of grad_output, in (image, filter) order.
    let g = grad_output.data();
    let mut d_bias = vec![0.0f32; f];
    for ni in 0..n {
        for (fi, bias) in d_bias.iter_mut().enumerate() {
            let src = &g[(ni * f + fi) * hw..(ni * f + fi + 1) * hw];
            *bias += src.iter().sum::<f32>();
        }
    }

    let mut cols = scratch.take(cols_len);
    im2col_into(input, kh, kw, spec, oh, ow, &mut cols);

    // dW = gmatᵀ (F×M) · cols (M×K). The transpose is assembled from
    // grad_output's own planes — row `fi` of gmatᵀ is the concatenation of
    // every image's plane `fi`, so it packs as contiguous copies.
    let mut gt = scratch.take_dirty(f * rows);
    for ni in 0..n {
        for fi in 0..f {
            gt[fi * rows + ni * hw..fi * rows + (ni + 1) * hw]
                .copy_from_slice(&g[(ni * f + fi) * hw..(ni * f + fi + 1) * hw]);
        }
    }
    let mut d_weight = vec![0.0f32; f * kdim];
    gemm_into(tier, &mut d_weight, &gt, &cols, f, rows, kdim);
    scratch.put(gt);
    scratch.put(cols);

    // d_input through the packed input-gradient kernel — the same dispatch
    // (direct transposed kernel or GEMM + col2im) the batched gradient
    // engine uses, so the two backwards stay bit-identical.
    let packed = PackedConvWeights::pack(weight)?;
    let d_input =
        conv2d_input_grad_prepacked(tier, &packed, grad_output, input.dims(), spec, scratch)?;

    Ok(Conv2dGrads {
        d_input,
        d_weight: Tensor::from_vec(d_weight, &[f, c, kh, kw])?,
        d_bias: Tensor::from_vec(d_bias, &[f])?,
    })
}

/// Reorders `[N, F, OH, OW]` gradients into the GEMM-ready
/// `[N·OH·OW, F]` layout as one blocked transpose per image.
fn grad_to_gmat(gmat: &mut [f32], g: &[f32], n: usize, f: usize, hw: usize) {
    for ni in 0..n {
        transpose_into(
            &mut gmat[ni * hw * f..(ni + 1) * hw * f],
            &g[ni * f * hw..(ni + 1) * f * hw],
            f,
            hw,
        );
    }
}

/// Input gradient of [`conv2d_prepacked`] **only** — the backward path
/// attack generation needs: adversarial optimizers differentiate the loss
/// with respect to the *image*, never the weights, so the `dW` GEMM, its
/// `im2col` of the forward input and the bias reduction of
/// [`conv2d_backward`] are pure overhead there. The caller supplies the
/// recorded `input_dims`, so a frozen layer can serve many batch shards.
///
/// Stride-1 square kernels run as a *direct transposed convolution*:
/// flipping the kernel taps and swapping the channel axes turns
/// `d_input = col2im(g · W)` into a plain stride-1 convolution of
/// `grad_output` with padding `K−1−P`, which the register-blocked direct
/// kernel executes against the pack's pre-flipped taps without
/// materializing anything. Everything else runs one GEMM and the
/// stripe-structured [`col2im`] fold, drawing every workspace buffer from
/// `scratch`.
pub(crate) fn conv2d_input_grad_prepacked(
    tier: SimdTier,
    weights: &PackedConvWeights,
    grad_output: &Tensor,
    input_dims: &[usize],
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (f, kh, kw) = (weights.f, weights.kh, weights.kw);
    let (gn, gf, oh, ow) = dims4(grad_output)?;
    let exp_oh = spec.output_extent(h, kh)?;
    let exp_ow = spec.output_extent(w, kw)?;
    if gn != n || gf != f || weights.c != c || oh != exp_oh || ow != exp_ow {
        return Err(TensorError::ShapeMismatch {
            left: grad_output.dims().to_vec(),
            right: vec![n, f, exp_oh, exp_ow],
        });
    }
    if direct_s1_applies(spec, kh, kw, w) {
        if let Some(flipped) = &weights.flipped {
            return input_grad_direct(
                tier,
                flipped.data(),
                grad_output,
                input_dims,
                f,
                c,
                kh,
                spec,
                scratch,
            );
        }
    }
    input_grad_gemm(
        tier,
        weights.w.data(),
        grad_output,
        input_dims,
        f,
        kh,
        kw,
        spec,
        scratch,
    )
}

/// Direct-transposed-convolution input gradient (validated dims only;
/// the caller-supplied `input_dims` volume is overflow-checked before any
/// allocation since it originates outside the tensor crate).
#[allow(clippy::too_many_arguments)]
fn input_grad_direct(
    tier: SimdTier,
    flipped: &[f32],
    grad_output: &Tensor,
    input_dims: &[usize],
    f: usize,
    c: usize,
    k: usize,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let (n, h, w) = (input_dims[0], input_dims[2], input_dims[3]);
    let (oh, ow) = (grad_output.dims()[2], grad_output.dims()[3]);
    let flip_pad = k - 1 - spec.padding;
    let mut d_input = vec![0.0f32; checked_volume(input_dims)?];
    conv2d_direct_s1(
        tier,
        &mut d_input,
        grad_output.data(),
        flipped,
        None,
        n,
        f,
        oh,
        ow,
        c,
        k,
        flip_pad,
        h,
        w,
        scratch,
    );
    Tensor::from_vec(d_input, input_dims)
}

/// GEMM + col2im input gradient (validated dims only; workspace sizes are
/// overflow-checked because `input_dims` comes from outside the crate).
#[allow(clippy::too_many_arguments)]
fn input_grad_gemm(
    tier: SimdTier,
    weight: &[f32],
    grad_output: &Tensor,
    input_dims: &[usize],
    f: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let (n, c) = (input_dims[0], input_dims[1]);
    let (oh, ow) = (grad_output.dims()[2], grad_output.dims()[3]);
    let rows = n * oh * ow;
    let kdim = checked_volume(&[c, kh, kw])?;
    let mut gmat = scratch.take_dirty(checked_volume(&[rows, f])?);
    grad_to_gmat(&mut gmat, grad_output.data(), n, f, oh * ow);

    // dCols = gmat (M×F) · wmat (F×K), then fold back to the input shape.
    let mut d_cols = scratch.take_dirty(checked_volume(&[rows, kdim])?);
    gemm_into(tier, &mut d_cols, &gmat, weight, rows, f, kdim);
    scratch.put(gmat);
    let d_cols_t = Tensor::from_vec(std::mem::take(&mut d_cols), &[rows, kdim])?;
    let d_input = col2im(&d_cols_t, input_dims, kh, kw, spec)?;
    scratch.put(d_cols_t.into_vec());
    Ok(d_input)
}

/// Gradients produced by
/// [`Backend::depthwise_conv2d_backward`](crate::Backend::depthwise_conv2d_backward).
#[derive(Debug, Clone)]
pub struct DepthwiseGrads {
    /// Gradient with respect to the input.
    pub d_input: Tensor,
    /// Gradient with respect to the per-channel kernels (`[C, KH, KW]`).
    pub d_weight: Tensor,
    /// Gradient with respect to the per-channel bias (`[C]`).
    pub d_bias: Tensor,
}

/// Output columns (forward, input gradient) or kernel columns (weight
/// gradient) that one register accumulator covers. Wider rows run in
/// several blocks; a ragged last block computes into halo columns that are
/// never stored.
const LANES: usize = 8;

/// Writes a `[_, pw]` plane into a zeroed halo buffer of row pitch `pitch`:
/// element `(y, x)` lands at row `y·step + top`, column `x·step + left`.
/// Elements that land outside the buffer are dropped; no output reads them.
/// Every plane of one shape writes the same positions, so a buffer can be
/// refilled without zeroing it again.
fn fill_halo(
    halo: &mut [f32],
    pitch: usize,
    plane: &[f32],
    pw: usize,
    step: usize,
    top: isize,
    left: isize,
) {
    // The columns x with 0 ≤ x·step + left < pitch.
    let x_lo = if left < 0 {
        left.unsigned_abs().div_ceil(step)
    } else {
        0
    };
    let x_hi = pw.min(((pitch as isize - left).max(0) as usize).div_ceil(step));
    if x_lo >= x_hi {
        return;
    }
    let q0 = ((x_lo * step) as isize + left) as usize;
    let rows = halo.len() / pitch;
    for (y, src) in plane.chunks_exact(pw).enumerate() {
        let r = (y * step) as isize + top;
        if r < 0 {
            continue;
        }
        if r as usize >= rows {
            break;
        }
        let dst = &mut halo[r as usize * pitch + q0..(r as usize + 1) * pitch];
        if step == 1 {
            dst[..x_hi - x_lo].copy_from_slice(&src[x_lo..x_hi]);
        } else {
            for (d, &v) in dst.iter_mut().step_by(step).zip(&src[x_lo..x_hi]) {
                *d = v;
            }
        }
    }
}

/// Runs `f(index, chunk, halo)` on every `chunk_len` chunk of `out`,
/// rayon-parallel when `parallel`, with a `halo_len` buffer that starts
/// zeroed and that one thread reuses across its chunks (see [`fill_halo`]).
fn for_each_chunk_with_halo<F>(
    out: &mut [f32],
    chunk_len: usize,
    halo_len: usize,
    parallel: bool,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync + Send,
{
    if parallel {
        out.par_chunks_mut(chunk_len)
            .enumerate()
            .for_each(|(i, chunk)| f(i, chunk, &mut vec![0.0f32; halo_len]));
    } else {
        let mut halo = vec![0.0f32; halo_len];
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(i, chunk, &mut halo);
        }
    }
}

/// `out[y][x] = init + Σ_{ky, kx} src[y + ky][x + kx] · taps[ky][kx]` for
/// every `[_, ow]` output row, each sum in ascending `(ky, kx)` order.
///
/// `src` is a zero-padded halo plane of row pitch at least
/// `ow.next_multiple_of(LANES) + KW − 1`, so no tap is bounds-checked
/// against the image: a `LANES`-wide block of one output row accumulates in
/// registers across all taps, then is stored once.
///
/// A halo zero adds `t·0 = ±0` where a bounds-checked loop skips the tap,
/// which keeps every bit for a finite tap `t`. Adding `±0` leaves a nonzero
/// running sum unchanged and keeps a `+0` sum at `+0` (`+0 + −0 = +0` when
/// rounding to nearest); only a `−0` sum would change (`−0 + +0 = +0`). A
/// sum that starts at `+0` or at a nonzero value never reaches `−0`,
/// because an exact zero sum of nonzero terms rounds to `+0`. So the
/// result equals the skipping loop's whenever `init` is not `−0.0`.
fn correlate_halo(
    out: &mut [f32],
    ow: usize,
    src: &[f32],
    pitch: usize,
    taps: &[f32],
    kw: usize,
    init: f32,
) {
    for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
        for x0 in (0..ow).step_by(LANES) {
            let mut acc = [init; LANES];
            for (ky, k_row) in taps.chunks_exact(kw).enumerate() {
                let start = (oy + ky) * pitch + x0;
                let row = &src[start..start + LANES + kw - 1];
                for (window, &t) in row.windows(LANES).zip(k_row) {
                    acc = axpy_lanes(acc, window, t);
                }
            }
            let n = LANES.min(ow - x0);
            out_row[x0..x0 + n].copy_from_slice(&acc[..n]);
        }
    }
}

/// `acc + v·t`, lane by lane; `v` holds exactly `LANES` values. Written as
/// a whole-array map so the compiler keeps `acc` in vector registers.
#[inline(always)]
fn axpy_lanes(acc: [f32; LANES], v: &[f32], t: f32) -> [f32; LANES] {
    let v: [f32; LANES] = v.try_into().expect("LANES values");
    std::array::from_fn(|l| acc[l] + v[l] * t)
}

/// General (any stride) depthwise output plane via the gather loop.
#[allow(clippy::too_many_arguments)]
fn depthwise_plane_general(
    out_plane: &mut [f32],
    in_plane: &[f32],
    kernel: &[f32],
    bias: f32,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let pad = spec.padding as isize;
    for oy in 0..oh {
        let y0 = (oy * spec.stride) as isize - pad;
        for ox in 0..ow {
            let x0 = (ox * spec.stride) as isize - pad;
            let mut acc = bias;
            for ky in 0..kh {
                let y = y0 + ky as isize;
                if y < 0 || y >= h as isize {
                    continue;
                }
                let in_row = y as usize * w;
                let k_row = ky * kw;
                for kx in 0..kw {
                    let x = x0 + kx as isize;
                    if x < 0 || x >= w as isize {
                        continue;
                    }
                    acc += in_plane[in_row + x as usize] * kernel[k_row + kx];
                }
            }
            out_plane[oy * ow + ox] = acc;
        }
    }
}

/// Validates a `[C, KH, KW]` depthwise weight against `c` input channels
/// and returns its kernel extents.
fn depthwise_kernel(weight: &Tensor, c: usize) -> Result<(usize, usize)> {
    match *weight.dims() {
        [wc, kh, kw] if wc == c => Ok((kh, kw)),
        _ => Err(TensorError::ShapeMismatch {
            left: weight.dims().to_vec(),
            right: vec![c, 0, 0],
        }),
    }
}

/// Depthwise 2-D convolution: each channel is convolved with its own kernel.
///
/// * `input`:  `[N, C, H, W]`
/// * `weight`: `[C, KH, KW]`
/// * `bias`:   optional `[C]`
///
/// Returns `[N, C, OH, OW]`. This is the filtering layer BlurNet inserts
/// after the first convolution; it runs im2col-free and rayon-parallel over
/// planes. Stride-1 calls (the only configuration BlurNet uses) run
/// [`correlate_halo`] over a zero-padded copy of each input plane, summing
/// `bias` and then every tap in ascending `(ky, kx)` order, as the gather
/// loop ([`reference::depthwise_conv2d_naive`]) does, so the bits are the
/// gather loop's for finite weights. Other strides, and a channel whose bias
/// is `−0.0` (the one start value a halo zero can change), run the gather
/// loop itself.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches or if the kernel does not fit.
pub(crate) fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
) -> Result<Tensor> {
    let (n, c, h, w) = dims4(input)?;
    let (kh, kw) = depthwise_kernel(weight, c)?;
    if let Some(b) = bias {
        if b.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                left: b.dims().to_vec(),
                right: vec![c],
            });
        }
    }
    let oh = spec.output_extent(h, kh)?;
    let ow = spec.output_extent(w, kw)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let data = input.data();
    let wdata = weight.data();
    let pad = spec.padding as isize;
    let parallel = n * c * oh * ow * kh * kw >= PAR_WORK && rayon::current_num_threads() > 1;
    let pitch = ow.next_multiple_of(LANES) + kw - 1;
    let halo_len = if spec.stride == 1 {
        (oh + kh - 1) * pitch
    } else {
        0
    };

    for_each_chunk_with_halo(
        &mut out,
        oh * ow,
        halo_len,
        parallel,
        |pi, out_plane, halo| {
            let ci = pi % c;
            let in_plane = &data[pi * h * w..(pi + 1) * h * w];
            let kernel = &wdata[ci * kh * kw..(ci + 1) * kh * kw];
            let b = bias.map_or(0.0, |b| b.data()[ci]);
            if spec.stride == 1 && b.to_bits() != (-0.0f32).to_bits() {
                fill_halo(halo, pitch, in_plane, w, 1, pad, pad);
                correlate_halo(out_plane, ow, halo, pitch, kernel, kw, b);
            } else {
                depthwise_plane_general(out_plane, in_plane, kernel, b, h, w, oh, ow, kh, kw, spec);
            }
        },
    );
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Input gradient of [`depthwise_conv2d`] **only** — the immutable
/// attack-generation backward: no weight or bias gradients, no access to
/// the forward input (only its recorded `input_dims`), so a frozen layer
/// can serve many batch shards concurrently.
///
/// Runs in gather form. Each input element sums its taps' output gradients
/// in the order the scatter loop ([`reference::depthwise_input_grad_naive`])
/// adds them: `oy` ascending (`ky` descending), then `ox` ascending (`kx`
/// descending). That is [`correlate_halo`] with the flipped kernel over the
/// gradient plane, zero-upsampled by the stride and zero-padded. An
/// upsampling or halo zero, or a zero gradient the scatter skips, adds
/// `0·w = ±0` to a sum that starts at `+0`, which keeps every bit for
/// finite weights. [`depthwise_conv2d_backward`] returns this same
/// `d_input`.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches between `weight`,
/// `grad_output` and `input_dims`.
pub(crate) fn depthwise_input_grad(
    weight: &Tensor,
    grad_output: &Tensor,
    input_dims: &[usize],
    spec: ConvSpec,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (kh, kw) = depthwise_kernel(weight, c)?;
    let oh = spec.output_extent(h, kh)?;
    let ow = spec.output_extent(w, kw)?;
    if grad_output.dims() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_output.dims().to_vec(),
            right: vec![n, c, oh, ow],
        });
    }
    let g = grad_output.data();
    let pad = spec.padding as isize;
    let parallel = n * c * oh * ow * kh * kw >= PAR_WORK && rayon::current_num_threads() > 1;

    // Every (image, channel) plane gathers only into itself. The caller
    // supplies `input_dims`, so its volume is overflow-checked before the
    // allocation.
    let mut d_input = vec![0.0f32; checked_volume(input_dims)?];
    if d_input.is_empty() {
        return Tensor::from_vec(d_input, input_dims);
    }
    let flipped: Vec<f32> = weight
        .data()
        .chunks_exact(kh * kw)
        .flat_map(|k| k.iter().rev())
        .copied()
        .collect();
    // Halo `(y + j, x + i)` holds the output gradient whose window puts tap
    // `(KH−1−j, KW−1−i)` on input `(y, x)`, or zero.
    let pitch = w.next_multiple_of(LANES) + kw - 1;
    let (top, left) = ((kh - 1) as isize - pad, (kw - 1) as isize - pad);
    let halo_len = (h + kh - 1) * pitch;
    for_each_chunk_with_halo(&mut d_input, h * w, halo_len, parallel, |pi, d_in, halo| {
        let g_plane = &g[pi * oh * ow..(pi + 1) * oh * ow];
        fill_halo(halo, pitch, g_plane, ow, spec.stride, top, left);
        let taps = &flipped[(pi % c) * kh * kw..(pi % c + 1) * kh * kw];
        correlate_halo(d_in, w, halo, pitch, taps, kw, 0.0);
    });
    Tensor::from_vec(d_input, input_dims)
}

/// Backward pass of [`depthwise_conv2d`].
///
/// Runs as two parallel passes with disjoint writes: input gradients per
/// `(image, channel)` plane (shared with [`depthwise_input_grad`]), then
/// weight gradients per channel. Each tap's weight gradient sums `g·x` over
/// `(image, oy, ox)` ascending, the scatter loop's order
/// ([`reference::depthwise_weight_grad_naive`]), reading `x` from a
/// zero-padded copy of every image's plane: `LANES` adjacent taps of one
/// kernel row accumulate in registers and no tap is bounds-checked. A
/// padding tap, or a zero gradient the scatter skips, adds `±0` to a sum
/// that starts at `+0`, which keeps every bit for finite operands (see
/// [`correlate_halo`]); so does summing the bias gradient over every
/// output gradient, zeros included.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches.
pub(crate) fn depthwise_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
) -> Result<DepthwiseGrads> {
    let (n, c, h, w) = dims4(input)?;
    // Pass 1 — d_input, shared with the input-only backward, which also
    // validates `weight` and `grad_output` against the input.
    let d_input = depthwise_input_grad(weight, grad_output, input.dims(), spec)?;
    let (kh, kw) = (weight.dims()[1], weight.dims()[2]);
    let (oh, ow) = (grad_output.dims()[2], grad_output.dims()[3]);
    let x = input.data();
    let g = grad_output.data();
    let pad = spec.padding as isize;
    let parallel = n * c * oh * ow * kh * kw >= PAR_WORK && rayon::current_num_threads() > 1;
    let g_plane = |ni: usize, ci: usize| &g[(ni * c + ci) * oh * ow..(ni * c + ci + 1) * oh * ow];

    // Pass 2 — d_weight: each channel owns its kernel slots and reads every
    // image's halo plane, `rows × pitch` covering the windows of all outputs.
    let pitch = (ow - 1) * spec.stride + kw.next_multiple_of(LANES);
    let rows = (oh - 1) * spec.stride + kh;
    let mut d_weight = vec![0.0f32; c * kh * kw];
    let halo_len = n * rows * pitch;
    for_each_chunk_with_halo(
        &mut d_weight,
        kh * kw,
        halo_len,
        parallel,
        |ci, d_w, halos| {
            for (ni, halo) in halos.chunks_exact_mut(rows * pitch).enumerate() {
                let x_plane = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                fill_halo(halo, pitch, x_plane, w, 1, pad, pad);
            }
            for (ky, d_w_row) in d_w.chunks_exact_mut(kw).enumerate() {
                for kx0 in (0..kw).step_by(LANES) {
                    let mut acc = [0.0f32; LANES];
                    for (ni, halo) in halos.chunks_exact(rows * pitch).enumerate() {
                        for (oy, g_row) in g_plane(ni, ci).chunks_exact(ow).enumerate() {
                            let start = (oy * spec.stride + ky) * pitch + kx0;
                            let row = &halo[start..start + (ow - 1) * spec.stride + LANES];
                            for (ox, &go) in g_row.iter().enumerate() {
                                let at = ox * spec.stride;
                                acc = axpy_lanes(acc, &row[at..at + LANES], go);
                            }
                        }
                    }
                    let taps = LANES.min(kw - kx0);
                    d_w_row[kx0..kx0 + taps].copy_from_slice(&acc[..taps]);
                }
            }
        },
    );
    let d_bias: Vec<f32> = (0..c)
        .map(|ci| {
            (0..n)
                .flat_map(|ni| g_plane(ni, ci))
                .fold(0.0, |acc, &go| acc + go)
        })
        .collect();

    Ok(DepthwiseGrads {
        d_input,
        d_weight: Tensor::from_vec(d_weight, &[c, kh, kw])?,
        d_bias: Tensor::from_vec(d_bias, &[c])?,
    })
}

/// Seed (pre-optimisation) implementations for equivalence tests and
/// benchmark baselines; see [`crate::reference`].
pub(crate) mod reference {
    use super::{depthwise_kernel, dims4, ConvSpec};
    use crate::{Result, Tensor, TensorError};

    /// The seed depthwise input gradient: every nonzero output gradient
    /// scatters into its window, `(oy, ox)` ascending, then `(ky, kx)`
    /// ascending, with bounds checks on every tap.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches between `weight`,
    /// `grad_output` and `input_dims`.
    pub fn depthwise_input_grad_naive(
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
    ) -> Result<Tensor> {
        let &[n, c, h, w] = input_dims else {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: input_dims.len(),
            });
        };
        let (kh, kw) = depthwise_kernel(weight, c)?;
        let (oh, ow) = (spec.output_extent(h, kh)?, spec.output_extent(w, kw)?);
        if grad_output.dims() != [n, c, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.dims().to_vec(),
                right: vec![n, c, oh, ow],
            });
        }
        let (wd, g) = (weight.data(), grad_output.data());
        let pad = spec.padding as isize;
        let mut d_input = vec![0.0f32; n * c * h * w];
        for pi in 0..n * c {
            let kernel = &wd[(pi % c) * kh * kw..(pi % c + 1) * kh * kw];
            for oy in 0..oh {
                let y0 = (oy * spec.stride) as isize - pad;
                for ox in 0..ow {
                    let go = g[(pi * oh + oy) * ow + ox];
                    if go == 0.0 {
                        continue;
                    }
                    let x0 = (ox * spec.stride) as isize - pad;
                    for ky in 0..kh {
                        let y = y0 + ky as isize;
                        if y < 0 || y >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let xp = x0 + kx as isize;
                            if xp < 0 || xp >= w as isize {
                                continue;
                            }
                            d_input[(pi * h + y as usize) * w + xp as usize] +=
                                go * kernel[ky * kw + kx];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(d_input, input_dims)
    }

    /// The seed depthwise weight and bias gradients, `([C, KH, KW], [C])`:
    /// every nonzero output gradient adds itself to its channel's bias and
    /// `g·x` to every in-bounds tap, `(image, oy, ox)` ascending, then
    /// `(ky, kx)` ascending.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    pub fn depthwise_weight_grad_naive(
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
    ) -> Result<(Tensor, Tensor)> {
        let (n, c, h, w) = dims4(input)?;
        let (kh, kw) = depthwise_kernel(weight, c)?;
        let (oh, ow) = (spec.output_extent(h, kh)?, spec.output_extent(w, kw)?);
        if grad_output.dims() != [n, c, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.dims().to_vec(),
                right: vec![n, c, oh, ow],
            });
        }
        let (x, g) = (input.data(), grad_output.data());
        let pad = spec.padding as isize;
        let mut d_weight = vec![0.0f32; c * kh * kw];
        let mut d_bias = vec![0.0f32; c];
        for ci in 0..c {
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    let y0 = (oy * spec.stride) as isize - pad;
                    for ox in 0..ow {
                        let go = g[(((ni * c + ci) * oh) + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        d_bias[ci] += go;
                        let x0 = (ox * spec.stride) as isize - pad;
                        for ky in 0..kh {
                            let y = y0 + ky as isize;
                            if y < 0 || y >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let xp = x0 + kx as isize;
                                if xp < 0 || xp >= w as isize {
                                    continue;
                                }
                                d_weight[(ci * kh + ky) * kw + kx] +=
                                    go * x[base + y as usize * w + xp as usize];
                            }
                        }
                    }
                }
            }
        }
        Ok((
            Tensor::from_vec(d_weight, &[c, kh, kw])?,
            Tensor::from_vec(d_bias, &[c])?,
        ))
    }

    /// The seed `depthwise_conv2d`: per-pixel gather loop with bounds checks
    /// in the innermost loops.
    ///
    /// # Errors
    ///
    /// Same contract as [`Backend::depthwise_conv2d`](crate::Backend::depthwise_conv2d).
    pub fn depthwise_conv2d_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        let (n, c, h, w) = dims4(input)?;
        let (kh, kw) = depthwise_kernel(weight, c)?;
        let oh = spec.output_extent(h, kh)?;
        let ow = spec.output_extent(w, kw)?;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let data = input.data();
        let wdata = weight.data();
        let pad = spec.padding as isize;
        for ni in 0..n {
            for ci in 0..c {
                let in_base = (ni * c + ci) * h * w;
                let k_base = ci * kh * kw;
                let b = bias.map_or(0.0, |b| b.data()[ci]);
                for oy in 0..oh {
                    let y0 = (oy * spec.stride) as isize - pad;
                    for ox in 0..ow {
                        let x0 = (ox * spec.stride) as isize - pad;
                        let mut acc = b;
                        for ky in 0..kh {
                            let y = y0 + ky as isize;
                            if y < 0 || y >= h as isize {
                                continue;
                            }
                            let in_row = in_base + y as usize * w;
                            let k_row = k_base + ky * kw;
                            for kx in 0..kw {
                                let x = x0 + kx as isize;
                                if x < 0 || x >= w as isize {
                                    continue;
                                }
                                acc += data[in_row + x as usize] * wdata[k_row + kx];
                            }
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_backend;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Direct (loop-based) reference convolution used to validate the
    /// im2col implementation.
    fn naive_conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Tensor {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (f, _, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let oh = spec.output_extent(h, kh).unwrap();
        let ow = spec.output_extent(w, kw).unwrap();
        let mut out = Tensor::zeros(&[n, f, oh, ow]);
        for ni in 0..n {
            for fi in 0..f {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b.data()[fi]);
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let y =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let x =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                                        continue;
                                    }
                                    acc += input.get(&[ni, ci, y as usize, x as usize]).unwrap()
                                        * weight.get(&[fi, ci, ky, kx]).unwrap();
                                }
                            }
                        }
                        out.set(&[ni, fi, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    /// [`Backend::conv2d`] through the default backend and a fresh pool.
    fn conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        default_backend().conv2d(input, weight, bias, spec, &mut Scratch::new())
    }

    fn depthwise_conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        default_backend().depthwise_conv2d(input, weight, bias, spec)
    }

    /// Materializes the `[N·OH·OW, C·KH·KW]` patch matrix.
    fn im2col(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
        let (n, c, h, w) = dims4(input).unwrap();
        let oh = spec.output_extent(h, kh).unwrap();
        let ow = spec.output_extent(w, kw).unwrap();
        let mut cols = vec![0.0f32; n * oh * ow * c * kh * kw];
        im2col_into(input, kh, kw, spec, oh, ow, &mut cols);
        Tensor::from_vec(cols, &[n * oh * ow, c * kh * kw]).unwrap()
    }

    fn assert_close(got: &Tensor, want: &Tensor, tol: f32, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}");
        for (a, b) in got.data().iter().zip(want.data().iter()) {
            assert!((a - b).abs() < tol * (1.0 + b.abs()), "{what}: {a} vs {b}");
        }
    }

    #[test]
    fn output_extent_math() {
        let s = ConvSpec::new(2, 1).unwrap();
        assert_eq!(s.output_extent(32, 5).unwrap(), 15);
        assert_eq!(ConvSpec::same(5).unwrap().output_extent(32, 5).unwrap(), 32);
        assert_eq!(ConvSpec::valid().output_extent(32, 5).unwrap(), 28);
        assert!(ConvSpec::valid().output_extent(2, 5).is_err());
        assert!(ConvSpec::new(0, 0).is_err());
    }

    #[test]
    fn same_rejects_even_and_zero_kernels() {
        // Regression: `same(4)` used to silently produce a spec whose output
        // is one pixel short of the input.
        for k in [0usize, 2, 4, 8] {
            assert!(
                matches!(ConvSpec::same(k), Err(TensorError::InvalidSpec(_))),
                "kernel {k} must be rejected"
            );
        }
        for k in [1usize, 3, 5, 7] {
            let spec = ConvSpec::same(k).unwrap();
            assert_eq!(spec.stride, 1);
            assert_eq!(spec.output_extent(32, k).unwrap(), 32, "kernel {k}");
        }
    }

    #[test]
    fn conv2d_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let same3 = ConvSpec::same(3).unwrap();
        // (input dims, filters, spec): GEMM-path shapes (output widths 6,
        // 10 and 4), then LisaCnn's conv2 and conv3 — 3×3 "same" at
        // OW = 16 and 8, the two direct stride-1 kernel widths.
        for &(dims, f, spec) in &[
            ([2usize, 3, 9, 8], 4usize, ConvSpec::valid()),
            ([2, 3, 9, 8], 4, ConvSpec::new(1, 2).unwrap()),
            ([2, 3, 9, 8], 4, ConvSpec::new(2, 1).unwrap()),
            ([2, 8, 16, 16], 16, same3),
            ([2, 16, 8, 8], 32, same3),
        ] {
            let input = Tensor::rand_uniform(&dims, -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[f, dims[1], 3, 3], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[f], -0.5, 0.5, &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            let slow = naive_conv2d(&input, &weight, Some(&bias), spec);
            assert_close(&fast, &slow, 1e-4, &format!("{dims:?} f {f} {spec:?}"));
        }
    }

    #[test]
    fn direct_input_grad_matches_gemm() {
        // The direct transposed kernel against the GEMM + col2im fold at
        // LisaCnn's conv2 and conv3 shapes (input widths 16 and 8).
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let tier = default_backend().simd_tier();
        let spec = ConvSpec::same(3).unwrap();
        for &(c, f, hw) in &[(8usize, 16usize, 16usize), (16, 32, 8)] {
            assert!(direct_s1_applies(spec, 3, 3, hw));
            let dims = [2, c, hw, hw];
            let weight = Tensor::rand_uniform(&[f, c, 3, 3], -1.0, 1.0, &mut rng);
            let grad = Tensor::rand_uniform(&[2, f, hw, hw], -1.0, 1.0, &mut rng);
            let packed = PackedConvWeights::pack(&weight).unwrap();
            let mut scratch = Scratch::new();
            let direct =
                conv2d_input_grad_prepacked(tier, &packed, &grad, &dims, spec, &mut scratch)
                    .unwrap();
            let gemm = input_grad_gemm(
                tier,
                weight.data(),
                &grad,
                &dims,
                f,
                3,
                3,
                spec,
                &mut scratch,
            )
            .unwrap();
            assert_close(&direct, &gemm, 1e-5, &format!("c {c} f {f} hw {hw}"));
        }
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        // A 1x1 kernel of value 1 on a single channel is the identity.
        let input = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, None, ConvSpec::valid()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_scratch_reuse_is_deterministic() {
        // Two identical calls through one scratch pool must agree exactly
        // (buffer reuse must not leak state between calls).
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let input = Tensor::rand_uniform(&[2, 3, 12, 12], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[5, 3, 3, 3], -1.0, 1.0, &mut rng);
        let spec = ConvSpec::same(3).unwrap();
        let backend = default_backend();
        let mut scratch = Scratch::new();
        let first = backend
            .conv2d(&input, &weight, None, spec, &mut scratch)
            .unwrap();
        // The first call returned its buffers, so the second one reuses them.
        assert!(!scratch.pool.is_empty());
        let second = backend
            .conv2d(&input, &weight, None, spec, &mut scratch)
            .unwrap();
        assert_eq!(first, second);
        // And a *different* problem through the same pool stays correct.
        let small = Tensor::rand_uniform(&[1, 3, 5, 5], -1.0, 1.0, &mut rng);
        let got = backend
            .conv2d(&small, &weight, None, spec, &mut scratch)
            .unwrap();
        let expected = naive_conv2d(&small, &weight, None, spec);
        for (a, b) in got.data().iter().zip(expected.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn conv2d_prepacked_is_bit_identical_to_conv2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let backend = default_backend();
        for &(stride, padding) in &[(1usize, 1usize), (2, 2), (1, 0)] {
            let spec = ConvSpec { stride, padding };
            let input = Tensor::rand_uniform(&[3, 4, 10, 9], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[6, 4, 3, 3], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[6], -0.5, 0.5, &mut rng);
            let packed = PackedConvWeights::pack(&weight).unwrap();
            let mut scratch = Scratch::new();
            let plain = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            let fast = backend
                .conv2d_prepacked(&input, &packed, Some(&bias), spec, &mut scratch)
                .unwrap();
            // Same accumulation order everywhere: bit identity, not tolerance.
            assert_eq!(plain, fast, "stride {stride} pad {padding}");
        }
        // Channel mismatch and bad bias are rejected.
        let packed = PackedConvWeights::pack(&Tensor::zeros(&[2, 3, 3, 3])).unwrap();
        let mut scratch = Scratch::new();
        let wrong_c = Tensor::zeros(&[1, 4, 8, 8]);
        assert!(backend
            .conv2d_prepacked(&wrong_c, &packed, None, ConvSpec::valid(), &mut scratch)
            .is_err());
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let bad_bias = Tensor::zeros(&[3]);
        assert!(backend
            .conv2d_prepacked(
                &input,
                &packed,
                Some(&bad_bias),
                ConvSpec::valid(),
                &mut scratch
            )
            .is_err());
        assert!(PackedConvWeights::pack(&Tensor::zeros(&[2, 3, 3])).is_err());
    }

    #[test]
    fn conv2d_backward_matches_numerical_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = ConvSpec {
            stride: 1,
            padding: 1,
        };
        let input = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let bias = Tensor::rand_uniform(&[3], -0.5, 0.5, &mut rng);
        // Loss = sum of outputs, so grad_output is all ones.
        let out = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = default_backend()
            .conv2d_backward(&input, &weight, &grad_out, spec, &mut Scratch::new())
            .unwrap();

        let eps = 1e-2f32;
        // Check a handful of input coordinates.
        for &flat in &[0usize, 7, 13, 24, 40] {
            let mut plus = input.clone();
            plus.data_mut()[flat] += eps;
            let mut minus = input.clone();
            minus.data_mut()[flat] -= eps;
            let f_plus = conv2d(&plus, &weight, Some(&bias), spec).unwrap().sum();
            let f_minus = conv2d(&minus, &weight, Some(&bias), spec).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grads.d_input.data()[flat];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad mismatch at {flat}: {numeric} vs {analytic}"
            );
        }
        // Check a handful of weight coordinates.
        for &flat in &[0usize, 5, 11, 17, 35] {
            let mut plus = weight.clone();
            plus.data_mut()[flat] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[flat] -= eps;
            let f_plus = conv2d(&input, &plus, Some(&bias), spec).unwrap().sum();
            let f_minus = conv2d(&input, &minus, Some(&bias), spec).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grads.d_weight.data()[flat];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight grad mismatch at {flat}: {numeric} vs {analytic}"
            );
        }
        // Bias gradient of a sum-loss equals the number of output pixels.
        let expected_bias = (out.len() / 3) as f32;
        for &b in grads.d_bias.data() {
            assert!((b - expected_bias).abs() < 1e-3);
        }
    }

    #[test]
    fn depthwise_identity_kernel_preserves_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let input = Tensor::rand_uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);
        // 3x3 kernels with a 1 in the centre = identity under "same" padding.
        let mut weight = Tensor::zeros(&[3, 3, 3]);
        for c in 0..3 {
            weight.set(&[c, 1, 1], 1.0).unwrap();
        }
        let out = depthwise_conv2d(&input, &weight, None, ConvSpec::same(3).unwrap()).unwrap();
        for (a, b) in out.data().iter().zip(input.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn depthwise_box_blur_averages_neighbours() {
        // Uniform input stays uniform under a normalized box kernel.
        let input = Tensor::full(&[1, 2, 5, 5], 3.0);
        let weight = Tensor::full(&[2, 3, 3], 1.0 / 9.0);
        let out = depthwise_conv2d(&input, &weight, None, ConvSpec::same(3).unwrap()).unwrap();
        // Centre pixels keep the value; border pixels shrink due to zero padding.
        assert!((out.get(&[0, 0, 2, 2]).unwrap() - 3.0).abs() < 1e-5);
        assert!(out.get(&[0, 0, 0, 0]).unwrap() < 3.0);
    }

    #[test]
    fn depthwise_fast_path_matches_naive_reference() {
        // The stride-1 shifted-row fast path and the general path must both
        // agree with the seed gather loop, including stride/padding edges.
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for &(stride, padding, k) in &[
            (1usize, 1usize, 3usize),
            (1, 2, 5),
            (1, 0, 3),
            (1, 3, 3),
            (2, 1, 3),
            (2, 2, 5),
            (3, 0, 3),
        ] {
            let spec = ConvSpec { stride, padding };
            let input = Tensor::rand_uniform(&[2, 3, 11, 9], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[3, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[3], -0.5, 0.5, &mut rng);
            if spec.output_extent(11, k).is_err() || spec.output_extent(9, k).is_err() {
                continue;
            }
            let fast = depthwise_conv2d(&input, &weight, Some(&bias), spec).unwrap();
            let slow =
                reference::depthwise_conv2d_naive(&input, &weight, Some(&bias), spec).unwrap();
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "stride {stride} pad {padding} k {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn depthwise_matches_grouped_standard_conv() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let input = Tensor::rand_uniform(&[1, 3, 7, 7], -1.0, 1.0, &mut rng);
        let dw = Tensor::rand_uniform(&[3, 3, 3], -1.0, 1.0, &mut rng);
        // Expand depthwise kernel into a block-diagonal standard kernel.
        let mut full = Tensor::zeros(&[3, 3, 3, 3]);
        for c in 0..3 {
            for ky in 0..3 {
                for kx in 0..3 {
                    full.set(&[c, c, ky, kx], dw.get(&[c, ky, kx]).unwrap())
                        .unwrap();
                }
            }
        }
        let spec = ConvSpec::same(3).unwrap();
        let a = depthwise_conv2d(&input, &dw, None, spec).unwrap();
        let b = conv2d(&input, &full, None, spec).unwrap();
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn depthwise_backward_matches_numerical_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let spec = ConvSpec::same(3).unwrap();
        let input = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[2, 3, 3], -1.0, 1.0, &mut rng);
        let out = depthwise_conv2d(&input, &weight, None, spec).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = default_backend()
            .depthwise_conv2d_backward(&input, &weight, &grad_out, spec)
            .unwrap();
        let eps = 1e-2f32;
        for &flat in &[0usize, 3, 10, 17] {
            let mut plus = weight.clone();
            plus.data_mut()[flat] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[flat] -= eps;
            let f_plus = depthwise_conv2d(&input, &plus, None, spec).unwrap().sum();
            let f_minus = depthwise_conv2d(&input, &minus, None, spec).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grads.d_weight.data()[flat];
            assert!((numeric - analytic).abs() < 1e-2);
        }
        for &flat in &[0usize, 12, 30, 49] {
            let mut plus = input.clone();
            plus.data_mut()[flat] += eps;
            let mut minus = input.clone();
            minus.data_mut()[flat] -= eps;
            let f_plus = depthwise_conv2d(&plus, &weight, None, spec).unwrap().sum();
            let f_minus = depthwise_conv2d(&minus, &weight, None, spec).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grads.d_input.data()[flat];
            assert!((numeric - analytic).abs() < 1e-2);
        }
    }

    #[test]
    fn conv2d_input_grad_matches_full_backward_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let backend = default_backend();
        for &(stride, padding) in &[(1usize, 1usize), (2, 2), (1, 0), (3, 2)] {
            let spec = ConvSpec { stride, padding };
            let input = Tensor::rand_uniform(&[2, 3, 9, 8], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[4, 3, 3, 3], -1.0, 1.0, &mut rng);
            let out = conv2d(&input, &weight, None, spec).unwrap();
            let grad_out = Tensor::rand_uniform(out.dims(), -1.0, 1.0, &mut rng);
            let mut scratch = Scratch::new();
            let full = backend
                .conv2d_backward(&input, &weight, &grad_out, spec, &mut scratch)
                .unwrap();
            let lean = backend
                .conv2d_input_grad(&weight, &grad_out, input.dims(), spec, &mut scratch)
                .unwrap();
            // Same GEMM + fold in the same order: bit identity, not tolerance.
            assert_eq!(lean, full.d_input, "stride {stride} pad {padding}");
            // Scratch reuse across calls must not change the result.
            let again = backend
                .conv2d_input_grad(&weight, &grad_out, input.dims(), spec, &mut scratch)
                .unwrap();
            assert_eq!(again, full.d_input);
        }
        // Shape validation.
        let weight = Tensor::zeros(&[2, 3, 3, 3]);
        let grad = Tensor::zeros(&[1, 2, 8, 8]);
        let mut scratch = Scratch::new();
        let mut input_grad = |grad: &Tensor, dims: &[usize], spec: ConvSpec| {
            backend.conv2d_input_grad(&weight, grad, dims, spec, &mut scratch)
        };
        assert!(input_grad(&grad, &[1, 3, 8, 8], ConvSpec::valid()).is_err());
        assert!(input_grad(&grad, &[1, 3, 8], ConvSpec::same(3).unwrap()).is_err());
        let wrong_f = Tensor::zeros(&[1, 4, 8, 8]);
        assert!(input_grad(&wrong_f, &[1, 3, 8, 8], ConvSpec::same(3).unwrap()).is_err());
    }

    #[test]
    fn depthwise_input_grad_matches_full_backward_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        let backend = default_backend();
        for &(stride, padding, k) in &[(1usize, 1usize, 3usize), (1, 2, 5), (2, 1, 3)] {
            let spec = ConvSpec { stride, padding };
            let input = Tensor::rand_uniform(&[2, 3, 11, 9], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[3, k, k], -1.0, 1.0, &mut rng);
            let out = depthwise_conv2d(&input, &weight, None, spec).unwrap();
            let grad_out = Tensor::rand_uniform(out.dims(), -1.0, 1.0, &mut rng);
            let full = backend
                .depthwise_conv2d_backward(&input, &weight, &grad_out, spec)
                .unwrap();
            let lean = backend
                .depthwise_input_grad(&weight, &grad_out, input.dims(), spec)
                .unwrap();
            assert_eq!(lean, full.d_input, "stride {stride} pad {padding} k {k}");
        }
        // Shape validation.
        let weight = Tensor::zeros(&[3, 3, 3]);
        let same3 = ConvSpec::same(3).unwrap();
        let grad = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(backend
            .depthwise_input_grad(&weight, &grad, &[1, 2, 8, 8], same3)
            .is_err());
        let grad = Tensor::zeros(&[1, 3, 7, 7]);
        assert!(backend
            .depthwise_input_grad(&weight, &grad, &[1, 3, 8, 8], same3)
            .is_err());
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
            let spec = ConvSpec { stride, padding };
            let x = Tensor::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
            let cols = im2col(&x, 3, 3, spec);
            let y = Tensor::rand_uniform(cols.dims(), -1.0, 1.0, &mut rng);
            let lhs = cols.dot(&y).unwrap();
            let back = col2im(&y, &[1, 2, 6, 6], 3, 3, spec).unwrap();
            let rhs = x.dot(&back).unwrap();
            assert!((lhs - rhs).abs() < 1e-3, "{spec:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let bad_weight = Tensor::zeros(&[2, 4, 3, 3]);
        assert!(conv2d(&input, &bad_weight, None, ConvSpec::valid()).is_err());
        let bad_bias = Tensor::zeros(&[3]);
        let weight = Tensor::zeros(&[2, 3, 3, 3]);
        assert!(conv2d(&input, &weight, Some(&bad_bias), ConvSpec::valid()).is_err());
        let same3 = ConvSpec::same(3).unwrap();
        let dw_bad = Tensor::zeros(&[2, 3, 3]);
        assert!(depthwise_conv2d(&input, &dw_bad, None, same3).is_err());
        // Regression: a rank-1 or rank-2 depthwise weight used to panic in
        // the backward instead of returning a typed error.
        let grad = Tensor::zeros(&[1, 3, 8, 8]);
        for bad in [Tensor::zeros(&[3]), Tensor::zeros(&[3, 3])] {
            assert!(matches!(
                default_backend().depthwise_conv2d_backward(&input, &bad, &grad, same3),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
    }
}
