//! MDCT substrate for the mp3-like audio codec.
//!
//! A 32-band modified discrete cosine transform with the Princen–Bradley
//! sine window and 50 % overlap-add — the lapped-transform core of
//! MPEG-audio-style codecs. The window satisfies
//! `w²[n] + w²[n+M] = 1`, so the analysis/synthesis chain reconstructs
//! perfectly in the absence of quantisation.

use std::f32::consts::PI;
use std::sync::LazyLock;

/// Subband count (MDCT length); each hop consumes/produces `M` samples.
pub const M: usize = 32;

/// Window length (2·M).
pub const W: usize = 2 * M;

/// The Princen–Bradley sine window.
fn window() -> [f32; W] {
    let mut w = [0.0f32; W];
    for (n, v) in w.iter_mut().enumerate() {
        *v = ((n as f32 + 0.5) * PI / W as f32).sin();
    }
    w
}

/// The transform basis `cos(π/M · (n + ½ + M/2) · (k + ½))`.
fn basis(n: usize, k: usize) -> f32 {
    ((PI / M as f32) * (n as f32 + 0.5 + M as f32 / 2.0) * (k as f32 + 0.5)).cos()
}

/// [`window`] and `BASIS[n][k] = basis(n, k)`, each built once. Every
/// entry has the bits the transforms used to compute per sample.
static WINDOW: LazyLock<[f32; W]> = LazyLock::new(window);
static BASIS: LazyLock<[[f32; M]; W]> =
    LazyLock::new(|| std::array::from_fn(|n| std::array::from_fn(|k| basis(n, k))));

/// Forward MDCT of one windowed 64-sample block → 32 coefficients.
pub fn mdct(block: &[f32; W]) -> [f32; M] {
    let (w, basis) = (&*WINDOW, &*BASIS);
    let mut out = [0.0f32; M];
    for (k, coeff) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for n in 0..W {
            acc += block[n] * w[n] * basis[n][k];
        }
        *coeff = acc;
    }
    out
}

/// Inverse MDCT of 32 coefficients → one windowed 64-sample block, to be
/// overlap-added with its neighbours.
pub fn imdct(coeffs: &[f32; M]) -> [f32; W] {
    let w = &*WINDOW;
    let mut out = [0.0f32; W];
    for ((sample, row), &wn) in out.iter_mut().zip(BASIS.iter()).zip(w) {
        let mut acc = 0.0f32;
        for (&c, &b) in coeffs.iter().zip(row) {
            acc += c * b;
        }
        *sample = acc * wn * 2.0 / M as f32;
    }
    out
}

/// Analyses a signal into consecutive 32-coefficient MDCT granules
/// (hop = 32; the signal is zero-padded by one hop on each side).
pub fn analyze(signal: &[f32]) -> Vec<[f32; M]> {
    let hops = signal.len() / M;
    let mut out = Vec::with_capacity(hops + 1);
    let sample = |i: isize| -> f32 {
        if i < 0 || i as usize >= signal.len() {
            0.0
        } else {
            signal[i as usize]
        }
    };
    // Granule g covers samples [g*M - M/2 .. g*M + 3M/2)? We use the
    // simplest indexing: block g starts at (g-1)*M so that overlap-add of
    // granules 0..=hops reconstructs samples 0..hops*M.
    for g in 0..=hops {
        let mut block = [0.0f32; W];
        for (n, v) in block.iter_mut().enumerate() {
            *v = sample((g as isize - 1) * M as isize + n as isize);
        }
        out.push(mdct(&block));
    }
    out
}

/// Synthesises granules back into a signal of `len` samples by
/// overlap-add (inverse of [`analyze`]).
pub fn synthesize(granules: &[[f32; M]], len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len + 2 * M];
    for (g, coeffs) in granules.iter().enumerate() {
        let block = imdct(coeffs);
        let start = g * M; // (g-1)*M + M offset into padded buffer
        for (n, &v) in block.iter().enumerate() {
            if start + n >= M && start + n - M < out.len() {
                out[start + n - M] += v;
            }
        }
    }
    out.truncate(len);
    out
}

/// Streaming overlap-add synthesiser: feed one granule, get one hop (32
/// samples) of reconstructed audio. This is the stateful core of the mp3
/// decoder's IMDCT filter.
#[derive(Debug, Clone)]
pub struct OverlapAdd {
    carry: [f32; M],
}

impl OverlapAdd {
    /// A synthesiser with silent history.
    pub fn new() -> Self {
        OverlapAdd { carry: [0.0; M] }
    }

    /// Consumes one granule and emits the next `M` output samples.
    pub fn push(&mut self, coeffs: &[f32; M]) -> [f32; M] {
        let block = imdct(coeffs);
        let mut out = [0.0f32; M];
        for n in 0..M {
            out[n] = self.carry[n] + block[n];
            self.carry[n] = block[n + M];
        }
        out
    }
}

impl Default for OverlapAdd {
    fn default() -> Self {
        OverlapAdd::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The transforms as they were, evaluating the window and basis
    /// inline.
    fn mdct_reference(block: &[f32; W]) -> [f32; M] {
        let w = window();
        let mut out = [0.0f32; M];
        for (k, coeff) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for n in 0..W {
                acc += block[n] * w[n] * basis(n, k);
            }
            *coeff = acc;
        }
        out
    }

    fn imdct_reference(coeffs: &[f32; M]) -> [f32; W] {
        let w = window();
        let mut out = [0.0f32; W];
        for (n, sample) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (k, &c) in coeffs.iter().enumerate() {
                acc += c * basis(n, k);
            }
            *sample = acc * w[n] * 2.0 / M as f32;
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The tabled transforms are bit-identical to the direct formulas.
        #[test]
        fn tables_match_direct_formulas_bit_exactly(
            block in prop::collection::vec(crate::test_support::finite_f32(), W),
        ) {
            let block: [f32; W] = block.try_into().unwrap();
            let coeffs: [f32; M] = block[..M].try_into().unwrap();
            prop_assert_eq!(bits(&mdct(&block)), bits(&mdct_reference(&block)));
            prop_assert_eq!(bits(&imdct(&coeffs)), bits(&imdct_reference(&coeffs)));
        }
    }

    #[test]
    fn window_satisfies_princen_bradley() {
        let w = window();
        for n in 0..M {
            let s = w[n] * w[n] + w[n + M] * w[n + M];
            assert!((s - 1.0).abs() < 1e-5, "n={n}: {s}");
        }
    }

    #[test]
    fn analyze_synthesize_reconstructs() {
        let signal: Vec<f32> = (0..512)
            .map(|i| (i as f32 * 0.1).sin() * 0.8 + (i as f32 * 0.037).cos() * 0.2)
            .collect();
        let granules = analyze(&signal);
        let back = synthesize(&granules, signal.len());
        for (i, (a, b)) in signal.iter().zip(&back).enumerate() {
            assert!((a - b).abs() < 1e-3, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_overlap_add_matches_batch() {
        let signal: Vec<f32> = (0..256).map(|i| (i as f32 * 0.21).sin()).collect();
        let granules = analyze(&signal);
        let batch = synthesize(&granules, signal.len());
        let mut ola = OverlapAdd::new();
        let mut streamed = Vec::new();
        for g in &granules {
            streamed.extend(ola.push(g));
        }
        // The first hop of the streaming output corresponds to the batch
        // output offset: streaming starts emitting at granule 0's first
        // half which lands at sample -M..0 (padding); so skip one hop.
        for (i, (a, b)) in batch.iter().zip(streamed.iter().skip(M)).enumerate() {
            assert!((a - b).abs() < 1e-4, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn energy_compaction_on_tone() {
        // A pure subband-centred tone concentrates energy in few bins.
        let signal: Vec<f32> = (0..W)
            .map(|n| ((n as f32 + 0.5) * PI * 5.5 / M as f32).cos())
            .collect();
        let mut block = [0.0f32; W];
        block.copy_from_slice(&signal);
        let coeffs = mdct(&block);
        let total: f32 = coeffs.iter().map(|c| c * c).sum();
        let top: f32 = {
            let mut mags: Vec<f32> = coeffs.iter().map(|c| c * c).collect();
            mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
            mags[..3].iter().sum()
        };
        assert!(top / total > 0.9, "energy not compact: {}", top / total);
    }
}
