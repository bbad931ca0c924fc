//! # cg-apps — the StreamIt benchmark suite as guarded stream programs
//!
//! The paper evaluates six StreamIt applications on 10 error-prone cores
//! (§6): `audiobeamformer`, `channelvocoder`, `complex-fir`, `fft`, and
//! the multimedia decoders `jpeg` and `mp3`. This crate rebuilds each as
//! a [`cg_runtime::Program`] over the [`commguard::graph`] IR, together
//! with the codec/DSP substrate they need:
//!
//! * [`dct`] — 8×8 2-D DCT/IDCT, zigzag, quantisation (the jpeg codec);
//! * [`mdct`] — MDCT-32 with 50 % overlap-add (the mp3-like codec);
//! * [`firs`] — windowed-sinc FIR design (beamformer, vocoder, fir);
//! * [`signal`] — deterministic synthetic inputs (multi-tone audio and a
//!   structured test image), replacing the paper's copyrighted inputs;
//! * one module per benchmark, and [`suite`] with a uniform interface for
//!   the experiment harnesses.
//!
//! Quality metrics follow the paper: jpeg reports PSNR and mp3 reports
//! SNR against the *raw* input (so the error-free run shows the purely
//! algorithmic compression loss), while the four kernels report SNR
//! against their own error-free output (error-free SNR = ∞).

pub mod beamformer;
pub mod complex_fir;
pub mod dct;
pub mod fft_app;
pub mod firs;
pub mod jpeg;
pub mod mdct;
pub mod mp3;
pub mod signal;
pub mod suite;
pub mod vocoder;

pub use suite::{BenchApp, Size, Workload};

#[cfg(test)]
mod test_support {
    use proptest::prelude::*;

    /// Finite f32 inputs for the kernel-table property tests: mostly
    /// signal-range values, plus arbitrary finite bit patterns (huge,
    /// tiny and subnormal magnitudes) to reach overflow and rounding
    /// corners.
    pub fn finite_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            3 => (-4_000_000i32..4_000_000).prop_map(|v| v as f32 / 1_000.0),
            1 => any::<u32>().prop_map(|b| {
                let v = f32::from_bits(b);
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            }),
        ]
    }
}
