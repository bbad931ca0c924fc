//! FIR filter design substrate (windowed-sinc), used by the beamformer,
//! vocoder and complex-fir benchmarks.

use std::f32::consts::PI;

/// Designs a Hamming-windowed sinc low-pass FIR with `taps` coefficients
/// and normalised cutoff `fc` (0..0.5 of the sample rate).
///
/// # Panics
///
/// Panics if `taps == 0` or `fc` is outside (0, 0.5].
pub fn lowpass(taps: usize, fc: f32) -> Vec<f32> {
    assert!(taps > 0, "need at least one tap");
    assert!(fc > 0.0 && fc <= 0.5, "cutoff must be in (0, 0.5]");
    let m = (taps - 1) as f32;
    let mut h: Vec<f32> = (0..taps)
        .map(|n| {
            let x = n as f32 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * fc
            } else {
                (2.0 * PI * fc * x).sin() / (PI * x)
            };
            let hamming = 0.54 - 0.46 * (2.0 * PI * n as f32 / m.max(1.0)).cos();
            sinc * hamming
        })
        .collect();
    // Normalise DC gain to 1.
    let sum: f32 = h.iter().sum();
    if sum.abs() > 1e-12 {
        for v in &mut h {
            *v /= sum;
        }
    }
    h
}

/// Designs a band-pass FIR centred at normalised frequency `f0` with
/// half-bandwidth `bw`, by modulating a low-pass prototype.
///
/// # Panics
///
/// Panics as [`lowpass`] for invalid parameters.
pub fn bandpass(taps: usize, f0: f32, bw: f32) -> Vec<f32> {
    let proto = lowpass(taps, bw);
    let m = (taps - 1) as f32;
    proto
        .iter()
        .enumerate()
        .map(|(n, &h)| 2.0 * h * (2.0 * PI * f0 * (n as f32 - m / 2.0)).cos())
        .collect()
}

/// A streaming FIR filter with internal history (replacing StreamIt's
/// `peek` construct: the window lives in filter state, rates stay 1:1).
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f32>,
    history: Vec<f32>,
    pos: usize,
}

impl Fir {
    /// A filter over the given taps with silent history.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "need at least one tap");
        let n = taps.len();
        Fir {
            taps,
            history: vec![0.0; n],
            pos: 0,
        }
    }

    /// Processes one sample.
    ///
    /// Tap `k` meets the sample `k` steps old, history index
    /// `(pos - k) mod n`: the walk runs down from `pos` to 0, then wraps
    /// from `n - 1` down to `pos + 1`, summing in tap order.
    pub fn step(&mut self, x: f32) -> f32 {
        self.history[self.pos] = x;
        let (recent, older) = self.history.split_at(self.pos + 1);
        let (taps_recent, taps_older) = self.taps.split_at(self.pos + 1);
        let mut acc = 0.0f32;
        for (&t, &h) in taps_recent.iter().zip(recent.iter().rev()) {
            acc += t * h;
        }
        for (&t, &h) in taps_older.iter().zip(older.iter().rev()) {
            acc += t * h;
        }
        self.pos += 1;
        if self.pos == self.taps.len() {
            self.pos = 0;
        }
        acc
    }

    /// Processes a block of samples.
    pub fn process(&mut self, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| self.step(x)).collect()
    }
}

/// An integer sample delay line.
#[derive(Debug, Clone)]
pub struct Delay {
    buf: Vec<f32>,
    pos: usize,
}

impl Delay {
    /// A delay of `n` samples (0 = pass-through).
    pub fn new(n: usize) -> Self {
        Delay {
            buf: vec![0.0; n.max(1)],
            pos: 0,
        }
    }

    /// Pushes a sample, returning the sample from `n` steps ago.
    pub fn step(&mut self, x: f32) -> f32 {
        let out = self.buf[self.pos];
        self.buf[self.pos] = x;
        self.pos += 1;
        if self.pos == self.buf.len() {
            self.pos = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `%`-indexed filter and delay line the wrap-by-compare
    /// versions replace.
    struct FirReference {
        taps: Vec<f32>,
        history: Vec<f32>,
        pos: usize,
    }

    impl FirReference {
        fn step(&mut self, x: f32) -> f32 {
            self.history[self.pos] = x;
            let n = self.taps.len();
            let mut acc = 0.0f32;
            for (k, &t) in self.taps.iter().enumerate() {
                let idx = (self.pos + n - k) % n;
                acc += t * self.history[idx];
            }
            self.pos = (self.pos + 1) % n;
            acc
        }
    }

    struct DelayReference {
        buf: Vec<f32>,
        pos: usize,
    }

    impl DelayReference {
        fn step(&mut self, x: f32) -> f32 {
            let out = self.buf[self.pos];
            self.buf[self.pos] = x;
            self.pos = (self.pos + 1) % self.buf.len();
            out
        }
    }

    proptest! {
        /// Bit-identical outputs over at least three full history wraps.
        #[test]
        fn wrap_by_compare_matches_modulo_reference(
            taps in prop::collection::vec(crate::test_support::finite_f32(), 1..40),
            input in prop::collection::vec(crate::test_support::finite_f32(), 1..160),
            delay in 0usize..40,
        ) {
            let n = taps.len();
            let mut fir = Fir::new(taps.clone());
            let mut fir_ref = FirReference { taps, history: vec![0.0; n], pos: 0 };
            let mut line = Delay::new(delay);
            let mut line_ref = DelayReference { buf: vec![0.0; delay.max(1)], pos: 0 };
            let steps = (3 * n.max(delay) + 1).max(input.len());
            for i in 0..steps {
                let x = input[i % input.len()];
                prop_assert_eq!(fir.step(x).to_bits(), fir_ref.step(x).to_bits(), "fir step {}", i);
                prop_assert_eq!(line.step(x).to_bits(), line_ref.step(x).to_bits(), "delay step {}", i);
            }
        }
    }

    /// Measures filter gain at normalised frequency `f`.
    fn gain(h: &[f32], f: f32) -> f32 {
        let (mut re, mut im) = (0.0f32, 0.0f32);
        for (n, &c) in h.iter().enumerate() {
            re += c * (2.0 * PI * f * n as f32).cos();
            im -= c * (2.0 * PI * f * n as f32).sin();
        }
        (re * re + im * im).sqrt()
    }

    #[test]
    fn lowpass_passes_dc_blocks_high() {
        let h = lowpass(63, 0.1);
        assert!((gain(&h, 0.0) - 1.0).abs() < 1e-3);
        assert!(gain(&h, 0.05) > 0.9);
        assert!(gain(&h, 0.3) < 0.02);
    }

    #[test]
    fn bandpass_selects_centre() {
        let h = bandpass(63, 0.2, 0.03);
        assert!(gain(&h, 0.2) > 0.8, "centre gain {}", gain(&h, 0.2));
        assert!(gain(&h, 0.05) < 0.05);
        assert!(gain(&h, 0.4) < 0.05);
    }

    #[test]
    fn fir_impulse_response_equals_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut fir = Fir::new(taps.clone());
        let mut impulse = vec![0.0f32; 3];
        impulse[0] = 1.0;
        assert_eq!(fir.process(&impulse), taps);
    }

    #[test]
    fn delay_delays() {
        let mut d = Delay::new(3);
        let out: Vec<f32> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&x| d.step(x))
            .collect();
        assert_eq!(out, vec![0.0, 0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_panic() {
        let _ = Fir::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn bad_cutoff_panics() {
        let _ = lowpass(31, 0.7);
    }
}
