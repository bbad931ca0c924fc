//! The `fft` benchmark: a radix-2 pipeline in the classic StreamIt shape —
//! a bit-reversal reorder stage followed by log₂(N) butterfly stages, each
//! running as its own node on its own core.
//!
//! Transform size is 64 complex points; each firing moves one whole block
//! (128 words, interleaved re/im).

use cg_graph::{CostModel, NodeId, NodeKind};
use cg_runtime::Program;
use commguard::graph::{self as cg_graph, GraphBuilder, StreamGraph};
use std::f32::consts::PI;

use crate::signal;

/// Transform size (complex points).
pub const POINTS: usize = 64;

/// Words per block (interleaved re/im).
pub const BLOCK_WORDS: u32 = (POINTS * 2) as u32;

const STAGES: usize = 6; // log2(64)

/// The fft workload: how many transform blocks to stream.
#[derive(Debug, Clone)]
pub struct FftApp {
    blocks: usize,
}

impl FftApp {
    /// A workload of `blocks` transforms.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks > 0, "need at least one block");
        FftApp { blocks }
    }

    /// Steady iterations (one block each).
    pub fn frames(&self) -> u64 {
        self.blocks as u64
    }

    /// Builds the 9-node graph: src → bitrev → 6 × butterfly → sink.
    pub fn graph(&self) -> StreamGraph {
        let mut b = GraphBuilder::new("fft");
        let src = b.add_node_with_cost("source", NodeKind::Source, CostModel::new(100, 8));
        let rev = b.add_node_with_cost("bitrev", NodeKind::Filter, CostModel::new(200, 20));
        let mut chain = vec![src, rev];
        for s in 0..STAGES {
            chain.push(b.add_node_with_cost(
                format!("butterfly{s}"),
                NodeKind::Filter,
                CostModel::new(400, 80),
            ));
        }
        chain.push(b.add_node("sink", NodeKind::Sink));
        b.pipeline(&chain, BLOCK_WORDS).unwrap();
        b.build().unwrap()
    }

    /// Builds the runnable program; returns it with the sink id.
    pub fn build(&self) -> (Program, NodeId) {
        let graph = self.graph();
        let src = graph.node_by_name("source").unwrap();
        let rev = graph.node_by_name("bitrev").unwrap();
        let snk = graph.node_by_name("sink").unwrap();
        let stages: Vec<NodeId> = (0..STAGES)
            .map(|s| graph.node_by_name(&format!("butterfly{s}")).unwrap())
            .collect();
        let mut p = Program::new(graph);

        let input = signal::audio(self.blocks * POINTS);
        let mut block = 0usize;
        p.set_source(src, move |out| {
            for i in 0..POINTS {
                let idx = block * POINTS + i;
                let re = if idx < input.len() { input[idx] } else { 0.0 };
                out.push(re.to_bits());
                out.push(0f32.to_bits()); // purely real input
            }
            block += 1;
        });

        p.set_filter(rev, |inp, out| {
            let words = &inp[0];
            for i in 0..POINTS {
                let j = (i as u32).reverse_bits() >> (32 - STAGES);
                let j = j as usize;
                let (re, im) = word_pair(words, j);
                out[0].extend([re, im]);
            }
        });

        for (s, &node) in stages.iter().enumerate() {
            let twiddles = twiddles(1 << s); // half-span 2^s at this stage
            p.set_filter(node, move |inp, out| {
                let words = &inp[0];
                let mut buf: [(f32, f32); POINTS] = std::array::from_fn(|i| {
                    let (re, im) = word_pair(words, i);
                    (f32::from_bits(re), f32::from_bits(im))
                });
                butterfly_stage(&mut buf, &twiddles);
                for (re, im) in buf {
                    // Saturate just above the legitimate range (strongest
                    // bin ≈ 16 for the test signal) — fixed-point FFT
                    // semantics — so exponent-bit flips cannot contribute
                    // astronomically wrong energies.
                    let sat = |v: f32| {
                        if v.is_finite() {
                            v.clamp(-32.0, 32.0)
                        } else {
                            0.0
                        }
                    };
                    out[0].extend([sat(re).to_bits(), sat(im).to_bits()]);
                }
            });
        }
        (p, snk)
    }

    /// Decodes the sink stream into complex spectra, one `Vec` per block.
    pub fn decode(&self, words: &[u32]) -> Vec<Vec<(f32, f32)>> {
        words
            .chunks(BLOCK_WORDS as usize)
            .map(|chunk| {
                chunk
                    .chunks(2)
                    .map(|p| {
                        (
                            f32::from_bits(p[0]),
                            f32::from_bits(*p.get(1).unwrap_or(&0)),
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

impl Default for FftApp {
    fn default() -> Self {
        FftApp::new(64)
    }
}

/// The `half` twiddle factors `e^{-iπk/half}` of a butterfly stage with
/// half-span `half`, computed once per stage rather than per firing.
fn twiddles(half: usize) -> Vec<(f32, f32)> {
    (0..half)
        .map(|k| {
            let ang = -PI * k as f32 / half as f32;
            (ang.cos(), ang.sin())
        })
        .collect()
}

/// One in-place radix-2 butterfly stage whose half-span is
/// `twiddles.len()`.
fn butterfly_stage(buf: &mut [(f32, f32); POINTS], twiddles: &[(f32, f32)]) {
    let half = twiddles.len();
    for group in (0..POINTS).step_by(half * 2) {
        for (k, &(wr, wi)) in twiddles.iter().enumerate() {
            let (ar, ai) = buf[group + k];
            let (br, bi) = buf[group + k + half];
            let (tr, ti) = (br * wr - bi * wi, br * wi + bi * wr);
            buf[group + k] = (ar + tr, ai + ti);
            buf[group + k + half] = (ar - tr, ai - ti);
        }
    }
}

/// Reads the complex pair at index `i`, tolerating short (error-damaged)
/// blocks.
fn word_pair(words: &[u32], i: usize) -> (u32, u32) {
    (
        words.get(2 * i).copied().unwrap_or(0),
        words.get(2 * i + 1).copied().unwrap_or(0),
    )
}

/// A reference scalar FFT for validation.
#[cfg(test)]
fn reference_fft(input: &[f32]) -> Vec<(f32, f32)> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0f32;
            let mut im = 0.0f32;
            for (t, &x) in input.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f32 / n as f32;
                re += x * ang.cos();
                im += x * ang.sin();
            }
            (re, im)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_runtime::{run, SimConfig};
    use proptest::prelude::*;

    /// The butterfly stage with each twiddle computed inline, as the
    /// stage filters once did on every firing.
    fn stage_reference(buf: &mut [(f32, f32); POINTS], half: usize) {
        let span = half * 2;
        for group in (0..POINTS).step_by(span) {
            for k in 0..half {
                let ang = -PI * k as f32 / half as f32;
                let (wr, wi) = (ang.cos(), ang.sin());
                let (ar, ai) = buf[group + k];
                let (br, bi) = buf[group + k + half];
                let (tr, ti) = (br * wr - bi * wi, br * wi + bi * wr);
                buf[group + k] = (ar + tr, ai + ti);
                buf[group + k + half] = (ar - tr, ai - ti);
            }
        }
    }

    proptest! {
        /// Precomputed twiddles give bit-identical stage outputs.
        #[test]
        fn precomputed_twiddles_match_inline_bit_exactly(
            values in prop::collection::vec(crate::test_support::finite_f32(), 2 * POINTS),
            stage in 0usize..STAGES,
        ) {
            let half = 1 << stage;
            let mut tabled: [(f32, f32); POINTS] =
                std::array::from_fn(|i| (values[2 * i], values[2 * i + 1]));
            let mut inline = tabled;
            butterfly_stage(&mut tabled, &twiddles(half));
            stage_reference(&mut inline, half);
            let bits = |b: &[(f32, f32)]| -> Vec<(u32, u32)> {
                b.iter().map(|(r, i)| (r.to_bits(), i.to_bits())).collect()
            };
            prop_assert_eq!(bits(&tabled), bits(&inline));
        }
    }

    #[test]
    fn graph_shape() {
        let app = FftApp::new(2);
        let g = app.graph();
        assert_eq!(g.node_count(), 9, "src + bitrev + 6 stages + sink");
        let sched = g.schedule().unwrap();
        assert!(sched.repetition_vector().iter().all(|&r| r == 1));
    }

    #[test]
    fn pipeline_matches_reference_dft() {
        let app = FftApp::new(3);
        let (p, snk) = app.build();
        let r = run(p, &SimConfig::error_free(app.frames())).unwrap();
        assert!(r.completed);
        let blocks = app.decode(r.sink_output(snk));
        assert_eq!(blocks.len(), 3);
        let input = signal::audio(3 * POINTS);
        for (bi, block) in blocks.iter().enumerate() {
            let want = reference_fft(&input[bi * POINTS..(bi + 1) * POINTS]);
            for (k, ((gr, gi), (wr, wi))) in block.iter().zip(&want).enumerate() {
                assert!(
                    (gr - wr).abs() < 1e-2 && (gi - wi).abs() < 1e-2,
                    "block {bi} bin {k}: got ({gr},{gi}) want ({wr},{wi})"
                );
            }
        }
    }
}
