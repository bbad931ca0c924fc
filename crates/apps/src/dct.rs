//! 8×8 block DCT substrate for the jpeg benchmark.
//!
//! Separable 2-D DCT-II (forward) and DCT-III (inverse) over 8×8 blocks,
//! JPEG-style zigzag ordering, and quantisation with the standard JPEG
//! luminance table scaled by a quality factor — everything the block
//! image codec needs.

use std::f32::consts::PI;
use std::sync::LazyLock;

/// Block edge length.
pub const N: usize = 8;

/// Coefficients per block.
pub const BLOCK: usize = N * N;

/// The standard JPEG luminance quantisation table (Annex K of the JPEG
/// standard), used here for all three channels.
pub const BASE_QTABLE: [u16; BLOCK] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order: `ZIGZAG[k]` is the raster index of the k-th
/// coefficient in zigzag order.
pub const ZIGZAG: [usize; BLOCK] = zigzag_table();

const fn zigzag_table() -> [usize; BLOCK] {
    let mut table = [0usize; BLOCK];
    let (mut x, mut y) = (0isize, 0isize);
    let mut k = 0;
    while k < BLOCK {
        table[k] = (y * N as isize + x) as usize;
        k += 1;
        // Even diagonals travel up-right, odd down-left.
        if (x + y) % 2 == 0 {
            if x == N as isize - 1 {
                y += 1;
            } else if y == 0 {
                x += 1;
            } else {
                x += 1;
                y -= 1;
            }
        } else if y == N as isize - 1 {
            x += 1;
        } else if x == 0 {
            y += 1;
        } else {
            x -= 1;
            y += 1;
        }
    }
    table
}

/// Scales the base table by JPEG quality (1..=100, 50 = base table).
pub fn qtable(quality: u8) -> [u16; BLOCK] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut t = [1u16; BLOCK];
    for (i, &b) in BASE_QTABLE.iter().enumerate() {
        let v = (i32::from(b) * scale + 50) / 100;
        t[i] = v.clamp(1, 255) as u16;
    }
    t
}

fn cos_table() -> [[f32; N]; N] {
    let mut c = [[0.0f32; N]; N];
    for (u, row) in c.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            *v = (((2 * x + 1) as f32 * u as f32 * PI) / (2.0 * N as f32)).cos();
        }
    }
    c
}

/// [`cos_table`], built once and shared by [`dct2`] and [`idct2`]; its
/// entries have the bits the per-call table had.
static COS_TABLE: LazyLock<[[f32; N]; N]> = LazyLock::new(cos_table);

fn alpha(u: usize) -> f32 {
    if u == 0 {
        (1.0f32 / N as f32).sqrt()
    } else {
        (2.0f32 / N as f32).sqrt()
    }
}

/// Forward 2-D DCT-II of an 8×8 spatial block (row-major).
pub fn dct2(block: &[f32; BLOCK]) -> [f32; BLOCK] {
    let c = &*COS_TABLE;
    let a: [f32; N] = std::array::from_fn(alpha);
    let mut out = [0.0f32; BLOCK];
    for v in 0..N {
        for u in 0..N {
            let mut acc = 0.0f32;
            for (y, crow) in c[v].iter().enumerate() {
                for (x, cu) in c[u].iter().enumerate() {
                    acc += block[y * N + x] * cu * crow;
                }
            }
            out[v * N + u] = a[u] * a[v] * acc;
        }
    }
    out
}

/// Inverse 2-D DCT (DCT-III) back to the spatial block.
pub fn idct2(coeffs: &[f32; BLOCK]) -> [f32; BLOCK] {
    let c = &*COS_TABLE;
    let a: [f32; N] = std::array::from_fn(alpha);
    let mut out = [0.0f32; BLOCK];
    for y in 0..N {
        for x in 0..N {
            let mut acc = 0.0f32;
            for v in 0..N {
                for u in 0..N {
                    acc += a[u] * a[v] * coeffs[v * N + u] * c[u][x] * c[v][y];
                }
            }
            out[y * N + x] = acc;
        }
    }
    out
}

/// Quantises DCT coefficients to integers using `table`, in zigzag order.
pub fn quantize(coeffs: &[f32; BLOCK], table: &[u16; BLOCK]) -> [i32; BLOCK] {
    let mut out = [0i32; BLOCK];
    for (k, slot) in out.iter_mut().enumerate() {
        let raster = ZIGZAG[k];
        *slot = (coeffs[raster] / f32::from(table[raster])).round() as i32;
    }
    out
}

/// Dequantises zigzag-ordered integers back to raster-order coefficients.
pub fn dequantize(q: &[i32; BLOCK], table: &[u16; BLOCK]) -> [f32; BLOCK] {
    let mut out = [0.0f32; BLOCK];
    for (k, &v) in q.iter().enumerate() {
        let raster = ZIGZAG[k];
        out[raster] = v as f32 * f32::from(table[raster]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The transforms as they were, rebuilding the table on every call.
    fn dct2_reference(block: &[f32; BLOCK]) -> [f32; BLOCK] {
        let c = cos_table();
        let mut out = [0.0f32; BLOCK];
        for v in 0..N {
            for u in 0..N {
                let mut acc = 0.0f32;
                for (y, crow) in c[v].iter().enumerate() {
                    for (x, cu) in c[u].iter().enumerate() {
                        acc += block[y * N + x] * cu * crow;
                    }
                }
                out[v * N + u] = alpha(u) * alpha(v) * acc;
            }
        }
        out
    }

    fn idct2_reference(coeffs: &[f32; BLOCK]) -> [f32; BLOCK] {
        let c = cos_table();
        let mut out = [0.0f32; BLOCK];
        for y in 0..N {
            for x in 0..N {
                let mut acc = 0.0f32;
                for v in 0..N {
                    for u in 0..N {
                        acc += alpha(u) * alpha(v) * coeffs[v * N + u] * c[u][x] * c[v][y];
                    }
                }
                out[y * N + x] = acc;
            }
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
            block in prop::collection::vec(crate::test_support::finite_f32(), BLOCK),
        ) {
            let block: [f32; BLOCK] = block.try_into().unwrap();
            prop_assert_eq!(bits(&dct2(&block)), bits(&dct2_reference(&block)));
            prop_assert_eq!(bits(&idct2(&block)), bits(&idct2_reference(&block)));
        }
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate zigzag index {i}");
            seen[i] = true;
        }
        // Spot checks: classic JPEG zigzag prefix.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[BLOCK - 1], 63);
    }

    #[test]
    fn dct_roundtrip_is_near_exact() {
        let mut block = [0.0f32; BLOCK];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as f32 * 0.37).sin() * 100.0) - 30.0;
        }
        let back = idct2(&dct2(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = [42.0f32; BLOCK];
        let c = dct2(&block);
        assert!(
            (c[0] - 42.0 * 8.0).abs() < 1e-3,
            "DC = 8·mean, got {}",
            c[0]
        );
        for &v in &c[1..] {
            assert!(v.abs() < 1e-3);
        }
    }

    #[test]
    fn quantisation_roundtrip_bounded_error() {
        let mut block = [0.0f32; BLOCK];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 7 % 256) as f32) - 128.0;
        }
        let t = qtable(75);
        let coeffs = dct2(&block);
        let deq = dequantize(&quantize(&coeffs, &t), &t);
        let back = idct2(&deq);
        let rmse = (block
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / BLOCK as f32)
            .sqrt();
        assert!(rmse < 30.0, "quantisation error too large: {rmse}");
    }

    #[test]
    fn quality_scales_tables() {
        let q10 = qtable(10);
        let q90 = qtable(90);
        assert!(q10[1] > q90[1], "lower quality → coarser steps");
        assert_eq!(qtable(50), {
            let mut t = [0u16; BLOCK];
            for (i, &b) in BASE_QTABLE.iter().enumerate() {
                t[i] = b;
            }
            t
        });
        assert!(qtable(1).iter().all(|&v| v >= 1));
    }
}
