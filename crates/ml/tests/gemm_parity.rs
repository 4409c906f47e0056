//! Bitwise parity of the register-tiled dense kernels.
//!
//! `Matrix::matmul_acc_into` and `Matrix::matmul_at_acc_into` promise
//! the addition order of the plain triple loop: every output element
//! starts from its prior value and receives `a(i, k) * b(k, j)` for `k`
//! ascending, each a separate multiply and add. These checks compare the
//! kernels against that loop, kept here as the reference, by `to_bits()`
//! — on inputs mixing signed zeros and magnitudes far apart, so any
//! reordering, fused multiply-add or dropped term shows up as a changed
//! bit.

use almost_ml::tensor::Matrix;
use proptest::prelude::*;

/// Deterministic xorshift stream.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A `rows × cols` matrix whose entries mix `±0.0`, small and large
/// magnitudes and both signs.
fn mixed(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut next = stream(seed);
    let data = (0..rows * cols)
        .map(|_| {
            let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
            let unit = (next() % 10_000) as f32 / 10_000.0;
            sign * match next() % 6 {
                0 => 0.0,
                1 => unit,
                2 => unit * 1e7,
                3 => unit * 1e-7,
                4 => (next() % 64) as f32,
                _ => unit * 3.0,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The reference: `out(i, j) += a(i, k) * b(k, j)` for `k` ascending,
/// where `a(i, k)` reads `a` transposed when `transposed` is set.
fn reference(a: &Matrix, b: &Matrix, out: &mut Matrix, transposed: bool) {
    for i in 0..out.rows() {
        for j in 0..out.cols() {
            let mut acc = out.get(i, j);
            for k in 0..b.rows() {
                let aik = if transposed { a.get(k, i) } else { a.get(i, k) };
                acc += aik * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Checks both kernels on one `m × k · k × n` shape; `Err` names the
/// kernel and shape that differ.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let b = mixed(k, n, seed ^ 0xB);
    let init = mixed(m, n, seed ^ 0x0C);

    let a = mixed(m, k, seed ^ 0xA);
    let mut tiled = init.clone();
    a.matmul_acc_into(&b, &mut tiled);
    let mut expect = init.clone();
    reference(&a, &b, &mut expect, false);
    if bits(&tiled) != bits(&expect) {
        return Err(format!("matmul_acc_into differs at {m}x{k}·{k}x{n}"));
    }

    let at = mixed(k, m, seed ^ 0xA7);
    let mut tiled = init.clone();
    at.matmul_at_acc_into(&b, &mut tiled);
    let mut expect = init;
    reference(&at, &b, &mut expect, true);
    if bits(&tiled) != bits(&expect) {
        return Err(format!("matmul_at_acc_into differs at {m}x{k}ᵀ·{k}x{n}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random shapes up to 70 × 40 · 40 × 40: every row and column
    /// remainder of the tiling, with a non-zero initial `out`.
    #[test]
    fn tiled_kernels_match_the_triple_loop_bitwise(
        seed in 0u64..1_000_000,
        m in 1usize..71,
        k in 1usize..41,
        n in 1usize..41,
    ) {
        let checked = check_shape(m, k, n, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The widths the GIN trainer actually runs (head 1, input features 11,
/// hidden 16/20/24/32) as every dimension, against every row remainder.
#[test]
fn trainer_widths_match_the_triple_loop_bitwise() {
    let widths = [1usize, 11, 16, 20, 24, 32];
    for m in [1usize, 2, 3, 4, 5, 6, 7, 40] {
        for &k in &widths {
            for &n in &widths {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                if let Err(e) = check_shape(m, k, n, seed) {
                    panic!("{e}");
                }
            }
        }
    }
}

/// An empty contraction leaves `out` untouched, signed zeros included.
#[test]
fn empty_contraction_keeps_out_bit_for_bit() {
    let init = mixed(5, 9, 3);
    let mut out = init.clone();
    Matrix::zeros(5, 0).matmul_acc_into(&Matrix::zeros(0, 9), &mut out);
    assert_eq!(bits(&out), bits(&init));
    Matrix::zeros(0, 5).matmul_at_acc_into(&Matrix::zeros(0, 9), &mut out);
    assert_eq!(bits(&out), bits(&init));
}
