//! Property-based tests for the linear-algebra substrate, including the
//! sparsity-aware kernels against their naive reference implementations.

use proptest::prelude::*;
use snn_tensor::kernels::{self, ColMajor};
use snn_tensor::lanes::{self, SparseRows};
use snn_tensor::{stats, Matrix, Rng};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn vector_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #[test]
    fn matvec_is_linear(m in matrix_strategy(8), alpha in -3.0f32..3.0) {
        let x: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.7).sin()).collect();
        let scaled: Vec<f32> = x.iter().map(|v| alpha * v).collect();
        let y1 = m.matvec(&scaled);
        let y2: Vec<f32> = m.matvec(&x).into_iter().map(|v| alpha * v).collect();
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn matvec_t_agrees_with_transpose(m in matrix_strategy(8)) {
        let x: Vec<f32> = (0..m.rows()).map(|i| (i as f32 * 1.3).cos()).collect();
        let direct = m.matvec_t(&x);
        let via = m.transpose().matvec(&x);
        for (a, b) in direct.iter().zip(&via) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn transpose_is_involution(m in matrix_strategy(10)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_outer_then_matvec_matches_rank1_formula(
        rows in 1usize..6, cols in 1usize..6, alpha in -2.0f32..2.0
    ) {
        let u: Vec<f32> = (0..rows).map(|i| i as f32 + 1.0).collect();
        let v: Vec<f32> = (0..cols).map(|i| 0.5 - i as f32).collect();
        let x: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
        let mut m = Matrix::zeros(rows, cols);
        m.add_outer(alpha, &u, &v);
        // (α·u·vᵀ)x = α·u·(vᵀx)
        let dot: f32 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
        let y = m.matvec(&x);
        for (yi, ui) in y.iter().zip(&u) {
            prop_assert!((yi - alpha * ui * dot).abs() < 1e-3 * (1.0 + yi.abs()));
        }
    }

    #[test]
    fn frobenius_norm_is_homogeneous(m in matrix_strategy(8), alpha in 0.0f32..4.0) {
        let mut scaled = m.clone();
        scaled.scale(alpha);
        prop_assert!((scaled.frobenius_norm() - alpha * m.frobenius_norm()).abs()
            < 1e-2 * (1.0 + m.frobenius_norm()));
    }

    #[test]
    fn softmax_is_a_distribution(v in vector_strategy(10)) {
        let p = stats::softmax(&v);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // argmax is preserved.
        prop_assert_eq!(stats::argmax(&v), stats::argmax(&p));
    }

    #[test]
    fn mean_bounded_by_extremes(v in vector_strategy(16)) {
        let m = stats::mean(&v);
        let lo = v.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(m >= lo - 1e-4 && m <= hi + 1e-4);
    }

    #[test]
    fn rng_uniform_stays_in_range(seed in 0u64..1000, lo in -5.0f32..0.0, width in 0.1f32..5.0) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..100 {
            let x = rng.uniform(lo, lo + width);
            prop_assert!(x >= lo && x < lo + width);
        }
    }

    #[test]
    fn matmul_associates_with_identity(m in matrix_strategy(6)) {
        let left = Matrix::identity(m.rows()).matmul(&m).unwrap();
        let right = m.matmul(&Matrix::identity(m.cols())).unwrap();
        prop_assert_eq!(&left, &m);
        prop_assert_eq!(&right, &m);
    }
}

/// A binary vector at a given density, including the degenerate 0% and
/// 100% cases, plus its active-index list.
fn binary_vector(len: usize, density: f32, seed: u64) -> (Vec<f32>, Vec<usize>) {
    let mut rng = Rng::seed_from(seed);
    let mut x = vec![0.0f32; len];
    let mut active = Vec::new();
    for (i, xi) in x.iter_mut().enumerate() {
        if rng.coin(density) {
            *xi = 1.0;
            active.push(i);
        }
    }
    (x, active)
}

fn density_strategy() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(1.0f32), 0.01f32..0.99]
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Compressed-row offsets and values of a `rows`-row sparse matrix with
/// one term, `value(r)`, in each row `r` of `active` and none elsewhere.
fn one_term_per_row(
    rows: usize,
    active: &[usize],
    value: impl Fn(usize) -> f32,
) -> (Vec<usize>, Vec<f32>) {
    let mut offsets = vec![0usize];
    let mut coef = Vec::new();
    for r in 0..rows {
        if active.contains(&r) {
            coef.push(value(r));
        }
        offsets.push(coef.len());
    }
    (offsets, coef)
}

proptest! {
    #[test]
    fn unrolled_dot_matches_naive(v in vector_strategy(37), split in 0usize..37) {
        // Exercise every tail length by splitting one buffer two ways.
        let (a, b) = (&v[..split], &v[v.len() - split..]);
        let fast = kernels::dot(a, b);
        let naive: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        prop_assert!((fast - naive).abs() < 1e-3 * (1.0 + naive.abs()),
            "{fast} vs {naive}");
    }

    #[test]
    fn unrolled_matvec_matches_naive(m in matrix_strategy(12)) {
        let x: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.9).sin()).collect();
        let mut fast = vec![0.0f32; m.rows()];
        let mut naive = vec![0.0f32; m.rows()];
        m.matvec_into(&x, &mut fast);
        m.matvec_into_naive(&x, &mut naive);
        for (a, b) in fast.iter().zip(&naive) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn column_accumulation_matches_dense_matvec(
        m in matrix_strategy(16), density in density_strategy(), seed in 0u64..1000
    ) {
        let (x, active) = binary_vector(m.cols(), density, seed);
        let mirror = ColMajor::from_matrix(&m);
        let mut sparse = vec![0.0f32; m.rows()];
        mirror.accumulate_columns(&active, &mut sparse);
        let mut dense = vec![0.0f32; m.rows()];
        m.matvec_into_naive(&x, &mut dense);
        for (a, b) in sparse.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn scaled_column_accumulation_matches_dense_matvec(
        m in matrix_strategy(12), density in density_strategy(), seed in 0u64..1000
    ) {
        let (mut x, active) = binary_vector(m.cols(), density, seed);
        let mut rng = Rng::seed_from(seed ^ 0xBEEF);
        for &c in &active {
            x[c] = rng.uniform(-2.0, 2.0);
        }
        let mirror = ColMajor::from_matrix(&m);
        let mut sparse = vec![0.0f32; m.rows()];
        mirror.accumulate_columns_scaled(&active, &x, &mut sparse);
        let mut dense = vec![0.0f32; m.rows()];
        m.matvec_into_naive(&x, &mut dense);
        for (a, b) in sparse.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn indexed_matvec_t_matches_dense(
        m in matrix_strategy(12), density in density_strategy(), seed in 0u64..1000
    ) {
        // Wᵀ·x over x's active rows, through the sparse product (one
        // sparse row), against the dense transposed product: bitwise.
        let (mut x, active) = binary_vector(m.rows(), density, seed);
        let mut rng = Rng::seed_from(seed ^ 0xF00D);
        for &r in &active {
            x[r] = rng.uniform(-2.0, 2.0);
        }
        let coef: Vec<f32> = active.iter().map(|&r| x[r]).collect();
        let row = SparseRows { offsets: &[0, active.len()], idx: &active, coef: &coef };
        let mut fast = vec![0.0f32; m.cols()];
        lanes::sparse_matmul_add(&mut fast, m.cols(), &row, m.as_slice(), &mut Vec::new());
        let mut dense = vec![0.0f32; m.cols()];
        m.matvec_t_into(&x, &mut dense);
        prop_assert_eq!(bits(&fast), bits(&dense));
    }

    #[test]
    fn indexed_rows_add_outer_is_bitwise_dense(
        m in matrix_strategy(12), density in density_strategy(), seed in 0u64..1000
    ) {
        // `u` sparse with its exact nonzero list, `v` dense: the
        // error-event update of the adaptive backward pass, through the
        // sparse product (one term per active row over the 1-row `v`).
        // Bitwise equality is the property the Exact sparsity policy
        // relies on.
        let (mut u, active) = binary_vector(m.rows(), density, seed);
        let mut rng = Rng::seed_from(seed ^ 0xABCD);
        for &r in &active {
            u[r] = rng.uniform(-2.0, 2.0).max(1e-3); // keep nonzero
        }
        let v: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.3).cos()).collect();
        let (offsets, coef) = one_term_per_row(m.rows(), &active, |r| 0.9 * u[r]);
        let idx = vec![0usize; coef.len()];
        let rows = SparseRows { offsets: &offsets, idx: &idx, coef: &coef };
        let mut fast = m.clone();
        let mut dense = m.clone();
        lanes::sparse_matmul_add(fast.as_mut_slice(), m.cols(), &rows, &v, &mut Vec::new());
        dense.add_outer(0.9, &u, &v);
        prop_assert_eq!(bits(fast.as_slice()), bits(dense.as_slice()));
    }

    #[test]
    fn grad_raster_prune_then_kernels_match_dense(
        m in matrix_strategy(12), seed in 0u64..1000, eps in 0.0f32..0.5
    ) {
        // Prune a dense adjoint with GradRaster, then check the sparse
        // products over the recorded events are bitwise the dense
        // kernels over the pruned vector — the invariant that makes the
        // sparse backward under `Exact` equal the dense one.
        let mut rng = Rng::seed_from(seed);
        let mut dv: Vec<f32> = (0..m.rows()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut raster = snn_tensor::GradRaster::new();
        let active: Vec<usize> = raster.push_step_pruned(&mut dv, eps).to_vec();
        prop_assert!(dv.iter().all(|x| x.abs() > eps || *x == 0.0));
        let mut pack = Vec::new();

        let mut fast = vec![0.0f32; m.cols()];
        let mut dense = vec![0.0f32; m.cols()];
        lanes::sparse_matmul_add(&mut fast, m.cols(), &raster.rows(0..1), m.as_slice(), &mut pack);
        m.matvec_t_into(&dv, &mut dense);
        prop_assert_eq!(bits(&fast), bits(&dense));

        let v: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.8).sin()).collect();
        let (offsets, coef) = one_term_per_row(m.rows(), &active, |r| dv[r]);
        let idx = vec![0usize; coef.len()];
        let rows = SparseRows { offsets: &offsets, idx: &idx, coef: &coef };
        let mut a = m.clone();
        let mut b = m.clone();
        lanes::sparse_matmul_add(a.as_mut_slice(), m.cols(), &rows, &v, &mut pack);
        b.add_outer(1.0, &dv, &v);
        prop_assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
    }

    #[test]
    fn colmajor_refresh_tracks_any_mutation(
        m in matrix_strategy(10), r in 0usize..10, c in 0usize..10, w in -5.0f32..5.0
    ) {
        let mut m = m;
        let mut mirror = ColMajor::from_matrix(&m);
        let (r, c) = (r % m.rows(), c % m.cols());
        m[(r, c)] = w;
        mirror.refresh_from(&m);
        prop_assert_eq!(mirror.column(c)[r], w);
        for rr in 0..m.rows() {
            for cc in 0..m.cols() {
                prop_assert_eq!(mirror.column(cc)[rr], m[(rr, cc)]);
            }
        }
    }

    #[test]
    fn resize_zeroed_gives_clean_buffer(rows in 0usize..8, cols in 0usize..8) {
        let mut m = Matrix::full(5, 5, 3.0);
        m.resize_zeroed(rows, cols);
        prop_assert_eq!(m.shape(), (rows, cols));
        prop_assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }
}
