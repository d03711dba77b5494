//! Criterion micro-benchmarks of the packed GEMM microkernel family at
//! the DPRR shapes (`n ≈ 100` samples, `p = 931` features, `q = 10`
//! classes) plus the blocked Cholesky refactor step. The before/after
//! record against the frozen scalar kernels lives in the `gemm` *binary*;
//! these track the absolute per-call costs over time (CI uploads the
//! `CRITERION_JSON` summary with mean/median/stddev per bench).

use criterion::{criterion_group, criterion_main, Criterion};
use dfr_linalg::cholesky::Cholesky;
use dfr_linalg::{GemmWorkspace, Matrix};

fn sin_matrix(rows: usize, cols: usize, stride: f64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (i as f64 * stride).sin())
            .collect(),
    )
    .expect("sized")
}

fn bench_products(c: &mut Criterion) {
    let x = sin_matrix(100, 931, 0.13);
    let w = sin_matrix(10, 931, 0.41);
    let y = sin_matrix(100, 10, 0.29);
    let mut ws = GemmWorkspace::new();
    let mut out = Matrix::zeros(0, 0);

    let mut group = c.benchmark_group("gemm");
    group.bench_function("matmul_t_100x931x10", |b| {
        b.iter(|| x.matmul_t_into(&w, &mut out, &mut ws).expect("shapes"))
    });
    group.bench_function("t_matmul_931x100x10", |b| {
        b.iter(|| x.t_matmul_into(&y, &mut out, &mut ws).expect("shapes"))
    });
    group.bench_function("gram_100x931", |b| {
        b.iter(|| x.gram_into(&mut out, &mut ws))
    });
    group.bench_function("gram_t_931x100", |b| {
        b.iter(|| x.gram_t_into(&mut out, &mut ws))
    });
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    // An SPD system at the dual-ridge size (n = 100) and at the primal /
    // augmented size (p = 300 keeps the bench under the harness budget
    // while exercising several NB panels and their trailing updates).
    let mut group = c.benchmark_group("cholesky");
    for n in [100usize, 300] {
        let m = sin_matrix(n, n, 0.17);
        let mut a = m.gram();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let mut chol = Cholesky::empty();
        group.bench_function(format!("factor_{n}"), |b| {
            b.iter(|| Cholesky::factor_into(&a, &mut chol).expect("spd"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_products, bench_cholesky);
criterion_main!(benches);
