//! Criterion micro-benchmark of the DPRR reservoir representation
//! (O(T·N_x²)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfr_linalg::{GemmWorkspace, Matrix};
use dfr_reservoir::representation::Dprr;

fn states(t: usize, nx: usize) -> Matrix {
    let data: Vec<f64> = (0..t * nx).map(|i| ((i as f64) * 0.41).sin()).collect();
    Matrix::from_vec(t, nx, data).expect("sized correctly")
}

fn bench_representations(c: &mut Criterion) {
    let mut group = c.benchmark_group("representation");
    for t in [100usize, 500, 2000] {
        let history = states(t, 30);
        group.bench_with_input(BenchmarkId::new("dprr", t), &t, |b, _| {
            let mut out = vec![0.0; Dprr.dim(30)];
            let mut ws = GemmWorkspace::new();
            b.iter(|| Dprr.features_into(std::hint::black_box(&history), &mut out, &mut ws))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_representations);
criterion_main!(benches);
