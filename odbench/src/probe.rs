//! Layer probes: single calls timed at a served model's exact shapes.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;
use stod_graph::{proximity_csr, proximity_matrix, scaled_laplacian, scaled_laplacian_csr};
use stod_serve::{ModelConfig, ModelKind};
use stod_tensor::rng::Rng64;
use stod_tensor::{batched_matmul, Tensor};

/// Median wall time of `reps` calls, in milliseconds, after one untimed
/// call.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// Times, for an AF configuration at `batch` windows:
///
/// * one scaled-Laplacian propagation of a `[batch, N, W]` panel, where
///   `W = β·K + hidden` is the widest Cheby input (the CNRNN gates), in
///   the representation `GraphMode` picks for this `N` — a dense batched
///   GEMM or `CsrMatrix::spmm_panel`;
/// * one recovery GEMM `[K, N, β] · [K, β, N']` (one window, one step).
pub fn graph_and_recovery(config: &ModelConfig, batch: usize) -> (f64, f64) {
    let ModelKind::Af(cfg) = &config.kind else {
        panic!("graph probes need an AF configuration");
    };
    let (n, k) = (config.num_regions(), config.num_buckets);
    let width = cfg.rank * k + cfg.rnn_hidden;
    let mut rng = Rng64::new(0x9E0B);
    let x = Tensor::randn(&[batch, n, width], 1.0, &mut rng);
    let propagate = if cfg.graph.is_sparse(n) {
        let l = scaled_laplacian_csr(&proximity_csr(&config.centroids, cfg.proximity));
        median_ms(9, || {
            black_box(l.spmm_panel(&x));
        })
    } else {
        let l = scaled_laplacian(&proximity_matrix(&config.centroids, cfg.proximity));
        median_ms(9, || {
            black_box(batched_matmul(&l, &x));
        })
    };
    let r = Tensor::randn(&[k, n, cfg.rank], 1.0, &mut rng);
    let c = Tensor::randn(&[k, cfg.rank, n], 1.0, &mut rng);
    let gemm = median_ms(9, || {
        black_box(batched_matmul(&r, &c));
    });
    (propagate, gemm)
}
