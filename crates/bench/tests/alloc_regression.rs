//! Allocation-count regression test for the training hot path.
//!
//! Installs a counting global allocator and proves that, after warm-up,
//! one SGD step (buffer-reusing forward pass + backward pass + parameter
//! update) performs **zero** heap allocations — the contract behind the
//! workspace-buffer convention of `DESIGN.md` §9. The same is pinned for
//! the streaming (constant-memory) step, the reservoir pass and the
//! `RidgePlan` β-sweep.
//!
//! Gated behind the `count-allocs` feature so normal test runs keep the
//! system allocator untouched:
//!
//! ```text
//! cargo test -p dfr-bench --features count-allocs --test alloc_regression --release
//! ```
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dfr_core::backprop::{backprop_into, BackpropOptions};
use dfr_core::online::OnlineRidge;
use dfr_core::optimizer::{ParamBounds, Sgd};
use dfr_core::streaming::{streaming_backprop_into, StreamingCache, StreamingForward};
use dfr_core::workspace::TrainWorkspace;
use dfr_core::DfrClassifier;
use dfr_linalg::ridge::RidgePlan;
use dfr_linalg::solver::{SolverKind, SolverPolicy};
use dfr_linalg::{GemmWorkspace, Matrix};
use dfr_reservoir::ReservoirRun;
use dfr_serve::{FrozenModel, ServeSession};

/// Forwards to the system allocator, counting every allocation made by a
/// thread whose `COUNTING` flag is up. Deallocations are not counted:
/// freeing warm-up storage inside the measured region would be legal,
/// allocating is not.
///
/// The flag is **thread-local** (const-initialised `Cell`, so reading it
/// inside the allocator cannot itself allocate): the default test harness
/// runs the `#[test]` fns concurrently, and a process-global flag would
/// attribute another test's setup allocations to whichever test is
/// measuring — a flaky false positive. A mutex additionally serialises
/// the measured sections so the shared counter belongs to one test at a
/// time.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Whether the current thread is inside a measured region.
/// (`try_with`: the thread-local may be gone during thread teardown.)
fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Counts allocations performed by `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _serialise = MEASURE_LOCK.lock().expect("measure lock");
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::SeqCst), r)
}

fn model_and_series(nx: usize, t: usize) -> (DfrClassifier, Matrix, Vec<f64>) {
    let mut model = DfrClassifier::paper_default(nx, 3, 4, 0).expect("model");
    model.reservoir_mut().set_params(0.05, 0.1).expect("params");
    for j in 0..model.feature_dim() {
        model.w_out_mut()[(0, j)] = 0.01 * ((j % 11) as f64 - 5.0);
        model.w_out_mut()[(2, j)] = -0.02 * ((j % 7) as f64 - 3.0);
    }
    let data: Vec<f64> = (0..t * 3).map(|i| ((i as f64) * 0.29).sin()).collect();
    let series = Matrix::from_vec(t, 3, data).expect("sized");
    (model, series, vec![0.0, 0.0, 1.0, 0.0])
}

#[test]
fn sgd_step_is_allocation_free_after_warmup() {
    // Serial region: the pool spawns no threads, so any allocation counted
    // below comes from the step itself.
    dfr_pool::with_threads(1, || {
        let (mut model, series, target) = model_and_series(30, 120);
        let masked = model.reservoir().mask().apply(&series);
        let options = BackpropOptions::default();
        let bounds = ParamBounds::default();
        let mut sgd = Sgd::new();
        let mut ws = TrainWorkspace::new();

        let mut step = |model: &mut DfrClassifier, ws: &mut TrainWorkspace| {
            model
                .forward_masked_into(&masked, &mut ws.cache)
                .expect("forward");
            let TrainWorkspace { cache, bp, .. } = ws;
            backprop_into(model, &series, cache, &target, &options, bp).expect("backprop");
            assert!(bp.grads.is_finite());
            sgd.step(model, &bp.grads, 1e-4, 1e-4, &bounds)
                .expect("sgd");
        };

        for _ in 0..3 {
            step(&mut model, &mut ws); // warm-up: buffers reach steady state
        }
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..100 {
                step(&mut model, &mut ws);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up SGD steps must not allocate ({allocs} allocations in 100 steps)"
        );
    });
}

#[test]
fn streaming_step_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (model, series, target) = model_and_series(20, 80);
        let forward = StreamingForward::paper();
        let mut cache = StreamingCache::empty();
        let mut bp = dfr_core::workspace::BackpropWorkspace::new();
        let mut step = || {
            forward.run_into(&model, &series, &mut cache).expect("run");
            streaming_backprop_into(&model, &cache, &target, &mut bp).expect("backprop");
        };
        for _ in 0..3 {
            step();
        }
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..100 {
                step();
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up streaming steps must not allocate ({allocs} allocations in 100 steps)"
        );
    });
}

#[test]
fn packed_matmul_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let n = 48;
        let a = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i as f64) * 0.37).sin()).collect(),
        )
        .expect("sized");
        let b = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i as f64) * 0.11).cos()).collect(),
        )
        .expect("sized");
        let mut ws = GemmWorkspace::new();
        let mut out = Matrix::zeros(0, 0);
        let all = |ws: &mut GemmWorkspace, out: &mut Matrix| {
            a.matmul_into(&b, out, ws).expect("matmul");
            a.t_matmul_into(&b, out, ws).expect("t_matmul");
            a.matmul_t_into(&b, out, ws).expect("matmul_t");
            a.gram_into(out, ws);
            a.gram_t_into(out, ws);
        };
        all(&mut ws, &mut out); // warm-up: pack buffers reach high water
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..10 {
                all(&mut ws, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up packed products must not allocate ({allocs} allocations in 10 rounds)"
        );
    });
}

#[test]
fn reservoir_run_into_is_allocation_free_after_warmup() {
    // The mask product packs into the run's own workspace, so one reused
    // `ReservoirRun` keeps the whole reservoir pass allocation-free.
    dfr_pool::with_threads(1, || {
        let (model, _, _) = model_and_series(24, 10);
        let series: Vec<Matrix> = (0..16)
            .map(|i| {
                let t = 6 + (i * 17) % 70;
                Matrix::from_vec(
                    t,
                    3,
                    (0..t * 3).map(|k| ((k + i) as f64 * 0.17).cos()).collect(),
                )
                .expect("sized")
            })
            .collect();
        let mut run = ReservoirRun::empty();
        let pass = |run: &mut ReservoirRun| {
            for s in &series {
                model.reservoir().run_into(s, run).expect("run");
            }
        };
        pass(&mut run); // warm-up: buffers reach the longest series
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..10 {
                pass(&mut run);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up ModularDfr::run_into must not allocate ({allocs} allocations in 10 passes)"
        );
    });
}

#[test]
fn predict_batch_is_allocation_free_after_warmup() {
    // Serial region, as for the other pins: the pool spawns no threads, so
    // any allocation counted below comes from the serving step itself.
    dfr_pool::with_threads(1, || {
        let (mut model, _, _) = model_and_series(20, 10);
        // Dense readout so predictions exercise real arithmetic.
        for j in 0..model.feature_dim() {
            model.w_out_mut()[(j % 4, j)] = 0.015 * ((j % 9) as f64 - 4.0);
        }
        let frozen = FrozenModel::freeze(&model);
        // Ragged workload, longest series first reached during warm-up.
        let series: Vec<Matrix> = (0..48)
            .map(|i| {
                let t = 8 + (i * 13) % 90;
                Matrix::from_vec(
                    t,
                    3,
                    (0..t * 3).map(|k| ((k + i) as f64 * 0.21).sin()).collect(),
                )
                .expect("sized")
            })
            .collect();
        // The session owns every workspace; one warm call brings its
        // buffers to their high-water mark.
        let mut session = ServeSession::builder(frozen).max_batch(16).build();
        session.predict_batch(&series).expect("warm-up batch");
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..50 {
                session.predict_batch(&series).expect("steady-state batch");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up ServeSession::predict_batch must not allocate ({allocs} allocations in 50 calls)"
        );

        // The per-sample serving form holds the same contract.
        let longest = series
            .iter()
            .max_by_key(|s| s.rows())
            .expect("non-empty")
            .clone();
        session.predict_one(&longest).expect("warm-up");
        let (allocs, ()) = count_allocs(|| {
            for s in &series {
                session.predict_one(s).expect("steady-state");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up ServeSession::predict_one must not allocate ({allocs} allocations)"
        );
    });
}

#[test]
fn ridge_plan_sweep_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let n = 40;
        let p = 25;
        let x = Matrix::from_vec(
            n,
            p,
            (0..n * p).map(|i| ((i as f64) * 0.13).sin()).collect(),
        )
        .expect("sized");
        let mut y = Matrix::zeros(n, 5);
        for i in 0..n {
            y[(i, i % 5)] = 1.0;
        }
        let mut plan = RidgePlan::new(&x, &y).expect("plan");
        let mut w = Matrix::zeros(0, 0);
        plan.solve_into(1e-4, &mut w).expect("warm-up solve");
        // Per-β work after warm-up: re-add βI, refactor, substitute — all
        // in reused buffers. In particular the Gram matrix is never
        // recomputed (construction-time only), which this count pins.
        let (allocs, ()) = count_allocs(|| {
            for &beta in &[1e-6, 1e-4, 1e-2, 1.0] {
                plan.solve_into(beta, &mut w).expect("solve");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up RidgePlan sweeps must not allocate ({allocs} allocations)"
        );
    });
}

/// The online continual-learning hot path (DESIGN.md §16): after
/// warm-up, absorbing a sample (rank-1 Cholesky update of the
/// intercept-augmented system), retracting one (rank-1 downdate) and
/// refitting the readout off the warm factor all run without touching
/// the allocator. Publishing is deliberately not pinned — freezing a
/// model's byte layout is a fresh allocation by design.
#[test]
fn online_absorb_retract_refit_are_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (p, q, beta) = (40usize, 4usize, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).expect("learner");
        let mut features = vec![0.0f64; p];
        let mut fill = |buf: &mut [f64], k: usize| {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = ((k * 31 + j * 7) as f64 * 0.173).sin();
            }
        };
        let mut w = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        // One-hot targets prepared up front: building them inside the
        // measured region would charge the pin for test scaffolding.
        let targets: Vec<Vec<f64>> = (0..q).map(|c| one_hot(q, c)).collect();
        // Warm-up: the rank-1 work vector, the solver scratch and the
        // refit output buffers all reach their high-water marks.
        for k in 0..4 {
            fill(&mut features, k);
            learner.absorb_label(&features, k % q).expect("absorb");
        }
        learner.retract(&features, &targets[3]).expect("retract");
        learner.refit_into(&mut w, &mut b).expect("refit");

        let (allocs, ()) = count_allocs(|| {
            for k in 4..104 {
                fill(&mut features, k);
                learner.absorb_label(&features, k % q).expect("absorb");
                if k % 10 == 0 {
                    // Retracting the sample just absorbed always leaves
                    // the system positive definite.
                    learner
                        .retract(&features, &targets[k % q])
                        .expect("retract");
                    learner.absorb_label(&features, k % q).expect("re-absorb");
                }
                if k % 25 == 0 {
                    learner.refit_into(&mut w, &mut b).expect("refit");
                }
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up online absorb/retract/refit must not allocate ({allocs} allocations in 100 steps)"
        );
        assert!(!learner.factor_stale());
    });
}

/// One-hot helper for the online pin (allocates — call outside measured
/// regions only, or before warm-up).
fn one_hot(q: usize, label: usize) -> Vec<f64> {
    let mut t = vec![0.0; q];
    t[label] = 1.0;
    t
}

/// The serving-stack absorb ([`OnlinePublisher::absorb`]) adds a
/// streaming forward pass in front of the rank-1 update; the combined
/// step holds the same zero-allocation contract.
#[test]
fn publisher_absorb_is_allocation_free_after_warmup() {
    use dfr_server::{ModelRegistry, OnlinePublisher, PublisherConfig};
    use std::sync::Arc;

    dfr_pool::with_threads(1, || {
        let (model, series, _) = model_and_series(20, 60);
        let registry = Arc::new(ModelRegistry::new(FrozenModel::freeze(&model)));
        let mut publisher = OnlinePublisher::new(
            model,
            1e-4,
            registry,
            PublisherConfig {
                publish_every: usize::MAX, // never publish inside the pin
                min_interval: std::time::Duration::ZERO,
            },
        )
        .expect("publisher");
        for k in 0..3 {
            publisher.absorb(&series, k % 4).expect("warm-up absorb");
        }
        let (allocs, ()) = count_allocs(|| {
            for k in 3..53 {
                publisher.absorb(&series, k % 4).expect("absorb");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up publisher absorb must not allocate ({allocs} allocations in 50 steps)"
        );
    });
}

/// The `DESIGN.md` §15 escalation holds the same contract as the fast
/// path: once the QR/SVD factor scratch and the rcond work vector have
/// reached their high-water marks, pinned-backend solves, failing
/// Cholesky attempts and the full Cholesky → QR → SVD walk on a singular
/// Gram all run without touching the allocator.
#[test]
fn solver_escalation_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (n, p) = (30, 12);
        let mut x = Matrix::from_vec(
            n,
            p,
            (0..n * p).map(|i| ((i as f64) * 0.13).sin()).collect(),
        )
        .expect("sized");
        // Exact dependence: the last column duplicates the first, so the
        // β = 0 Gram is singular and `Auto` walks every escalation rung.
        for i in 0..n {
            x[(i, p - 1)] = x[(i, 0)];
        }
        let mut y = Matrix::zeros(n, 4);
        for i in 0..n {
            y[(i, i % 4)] = 1.0;
        }
        let mut plan = RidgePlan::new(&x, &y).expect("plan");
        let mut w = Matrix::zeros(0, 0);
        let policies = [
            SolverPolicy::Fixed(SolverKind::Cholesky),
            SolverPolicy::Fixed(SolverKind::Qr),
            SolverPolicy::Fixed(SolverKind::Svd),
            SolverPolicy::Auto,
        ];
        let sweep = |plan: &mut RidgePlan, w: &mut Matrix| {
            for policy in policies {
                for &beta in &[0.0, 1e-4, 1e-2] {
                    // β = 0 legitimately fails under the pinned
                    // Cholesky/QR backends (that *is* the escalation
                    // trigger); the error paths must be as
                    // allocation-free as the successes.
                    let _ = plan.solve_into_with(beta, w, policy);
                }
            }
        };
        sweep(&mut plan, &mut w); // warm-up: factor + rcond scratch fill
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..5 {
                sweep(&mut plan, &mut w);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up solver escalation must not allocate ({allocs} allocations)"
        );
    });
}
