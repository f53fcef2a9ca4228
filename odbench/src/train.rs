//! The two training workloads.
//!
//! * `train_paper` — AF on the NYC-like city (N = 67) and BF on the
//!   Chengdu-like city (N = 79) at the paper's `s = 3`, `h = 3`, batch 16,
//!   then forecasts of held-out windows through a `Registry`.
//! * `train_city` — AF on the 500-region metropolis (CSR graph path,
//!   `s = 2`, `h = 1`, batch 1), then forecasts of held-out windows from
//!   the trained checkpoint registered as f16 under a memory budget.
//!
//! Each model is a *lane*. A round runs one minibatch step on every lane;
//! a forecast round forecasts one held-out window on every lane. Rounds
//! are whole, so every run attempts the same operations in the same mix.
//!
//! The optimizer step is assembled from the public calls the library's
//! own trainer makes — `make_batch`, `forward_masked`, `masked_sq_err`,
//! `Tape::backward`, `clip_global_norm`, `Adam::step` — with the same
//! fixed 8-sample gradient shards fanned out over the `par` pool, so each
//! call can be timed on its own.

use crate::checks;
use crate::report::{self, median, Outcome, ProcStat};
use crate::trace;
use crate::Ctx;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stod_core::batch::{make_batch, minibatches};
use stod_core::{evaluate, AfConfig, AfModel, BfConfig, BfModel, GraphMode, Mode, OdForecaster};
use stod_nn::optim::{clip_global_norm, Adam};
use stod_nn::{Gradients, ParamStore, Tape};
use stod_serve::{ModelConfig, ModelKind, Registry, ServeStats};
use stod_tensor::rng::Rng64;
use stod_tensor::{stack, Tensor};
use stod_traffic::{CityModel, OdDataset, SimConfig, Window};

/// Samples per gradient shard, as in the library's trainer.
const SHARD_GRAIN: usize = 8;
/// Adam learning rate (the experiment benches' initial rate).
const LR: f32 = 4e-3;
/// Dropout during training steps.
const DROPOUT: f32 = 0.05;
/// Global-norm gradient clip.
const CLIP: f32 = 5.0;
/// Memory budget of the city registry (`STOD_MODEL_MEM`), bytes.
const CITY_MODEL_MEM: u64 = 64 << 20;
/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 3;
/// Seed of the initial weights and the minibatch order: a fixed part of
/// the training recipe, so `--seed` varies the data (city layout, trips,
/// speeds) and `forecast_emd` compares like with like across seeds.
const INIT_SEED: u64 = 0x1A17;

/// The fixed make-up of one training workload.
struct Plan {
    /// Minibatch size.
    batch: usize,
    /// History steps `s`.
    s: usize,
    /// Horizon `h`.
    h: usize,
    /// Untimed-for-latency rounds that run before measuring, counted in
    /// `setup_s` (where the per-step time series settles).
    warmup_rounds: usize,
    /// The checkpoint served and scored is the one after this many rounds
    /// (warm-up included), whatever the run length.
    eval_rounds: usize,
    /// Held-out windows forecast per lane.
    test_windows: usize,
    /// Forecast rounds per second of `--seconds` in the serving phase (a
    /// fixed count, so every run forecasts the same windows).
    forecasts_per_second: f64,
    /// Register the served checkpoint as f16 under `CITY_MODEL_MEM`.
    f16: bool,
}

/// One model, its data and its optimizer state.
struct Lane {
    ds: OdDataset,
    config: ModelConfig,
    model: Box<dyn OdForecaster + Send + Sync>,
    train: Vec<Window>,
    test: Vec<Window>,
    queue: Vec<Vec<Window>>,
    adam: Adam,
    rng: Rng64,
}

impl Lane {
    /// `init_seed` fixes the initial weights and the minibatch order.
    fn new(ds: OdDataset, kind: ModelKind, plan: &Plan, init_seed: u64) -> (Lane, f64) {
        let config = ModelConfig {
            kind,
            centroids: ds.city.centroids(),
            num_buckets: ds.spec.num_buckets,
        };
        let t = Instant::now();
        let model: Box<dyn OdForecaster + Send + Sync> = match &config.kind {
            ModelKind::Af(cfg) => Box::new(AfModel::new(
                &config.centroids,
                config.num_buckets,
                cfg.clone(),
                init_seed,
            )),
            ModelKind::Bf(cfg) => Box::new(BfModel::new(
                config.num_regions(),
                config.num_buckets,
                *cfg,
                init_seed,
            )),
        };
        let init_ms = t.elapsed().as_secs_f64() * 1e3;
        // Windows whose every target interval has observations (the
        // Chengdu-like city records nothing between 00:00 and 06:00).
        let observed = |w: &Window| {
            w.target_indices()
                .iter()
                .all(|&t| ds.tensors[t].num_observed() > 0)
        };
        let split = ds.split(&ds.windows(plan.s, plan.h), 0.7, 0.1);
        let train: Vec<Window> = split.train.into_iter().filter(observed).collect();
        let test: Vec<Window> = split
            .test
            .into_iter()
            .filter(observed)
            .take(plan.test_windows)
            .collect();
        assert!(
            train.len() >= plan.batch && test.len() == plan.test_windows,
            "dataset too small: {} train and {} test windows",
            train.len(),
            test.len()
        );
        let lane = Lane {
            ds,
            config,
            model,
            train,
            test,
            queue: Vec::new(),
            adam: Adam::new(LR),
            rng: Rng64::new(init_seed ^ 0x7EA1),
        };
        (lane, init_ms)
    }

    /// The next full minibatch, reshuffling at each epoch boundary.
    fn next_minibatch(&mut self, batch: usize) -> Vec<Window> {
        if self.queue.is_empty() {
            let mut mbs: Vec<Vec<Window>> = minibatches(&self.train, batch, &mut self.rng)
                .into_iter()
                .filter(|mb| mb.len() == batch)
                .collect();
            mbs.reverse();
            self.queue = mbs;
        }
        self.queue.pop().expect("at least one full minibatch")
    }
}

/// What one optimizer step did.
struct Step {
    ms: f64,
    loss: f64,
    finite: bool,
    tape_nodes: usize,
    batch_bytes: usize,
}

/// One minibatch optimizer step on a lane, timed as a whole and, when
/// tracing, call by call.
fn step(lane: &mut Lane, batch: usize) -> Step {
    let mb = lane.next_minibatch(batch);
    let started = Instant::now();
    let _step = trace::span("train.step");
    let parent = trace::current();
    let shards = stod_tensor::par::grain_blocks(mb.len(), SHARD_GRAIN);
    let seeds: Vec<u64> = shards.iter().map(|_| lane.rng.next_u64()).collect();
    let batches: Vec<_> = {
        let _s = trace::span("core.make_batch");
        shards
            .iter()
            .map(|r| make_batch(&lane.ds, &mb[r.clone()]))
            .collect()
    };
    let batch_bytes: usize = batches
        .iter()
        .flat_map(|b| b.inputs.iter().chain(&b.targets).chain(&b.masks))
        .map(|t| t.numel() * 4)
        .sum();
    let observed: f32 = batches
        .iter()
        .map(|b| b.masks.iter().map(Tensor::sum).sum::<f32>())
        .sum::<f32>()
        .max(1.0);
    let horizon = batches[0].targets.len();
    let model: &dyn OdForecaster = lane.model.as_ref();
    let run_shard = |i: usize| -> (Gradients, f32, usize) {
        let _s = trace::span_under("train.shard", parent);
        let b = &batches[i];
        let mut rng = Rng64::new(seeds[i]);
        let mut tape = Tape::new();
        let out = {
            let _s = trace::span("core.forward");
            model.forward_masked(
                &mut tape,
                &b.inputs,
                horizon,
                Mode::Train { dropout: DROPOUT },
                &mut rng,
                &b.masks,
            )
        };
        let nodes = tape.len();
        let (loss, value) = {
            let _s = trace::span("core.loss");
            let mut data = None;
            for j in 0..horizon {
                let l = tape.masked_sq_err(out.predictions[j], &b.targets[j], &b.masks[j]);
                data = Some(match data {
                    Some(acc) => tape.add(acc, l),
                    None => l,
                });
            }
            let mut loss = tape.scale(data.expect("horizon >= 1"), 1.0 / observed);
            if let Some(reg) = out.regularizer {
                let reg = tape.scale(reg, b.len() as f32 / mb.len() as f32);
                loss = tape.add(loss, reg);
            }
            (loss, tape.value(loss).item())
        };
        let grads = {
            let _s = trace::span("nn.backward");
            tape.backward(loss)
        };
        (grads, value, nodes)
    };
    let outcomes: Vec<(Gradients, f32, usize)> = if shards.len() > 1
        && stod_tensor::par::should_parallelize(mb.len() * model.num_weights())
    {
        stod_tensor::par::map(shards.len(), run_shard)
    } else {
        (0..shards.len()).map(run_shard).collect()
    };
    let mut merged: Option<Gradients> = None;
    let mut loss = 0.0f64;
    let mut tape_nodes = 0;
    for (g, l, n) in outcomes {
        loss += f64::from(l);
        tape_nodes += n;
        match &mut merged {
            Some(m) => m.add_assign(&g),
            slot => *slot = Some(g),
        }
    }
    let mut grads = merged.expect("at least one shard");
    let finite = {
        let _s = trace::span("nn.optimizer");
        let clip = clip_global_norm(&mut grads, CLIP);
        let ok = clip.is_finite() && loss.is_finite();
        if ok {
            lane.adam.step(lane.model.params_mut(), &grads);
        }
        ok
    };
    drop(_step);
    Step {
        ms: started.elapsed().as_secs_f64() * 1e3,
        loss,
        finite,
        tape_nodes,
        batch_bytes,
    }
}

/// Masked squared error per observed cell of `model` on `windows`, in
/// evaluation mode (no dropout).
fn masked_loss(model: &dyn OdForecaster, ds: &OdDataset, windows: &[Window]) -> f64 {
    let b = make_batch(ds, windows);
    let mut tape = Tape::new();
    let mut rng = Rng64::new(0);
    let h = b.targets.len();
    let out = model.forward(&mut tape, &b.inputs, h, Mode::Eval, &mut rng);
    let mut total = 0.0f64;
    for j in 0..h {
        let l = tape.masked_sq_err(out.predictions[j], &b.targets[j], &b.masks[j]);
        total += f64::from(tape.value(l).item());
    }
    total / f64::from(b.observed_cells())
}

/// The inputs of one window, as the serving path stacks them.
fn window_inputs(ds: &OdDataset, w: &Window) -> Vec<Tensor> {
    w.input_indices()
        .iter()
        .map(|&t| stack(&[&ds.tensors[t].data], 0))
        .collect()
}

fn paper_lanes(ctx: &Ctx, plan: &Plan, seed: u64) -> (Vec<Lane>, f64, f64) {
    let t = Instant::now();
    let (nyc, cd, af_cfg, bf_cfg) = if ctx.tiny {
        let mut nyc_city = CityModel::grid(4, 3, 0.8);
        nyc_city.name = "nyc-tiny".into();
        let cd_city = CityModel::irregular(10, 2.0, seed ^ 0xCD);
        let sim = |night| SimConfig {
            num_days: 1,
            intervals_per_day: 48,
            trips_per_interval: 150.0,
            night_shutdown: night,
            ..SimConfig::small(seed)
        };
        (
            OdDataset::generate(nyc_city, &sim(false)),
            OdDataset::generate(cd_city, &sim(true)),
            AfConfig {
                rnn_hidden: 4,
                ..AfConfig::default()
            },
            BfConfig {
                encode_dim: 8,
                gru_hidden: 8,
                ..BfConfig::default()
            },
        )
    } else {
        (
            OdDataset::generate(
                CityModel::nyc_like(seed),
                &SimConfig {
                    num_days: 2,
                    ..SimConfig::nyc(seed)
                },
            ),
            OdDataset::generate(
                CityModel::chengdu_like(seed),
                &SimConfig {
                    num_days: 2,
                    ..SimConfig::chengdu(seed)
                },
            ),
            AfConfig::default(),
            BfConfig::default(),
        )
    };
    let generate_s = t.elapsed().as_secs_f64();
    let (af, af_ms) = Lane::new(nyc, ModelKind::Af(af_cfg), plan, INIT_SEED);
    let (bf, bf_ms) = Lane::new(cd, ModelKind::Bf(bf_cfg), plan, INIT_SEED + 1);
    (vec![af, bf], generate_s, af_ms + bf_ms)
}

fn city_lanes(ctx: &Ctx, plan: &Plan, seed: u64) -> (Vec<Lane>, f64, f64) {
    let t = Instant::now();
    let (city, cfg) = if ctx.tiny {
        // A small irregular city forced onto the CSR path, so the smoke
        // run exercises the same graph code as the metropolis.
        let city = CityModel::irregular(40, 3.0, seed ^ 0x4D45);
        let cfg = AfConfig {
            rnn_hidden: 4,
            rank: 2,
            graph: GraphMode::Sparse,
            ..AfConfig::default()
        };
        (city, cfg)
    } else {
        let cfg = AfConfig {
            rnn_hidden: 8,
            rank: 4,
            ..AfConfig::default()
        };
        (CityModel::metropolis(500, seed), cfg)
    };
    let ds = OdDataset::generate(
        city,
        &SimConfig {
            num_days: 1,
            intervals_per_day: 16,
            trips_per_interval: if ctx.tiny { 600.0 } else { 4000.0 },
            night_shutdown: false,
            ..SimConfig::small(seed)
        },
    );
    let generate_s = t.elapsed().as_secs_f64();
    let (lane, ms) = Lane::new(ds, ModelKind::Af(cfg), plan, INIT_SEED);
    (vec![lane], generate_s, ms)
}

/// `train_paper`.
pub fn paper(ctx: &Ctx) -> Outcome {
    let plan = Plan {
        batch: if ctx.tiny { 4 } else { 16 },
        s: 3,
        h: 3,
        warmup_rounds: if ctx.tiny { 1 } else { 3 },
        eval_rounds: if ctx.tiny { 2 } else { 16 },
        test_windows: if ctx.tiny { 4 } else { 12 },
        forecasts_per_second: 4.0,
        f16: false,
    };
    run(ctx, &plan, paper_lanes)
}

/// `train_city`.
pub fn city(ctx: &Ctx) -> Outcome {
    let plan = Plan {
        batch: 1,
        s: 2,
        h: 1,
        warmup_rounds: if ctx.tiny { 1 } else { 2 },
        eval_rounds: if ctx.tiny { 2 } else { 4 },
        test_windows: 3,
        forecasts_per_second: 0.3,
        f16: true,
    };
    run(ctx, &plan, city_lanes)
}

type Build = fn(&Ctx, &Plan, u64) -> (Vec<Lane>, f64, f64);

/// Registers `store` in `registry` the way the workload serves it (f32, or
/// f16 under the memory budget) and promotes it; returns the decode and
/// register time in milliseconds.
fn publish(store: &ParamStore, registry: &Registry, f16: bool) -> f64 {
    let bytes = if f16 {
        store.to_bytes_f16().expect("weights fit f16")
    } else {
        store.to_bytes()
    };
    let t = Instant::now();
    let version = {
        let _s = trace::span("nn.checkpoint_decode");
        let decoded = ParamStore::from_bytes(bytes).expect("checkpoint decodes");
        registry
            .register_store(decoded)
            .expect("checkpoint matches its architecture and budget")
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    registry
        .promote(version)
        .expect("a registered version promotes");
    ms
}

fn run(ctx: &Ctx, plan: &Plan, build: Build) -> Outcome {
    let mut o = Outcome::default();

    // Set-up: generate inputs and build models, several times; the last
    // build is the one that trains.
    let mut setup_s = Vec::new();
    let mut init_ms = Vec::new();
    let mut generate_s = 0.0;
    let mut lanes = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut lanes));
        let t = Instant::now();
        let (l, gen_s, model_ms) = build(ctx, plan, ctx.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        init_ms.push(model_ms);
        generate_s = gen_s;
        lanes = l;
    }
    // One registry per lane; the trained checkpoint is published into it.
    let registries: Vec<Registry> = lanes
        .iter()
        .map(|lane| {
            let stats = Arc::new(ServeStats::new());
            let budget = plan.f16.then_some(CITY_MODEL_MEM);
            Registry::with_mem_budget(lane.config.clone(), stats, budget)
        })
        .collect();

    // The loss on fixed trained windows before any step (checked below).
    let probe_windows: Vec<Vec<Window>> = lanes
        .iter()
        .map(|l| l.train[..plan.batch.min(4)].to_vec())
        .collect();
    let loss_at_init: Vec<f64> = lanes
        .iter()
        .zip(&probe_windows)
        .map(|(l, w)| masked_loss(l.model.as_ref(), &l.ds, w))
        .collect();

    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut loss_series: Vec<Vec<f64>> = lanes.iter().map(|_| Vec::new()).collect();
    let mut tape_nodes = 0usize;
    let mut batch_bytes = 0usize;
    // One training round: a minibatch step on every lane; returns the mean
    // step time.
    let mut train_round = |lanes: &mut Vec<Lane>, attempted: &mut u64, failed: &mut u64| -> f64 {
        let mut ms = 0.0;
        for (i, lane) in lanes.iter_mut().enumerate() {
            let s = step(lane, plan.batch);
            *attempted += 1;
            if !s.finite {
                *failed += 1;
            }
            ms += s.ms;
            loss_series[i].push(s.loss);
            tape_nodes = s.tape_nodes;
            batch_bytes = s.batch_bytes;
        }
        ms / lanes.len() as f64
    };

    // Warm-up rounds: part of set-up (the per-step series settles here).
    let warm = Instant::now();
    let mut warm_ms = Vec::new();
    for _ in 0..plan.warmup_rounds {
        warm_ms.push(train_round(&mut lanes, &mut attempted, &mut failed));
    }
    let warmup_s = warm.elapsed().as_secs_f64();
    let mut rounds = plan.warmup_rounds;

    // Timed training rounds for three quarters of the run. In a traced run
    // every other round records spans; the untraced rounds give the
    // overhead reference.
    let budget = Duration::from_secs_f64(ctx.seconds * 0.75);
    let arena0 = stod_tensor::arena::stats();
    let proc0 = ProcStat::now();
    let mut trained = Duration::ZERO;
    let mut round_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut windows_trained = 0usize;
    let mut snapshot: Vec<ParamStore> = Vec::new();
    while trained < budget || rounds < plan.eval_rounds {
        let tracing = ctx.traced && round_ms.len() % 2 == 1;
        trace::set_enabled(tracing);
        let t = Instant::now();
        let ms = train_round(&mut lanes, &mut attempted, &mut failed);
        trained += t.elapsed();
        trace::set_enabled(false);
        rounds += 1;
        windows_trained += plan.batch * lanes.len();
        round_ms.push(ms);
        if tracing {
            traced_ms.push(ms);
        }
        if rounds == plan.eval_rounds {
            snapshot = lanes
                .iter()
                .map(|l| {
                    ParamStore::from_bytes(l.model.params().to_bytes())
                        .expect("an in-memory store round-trips")
                })
                .collect();
        }
    }
    let untraced_ms: Vec<f64> = if ctx.traced {
        round_ms.iter().step_by(2).copied().collect()
    } else {
        round_ms.clone()
    };

    // Publish the checkpoint after `eval_rounds` rounds, then forecast
    // held-out windows through the registries: a fixed number of rounds,
    // each the next window on every lane. The first pass is kept for the
    // checks; later passes must repeat it bitwise.
    let mut decode_ms = Vec::new();
    let mut resident = 0u64;
    let mut served = Vec::new();
    for (registry, snap) in registries.iter().zip(&snapshot) {
        decode_ms.push(publish(snap, registry, plan.f16));
        let model = registry.active().expect("trained version active");
        resident += model.mem_bytes();
        o.check(!plan.f16 || model.mem_bytes() <= CITY_MODEL_MEM, || {
            format!("resident {} B over the budget", model.mem_bytes())
        });
        served.push(model);
    }
    let fc_rounds =
        ((ctx.seconds * plan.forecasts_per_second).ceil() as usize).max(plan.test_windows);
    let mut preds: Vec<Vec<Vec<Tensor>>> = lanes.iter().map(|_| Vec::new()).collect();
    let mut fc_ms = Vec::new();
    trace::set_enabled(ctx.traced);
    for r in 0..fc_rounds {
        let w = r % plan.test_windows;
        let mut ms = 0.0;
        for (i, lane) in lanes.iter().enumerate() {
            let inputs = window_inputs(&lane.ds, &lane.test[w]);
            let t = Instant::now();
            let pred = {
                let _s = trace::span("core.forecast");
                served[i].forecast(&inputs, plan.h)
            };
            ms += t.elapsed().as_secs_f64() * 1e3;
            attempted += 1;
            if r < plan.test_windows {
                preds[i].push(pred);
            } else {
                let same = pred
                    .iter()
                    .zip(&preds[i][w])
                    .all(|(a, b)| a.data() == b.data());
                o.check(same, || {
                    format!("lane {i} window {w}: repeated forecast differs")
                });
            }
        }
        fc_ms.push(ms / lanes.len() as f64);
    }
    trace::set_enabled(false);
    let proc = ProcStat::now().since(proc0);
    let arena = stod_tensor::arena::stats();

    // Checks: distributions, own EMD vs `evaluate`, loss fell.
    let mut emd_sum = 0.0f64;
    let mut emd_cells = 0usize;
    for (i, lane) in lanes.iter().enumerate() {
        for (w, window_preds) in preds[i].iter().enumerate() {
            for (j, p) in window_preds.iter().enumerate() {
                if let Err(e) = checks::simplex(p) {
                    o.check(false, || format!("lane {i} window {w} step {j}: {e}"));
                }
            }
        }
        let mut reference = lane.config.build(0);
        reference.params_mut().copy_from(&served[i].export_store());
        let report = evaluate(reference.as_ref(), &lane.ds, &lane.test, 1);
        let per_step = report.per_step.iter().zip(&report.cells_per_step);
        for (j, (means, &their_cells)) in per_step.enumerate() {
            let (mut sum, mut cells) = (0.0f64, 0usize);
            for (w, win) in lane.test.iter().enumerate() {
                let target = &lane.ds.tensors[win.target_indices()[j]];
                for or in 0..target.num_origins() {
                    for d in 0..target.num_dests() {
                        if let Some(truth) = target.histogram(or, d) {
                            sum += checks::emd(&truth, checks::cell(&preds[i][w][j], 0, or, d));
                            cells += 1;
                        }
                    }
                }
            }
            let ours = sum / cells.max(1) as f64;
            let theirs = means[2];
            o.check(
                checks::same_mean(ours, theirs) && cells == their_cells,
                || {
                    format!(
                        "lane {i} step {j}: own EMD {ours} over {cells} cells, \
                         evaluate {theirs} over {their_cells}"
                    )
                },
            );
            emd_sum += sum;
            emd_cells += cells;
        }
        let mut trained_model = lane.config.build(0);
        trained_model.params_mut().copy_from(&snapshot[i]);
        let after = masked_loss(trained_model.as_ref(), &lane.ds, &probe_windows[i]);
        o.check(after < loss_at_init[i], || {
            format!(
                "lane {i}: masked loss {after} did not fall below {} at init",
                loss_at_init[i]
            )
        });
    }
    o.check(emd_cells > 0, || "no observed held-out cells".into());
    o.check(failed == 0, || format!("{failed} non-finite minibatches"));

    o.e2e("setup_s", median(&setup_s) + warmup_s);
    o.e2e(
        "throughput_per_s",
        windows_trained as f64 / trained.as_secs_f64(),
    );
    o.e2e("latency_ms", median(&untraced_ms));
    o.e2e("model_latency_ms", median(&fc_ms));
    o.e2e("peak_rss_mb", report::peak_rss_mb());
    o.e2e("forecast_emd", emd_sum / emd_cells.max(1) as f64);

    if ctx.traced {
        let spans = trace::spans();
        let med = |name: &str| {
            let v = trace::durations_ms(&spans, name);
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        let reuse = arena.reuses - arena0.reuses;
        let fresh = arena.fresh - arena0.fresh;
        let af = lanes
            .iter()
            .find(|l| matches!(l.config.kind, ModelKind::Af(_)))
            .expect("every training workload has an AF lane");
        let (prop_ms, gemm_ms) = crate::probe::graph_and_recovery(&af.config, plan.batch);
        o.layer("traffic.generate_s", generate_s);
        o.layer("core.model_init_ms", median(&init_ms));
        o.layer("graph.propagate_ms", prop_ms);
        o.layer("tensor.recovery_gemm_ms", gemm_ms);
        o.layer("core.make_batch_ms", med("core.make_batch"));
        o.layer("core.batch_mb", batch_bytes as f64 / f64::from(1 << 20));
        o.layer("core.forward_ms", med("core.forward"));
        o.layer("nn.tape_nodes", tape_nodes as f64);
        o.layer("core.loss_ms", med("core.loss"));
        o.layer("nn.backward_ms", med("nn.backward"));
        o.layer("nn.optimizer_ms", med("nn.optimizer"));
        o.layer("core.forecast_ms", med("core.forecast"));
        o.layer("nn.checkpoint_decode_ms", median(&decode_ms));
        o.layer("serve.resident_mb", resident as f64 / f64::from(1 << 20));
        o.layer(
            "tensor.arena_high_water_mb",
            arena.high_water_bytes as f64 / f64::from(1 << 20),
        );
        o.layer(
            "tensor.arena_reuse_ratio",
            reuse as f64 / (reuse + fresh).max(1) as f64,
        );
        o.layer("process.minor_faults", proc.minor_faults as f64);
        o.layer("process.sys_s", proc.sys_s);
        o.layer("process.user_s", proc.user_s);
        o.layer(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&untraced_ms),
        );
    }

    let series = |v: &[Vec<f64>]| {
        format!(
            "[{}]",
            v.iter()
                .map(|s| report::num_array(s))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    o.detail("rounds", rounds.to_string());
    o.detail("setup_reps_s", report::num_array(&setup_s));
    o.detail("warmup_round_ms", report::num_array(&warm_ms));
    o.detail("round_ms", report::num_array(&round_ms));
    o.detail("forecast_round_ms", report::num_array(&fc_ms));
    o.detail("loss_at_init", report::num_array(&loss_at_init));
    o.detail("step_loss", series(&loss_series));
    o.detail(
        "regions",
        format!(
            "{:?}",
            lanes.iter().map(|l| l.ds.num_regions()).collect::<Vec<_>>()
        ),
    );
    o.attempted = attempted;
    o.failed = failed;
    o
}
