//! The `serve_fleet` workload: a durable 4-tenant fleet with per-shard
//! write-ahead logs.
//!
//! Tenants: AF on the NYC-like city (N = 67), BF on the Chengdu-like city
//! (N = 79) and two toy BF cities (N = 6 and 8). Set-up generates the
//! cities, builds the fleet through `Fleet::from_replay_durable` over the
//! first 40 intervals, and runs two warm-up ticks. A *tick* then
//! ingests and seals the next interval's live trips on every shard and
//! sends one closed-loop burst of requests that all share that interval as
//! `t_end` (the per-tick locality the result cache exists for), issued by
//! `CLIENTS` threads that each wait for every reply. 70 % of the measured
//! ticks run, one adaptation cycle runs on the AF shard with the clients
//! idle, the other 30 % follow, the fleet is dropped after a
//! clean WAL flush, and `Fleet::recover` rebuilds it from the logs, three
//! times.
//!
//! Every answer is checked bitwise against a `ServedModel::forecast` of
//! the active version on inputs from a reference `FeatureStore` fed the
//! same trips outside the fleet (on every eighth tick and the first tick
//! after the adaptation cycle).

use crate::checks;
use crate::report::{self, median, tail_quantile, Outcome, ProcStat};
use crate::trace;
use crate::{Ctx, CLIENTS};
use std::path::Path;
use std::time::{Duration, Instant};
use stod_adapt::{AdaptConfig, CityAdapter};
use stod_baselines::NaiveHistograms;
use stod_core::{AfConfig, BfConfig};
use stod_fleet::{
    BreakerConfig, DurabilityConfig, Fleet, FleetConfig, FleetRequest, FleetSource, ShardConfig,
};
use stod_nn::ParamStore;
use stod_serve::{FeatureStore, ModelKind, Registry, ServeStats, TripWal, WalConfig};
use stod_tensor::rng::Rng64;
use stod_traffic::{CityModel, FleetCity, OdDataset, OdTensor, SimConfig, Trip};

/// History steps each forecast conditions on (the paper's `s`).
const LOOKBACK: usize = 3;
/// Sealed intervals each shard's window (and WAL retention) holds.
const WINDOW_CAPACITY: usize = 32;
/// Per-request deadline; generous, so every request gets a model answer.
const DEADLINE: Duration = Duration::from_secs(10);
/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 3;
/// `Fleet::recover` repetitions whose median is reported.
const RECOVER_REPS: usize = 3;
/// Warm-up ticks, counted in set-up.
const WARMUP_TICKS: usize = 2;
/// Every this many ticks, all answers are checked bitwise.
const VERIFY_EVERY: usize = 8;

/// The fixed make-up of the fleet.
struct Plan {
    /// Intervals replayed into the fleet at set-up.
    t0: usize,
    /// Requests per burst (spread evenly over the tenants).
    burst: usize,
    /// Measured ticks before the adaptation cycle.
    ticks_a: usize,
    /// Measured ticks after it.
    ticks_b: usize,
}

/// One tenant: model architecture, generated city and its full trip
/// stream (the fleet is built from the first `t0` intervals of it).
struct Tenant {
    kind: ModelKind,
    trips: Vec<Vec<Trip>>,
}

/// A generated city dataset and its per-interval trips.
type Generated = (OdDataset, Vec<Vec<Trip>>);

/// One answered request.
struct Answer {
    req: FleetRequest,
    source: FleetSource,
    histogram: Vec<f32>,
    ms: f64,
}

fn generate(ctx: &Ctx, plan: &Plan) -> (Vec<FleetCity>, Vec<Tenant>) {
    let seed = ctx.seed;
    let ipd = if ctx.tiny { 24 } else { 96 };
    // Enough days for set-up, warm-up, every measured tick and the
    // intervals the last forecasts target.
    let days = (plan.t0 + WARMUP_TICKS + plan.ticks_a + plan.ticks_b + 3).div_ceil(ipd);
    let toy = |rows, cols, trips: f64, salt: u64| {
        let mut city = CityModel::grid(rows, cols, 0.8);
        city.name = format!("toy-{}", rows * cols);
        let sim = SimConfig {
            num_days: days,
            intervals_per_day: ipd,
            trips_per_interval: trips,
            night_shutdown: false,
            ..SimConfig::small(seed ^ salt)
        };
        OdDataset::generate_with_trips(city, &sim)
    };
    let small_bf = |width| {
        ModelKind::Bf(BfConfig {
            encode_dim: width,
            gru_hidden: width,
            ..BfConfig::default()
        })
    };
    let built: Vec<(Generated, ModelKind)> = if ctx.tiny {
        vec![
            (
                toy(3, 4, 150.0, 0xA0),
                ModelKind::Af(AfConfig {
                    rnn_hidden: 4,
                    ..AfConfig::default()
                }),
            ),
            (toy(3, 3, 150.0, 0xB0), small_bf(8)),
            (toy(3, 2, 120.0, 0xC0), small_bf(8)),
            (toy(4, 2, 180.0, 0xD0), small_bf(8)),
        ]
    } else {
        vec![
            (
                OdDataset::generate_with_trips(
                    CityModel::nyc_like(seed),
                    &SimConfig {
                        num_days: days,
                        ..SimConfig::nyc(seed)
                    },
                ),
                ModelKind::Af(AfConfig::default()),
            ),
            (
                OdDataset::generate_with_trips(
                    CityModel::chengdu_like(seed),
                    &SimConfig {
                        num_days: days,
                        ..SimConfig::chengdu(seed)
                    },
                ),
                ModelKind::Bf(BfConfig::default()),
            ),
            (toy(3, 2, 120.0, 0xC0), small_bf(16)),
            (toy(4, 2, 180.0, 0xD0), small_bf(16)),
        ]
    };
    let mut cities = Vec::new();
    let mut tenants = Vec::new();
    for (city_id, ((dataset, trips), kind)) in built.into_iter().enumerate() {
        cities.push(FleetCity {
            city_id,
            dataset,
            trips: trips[..plan.t0].to_vec(),
        });
        tenants.push(Tenant { kind, trips });
    }
    (cities, tenants)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 4,
        cache_capacity: 256,
        shed_depth: 64,
        cache_enabled: true,
    }
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        workers: 2,
        lookback: LOOKBACK,
        window_capacity: WINDOW_CAPACITY,
        broker_cache_capacity: 32,
        retain_results: true,
        breaker: BreakerConfig::default(),
    }
}

/// Checkpoint seed of the fleet's base models: a fixed part of the model
/// configuration, so `--seed` varies traffic and requests only.
const CHECKPOINT_SEED: u64 = 0x5EED;
/// Measured ticks per second of `--seconds`. The tick count is fixed by
/// `--seconds`, not by a clock: the trip volume follows the time of day,
/// so a clock-bounded run would replay a different stretch of the day at
/// every speed. At this rate a run measures about `--seconds` on the
/// reference host (2 cores).
const TICKS_PER_SECOND: f64 = 7.0;

/// Sends one burst through `CLIENTS` closed-loop client threads: client
/// `k` issues requests `k, k + CLIENTS, …`, each after the previous reply,
/// and times each exactly.
fn burst(fleet: &Fleet, reqs: &[FleetRequest]) -> Vec<Answer> {
    let mut answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    reqs.iter()
                        .enumerate()
                        .skip(k)
                        .step_by(CLIENTS)
                        .map(|(i, &req)| {
                            let t = Instant::now();
                            let f = fleet.forecast(req);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            (
                                i,
                                Answer {
                                    req,
                                    source: f.source,
                                    histogram: f.histogram,
                                    ms,
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Answer)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, a)| a).collect()
    });
    answers.shrink_to_fit();
    answers
}

/// The whole serving run's state between ticks.
struct Run<'a> {
    ctx: &'a Ctx,
    plan: &'a Plan,
    fleet: Fleet,
    cities: &'a [FleetCity],
    tenants: &'a [Tenant],
    refs: Vec<FeatureStore>,
    rng: Rng64,
    next_t: usize,
    ticks: usize,
    o: Outcome,
    timed: Duration,
    answers_timed: usize,
    latency_ms: Vec<f64>,
    cache_ms: Vec<f64>,
    model_ms: [Vec<f64>; 2],
    forecast_ms: [Vec<f64>; 2],
    tick_ms: Vec<f64>,
    traced_tick_ms: Vec<f64>,
    untraced_tick_ms: Vec<f64>,
    ingest_s: f64,
    ingested: u64,
    seal_ms: Vec<f64>,
    emd_sum: f64,
    emd_cells: usize,
    sources: [u64; 2],
}

impl Run<'_> {
    fn requests(&mut self, t: usize) -> Vec<FleetRequest> {
        let shards = self.cities.len();
        (0..self.plan.burst)
            .map(|i| {
                let city = i % shards;
                let n = self.cities[city].num_regions();
                let horizon = 1 + (self.rng.next_u64() % 3) as usize;
                FleetRequest {
                    city,
                    origin: (self.rng.next_u64() % n as u64) as usize,
                    dest: (self.rng.next_u64() % n as u64) as usize,
                    t_end: t,
                    horizon,
                    step: (self.rng.next_u64() % horizon as u64) as usize,
                    deadline: DEADLINE,
                }
            })
            .collect()
    }

    /// One tick; `measured` ticks feed the end-to-end metrics.
    fn tick(&mut self, measured: bool, force_verify: bool) {
        let t = self.next_t;
        self.next_t += 1;
        let tracing = self.ctx.traced && measured && self.ticks % 2 == 1;
        trace::set_enabled(tracing);
        let started = Instant::now();
        let ingest_started = Instant::now();
        for (c, tenant) in self.tenants.iter().enumerate() {
            let shard = self.fleet.shard(c);
            {
                let _s = trace::span("serve.ingest");
                for trip in &tenant.trips[t] {
                    if shard.ingest_trip(*trip).is_err() {
                        self.o.failed += 1;
                    }
                }
            }
            self.o.attempted += tenant.trips[t].len() as u64;
            self.ingested += tenant.trips[t].len() as u64;
        }
        self.ingest_s += ingest_started.elapsed().as_secs_f64();
        for c in 0..self.cities.len() {
            let s = Instant::now();
            let _s = trace::span("serve.seal");
            self.fleet.shard(c).seal_interval(t);
            self.seal_ms.push(s.elapsed().as_secs_f64() * 1e3);
        }
        let reqs = self.requests(t);
        let answers = {
            let _s = trace::span("fleet.burst");
            burst(&self.fleet, &reqs)
        };
        let elapsed = started.elapsed();
        trace::set_enabled(false);

        // Everything below is outside the clock.
        for (c, tenant) in self.tenants.iter().enumerate() {
            for trip in &tenant.trips[t] {
                self.refs[c]
                    .push_trip(*trip)
                    .expect("generated trips are valid");
            }
            self.refs[c].seal_interval(t);
        }
        self.o.attempted += answers.len() as u64;
        for a in &answers {
            match a.source {
                FleetSource::ResultCache { .. } | FleetSource::Model { .. } => {}
                _ => self.o.failed += 1,
            }
        }
        if measured {
            self.timed += elapsed;
            let ms = elapsed.as_secs_f64() * 1e3;
            self.tick_ms.push(ms);
            if self.ctx.traced {
                if tracing {
                    self.traced_tick_ms.push(ms);
                } else {
                    self.untraced_tick_ms.push(ms);
                }
            }
            self.answers_timed += answers.len();
            for a in &answers {
                self.latency_ms.push(a.ms);
                match a.source {
                    FleetSource::ResultCache { .. } => {
                        self.cache_ms.push(a.ms);
                        self.sources[0] += 1;
                    }
                    FleetSource::Model { .. } => {
                        self.sources[1] += 1;
                        if a.req.city < 2 {
                            self.model_ms[a.req.city].push(a.ms);
                        }
                    }
                    _ => {}
                }
            }
            self.score(&answers);
        }
        if force_verify || self.ticks.is_multiple_of(VERIFY_EVERY) {
            trace::set_enabled(self.ctx.traced);
            self.verify(t, &answers);
            trace::set_enabled(false);
        }
        if measured {
            self.ticks += 1;
        }
    }

    /// Scores answers against the interval they forecast (observed cells).
    fn score(&mut self, answers: &[Answer]) {
        for a in answers {
            let ds = &self.cities[a.req.city].dataset;
            let target = a.req.t_end + 1 + a.req.step;
            if target >= ds.num_intervals() {
                continue;
            }
            if let Some(truth) = ds.tensors[target].histogram(a.req.origin, a.req.dest) {
                self.emd_sum += checks::emd(&truth, &a.histogram);
                self.emd_cells += 1;
            }
        }
    }

    /// Checks every answer of a burst bitwise against the active version's
    /// forecast on the reference store's window inputs.
    fn verify(&mut self, t: usize, answers: &[Answer]) {
        for c in 0..self.cities.len() {
            let registry = self.fleet.shard(c).registry();
            let Some(version) = registry.active_version() else {
                self.o
                    .check(false, || format!("shard {c}: no active version"));
                continue;
            };
            let model = registry.get(version).expect("active version resolves");
            let inputs = self.refs[c]
                .window_inputs(t, LOOKBACK)
                .expect("reference window is sealed");
            for h in 1..=3 {
                let mine: Vec<&Answer> = answers
                    .iter()
                    .filter(|a| a.req.city == c && a.req.horizon == h)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let started = Instant::now();
                let pred = {
                    let _s = trace::span("core.forecast");
                    model.forecast(&inputs, h)
                };
                if c < 2 {
                    self.forecast_ms[c].push(started.elapsed().as_secs_f64() * 1e3);
                }
                for p in &pred {
                    if let Err(e) = checks::simplex(p) {
                        self.o
                            .check(false, || format!("shard {c} t {t} h {h}: {e}"));
                    }
                }
                for a in mine {
                    let want = checks::cell(&pred[a.req.step], 0, a.req.origin, a.req.dest);
                    let version_ok = matches!(
                        a.source,
                        FleetSource::ResultCache { version: v } | FleetSource::Model { version: v }
                            if v == version
                    );
                    self.o.check(version_ok && a.histogram == want, || {
                        format!(
                            "shard {c} t {t} h {h}: answer {:?} from {:?} differs from the v{version} forecast {want:?}",
                            a.histogram, a.source
                        )
                    });
                }
            }
        }
    }
}

/// Removes a directory tree the run created, ignoring a missing one.
fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Bytes on disk under a directory (one level).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `serve_fleet`.
pub fn serve(ctx: &Ctx) -> Outcome {
    let ticks = ((ctx.seconds * TICKS_PER_SECOND).round() as usize).max(4);
    let ticks_a = (ticks * 7).div_ceil(10);
    let plan = Plan {
        t0: if ctx.tiny { 8 } else { 40 },
        burst: if ctx.tiny { 32 } else { 256 },
        ticks_a,
        ticks_b: ticks - ticks_a,
    };
    let work = ctx.out_dir.join(&ctx.run_id);
    remove(&work);
    let fcfg = fleet_config();
    let scfg = shard_config();
    let ckpt_seed = CHECKPOINT_SEED;

    // Set-up, several times: generate the cities and build the durable
    // fleet over the first t0 intervals. The last build serves.
    let mut setup_s = Vec::new();
    let mut generate_s = 0.0;
    let mut built = None;
    let mut durability = DurabilityConfig::new(work.join("wal0"));
    for rep in 0..SETUP_REPS {
        drop(built.take());
        remove(&durability.root);
        durability = DurabilityConfig {
            root: work.join(format!("wal{rep}")),
            wal: WalConfig::default(),
        };
        let t = Instant::now();
        let (cities, tenants) = generate(ctx, &plan);
        generate_s = t.elapsed().as_secs_f64();
        let kinds: Vec<ModelKind> = tenants.iter().map(|t| t.kind.clone()).collect();
        let fleet = Fleet::from_replay_durable(
            &fcfg,
            &cities,
            &scfg,
            |c| kinds[c].clone(),
            ckpt_seed,
            &durability,
        )
        .expect("durable fleet builds in a fresh directory");
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((cities, tenants, fleet));
    }
    let (cities, tenants, fleet) = built.expect("at least one set-up");
    let kinds: Vec<ModelKind> = tenants.iter().map(|t| t.kind.clone()).collect();
    let refs: Vec<FeatureStore> = cities
        .iter()
        .map(|c| {
            let store = FeatureStore::new(c.num_regions(), c.dataset.spec, WINDOW_CAPACITY);
            for (t, trips) in c.trips.iter().enumerate() {
                for trip in trips {
                    store.push_trip(*trip).expect("generated trips are valid");
                }
                store.seal_interval(t);
            }
            store
        })
        .collect();
    let mut run = Run {
        ctx,
        plan: &plan,
        fleet,
        cities: &cities,
        tenants: &tenants,
        refs,
        rng: Rng64::new(ctx.seed ^ 0x10AD),
        next_t: plan.t0,
        ticks: 0,
        o: Outcome::default(),
        timed: Duration::ZERO,
        answers_timed: 0,
        latency_ms: Vec::new(),
        cache_ms: Vec::new(),
        model_ms: [Vec::new(), Vec::new()],
        forecast_ms: [Vec::new(), Vec::new()],
        tick_ms: Vec::new(),
        traced_tick_ms: Vec::new(),
        untraced_tick_ms: Vec::new(),
        ingest_s: 0.0,
        ingested: 0,
        seal_ms: Vec::new(),
        emd_sum: 0.0,
        emd_cells: 0,
        sources: [0; 2],
    };
    let warm = Instant::now();
    for _ in 0..WARMUP_TICKS {
        run.tick(false, true);
    }
    let warmup_s = warm.elapsed().as_secs_f64();

    // Phase A: 70 % of the measured ticks.
    let proc0 = ProcStat::now();
    let arena0 = stod_tensor::arena::stats();
    for _ in 0..plan.ticks_a {
        run.tick(true, false);
    }

    // One adaptation cycle on the AF shard, clients idle.
    let ds0 = &cities[0].dataset;
    let adapt_dir = work.join("adapt");
    let mut adapter = CityAdapter::new(
        0,
        ds0.city.clone(),
        ds0.intervals_per_day,
        NaiveHistograms::fit(ds0, ds0.num_intervals()),
        ds0.spec.num_buckets,
        AdaptConfig {
            epochs: 4,
            holdout: 8,
            min_windows: 4,
            lookback: LOOKBACK,
            batch_size: 8,
            ..AdaptConfig::default()
        },
        adapt_dir,
    )
    .expect("adapter work dir");
    let adapt_started = Instant::now();
    let cycle = if ctx.traced {
        stod_obs::with_mode(stod_obs::ObsMode::On, || {
            stod_obs::reset();
            adapter.run_cycle(&run.fleet)
        })
    } else {
        adapter.run_cycle(&run.fleet)
    };
    let adapt_s = adapt_started.elapsed().as_secs_f64();
    run.o.attempted += 1;
    let decision = match &cycle {
        Ok(_) => format!("{:?}", adapter.decisions().last().map(|(_, d)| *d)),
        Err(e) => {
            run.o.failed += 1;
            format!("error: {e}")
        }
    };
    let obs = stod_obs::snapshot();
    let obs_s = |name: &str| obs.histogram(name).map_or(0.0, |h| h.total as f64 / 1e9);

    // Phase B: the remaining ticks, the first one verified.
    for i in 0..plan.ticks_b {
        run.tick(true, i == 0);
    }
    let proc = ProcStat::now().since(proc0);
    let arena = stod_tensor::arena::stats();

    // Books and WAL state before the fleet goes down.
    let fleet = &run.fleet;
    let snap = fleet.snapshot();
    run.o
        .check(snap.ledger_residuals().iter().all(|&r| r == 0), || {
            format!("ledger residuals {:?}", snap.ledger_residuals())
        });
    let model_invocations = snap.total(|s| s.model_invocations);
    let (mut appends, mut fsyncs, mut wal_bytes) = (0u64, 0u64, 0u64);
    for c in 0..cities.len() {
        let shard = fleet.shard(c);
        run.o
            .check(shard.flush_wal().is_ok() && !shard.wal_dead(), || {
                format!("shard {c}: WAL flush failed")
            });
        if let Some(w) = shard.wal_stats() {
            appends += w.appends;
            fsyncs += w.fsyncs;
        }
        wal_bytes += dir_bytes(&durability.shard_dir(c));
    }
    let pre: Vec<_> = (0..cities.len())
        .map(|c| fleet.shard(c).ingest_snapshot().expect("sealed window"))
        .collect();
    let resident: u64 = (0..cities.len())
        .filter_map(|c| fleet.shard(c).registry().active())
        .map(|m| m.mem_bytes())
        .sum();
    // Model init and checkpoint decode at the fleet's own shapes.
    let mut init_ms = 0.0;
    let mut decode_ms = Vec::new();
    let mut nh_ms = Vec::new();
    let mut graph_ms = (0.0, 0.0);
    if ctx.traced {
        // Graph probes at the AF shard's shapes, one window per forecast.
        graph_ms = crate::probe::graph_and_recovery(fleet.shard(0).registry().config(), 1);
        for (c, city) in cities.iter().enumerate() {
            let config = fleet.shard(c).registry().config().clone();
            let t = Instant::now();
            let model = config.build(ckpt_seed ^ c as u64);
            init_ms += t.elapsed().as_secs_f64() * 1e3;
            let bytes = model.params().to_bytes();
            let registry = Registry::new(config, std::sync::Arc::new(ServeStats::new()));
            let t = Instant::now();
            registry
                .register_store(ParamStore::from_bytes(bytes).expect("decodes"))
                .expect("registers");
            decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(NaiveHistograms::fit(&city.dataset, city.num_intervals()));
            nh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let Run {
        fleet,
        mut o,
        timed,
        answers_timed,
        latency_ms,
        cache_ms,
        model_ms,
        forecast_ms,
        tick_ms,
        traced_tick_ms,
        untraced_tick_ms,
        ingest_s,
        ingested,
        seal_ms,
        emd_sum,
        emd_cells,
        sources,
        ticks,
        ..
    } = run;
    drop(fleet);

    // Restart from the logs, several times; every retained window must
    // come back bitwise, equal to the pre-crash window and to the tensor
    // the generated trips bin into.
    let mut recover_s = Vec::new();
    let mut records = 0usize;
    trace::set_enabled(ctx.traced);
    for _ in 0..RECOVER_REPS {
        let t = Instant::now();
        let recovered = {
            let _s = trace::span("fleet.recover");
            Fleet::recover(
                &fcfg,
                &cities,
                &scfg,
                |c| kinds[c].clone(),
                ckpt_seed,
                &durability,
            )
        };
        recover_s.push(t.elapsed().as_secs_f64());
        let (fleet, report) = recovered.expect("recovery from the run's own logs");
        records = report.total_replayed();
        o.check(report.is_clean(), || {
            format!("recovery not clean: {report:?}")
        });
        for (c, before) in pre.iter().enumerate() {
            let Some(after) = fleet.shard(c).ingest_snapshot() else {
                o.check(false, || format!("shard {c}: no window after recovery"));
                continue;
            };
            o.check(
                after.first == before.first && after.tensors.len() == before.tensors.len(),
                || format!("shard {c}: recovered window shape differs"),
            );
            for (j, (a, b)) in after.tensors.iter().zip(&before.tensors).enumerate() {
                let t_abs = after.first + j;
                let rebuilt = OdTensor::from_trips(
                    cities[c].num_regions(),
                    &cities[c].dataset.spec,
                    &tenants[c].trips[t_abs],
                );
                o.check(
                    a.data.data() == b.data.data() && a.data.data() == rebuilt.data.data(),
                    || format!("shard {c}: interval {t_abs} differs after recovery"),
                );
            }
        }
    }
    trace::set_enabled(false);
    let mut wal_open_ms = Vec::new();
    if ctx.traced {
        for c in 0..cities.len() {
            let t = Instant::now();
            let opened = TripWal::open(
                &durability.shard_dir(c),
                c as u32,
                WINDOW_CAPACITY,
                durability.wal,
            );
            wal_open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            o.check(opened.is_ok(), || format!("shard {c}: WAL reopen failed"));
        }
    }
    remove(&work);
    o.check(emd_cells > 0, || {
        "no observed target cells among scored answers".into()
    });
    let failed = o.failed;
    o.check(failed == 0, || format!("{failed} failed operations"));

    let model_median = |c: usize| median(&model_ms[c]);
    o.e2e("setup_s", median(&setup_s) + warmup_s);
    o.e2e(
        "throughput_per_s",
        answers_timed as f64 / timed.as_secs_f64(),
    );
    o.e2e("latency_ms", median(&latency_ms));
    o.e2e(
        "model_latency_ms",
        0.5 * (model_median(0) + model_median(1)),
    );
    o.e2e("peak_rss_mb", report::peak_rss_mb());
    o.e2e("forecast_emd", emd_sum / emd_cells.max(1) as f64);

    let p99 = tail_quantile(&latency_ms, 0.99);
    let answered = (sources[0] + sources[1]).max(1) as f64;
    if ctx.traced {
        let spans = trace::spans();
        let (prop_ms, gemm_ms) = graph_ms;
        let reuse = arena.reuses - arena0.reuses;
        let fresh = arena.fresh - arena0.fresh;
        let forecast = 0.5 * (median(&forecast_ms[0]) + median(&forecast_ms[1]));
        o.layer("traffic.generate_s", generate_s);
        o.layer("core.model_init_ms", init_ms);
        o.layer("graph.propagate_ms", prop_ms);
        o.layer("tensor.recovery_gemm_ms", gemm_ms);
        o.layer("core.forecast_ms", forecast);
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
        o.layer("baselines.nh_fit_ms", median(&nh_ms));
        o.layer("serve.ingest_us", ingest_s * 1e6 / ingested.max(1) as f64);
        o.layer("serve.seal_ms", median(&seal_ms));
        o.layer("serve.wal_appends", appends as f64);
        o.layer("serve.wal_fsyncs", fsyncs as f64);
        o.layer("serve.wal_bytes", wal_bytes as f64);
        o.layer("serve.wal_open_ms", median(&wal_open_ms));
        o.layer("fleet.cache_hit_ratio", sources[0] as f64 / answered);
        o.layer("fleet.cache_hit_us", median(&cache_ms) * 1e3);
        o.layer("fleet.model_invocations", model_invocations as f64);
        o.layer(
            "fleet.broker_wait_ms",
            0.5 * (model_median(0) - median(&forecast_ms[0]) + model_median(1)
                - median(&forecast_ms[1])),
        );
        o.layer("fleet.latency_p99_ms", p99.unwrap_or(0.0));
        o.layer("fleet.recover_records", records as f64);
        o.layer("fleet.recover_s", median(&recover_s));
        o.layer("adapt.cycle_s", adapt_s);
        o.layer("adapt.fine_tune_s", obs_s("adapt/latency/fine_tune"));
        o.layer(
            "adapt.shadow_eval_ms",
            obs_s("adapt/latency/shadow_eval") * 1e3,
        );
        o.layer("adapt.promote_ms", obs_s("adapt/latency/promote") * 1e3);
        o.layer(
            "trace.overhead_ratio",
            median(&traced_tick_ms) / median(&untraced_tick_ms),
        );
        o.detail("spans_recorded", spans.len().to_string());
    }
    o.detail("ticks", ticks.to_string());
    o.detail("setup_reps_s", report::num_array(&setup_s));
    o.detail("warmup_s", report::num(warmup_s));
    o.detail("tick_ms", report::num_array(&tick_ms));
    o.detail("adapt_s", report::num(adapt_s));
    o.detail("adapt_decision", report::string(&decision));
    o.detail("recover_s", report::num_array(&recover_s));
    o.detail("recover_records", records.to_string());
    o.detail("latency_p99_ms", p99.map_or("null".into(), report::num));
    o.detail("model_invocations", model_invocations.to_string());
    o.detail("cache_hit_ratio", report::num(sources[0] as f64 / answered));
    o.detail("wal_appends", appends.to_string());
    o.detail("wal_fsyncs", fsyncs.to_string());
    o.detail(
        "model_latency_ms_by_shard",
        report::num_array(&[model_median(0), model_median(1)]),
    );
    o
}
