//! The three workloads: how each is set up, driven for a timed phase,
//! and timed layer by layer through direct calls.

use crate::lane::{InprocLane, QueryPool, Shape, Stop, WireLane};
use crate::measure::workload_cpu;
use crate::oracle::{GenTable, ModelOracle, Oracle, Tally};
use crate::trace::{now_ns, ClientLog, FlushLog, PublishSpan, Timed};
use hd_datasets::synthetic::SyntheticSpec;
use hd_linalg::rng::seeded;
use hd_linalg::{
    BitVector, BoundCascade, CascadePlan, QueryBatch, QueryBatchBuilder, SearchMemory,
};
use hd_serve::net::{WireClient, WireConfig, WireServer};
use hd_serve::{Searchable, ServeConfig, Server, ShardedSearcher};
use hdc::Encoder;
use imc_sim::{AmMapping, ArraySpec, MappingStats, MappingStrategy};
use memhd::{MemhdConfig, MemhdModel};
use rand::Rng;
use std::borrow::Borrow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// MEMHD 128x128 over TCP: 32-query frames, 8 in flight, k = 1.
    Burst,
    /// 2048 x 2048 cascade AM on 2 shards, in process: 64-query frames,
    /// 8 in flight, k = 5.
    Wide,
    /// Two mapped MEMHD models over UDS: two 1-query callers (k = 1 and
    /// k = 3) and a model swap every few hundred frames.
    Trickle,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Burst, Kind::Wide, Kind::Trickle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Burst => "wire_flagship_burst",
            Kind::Wide => "inproc_wide_topk5",
            Kind::Trickle => "uds_trickle_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Seed of the served models and the data they are trained on: each
/// workload serves one fixed model, and `--seed` generates its traffic
/// (the order of the test queries, or the perturbed wide queries).
pub const MODEL_SEED: u64 = 0x004d_454d_4844;

/// Per-class sample budget of the fmnist-like preset.
const TRAIN_PER_CLASS: usize = 200;
const TEST_PER_CLASS: usize = 100;
/// The paper's one-array configuration: D = 128 rows, C = 128 columns.
const MEMHD_DIM: usize = 128;
const MEMHD_COLUMNS: usize = 128;

/// The wide AM: 2048 centroids of 2048 bits in 64 classes.
const WIDE_ROWS: usize = 2048;
const WIDE_DIM: usize = 2048;
const WIDE_CLASSES: usize = 64;
const WIDE_POOL: usize = 2048;
/// Queries the cascade tuner sees.
const TUNE_SAMPLE: usize = 256;

/// Trickle caller A swaps the served model after this many of its frames.
const PUBLISH_EVERY: u64 = 512;

/// Registry generations a run may reach.
const MAX_GENERATIONS: usize = 1 << 16;

/// Time spent in each set-up step that has a per-layer metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub encode_us_per_query: f64,
    pub tune_ms: f64,
    /// The benchmark's own oracle; excluded from `setup_s`.
    pub oracle_s: f64,
}

enum Lanes {
    Wire(Vec<WireLane>),
    Inproc(Box<InprocLane>),
}

/// Inputs of the direct per-layer calls.
struct LayerInputs {
    /// Rows of the (first) served model.
    memory: SearchMemory,
    flush: usize,
    k: usize,
    cascade: Option<(CascadePlan, Vec<usize>, Arc<ShardedSearcher>)>,
    mapping: Option<Arc<AmMapping>>,
}

/// A workload, set up and ready for timed phases.
pub struct Workload {
    seed: u64,
    server: Arc<Server>,
    wire: Option<WireServer>,
    models: Vec<Arc<dyn Searchable>>,
    /// Index of the model currently published.
    current: usize,
    /// Frames the publishing caller has sent across phases.
    publisher_frames: u64,
    oracle: Oracle,
    pool: QueryPool,
    lanes: Lanes,
    layers: LayerInputs,
    pub setup: SetupTimes,
    /// Failures seen during warm-up.
    pub warmup_failed: u64,
}

/// What one timed phase produced.
pub struct Phase {
    pub tally: Tally,
    pub wall: Duration,
    pub cpu: Duration,
    pub queries: u64,
    pub batches: u64,
    pub full_flushes: u64,
    pub shed: u64,
    pub logs: Vec<ClientLog>,
    pub publishes: Vec<PublishSpan>,
    pub slices: Vec<SliceStat>,
}

/// One slice of a phase.
#[derive(Debug, Clone, Copy)]
pub struct SliceStat {
    pub answered: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub latency: Option<crate::measure::LatencySummary>,
}

impl SliceStat {
    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_query(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.cpu.as_secs_f64() * 1e6 / self.answered as f64
        }
    }

    pub fn p50_us(&self) -> f64 {
        self.latency.map_or(0.0, |l| l.p50_us)
    }

    pub fn tail_us(&self) -> f64 {
        self.latency.map_or(0.0, |l| l.tail_us)
    }
}

/// Work counts that depend on the seed alone, never on timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Share of row-dimensions the cascade scores (0 without a cascade).
    pub cascade_activation: f64,
    /// Packed words the sweep reads per query.
    pub words_per_query: f64,
    pub imc: Option<MappingStats>,
}

/// Direct-call timings of single layers, outside the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    pub counters: Counters,
    pub kernel_topk_ns: f64,
    pub kernel_winners_ns: f64,
    pub cascade_topk_ns: f64,
    pub fanout_us_per_flush: f64,
    pub imc_search_ns: f64,
}

/// Publishes model `idx` (wrapped for tracing when `log` is given) as
/// the next generation. Only one thread publishes per run.
fn publish(
    server: &Server,
    models: &[Arc<dyn Searchable>],
    gens: &GenTable,
    idx: usize,
    log: Option<&Arc<FlushLog>>,
) -> PublishSpan {
    let generation = server.generation() + 1;
    gens.set(generation, idx);
    let model = match log {
        Some(log) => Arc::new(Timed::new(Arc::clone(&models[idx]), generation, Arc::clone(log)))
            as Arc<dyn Searchable>,
        None => Arc::clone(&models[idx]),
    };
    let start_ns = now_ns();
    let got = server.publish(model).expect("models share one dimensionality");
    assert_eq!(got, generation, "a single publisher owns the registry");
    PublishSpan { start_ns, end_ns: now_ns(), generation }
}

/// Starts the micro-batcher with every workload's 200 µs flush deadline.
fn start_server(model: Arc<dyn Searchable>, max_batch: usize) -> Arc<Server> {
    let config =
        ServeConfig { max_batch, max_delay: Duration::from_micros(200), ..Default::default() };
    Arc::new(Server::start(model, config).expect("valid serve config"))
}

fn dataset() -> hd_datasets::Dataset {
    SyntheticSpec::fmnist_like(TRAIN_PER_CLASS, TEST_PER_CLASS)
        .generate(MODEL_SEED)
        .expect("valid preset")
}

/// Trains the flagship MEMHD model on the fmnist-like preset.
fn train(ds: &hd_datasets::Dataset, setup: &mut SetupTimes) -> MemhdModel {
    let config = MemhdConfig::new(MEMHD_DIM, MEMHD_COLUMNS, ds.num_classes)
        .expect("valid MEMHD shape")
        .with_seed(MODEL_SEED);
    let t = Instant::now();
    let model = MemhdModel::fit(&config, &ds.train_features, &ds.train_labels).expect("fit");
    setup.train_s = t.elapsed().as_secs_f64();
    model
}

fn encode_test_set(
    model: &MemhdModel,
    ds: &hd_datasets::Dataset,
    setup: &mut SetupTimes,
) -> QueryBatch {
    let t = Instant::now();
    let batch = model.encoder().encode_binary_batch(&ds.test_features).expect("encode");
    setup.encode_us_per_query = t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
    batch
}

/// The test queries and their labels in a seeded order.
fn shuffled(batch: &QueryBatch, labels: &[usize], seed: u64) -> (QueryBatch, Vec<usize>) {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    let mut rng = seeded(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut b = QueryBatchBuilder::with_capacity(batch.dim(), batch.len());
    for &q in &order {
        b.push(batch.query(q)).expect("same width");
    }
    (b.take_batch().expect("non-empty"), order.iter().map(|&q| labels[q]).collect())
}

/// `n` wide queries, 5%-perturbed copies of a stored row: 99% of them
/// of the dense row 0, every hundredth of a random other row.
fn wide_queries(
    rows: &[BitVector],
    classes: &[usize],
    n: usize,
    rng: &mut impl Rng,
) -> (Vec<BitVector>, Vec<usize>) {
    (0..n)
        .map(|i| {
            let base = if i % 100 != 0 { 0 } else { rng.gen_range(1..rows.len()) };
            let mut q = rows[base].clone();
            for _ in 0..WIDE_DIM / 20 {
                let bit = rng.gen_range(0..WIDE_DIM);
                q.set(bit, !q.get(bit));
            }
            (q, classes[base])
        })
        .unzip()
}

fn memhd_oracle(model: &MemhdModel, pool: &QueryBatch, kmax: usize) -> ModelOracle {
    let am = model.binary_am();
    ModelOracle::new(am.search_memory(), am.class_labels().to_vec(), pool, kmax)
}

impl Workload {
    /// Builds everything the timed phase needs, including warm-up.
    pub fn setup(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::Burst => Self::setup_burst(seed),
            Kind::Wide => Self::setup_wide(seed),
            Kind::Trickle => Self::setup_trickle(seed),
        }
    }

    fn setup_burst(seed: u64) -> Workload {
        let mut setup = SetupTimes::default();
        let ds = dataset();
        let model = train(&ds, &mut setup);
        let queries = encode_test_set(&model, &ds, &mut setup);
        let t = Instant::now();
        let (queries, labels) = shuffled(&queries, &ds.test_labels, seed);
        let gens = GenTable::new(MAX_GENERATIONS);
        let oracle = Oracle { models: vec![memhd_oracle(&model, &queries, 1)], labels, gens };
        setup.oracle_s = t.elapsed().as_secs_f64();
        let pool = QueryPool::from_batch(&queries);
        let layers = LayerInputs {
            memory: model.binary_am().search_memory().clone(),
            flush: 64,
            k: 1,
            cascade: None,
            mapping: None,
        };
        let model: Arc<dyn Searchable> = Arc::new(model);
        oracle.gens.set(1, 0);
        let server = start_server(Arc::clone(&model), 64);
        let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).expect("wire");
        let addr = wire.listen_tcp("127.0.0.1:0").expect("loopback TCP listener");
        let client = WireClient::connect_tcp(addr).expect("connect over TCP");
        let shape = Shape { range: 0..pool.len(), frame: 32, window: 8, k: 1 };
        let mut w = Workload {
            seed,
            server,
            wire: Some(wire),
            models: vec![model],
            current: 0,
            publisher_frames: 0,
            oracle,
            pool,
            lanes: Lanes::Wire(vec![WireLane::new(client, shape, seed)]),
            layers,
            setup,
            warmup_failed: 0,
        };
        w.warm_up(64);
        w
    }

    fn setup_wide(seed: u64) -> Workload {
        let mut setup = SetupTimes::default();
        let mut rng = seeded(MODEL_SEED);
        let mut density_bits = |density: f32| -> BitVector {
            BitVector::from_bools(
                &(0..WIDE_DIM).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>(),
            )
        };
        // One dense centroid, four moderate ones, and a near-empty rest:
        // the graded popcount profile of the top-k cascade bench.
        let rows: Vec<BitVector> = (0..WIDE_ROWS)
            .map(|r| {
                density_bits(if r == 0 {
                    0.5
                } else if r < 5 {
                    0.3
                } else {
                    0.005
                })
            })
            .collect();
        let classes: Vec<usize> = (0..WIDE_ROWS).map(|r| r % WIDE_CLASSES).collect();
        let (queries, labels) = wide_queries(&rows, &classes, WIDE_POOL, &mut seeded(seed));
        // The plan is tuned on a fixed sample of the same traffic.
        let (sample, _) =
            wide_queries(&rows, &classes, TUNE_SAMPLE, &mut seeded(MODEL_SEED ^ 0x7475_6e65));
        let memory = SearchMemory::from_rows(&rows).expect("rows share a width");
        let batch = QueryBatch::from_vectors(&queries).expect("queries share a width");
        let t = Instant::now();
        let oracle = Oracle {
            models: vec![ModelOracle::new(&memory, classes.clone(), &batch, 5)],
            labels,
            gens: GenTable::new(MAX_GENERATIONS),
        };
        setup.oracle_s = t.elapsed().as_secs_f64();
        let sample = QueryBatch::from_vectors(&sample).expect("sample");
        let t = Instant::now();
        let sharded = Arc::new(
            ShardedSearcher::with_cascade_tuned(memory.clone(), classes.clone(), 2, &sample)
                .expect("tuned cascade"),
        );
        setup.tune_ms = t.elapsed().as_secs_f64() * 1e3;
        let plan = sharded.cascade_plan().expect("a tuned plan is installed").clone();
        let model: Arc<dyn Searchable> = Arc::clone(&sharded) as Arc<dyn Searchable>;
        oracle.gens.set(1, 0);
        let server = start_server(Arc::clone(&model), 256);
        let pool = QueryPool::from_batch(&batch);
        let shape = Shape { range: 0..pool.len(), frame: 64, window: 8, k: 5 };
        let mut w = Workload {
            seed,
            server,
            wire: None,
            models: vec![model],
            current: 0,
            publisher_frames: 0,
            oracle,
            pool,
            lanes: Lanes::Inproc(Box::new(InprocLane::new(shape, seed))),
            layers: LayerInputs {
                memory,
                flush: 256,
                k: 5,
                cascade: Some((plan, classes, sharded)),
                mapping: None,
            },
            setup,
            warmup_failed: 0,
        };
        w.warm_up(16);
        w
    }

    fn setup_trickle(seed: u64) -> Workload {
        let mut setup = SetupTimes::default();
        let ds = dataset();
        let model_a = train(&ds, &mut setup);
        // The second model shares the first one's encoder, so the same
        // encoded queries mean the same thing to both; it differs in its
        // initialisation and training seed.
        let encoded_train =
            hdc::encode_dataset(model_a.encoder(), &ds.train_features).expect("encode train set");
        let config_b = MemhdConfig::new(MEMHD_DIM, MEMHD_COLUMNS, ds.num_classes)
            .expect("valid MEMHD shape")
            .with_seed(MODEL_SEED ^ 0x5eed_0b0b);
        let model_b = MemhdModel::fit_encoded(
            &config_b,
            model_a.encoder().clone(),
            &encoded_train,
            &ds.train_labels,
        )
        .expect("fit second model");
        let queries = encode_test_set(&model_a, &ds, &mut setup);
        let t = Instant::now();
        let (queries, labels) = shuffled(&queries, &ds.test_labels, seed);
        let oracle = Oracle {
            models: vec![memhd_oracle(&model_a, &queries, 3), memhd_oracle(&model_b, &queries, 3)],
            labels,
            gens: GenTable::new(MAX_GENERATIONS),
        };
        setup.oracle_s = t.elapsed().as_secs_f64();
        let map = |m: &MemhdModel| {
            Arc::new(
                AmMapping::new(m.binary_am(), ArraySpec::default(), MappingStrategy::Basic)
                    .expect("map AM"),
            )
        };
        let (map_a, map_b) = (map(&model_a), map(&model_b));
        let models: Vec<Arc<dyn Searchable>> =
            vec![Arc::clone(&map_a) as Arc<dyn Searchable>, map_b as Arc<dyn Searchable>];
        oracle.gens.set(1, 0);
        let server = start_server(Arc::clone(&models[0]), 64);
        let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).expect("wire");
        // A path relative to the working directory stays inside the
        // checkout and short enough for a socket address.
        let sock = PathBuf::from(format!("servebench-{}.sock", std::process::id()));
        wire.listen_uds(&sock).expect("UDS listener");
        let pool = QueryPool::from_batch(&queries);
        let half = pool.len() / 2;
        let lane = |range, k| {
            let client = WireClient::connect_uds(&sock).expect("connect over UDS");
            WireLane::new(client, Shape { range, frame: 1, window: 1, k }, seed)
        };
        let lanes = vec![lane(0..half, 1), lane(half..pool.len(), 3)];
        let mut w = Workload {
            seed,
            server,
            wire: Some(wire),
            models,
            current: 0,
            publisher_frames: 0,
            oracle,
            pool,
            lanes: Lanes::Wire(lanes),
            layers: LayerInputs {
                memory: model_a.binary_am().search_memory().clone(),
                flush: 2,
                k: 3,
                cascade: None,
                mapping: Some(map_a),
            },
            setup,
            warmup_failed: 0,
        };
        w.warm_up(200);
        w
    }

    /// Drives `frames` frames per caller before any timed phase.
    fn warm_up(&mut self, frames: u64) {
        let (oracle, pool) = (&self.oracle, &self.pool);
        let mut failed = 0;
        match &mut self.lanes {
            Lanes::Wire(lanes) => {
                for lane in lanes {
                    lane.run(oracle, pool, Stop::After(frames), || {});
                    failed += lane.tally.failed();
                }
            }
            Lanes::Inproc(lane) => {
                lane.run(&self.server, oracle, pool, Stop::After(frames));
                failed += lane.tally.failed();
            }
        }
        self.warmup_failed += failed;
    }

    /// Static mapping metrics (the paper's Table II row), when mapped.
    pub fn mapping_stats(&self) -> Option<MappingStats> {
        self.layers.mapping.as_ref().map(|m| m.stats())
    }

    /// The cascade plan's stage ends, when a cascade serves.
    pub fn plan_ends(&self) -> Option<Vec<usize>> {
        self.layers.cascade.as_ref().map(|(plan, _, _)| plan.ends().to_vec())
    }

    /// One closed-loop phase of `seconds`, run as `slices` equal slices
    /// back to back (each collects its in-flight answers before the next
    /// starts). With `log`, the served model is republished inside a
    /// timing wrapper first, and callers record client spans.
    pub fn phase(&mut self, seconds: f64, slices: usize, log: Option<&Arc<FlushLog>>) -> Phase {
        if log.is_some() {
            publish(&self.server, &self.models, &self.oracle.gens, self.current, log);
        }
        let mut phase = self.slice(seconds / slices as f64, log);
        for _ in 1..slices {
            let next = self.slice(seconds / slices as f64, log);
            phase.tally.merge(next.tally);
            phase.wall += next.wall;
            phase.cpu += next.cpu;
            phase.queries += next.queries;
            phase.batches += next.batches;
            phase.full_flushes += next.full_flushes;
            phase.shed += next.shed;
            phase.logs.extend(next.logs);
            phase.publishes.extend(next.publishes);
            phase.slices.extend(next.slices);
        }
        phase
    }

    fn slice(&mut self, seconds: f64, log: Option<&Arc<FlushLog>>) -> Phase {
        let (server, models, oracle, pool) = (&self.server, &self.models, &self.oracle, &self.pool);
        let seed = self.seed;
        let traced = log.is_some();
        let before = server.stats();
        let cpu0 = workload_cpu();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let mut publishes = Vec::new();
        let mut current = self.current;
        let publisher_frames = &mut self.publisher_frames;
        let (tally, logs) = match &mut self.lanes {
            Lanes::Inproc(lane) => {
                lane.reset(seed, traced);
                lane.run(server, oracle, pool, Stop::At(deadline));
                (lane.tally.clone(), lane.log.take().into_iter().collect())
            }
            Lanes::Wire(lanes) => {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    lane.reset(seed.wrapping_add(i as u64), traced);
                }
                std::thread::scope(|s| {
                    let (first, rest) = lanes.split_first_mut().expect("at least one caller");
                    let others: Vec<_> = rest
                        .iter_mut()
                        .map(|lane| {
                            s.spawn(move || lane.run(oracle, pool, Stop::At(deadline), || {}))
                        })
                        .collect();
                    // The first caller publishes when the workload swaps
                    // models.
                    let swaps = models.len() > 1;
                    first.run(oracle, pool, Stop::At(deadline), || {
                        *publisher_frames += 1;
                        if swaps && publisher_frames.is_multiple_of(PUBLISH_EVERY) {
                            current = (current + 1) % models.len();
                            publishes.push(publish(server, models, &oracle.gens, current, log));
                        }
                    });
                    for h in others {
                        h.join().expect("caller thread panicked");
                    }
                });
                let mut tally = Tally::new(seed);
                let mut logs = Vec::new();
                for lane in lanes.iter_mut() {
                    tally.merge(lane.tally.clone());
                    logs.extend(lane.log.take());
                }
                (tally, logs)
            }
        };
        let wall = t0.elapsed();
        let cpu = workload_cpu() - cpu0;
        let after = server.stats();
        self.current = current;
        let slice = SliceStat {
            answered: tally.answered,
            wall,
            cpu,
            latency: crate::measure::summarize(&tally.latency),
        };
        Phase {
            tally,
            wall,
            cpu,
            queries: after.queries - before.queries,
            batches: after.batches - before.batches,
            full_flushes: after.full_flushes - before.full_flushes,
            shed: after.shed - before.shed,
            logs,
            publishes,
            slices: vec![slice],
        }
    }

    /// The seed-determined work counts, from direct calls on the
    /// workload's queries at its flush size.
    pub fn counters(&self) -> Counters {
        let l = &self.layers;
        let words = (l.memory.rows() * l.memory.cols().div_ceil(64)) as f64;
        let cascade_activation = match &l.cascade {
            Some((plan, _, _)) => {
                let bound =
                    BoundCascade::new(Arc::new(l.memory.clone()), plan.clone()).expect("bind plan");
                let mut stats = None::<hd_linalg::CascadeStats>;
                for b in &flush_batches(&self.pool, self.server.dim(), l.flush) {
                    let r = bound.search_topk(b, l.k).expect("cascade top-k");
                    match &mut stats {
                        Some(s) => s.merge(r.stats()),
                        None => stats = Some(r.stats().clone()),
                    }
                }
                stats.expect("at least one flush").activation_fraction()
            }
            None => 0.0,
        };
        Counters {
            cascade_activation,
            words_per_query: if l.cascade.is_some() { words * cascade_activation } else { words },
            imc: self.mapping_stats(),
        }
    }

    /// Times the kernel, cascade, shard and mapping layers by direct
    /// calls on the workload's queries at its flush size.
    pub fn direct(&self) -> Direct {
        let l = &self.layers;
        let batches = flush_batches(&self.pool, self.server.dim(), l.flush);
        let mut d = Direct {
            counters: self.counters(),
            kernel_topk_ns: ns_per_query(&batches, |b| {
                std::hint::black_box(l.memory.topk_batch(b, l.k).expect("top-k sweep"));
            }),
            kernel_winners_ns: ns_per_query(&batches, |b| {
                std::hint::black_box(l.memory.winners_batch(b).expect("winners sweep"));
            }),
            cascade_topk_ns: 0.0,
            fanout_us_per_flush: 0.0,
            imc_search_ns: 0.0,
        };
        if let Some((plan, classes, sharded)) = &l.cascade {
            let bound = BoundCascade::new(Arc::new(l.memory.clone()), plan.clone()).expect("bind");
            d.cascade_topk_ns = ns_per_query(&batches, |b| {
                std::hint::black_box(bound.search_topk(b, l.k).expect("cascade top-k"));
            });
            let single =
                ShardedSearcher::with_cascade(l.memory.clone(), classes.clone(), 1, plan.clone())
                    .expect("single-shard searcher");
            let shared: Vec<Arc<QueryBatch>> = batches.iter().cloned().map(Arc::new).collect();
            let sharded_ns = ns_per_query(&shared, |b| {
                std::hint::black_box(sharded.search_topk(Arc::clone(b), l.k).expect("sharded"));
            });
            let single_ns = ns_per_query(&shared, |b| {
                std::hint::black_box(single.search_topk(Arc::clone(b), l.k).expect("one shard"));
            });
            d.fanout_us_per_flush = (sharded_ns - single_ns) * l.flush as f64 / 1e3;
        }
        if let Some(mapping) = &l.mapping {
            d.imc_search_ns = ns_per_query(&batches, |b| {
                std::hint::black_box(mapping.search_batch_topk(b, l.k).expect("mapped top-k"));
            });
        }
        d
    }

    /// Stops the front-end and the server, joining their threads.
    pub fn teardown(self) {
        drop(self.lanes);
        if let Some(wire) = &self.wire {
            wire.shutdown();
        }
        self.server.shutdown();
    }
}

/// The pool cut into whole batches of `flush` queries.
fn flush_batches(pool: &QueryPool, dim: usize, flush: usize) -> Vec<QueryBatch> {
    (0..pool.len() / flush)
        .map(|i| {
            let mut b = QueryBatchBuilder::with_capacity(dim, flush);
            b.push_packed_words(pool.frame(i * flush, flush)).expect("whole queries");
            b.take_batch().expect("non-empty batch")
        })
        .collect()
}

/// Shortest time spent per direct-call measurement.
const DIRECT_MIN: Duration = Duration::from_millis(200);

/// Mean nanoseconds per query of `f` over every batch, repeated until
/// at least [`DIRECT_MIN`] has passed.
fn ns_per_query<B: Borrow<QueryBatch>>(batches: &[B], mut f: impl FnMut(&B)) -> f64 {
    let t = Instant::now();
    let mut queries = 0usize;
    while queries == 0 || t.elapsed() < DIRECT_MIN {
        for b in batches {
            f(b);
            queries += b.borrow().len();
        }
    }
    t.elapsed().as_nanos() as f64 / queries as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets up, runs a short traced phase, and returns what must not
    /// depend on timing: the work counters and each connection's wire
    /// bytes per answer.
    fn deterministic(kind: Kind, seed: u64) -> (Counters, Vec<f64>) {
        let mut w = Workload::setup(kind, seed);
        let log = Arc::new(FlushLog::default());
        let p = w.phase(0.3, 1, Some(&log));
        assert_eq!(p.tally.failed(), 0, "{kind:?}");
        assert!(p.tally.answered > 0, "{kind:?}");
        let bytes = p.logs.iter().map(|l| l.bytes_per_answer()).collect();
        let counters = w.counters();
        w.teardown();
        (counters, bytes)
    }

    #[test]
    fn deterministic_counters_repeat_for_one_seed() {
        for kind in Kind::ALL {
            let first = deterministic(kind, 3);
            assert_eq!(first, deterministic(kind, 3), "{kind:?}");
            match kind {
                Kind::Burst => assert_eq!(first.1, vec![(32.0 + 32.0 * 16.0) / 32.0 + 52.0]),
                Kind::Trickle => {
                    assert_eq!(first.1, vec![48.0 + 52.0, 48.0 + 76.0]);
                    let imc = first.0.imc.expect("trickle is mapped");
                    assert_eq!((imc.cycles, imc.arrays, imc.utilization), (1, 1, 1.0));
                }
                Kind::Wide => {
                    assert!(first.0.cascade_activation > 0.0 && first.0.cascade_activation < 1.0);
                }
            }
        }
    }
}
