//! The three workloads, their set-up, phases, correctness gate and metrics.

use crate::layers;
use crate::loadgen::{self, Conn, Frames, Op, OpKind, PhaseResult};
use crate::stats::{self, StepLimits, StepOutcome};
use crate::trace::{Recorder, Span};
use crate::Args;
use duet_core::{query_to_id_predicates, DuetConfig, DuetEstimator, EpochStats, IdPredicate};
use duet_data::datasets::{census_like, dmv_like};
use duet_data::Table;
use duet_query::{exact_cardinality, label_workload, q_error, Query, WorkloadSpec};
use duet_serve::wire::frame;
use duet_serve::{
    DuetServer, OnlineConfig, OnlineTrainerHandle, ServeConfig, WireClient, WireConfig, WireHandle,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fixed workload parameters (see README.md for why each value was chosen).
// ---------------------------------------------------------------------------

/// Set-ups timed at the start of a run; the last one serves the run.
const SET_UPS_AT_START: usize = 2;
/// Set-ups timed at the end of a run, after the serving stack is shut
/// down. `setup_s` is the shortest of all five.
const SET_UPS_AT_END: usize = 3;
/// Most windows the nominal phase is split into (each keeps ≥ 1,000
/// requests): `p50_us` is the median of the per-window medians and
/// `p99_us` the lowest per-window p99.
const NOMINAL_WINDOWS: usize = 32;
/// Windows a ladder step is judged over (medians of the per-window p99
/// and failed share), so one scheduling hiccup does not fail a step.
const LADDER_WINDOWS: usize = 5;
/// Share of `--seconds` spent in the nominal phase; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.4;
/// The same share on `drift-census`, whose nominal phase holds the drift.
const DRIFT_SHARE: f64 = 0.6;
/// Walks up the ladder per run; `max_rate_qps` is the highest rate that
/// passed in any of them, so one walk cut short by a burst of load from
/// outside the program does not set it.
const LADDER_WALKS: usize = 2;
/// Ladder steps that share the ladder's seconds. The ladders run to twice
/// the rate the baseline sustains and a walk stops after three failing
/// steps, so the two walks of a run take about this many steps at the
/// baseline.
const LADDER_SLOTS: f64 = 28.0;
/// Largest median send lateness before a phase is invalid (µs).
const LATE_LIMIT_US: f64 = 1_000.0;
/// Largest overrun of the sender past its last scheduled send (µs).
const OVERRUN_LIMIT_US: f64 = 20_000.0;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(3);
/// Seed of each workload's tables and training: a workload is a fixed
/// dataset and model, like a benchmark dataset; `--seed` drives everything
/// sent to the server (requests, arrival times, ingested rows, feedback).
const DATA_SEED: u64 = 20_240_101;
/// Background-trainer tick interval of the online loop.
const TRAINER_INTERVAL: Duration = Duration::from_millis(20);

/// Per-workload serving parameters.
struct Plan {
    nominal_rate: f64,
    ladder: Vec<f64>,
    limits: StepLimits,
}

fn ladder(lo: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| (lo * step.powi(i as i32)).round()).collect()
}

fn plan(workload: &str) -> Plan {
    // A failed request counts as a latency miss, so more than 1% failed
    // already fails the p99; the failed-share limit says the same.
    let limits = StepLimits { p99_us: 25_000.0, failed_share: 0.01 };
    match workload {
        "rand-dmv" => Plan { nominal_rate: 4_000.0, ladder: ladder(24_000.0, 1.05, 24), limits },
        "hot-fleet" => Plan { nominal_rate: 2_000.0, ladder: ladder(4_000.0, 1.06, 10), limits },
        // 800 reads/s over two connections keeps a half-second retrain
        // stall under the 256-request pipeline window of each connection.
        _ => Plan { nominal_rate: 800.0, ladder: ladder(90_000.0, 1.05, 26), limits },
    }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// The run's result: op counts and metrics. A run that fails the
/// correctness gate returns an error instead and prints no result.
pub struct Report {
    /// Operations attempted in the nominal phase.
    pub attempted: u64,
    /// Of those, operations answered non-`Ok` or not at all.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub(crate) fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Print a human-readable line now (before the JSON result line).
    pub(crate) fn note(&self, line: String) {
        println!("# {line}");
    }

    /// Print the JSON result line.
    pub fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A correctness-gate failure, naming the request.
fn gate(workload: &str, phase: &str, request: u64, what: String) -> String {
    format!("correctness gate failed: {workload} {phase} request {request}: {what}")
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// One estimation request: the table it targets and its encoded form.
#[derive(Clone)]
pub(crate) struct ReadQuery {
    pub(crate) table: usize,
    pub(crate) query: Query,
    pub(crate) preds: Vec<Vec<IdPredicate>>,
    pub(crate) intervals: Vec<(u32, u32)>,
}

/// A registered model's training inputs.
struct ModelInput {
    name: String,
    table: Table,
    train: Vec<Query>,
    cards: Vec<u64>,
    config: DuetConfig,
    seed: u64,
}

impl ModelInput {
    fn train(&self, epochs: &mut Vec<EpochStats>) -> DuetEstimator {
        DuetEstimator::train_hybrid_with_stats(
            &self.table,
            &self.train,
            &self.cards,
            &self.config,
            self.seed,
            |s| epochs.push(s.clone()),
        )
    }
}

fn encode_read(q: &ReadQuery, frames: &mut Frames) -> u32 {
    frames.push(|buf| frame::encode_request(buf, 0, q.table as u32, 0, &q.preds, &q.intervals))
}

fn read_query(table: usize, schema: &Table, query: Query) -> ReadQuery {
    let preds = query_to_id_predicates(schema, &query);
    let intervals = query.column_intervals(schema);
    ReadQuery { table, query, preds, intervals }
}

/// Poisson arrival times (ns) at `rate` per second over `seconds`.
fn poisson(rate: f64, seconds: f64, rng: &mut SmallRng) -> Vec<u64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Sampler of ranks `0..n` with probability ∝ `1 / (rank + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Rows drawn from `table`'s own dictionaries whose two shifted columns
/// take their least frequent value: a distribution shift the drift
/// monitor sees as a large histogram distance on those columns.
fn shifted_rows(table: &Table, n: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let mut cols: Vec<usize> =
        (0..table.num_columns()).filter(|&c| table.column(c).ndv() >= 4).collect();
    cols.truncate(2);
    let rare: Vec<u32> = cols
        .iter()
        .map(|&c| {
            let counts = table.column(c).value_counts();
            (0..counts.len()).min_by_key(|&i| counts[i]).expect("non-empty dictionary") as u32
        })
        .collect();
    (0..n)
        .map(|_| {
            let mut row = table.row_ids(rng.gen_range(0..table.num_rows()));
            for (&c, &id) in cols.iter().zip(&rare) {
                row[c] = id;
            }
            row
        })
        .collect()
}

/// Rows drawn from `table` itself (no shift).
fn base_rows(table: &Table, n: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    (0..n).map(|_| table.row_ids(rng.gen_range(0..table.num_rows()))).collect()
}

/// Rand-Q queries against one table, each distinct from every query drawn
/// before (compared by their encoded request frames).
struct DistinctQueries<'a> {
    table: &'a Table,
    seed: u64,
    batch: u64,
    seen: std::collections::HashSet<u64>,
}

impl<'a> DistinctQueries<'a> {
    fn new(table: &'a Table, seed: u64) -> Self {
        Self { table, seed, batch: 0, seen: Default::default() }
    }

    /// The next `n` distinct queries.
    fn take(&mut self, n: usize) -> Vec<ReadQuery> {
        use std::hash::{Hash, Hasher};
        let mut out = Vec::with_capacity(n);
        let mut key = Vec::new();
        while out.len() < n {
            let queries = WorkloadSpec::random(self.table, 4_096, self.seed + self.batch)
                .generate(self.table);
            self.batch += 1;
            for q in queries {
                let rq = read_query(0, self.table, q);
                key.clear();
                frame::encode_request(&mut key, 0, 0, 0, &rq.preds, &rq.intervals);
                let mut h = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut h);
                if self.seen.insert(h.finish()) {
                    out.push(rq);
                    if out.len() == n {
                        break;
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Serving set-up.
// ---------------------------------------------------------------------------

/// A running server behind its wire listener, with the generator's
/// connections open.
pub(crate) struct Served {
    pub(crate) server: Arc<DuetServer>,
    wire: Option<WireHandle>,
    conns: Vec<Conn>,
    trainer: Option<OnlineTrainerHandle>,
}

impl Served {
    fn shutdown(mut self) {
        if let Some(trainer) = self.trainer.take() {
            trainer.shutdown();
        }
        self.conns.clear();
        if let Some(mut wire) = self.wire.take() {
            wire.shutdown();
        }
        self.server.shutdown(Duration::from_secs(5));
    }
}

/// What a set-up needs beyond the trained models.
struct SetupSpec<'a> {
    config: ServeConfig,
    spill_dir: Option<PathBuf>,
    connections: usize,
    online: Option<(usize, &'a Table)>,
    warmup: &'a [ReadQuery],
}

/// Train every model, start the server, register, bind the wire, connect
/// and warm up. Returns the serving stack, the trained estimators, the
/// per-epoch training statistics and the set-up time in seconds.
fn set_up(
    inputs: &[ModelInput],
    spec: &SetupSpec<'_>,
) -> Result<(Served, Vec<DuetEstimator>, Vec<EpochStats>, f64), String> {
    let started = Instant::now();
    let mut epochs = Vec::new();
    let models: Vec<DuetEstimator> = inputs.iter().map(|m| m.train(&mut epochs)).collect();
    let server = Arc::new(DuetServer::new(spec.config));
    if let Some(dir) = &spec.spill_dir {
        server.set_model_spill_dir(dir.clone());
    }
    for (input, model) in inputs.iter().zip(&models) {
        server.register(input.name.clone(), model.clone());
    }
    // Enabled before any traffic: every model is still resident, so the
    // tier cannot have evicted the table's model yet.
    let mut trainer = None;
    if let Some((i, table)) = spec.online {
        server
            .enable_online(&inputs[i].name, table.clone(), OnlineConfig::default())
            .map_err(|e| format!("enable_online: {e}"))?;
        trainer = Some(server.spawn_online_trainer(TRAINER_INTERVAL));
    }
    let wire = server
        .serve_wire("127.0.0.1:0", WireConfig::default())
        .map_err(|e| format!("wire bind failed: {e}"))?;
    let addr = wire.addr();
    // Table ids must be registration order: the request frames were encoded
    // with them before the server existed.
    let mut resolver = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for (i, input) in inputs.iter().enumerate() {
        let spec = resolver.resolve(&input.name).map_err(|e| format!("resolve: {e}"))?;
        match spec {
            Some(spec) if spec.id as usize == i => {}
            other => {
                return Err(format!("table {} resolved to {other:?}, expected id {i}", input.name))
            }
        }
    }
    drop(resolver);
    let conns = (0..spec.connections)
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let served = Served { server, wire: Some(wire), conns, trainer };
    // Warm-up: every warm-up query once, all at once, unmeasured.
    let mut frames = Frames::default();
    let ops: Vec<Op> = spec
        .warmup
        .iter()
        .enumerate()
        .map(|(i, q)| Op {
            at_ns: 0,
            conn: (i % spec.connections) as u8,
            kind: OpKind::Read,
            frame: encode_read(q, &mut frames),
            tag: i as u32,
        })
        .collect();
    let warm =
        loadgen::run_phase(&served.conns, &ops, &frames, 1 << 60, Instant::now(), DRAIN, false)
            .map_err(|e| format!("warm-up: {e}"))?;
    if warm.replies.iter().any(|&r| r != 1) {
        return Err("warm-up request got no reply".into());
    }
    Ok((served, models, epochs, started.elapsed().as_secs_f64()))
}

/// A serving stack with the models it was set up with and their training
/// statistics.
type Stack = (Served, Vec<DuetEstimator>, Vec<EpochStats>);

/// Set up `n` times, shutting down all but the last stack, and append each
/// set-up time to `times`. Returns the last stack (`None` when `n` is 0)
/// with its trained models and training statistics.
fn set_up_times(
    inputs: &[ModelInput],
    spec: &SetupSpec<'_>,
    n: usize,
    times: &mut Vec<f64>,
) -> Result<Option<Stack>, String> {
    let mut last: Option<Stack> = None;
    for _ in 0..n {
        if let Some((served, ..)) = last.take() {
            shut_down(served, spec);
        }
        let (served, models, epochs, secs) = set_up(inputs, spec)?;
        times.push(secs);
        last = Some((served, models, epochs));
    }
    Ok(last)
}

fn shut_down(served: Served, spec: &SetupSpec<'_>) {
    Served::shutdown(served);
    if let Some(dir) = &spec.spill_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// End a run: shut the serving stack down and, in an untraced run, set up
/// `SET_UPS_AT_END` more times and report `setup_s`, the shortest set-up of
/// the run. On a shared machine the speed of a core swings by a third from
/// one second to the next; set-ups at both ends of the run and the shortest
/// of them keep a slow stretch from setting the figure.
fn end_run(
    result: Result<Report, String>,
    served: Served,
    inputs: &[ModelInput],
    spec: &SetupSpec<'_>,
    mut times: Vec<f64>,
    args: &Args,
) -> Result<Report, String> {
    shut_down(served, spec);
    let mut report = result?;
    if !args.trace {
        if let Some((served, ..)) = set_up_times(inputs, spec, SET_UPS_AT_END, &mut times)? {
            shut_down(served, spec);
        }
        report.note(format!("set-up times {times:.3?} s"));
        report.metric("setup_s", times.iter().copied().fold(f64::INFINITY, f64::min), "s");
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

/// What a phase watcher observed.
#[derive(Default)]
pub(crate) struct Watched {
    /// ns after the phase start when `swaps_published` first grew.
    pub(crate) publish_ns: Option<u64>,
    /// Sampled total queue depth.
    pub(crate) depths: Vec<usize>,
}

/// Run a phase with an optional watcher thread polling the server for the
/// publish and, in traced phases, sampling queue depths. With
/// `publish_wait: Some(grace)` the watcher looks for a publish and, if none
/// happened by the end of the phase, keeps looking for up to `grace` longer.
fn watched_phase(
    served: &Served,
    ops: &[Op],
    frames: &Frames,
    id_base: u64,
    trace: bool,
    publish_wait: Option<Duration>,
) -> Result<(PhaseResult, Watched), String> {
    let sample_depth = trace;
    let watch_publish = publish_wait.is_some();
    let t0 = Instant::now() + Duration::from_millis(5);
    let stop = AtomicBool::new(false);
    let swaps_before = served.server.metrics().swaps_published;
    let (result, watched) = std::thread::scope(|scope| {
        let watcher = (watch_publish || sample_depth).then(|| {
            scope.spawn(|| {
                let mut w = Watched::default();
                let mut last_poll = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    if sample_depth {
                        w.depths.push(served.server.router().queue_depth());
                    }
                    if watch_publish
                        && w.publish_ns.is_none()
                        && last_poll.elapsed() >= Duration::from_millis(2)
                    {
                        last_poll = Instant::now();
                        if served.server.metrics().swaps_published > swaps_before {
                            w.publish_ns = Some(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                w
            })
        });
        let result = loadgen::run_phase(&served.conns, ops, frames, id_base, t0, DRAIN, trace);
        let mut seen_late = None;
        if let Some(grace) = publish_wait {
            let give_up = Instant::now() + grace;
            while Instant::now() < give_up {
                if served.server.metrics().swaps_published > swaps_before {
                    seen_late = Some(t0.elapsed().as_nanos() as u64);
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut watched: Watched =
            watcher.map(|h| h.join().expect("watcher panicked")).unwrap_or_default();
        watched.publish_ns = watched.publish_ns.or(seen_late);
        (result, watched)
    });
    let result = result.map_err(|e| format!("phase failed: {e}"))?;
    if result.stray_replies > 0 {
        return Err(format!("{} replies matched no request of the phase", result.stray_replies));
    }
    Ok((result, watched))
}

/// Latency summary of one phase's reads.
pub(crate) struct PhaseEval {
    pub(crate) p50: f64,
    pub(crate) p99: f64,
    /// Lowest window p99 (what `p99_us` reports).
    pub(crate) p99_min: f64,
    /// p99 pooled over the whole phase (failures count as misses).
    pub(crate) p99_pooled: f64,
    /// Median over the windows of the per-window failed share.
    failed_share: f64,
    /// Windows `p50`/`p99` are the medians over.
    windows: usize,
    /// Each window's p99.
    window_p99s: Vec<f64>,
    pub(crate) samples: usize,
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    pub(crate) late_p99: f64,
    valid: bool,
    backlog_grew: bool,
    pub(crate) duration_s: f64,
}

fn eval_phase(res: &PhaseResult, ops: &[Op], kind: OpKind, max_windows: usize) -> PhaseEval {
    let idx: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].kind == kind).collect();
    let samples: Vec<Option<f64>> =
        idx.iter().map(|&i| if res.ok(i) { res.latency_us(i) } else { None }).collect();
    let ok: Vec<f64> = samples.iter().flatten().copied().collect();
    let failed = samples.len() - ok.len();
    let summary = stats::windowed(&samples, max_windows);
    let lateness = res.lateness_us();
    let late_median = stats::median(&lateness);
    let late = stats::percentile(&lateness, 99.0);
    let end = ops.last().map_or(0, |o| o.at_ns);
    let mid = end / 2;
    let sent_second_half = res.sched_ns.iter().filter(|&&t| t > mid).count();
    PhaseEval {
        p50: summary.p50,
        p99: summary.p99,
        p99_min: summary.p99_min,
        p99_pooled: stats::tail_with_failures(&ok, failed, 99.0),
        failed_share: summary.failed_share,
        windows: summary.windows,
        window_p99s: summary.window_p99s.clone(),
        samples: ok.len(),
        attempted: idx.len(),
        failed,
        late_p99: late,
        valid: stats::generator_on_time(
            late_median,
            LATE_LIMIT_US,
            res.overrun_ns as f64 / 1e3,
            OVERRUN_LIMIT_US,
        ),
        backlog_grew: stats::backlog_grew(
            res.outstanding_at(mid),
            res.outstanding_at(end),
            sent_second_half,
        ),
        duration_s: end as f64 / 1e9,
    }
}

/// At the nominal rate nothing may fail: the first op answered non-`Ok`
/// fails the run.
fn check_all_ok(
    workload: &str,
    phase: &str,
    res: &PhaseResult,
    ops: &[Op],
    id_base: u64,
) -> Result<(), String> {
    match (0..ops.len()).find(|&i| !res.ok(i)) {
        Some(i) => Err(gate(
            workload,
            phase,
            id_base + i as u64,
            format!("{:?} answered status {}", ops[i].kind, res.status[i]),
        )),
        None => Ok(()),
    }
}

/// Every op must get exactly one reply.
fn check_replies(
    workload: &str,
    phase: &str,
    res: &PhaseResult,
    id_base: u64,
) -> Result<(), String> {
    for (i, &r) in res.replies.iter().enumerate() {
        if r != 1 {
            return Err(gate(
                workload,
                phase,
                id_base + i as u64,
                format!("got {r} replies, expected exactly 1"),
            ));
        }
    }
    Ok(())
}

/// Read ops at `times`, cycling over connections, with tags from `pick`.
fn read_ops(
    times: &[u64],
    conns: usize,
    frames_of: &[u32],
    mut pick: impl FnMut(usize) -> usize,
) -> Vec<Op> {
    times
        .iter()
        .enumerate()
        .map(|(i, &at_ns)| {
            let q = pick(i);
            Op {
                at_ns,
                conn: (i % conns) as u8,
                kind: OpKind::Read,
                frame: frames_of[q],
                tag: q as u32,
            }
        })
        .collect()
}

/// One ladder step's requests: their ops and frames, and by op tag the
/// direct estimate and the exact cardinality each answer is checked against.
struct LadderStep {
    ops: Vec<Op>,
    frames: Frames,
    expected: Vec<f64>,
    truth: Vec<u64>,
}

/// Walk the fixed ladder `LADDER_WALKS` times, building each step's
/// requests with `make_step(rate, seconds)` just before the step runs, and
/// hold every step to the correctness gate. Returns the highest rate that
/// passed in any walk (0 if none) and the q-error of every `Ok` answer.
fn run_ladder(
    served: &Served,
    workload: &str,
    plan: &Plan,
    step_seconds: f64,
    mut make_step: impl FnMut(f64, f64) -> LadderStep,
) -> Result<(f64, Vec<f64>), String> {
    let mut best = 0.0f64;
    let mut qerrs = Vec::new();
    for walk in 0..LADDER_WALKS {
        let mut steps: Vec<StepOutcome> = Vec::new();
        for (k, &rate) in plan.ladder.iter().enumerate() {
            let step = make_step(rate, step_seconds);
            let base = (16 + (walk * plan.ladder.len() + k) as u64) << 32;
            let (res, _) = watched_phase(served, &step.ops, &step.frames, base, false, None)?;
            check_bit_identical(workload, "ladder", &res, &step.ops, base, &step.expected)?;
            qerrs.extend(
                (0..step.ops.len())
                    .filter(|&i| res.ok(i))
                    .map(|i| q_error(res.value[i], step.truth[step.ops[i].tag as usize] as f64)),
            );
            let ev = eval_phase(&res, &step.ops, OpKind::Read, LADDER_WINDOWS);
            let outcome = StepOutcome {
                rate,
                p99_us: ev.p99,
                failed_share: ev.failed_share,
                backlog_grew: ev.backlog_grew,
                valid: ev.valid,
            };
            println!(
                "# ladder walk {walk} {:>6.0} q/s: p99 {:>9.1} µs over {} ok, failed {:.4}, backlog grew {}, generator valid {} (late p99 {:.0} µs) -> {}",
                rate,
                outcome.p99_us,
                ev.samples,
                outcome.failed_share,
                outcome.backlog_grew,
                outcome.valid,
                ev.late_p99,
                if stats::step_passes(&outcome, &plan.limits) { "pass" } else { "fail" }
            );
            steps.push(outcome);
            if stats::ladder_should_stop(&steps, &plan.limits) {
                break;
            }
            // Let queues empty before the next step.
            std::thread::sleep(Duration::from_millis(100));
        }
        best = best.max(stats::max_passing_rate(&steps, &plan.limits).unwrap_or(0.0));
    }
    Ok((best, qerrs))
}

extern "C" {
    /// glibc: hand the allocator's free memory back to the kernel.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Resident set size of this process in MiB. The allocator's free memory
/// is handed back first, so the figure counts live memory rather than what
/// the multi-threaded training and labelling before it left in the
/// allocator's free lists, which varies from run to run.
fn rss_mb() -> f64 {
    // SAFETY: malloc_trim takes no pointers and only releases free memory
    // the allocator holds; live allocations are untouched.
    unsafe {
        malloc_trim(0);
    }
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Direct estimates of `queries` against `model`, batched.
fn direct(model: &DuetEstimator, queries: &[&ReadQuery]) -> Vec<f64> {
    let mut out = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(256) {
        let rows: Vec<_> = chunk.iter().map(|q| q.preds.clone()).collect();
        let ivs: Vec<_> = chunk.iter().map(|q| q.intervals.clone()).collect();
        out.extend(model.estimate_encoded_batch(&rows, &ivs));
    }
    out
}

/// Queries of the layer timings kept in [`Encoded::sample`].
const LAYER_SAMPLE: usize = 256;

/// Requests in the form a phase needs: encoded frames (frame `i` is
/// request `i`) and, per request, the direct estimate and the exact
/// cardinality its answer is checked against. `sample` keeps the first
/// queries for the layer timings.
#[derive(Default)]
struct Encoded {
    frames: Frames,
    expected: Vec<f64>,
    truth: Vec<u64>,
    sample: Vec<ReadQuery>,
}

impl Encoded {
    fn len(&self) -> usize {
        self.expected.len()
    }

    fn extend(&mut self, queries: &[ReadQuery], models: &[DuetEstimator], inputs: &[ModelInput]) {
        for q in queries {
            encode_read(q, &mut self.frames);
        }
        self.expected.extend(expected_of(models, queries));
        self.truth.extend(label(inputs, queries));
        let room = LAYER_SAMPLE.saturating_sub(self.sample.len());
        self.sample.extend(queries.iter().take(room).cloned());
    }
}

/// Direct estimate of every query of `pool` against its table's model.
fn expected_of(models: &[DuetEstimator], pool: &[ReadQuery]) -> Vec<f64> {
    let mut exp = vec![f64::NAN; pool.len()];
    for (t, model) in models.iter().enumerate() {
        let idx: Vec<usize> = (0..pool.len()).filter(|&q| pool[q].table == t).collect();
        let refs: Vec<&ReadQuery> = idx.iter().map(|&q| &pool[q]).collect();
        for (&q, v) in idx.iter().zip(direct(model, &refs)) {
            exp[q] = v;
        }
    }
    exp
}

/// Exact cardinality of every query of `pool` against its table.
fn label(inputs: &[ModelInput], pool: &[ReadQuery]) -> Vec<u64> {
    let mut truth = vec![0; pool.len()];
    for (t, input) in inputs.iter().enumerate() {
        let idx: Vec<usize> = (0..pool.len()).filter(|&q| pool[q].table == t).collect();
        let queries: Vec<Query> = idx.iter().map(|&q| pool[q].query.clone()).collect();
        for (&q, card) in idx.iter().zip(label_workload(&input.table, &queries)) {
            truth[q] = card;
        }
    }
    truth
}

/// Compare every `Ok` read of a phase bit-for-bit against `expected[tag]`.
fn check_bit_identical(
    workload: &str,
    phase: &str,
    res: &PhaseResult,
    ops: &[Op],
    base: u64,
    expected: &[f64],
) -> Result<(), String> {
    check_replies(workload, phase, res, base)?;
    for (i, op) in ops.iter().enumerate() {
        if op.kind == OpKind::Read && res.ok(i) {
            let want = expected[op.tag as usize];
            if res.value[i].to_bits() != want.to_bits() {
                return Err(gate(
                    workload,
                    phase,
                    base + i as u64,
                    format!("served {} but the direct estimate is {want}", res.value[i]),
                ));
            }
        }
    }
    Ok(())
}

/// The online tail: a shifted ingest stream into `table` (already
/// online-enabled) until the background trainer publishes. Returns the
/// ingest p99 (µs), publish time (s) and the phase.
fn online_tail(
    served: &Served,
    workload: &str,
    table_id: u32,
    rows: &[Vec<u32>],
    seconds: f64,
) -> Result<(f64, f64), String> {
    let mut frames = Frames::default();
    let gap = (seconds * 1e9 / rows.len() as f64) as u64;
    let ops: Vec<Op> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| Op {
            at_ns: i as u64 * gap,
            conn: 0,
            kind: OpKind::Ingest,
            frame: frames.push(|buf| frame::encode_ingest(buf, 0, table_id, row)),
            tag: i as u32,
        })
        .collect();
    let base = 5 << 32;
    let (res, watched) =
        watched_phase(served, &ops, &frames, base, false, Some(Duration::from_secs(20)))?;
    check_replies(workload, "online-tail", &res, base)?;
    check_all_ok(workload, "online-tail", &res, &ops, base)?;
    let publish_ns =
        watched.publish_ns.ok_or_else(|| format!("{workload}: the online tail never published"))?;
    let lat: Vec<f64> = (0..ops.len()).filter_map(|i| res.latency_us(i)).collect();
    Ok((stats::percentile(&lat, 99.0), publish_ns as f64 / 1e9))
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// Run the workload named in `args`.
pub fn run(args: &Args) -> Result<Report, String> {
    let report = match args.workload.as_str() {
        "rand-dmv" | "hot-fleet" => run_read_workload(args)?,
        "drift-census" => run_drift(args)?,
        other => {
            return Err(format!(
                "unknown workload {other}; expected rand-dmv, hot-fleet or drift-census"
            ))
        }
    };
    // JSON has no infinity: a metric without a finite value fails the run.
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is {value}", args.workload));
    }
    Ok(report)
}

pub(crate) fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Shared tail of every run: per-layer metrics (traced) or end-to-end ones.
pub(crate) struct Common<'a> {
    pub(crate) args: &'a Args,
    pub(crate) report: Report,
    pub(crate) recorder: Option<Recorder>,
}

/// `rand-dmv` and `hot-fleet`: read-only nominal phase and ladder, then the
/// online tail.
fn run_read_workload(args: &Args) -> Result<Report, String> {
    let fleet = args.workload == "hot-fleet";
    let plan = plan(&args.workload);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x5eed_0001);

    // ---- Inputs (generation and truth labelling are not set-up). ----
    let inputs: Vec<ModelInput> = if fleet {
        (0..24)
            .map(|i| {
                let table = census_like(1_500, DATA_SEED + i);
                let train =
                    WorkloadSpec::in_workload(&table, 64, DATA_SEED + 100 + i).generate(&table);
                let cards = label_workload(&table, &train);
                ModelInput {
                    name: format!("fleet-{i:02}"),
                    table,
                    train,
                    cards,
                    config: DuetConfig::small().with_epochs(1),
                    seed: DATA_SEED + 200 + i,
                }
            })
            .collect()
    } else {
        let table = dmv_like(6_000, DATA_SEED);
        let train = WorkloadSpec::in_workload(&table, 300, DATA_SEED + 1).generate(&table);
        let cards = label_workload(&table, &train);
        vec![ModelInput {
            name: "dmv".into(),
            table,
            train,
            cards,
            config: DuetConfig::small().with_epochs(1),
            seed: DATA_SEED + 2,
        }]
    };

    let nominal_s = args.seconds * NOMINAL_SHARE;
    let step_s = args.seconds * (1.0 - NOMINAL_SHARE) / LADDER_SLOTS;
    let nominal_times = poisson(plan.nominal_rate, nominal_s, &mut rng);

    // Queries. rand-dmv: every request distinct, drawn after set-up in
    // chunks and kept only in encoded form, and each ladder step draws its
    // own, so the benchmark holds little besides frames when `rss_mb` is
    // read. hot-fleet: a per-table pool repeated Zipf-style.
    let table_zipf = Zipf::new(inputs.len(), 1.1);
    let query_zipf = Zipf::new(48, 1.0);
    let mut fresh = DistinctQueries::new(&inputs[0].table, args.seed + 400);
    let mut pool: Vec<ReadQuery> = Vec::new();
    if fleet {
        for (t, input) in inputs.iter().enumerate() {
            let qs = WorkloadSpec::random(&input.table, 48, args.seed + 300 + t as u64)
                .generate(&input.table);
            pool.extend(qs.into_iter().map(|q| read_query(t, &input.table.schema_only(), q)));
        }
    }
    let fleet_pick = |rng: &mut SmallRng| table_zipf.sample(rng) * 48 + query_zipf.sample(rng);
    let nominal_tags: Vec<usize> = if fleet {
        (0..nominal_times.len()).map(|_| fleet_pick(&mut rng)).collect()
    } else {
        (0..nominal_times.len()).collect()
    };
    let tail_table = 0usize;
    let tail_rows = {
        let t = &inputs[tail_table].table;
        shifted_rows(t, t.num_rows() / 4, &mut SmallRng::seed_from_u64(DATA_SEED ^ 0x7a11))
    };

    // ---- Set-up (timed). ----
    let spill_dir = fleet.then(|| out_dir().join(format!("spill-{}", std::process::id())));
    let warmup: Vec<ReadQuery> = if fleet {
        (0..inputs.len()).map(|t| pool[t * 48].clone()).collect()
    } else {
        vec![read_query(0, &inputs[0].table, Query::all())]
    };
    let mut config = ServeConfig::default();
    let mut budget_note = String::new();
    if fleet {
        // Below the resident total: roughly a third of the fleet fits.
        let probe = DuetEstimator::from_model(
            duet_core::DuetModel::new(&inputs[0].table, &inputs[0].config, 0),
            &inputs[0].table,
            "probe",
        );
        let per_model = probe.model().size_bytes();
        config.model_budget_bytes = per_model * inputs.len() / 3;
        budget_note = format!(
            "model_budget_bytes={} (~{} of {} models of {} B), spill dir {}",
            config.model_budget_bytes,
            inputs.len() / 3,
            inputs.len(),
            per_model,
            spill_dir.as_ref().map(|d| d.display().to_string()).unwrap_or_default()
        );
    }
    let spec = SetupSpec {
        config,
        spill_dir: spill_dir.clone(),
        connections: 2,
        online: Some((tail_table, &inputs[tail_table].table)),
        warmup: &warmup,
    };
    let rss_inputs = rss_mb();
    let mut setup_times = Vec::new();
    let (served, models, epochs) =
        set_up_times(&inputs, &spec, SET_UPS_AT_START, &mut setup_times)?
            .expect("at least one set-up");
    let result = (|| {
        let mut c = Common {
            args,
            report: Report { attempted: 0, failed: 0, metrics: Vec::new() },
            recorder: args.trace.then(Recorder::new),
        };
        if !budget_note.is_empty() {
            c.report.note(budget_note.clone());
        }
        let mut requests = Encoded::default();
        if fleet {
            requests.extend(&pool, &models, &inputs);
        } else {
            while requests.len() < nominal_times.len() {
                let n = (nominal_times.len() - requests.len()).min(4_096);
                requests.extend(&fresh.take(n), &models, &inputs);
            }
        }
        let Encoded { frames, expected, truth, sample } = requests;
        let frame_of: Vec<u32> = (0..expected.len() as u32).collect();
        let rss_ready = rss_mb();

        // ---- Nominal phase. ----
        let nominal_ops = read_ops(&nominal_times, 2, &frame_of, |i| nominal_tags[i]);
        let nominal = nominal_phase(&mut c, &served, &nominal_ops, &frames)?;
        check_bit_identical(
            &args.workload,
            "nominal",
            &nominal.0,
            &nominal_ops,
            1 << 32,
            &expected,
        )?;
        check_all_ok(&args.workload, "nominal", &nominal.0, &nominal_ops, 1 << 32)?;
        let rss = rss_mb();
        let weights: usize = models.iter().map(|m| m.model().size_bytes()).sum();
        c.report.note(format!(
            "rss {rss:.1} MiB after the nominal phase, {rss_ready:.1} MiB before it, {rss_inputs:.1} MiB before set-up; model weights {:.2} MiB",
            weights as f64 / (1 << 20) as f64,
        ));
        let ev = eval_phase(&nominal.0, &nominal_ops, OpKind::Read, NOMINAL_WINDOWS);
        if !ev.valid {
            return Err(format!(
                "{}: the generator fell behind in the nominal phase (late p99 {:.0} µs); latencies not reported",
                args.workload, ev.late_p99
            ));
        }
        // Every Ok estimate of the nominal phase and the ladder counts
        // towards the q-error.
        let mut qerrs: Vec<f64> = (0..nominal_ops.len())
            .filter(|&i| nominal.0.ok(i))
            .map(|i| q_error(nominal.0.value[i], truth[nominal_ops[i].tag as usize] as f64))
            .collect();

        // ---- Ladder. ----
        let mut lrng = SmallRng::seed_from_u64(args.seed ^ 0x1add_e400);
        let ladder = if args.trace {
            None
        } else {
            let (rate, ladder_qerrs) =
                run_ladder(&served, &args.workload, &plan, step_s, |rate, secs| {
                    let times = poisson(rate, secs, &mut lrng);
                    if fleet {
                        let tags: Vec<usize> =
                            (0..times.len()).map(|_| fleet_pick(&mut lrng)).collect();
                        LadderStep {
                            ops: read_ops(&times, 2, &frame_of, |i| tags[i]),
                            frames: frames.clone(),
                            expected: expected.clone(),
                            truth: truth.clone(),
                        }
                    } else {
                        let mut step = Encoded::default();
                        step.extend(&fresh.take(times.len()), &models, &inputs);
                        let ids: Vec<u32> = (0..times.len() as u32).collect();
                        LadderStep {
                            ops: read_ops(&times, 2, &ids, |i| i),
                            frames: step.frames,
                            expected: step.expected,
                            truth: step.truth,
                        }
                    }
                })?;
            qerrs.extend(ladder_qerrs);
            Some(rate)
        };

        // ---- Online tail (online learning was enabled at set-up). ----
        let (ingest_p99, publish_s) =
            online_tail(&served, &args.workload, tail_table as u32, &tail_rows, 1.0)?;

        finish(
            &mut c,
            &served,
            &plan,
            Measured {
                eval: ev,
                qerrs,
                rss,
                max_rate: ladder,
                ingest_p99,
                publish_s,
                epochs: &epochs,
                nominal: &nominal,
                nominal_ops: &nominal_ops,
            },
            &layers::LayerInputs {
                model: &models[0],
                queries: &sample.iter().collect::<Vec<_>>(),
                frames: &frames,
                frame_ids: &frame_of,
                online_table: &inputs[tail_table].table,
                online_rows: &tail_rows,
                repeated_keys: fleet,
            },
        )?;
        Ok(c.report)
    })();
    end_run(result, served, &inputs, &spec, setup_times, args)
}

/// Nominal phase; in traced runs it runs twice (untraced, then traced) so
/// the tracing overhead can be reported. Returns the phase that counts.
fn nominal_phase(
    c: &mut Common<'_>,
    served: &Served,
    ops: &[Op],
    frames: &Frames,
) -> Result<(PhaseResult, Watched), String> {
    if c.recorder.is_none() {
        return watched_phase(served, ops, frames, 1 << 32, false, None);
    }
    let (plain, _) = watched_phase(served, ops, frames, 3 << 32, false, None)?;
    let plain_ev = eval_phase(&plain, ops, OpKind::Read, NOMINAL_WINDOWS);
    let start = Instant::now();
    let traced = watched_phase(served, ops, frames, 1 << 32, true, None)?;
    let traced_ev = eval_phase(&traced.0, ops, OpKind::Read, NOMINAL_WINDOWS);
    c.report.note(format!(
        "tracing overhead: p50 {:.1} -> {:.1} µs, p99 {:.1} -> {:.1} µs (untraced -> traced)",
        plain_ev.p50, traced_ev.p50, plain_ev.p99_min, traced_ev.p99_min
    ));
    c.report.metric("trace.overhead_p50_us", traced_ev.p50 - plain_ev.p50, "us");
    c.report.metric("trace.overhead_p99_us", traced_ev.p99_min - plain_ev.p99_min, "us");
    let rec = c.recorder.as_mut().expect("traced run");
    let origin = rec.at(start) + 5_000_000;
    record_request_spans(rec, &traced.0, ops, 1 << 32, origin);
    Ok(traced)
}

/// Spans of every request of a traced phase: `request` (scheduled send to
/// decoded reply) with children `client.send` (the write carrying it) and
/// `client.decode` (from the read returning to the reply being decoded).
fn record_request_spans(rec: &mut Recorder, res: &PhaseResult, ops: &[Op], base: u64, origin: u64) {
    for i in 0..ops.len() {
        if res.recv_ns[i] == loadgen::NONE {
            continue;
        }
        let request = base + i as u64;
        let parent = rec.push(Span {
            name: "request",
            start: origin + res.sched_ns[i],
            end: origin + res.recv_ns[i],
            parent: None,
            request,
        });
        rec.push(Span {
            name: "client.send",
            start: origin + res.sent_ns[i],
            end: origin + res.sent_end_ns[i],
            parent: Some(parent),
            request,
        });
        rec.push(Span {
            name: "client.decode",
            start: origin + res.read_ns[i].min(res.recv_ns[i]),
            end: origin + res.recv_ns[i],
            parent: Some(parent),
            request,
        });
    }
}

/// Everything the end-to-end and per-layer reports are built from.
pub(crate) struct Measured<'a> {
    pub(crate) eval: PhaseEval,
    qerrs: Vec<f64>,
    rss: f64,
    max_rate: Option<f64>,
    pub(crate) ingest_p99: f64,
    publish_s: f64,
    pub(crate) epochs: &'a [EpochStats],
    pub(crate) nominal: &'a (PhaseResult, Watched),
    pub(crate) nominal_ops: &'a [Op],
}

fn finish(
    c: &mut Common<'_>,
    served: &Served,
    plan: &Plan,
    m: Measured<'_>,
    layer_inputs: &layers::LayerInputs<'_>,
) -> Result<(), String> {
    let ev = &m.eval;
    c.report.attempted = ev.attempted as u64;
    c.report.failed = ev.failed as u64;
    let window_p99s: Vec<f64> = ev.window_p99s.iter().map(|v| v.round()).collect();
    c.report.note(format!(
        "{} seed {}: nominal {:.0} q/s for {:.1} s: {} ok of {} attempted; p50 the median and \
         p99 the lowest over {} equal-count windows, window p99s {window_p99s:?} µs; \
         pooled p99 {:.1} µs; late p99 {:.1} µs; backlog grew: {}",
        c.args.workload,
        c.args.seed,
        plan.nominal_rate,
        ev.duration_s,
        ev.samples,
        ev.attempted,
        ev.windows,
        ev.p99_pooled,
        ev.late_p99,
        ev.backlog_grew
    ));
    if !c.args.trace {
        let r = &mut c.report;
        r.metric("p50_us", ev.p50, "us");
        r.metric("p99_us", ev.p99_min, "us");
        r.metric("max_rate_qps", m.max_rate.unwrap_or(0.0), "1/s");
        r.metric("qerror_p50", stats::median(&m.qerrs), "ratio");
        r.metric("qerror_p99", stats::percentile(&m.qerrs, 99.0), "ratio");
        r.metric("rss_mb", m.rss, "MiB");
        r.metric("publish_s", m.publish_s, "s");
        r.note(format!("q-error over {} ok estimates", m.qerrs.len()));
        return Ok(());
    }
    layers::report(c, served, &m, layer_inputs)
}

// ---------------------------------------------------------------------------
// drift-census.
// ---------------------------------------------------------------------------

/// One online-loop write, in the order its connection carries them.
#[derive(Clone)]
enum Write {
    Ingest(Vec<u32>),
    Feedback { query: usize, actual: f64 },
}

fn run_drift(args: &Args) -> Result<Report, String> {
    let plan = plan(&args.workload);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x5eed_0003);
    let table = census_like(10_000, DATA_SEED);
    let train = WorkloadSpec::in_workload(&table, 300, DATA_SEED + 1).generate(&table);
    let cards = label_workload(&table, &train);
    let input = ModelInput {
        name: "census".into(),
        table: table.clone(),
        train,
        cards,
        config: DuetConfig::small().with_epochs(2),
        seed: DATA_SEED + 2,
    };
    // The query pool is part of the fixed workload, like the paper's
    // seeded Rand-Q set; `--seed` picks which of them are read, and when.
    let pool: Vec<ReadQuery> = WorkloadSpec::random(&table, 8_000, DATA_SEED + 3)
        .generate(&table)
        .into_iter()
        .map(|q| read_query(0, &table, q))
        .collect();
    // Mild skew: queries repeat, but no handful of hot queries decides
    // the q-error quantiles.
    let zipf = Zipf::new(pool.len(), 0.6);

    // ---- Schedule: reads, feedback for a share of them, and ingest whose
    // rows shift distribution 40% into the phase. All writes travel on one
    // connection, so the online table applies them in schedule order.
    let run_s = args.seconds * DRIFT_SHARE;
    let shift_at_s = run_s * 0.4;
    // The ingested rows are part of the fixed dataset; `--seed` drives the
    // reads, which of them get feedback, and every arrival time.
    let mut rows_rng = SmallRng::seed_from_u64(DATA_SEED ^ 0x5eed_0003);
    let base_rows = base_rows(&table, (500.0 * shift_at_s) as usize, &mut rows_rng);
    let n0 = table.num_rows() + base_rows.len();
    let shift_rows = shifted_rows(&table, n0 / 4, &mut rows_rng);
    let shift_s = 1.5f64.min(run_s - shift_at_s);
    let mut schedule: Vec<(u64, OpKind, usize)> = Vec::new();
    for (i, _) in base_rows.iter().enumerate() {
        schedule.push((
            (i as f64 / base_rows.len() as f64 * shift_at_s * 1e9) as u64,
            OpKind::Ingest,
            i,
        ));
    }
    for (i, _) in shift_rows.iter().enumerate() {
        let at = shift_at_s + i as f64 / shift_rows.len() as f64 * shift_s;
        schedule.push(((at * 1e9) as u64, OpKind::Ingest, base_rows.len() + i));
    }
    let read_times = poisson(plan.nominal_rate, run_s, &mut rng);
    let mut read_tags = Vec::new();
    for (i, &t) in read_times.iter().enumerate() {
        let q = zipf.sample(&mut rng);
        read_tags.push(q);
        schedule.push((t, OpKind::Read, i));
        // A fixed fifth of the pool reports its true cardinality back.
        if q.is_multiple_of(5) {
            schedule.push((t + 1_000_000, OpKind::Feedback, q));
        }
    }
    schedule.sort_by_key(|&(t, kind, _)| (t, kind as u8));
    let all_rows: Vec<&Vec<u32>> = base_rows.iter().chain(shift_rows.iter()).collect();
    // Feedback truth: exact cardinality against the table as of the
    // feedback's slot in the schedule.
    let mut live = table.clone();
    let mut writes: Vec<Write> = Vec::new();
    let mut frames = Frames::default();
    let read_frames: Vec<u32> = pool.iter().map(|q| encode_read(q, &mut frames)).collect();
    let mut ops = Vec::new();
    for &(at_ns, kind, idx) in &schedule {
        let (frame, tag) = match kind {
            OpKind::Read => (read_frames[read_tags[idx]], read_tags[idx] as u32),
            OpKind::Ingest => {
                let row = all_rows[idx];
                live.append_row_ids(row);
                writes.push(Write::Ingest(row.clone()));
                (frames.push(|buf| frame::encode_ingest(buf, 0, 0, row)), idx as u32)
            }
            OpKind::Feedback => {
                let actual = exact_cardinality(&live, &pool[idx].query) as f64;
                writes.push(Write::Feedback { query: idx, actual });
                let q = &pool[idx];
                (
                    frames.push(|buf| {
                        frame::encode_feedback(buf, 0, 0, actual, &q.preds, &q.intervals)
                    }),
                    (writes.len() - 1) as u32,
                )
            }
        };
        // Reads alternate over both connections; writes keep one, in order.
        let conn = if kind == OpKind::Read { (ops.len() % 2) as u8 } else { 0 };
        ops.push(Op { at_ns, conn, kind, frame, tag });
    }
    let final_table = live;
    let truth: Vec<u64> = pool.iter().map(|q| exact_cardinality(&final_table, &q.query)).collect();
    let first_shift_ns = ((shift_at_s) * 1e9) as u64;

    // ---- Set-up (timed). ----
    let warmup = vec![read_query(0, &table, Query::all())];
    let spec = SetupSpec {
        config: ServeConfig::default(),
        spill_dir: None,
        connections: 2,
        online: Some((0, &table)),
        warmup: &warmup,
    };
    let inputs = [input];
    let rss_inputs = rss_mb();
    let mut setup_times = Vec::new();
    let (served, models, epochs) =
        set_up_times(&inputs, &spec, SET_UPS_AT_START, &mut setup_times)?
            .expect("at least one set-up");
    let result = (|| {
        let mut c = Common {
            args,
            report: Report { attempted: 0, failed: 0, metrics: Vec::new() },
            recorder: args.trace.then(Recorder::new),
        };
        let base = 1u64 << 32;
        let traced = args.trace;
        let (res, watched) =
            watched_phase(&served, &ops, &frames, base, traced, Some(Duration::ZERO))?;
        let rss = rss_mb();
        c.report.note(format!(
            "rss {rss:.1} MiB after the drift phase, {rss_inputs:.1} MiB before set-up"
        ));
        check_replies(&args.workload, "nominal", &res, base)?;
        check_all_ok(&args.workload, "nominal", &res, &ops, base)?;
        for (i, op) in ops.iter().enumerate() {
            if op.kind == OpKind::Read {
                let v = res.value[i];
                if !v.is_finite() || v < 0.0 || v > final_table.num_rows() as f64 * (1.0 + 1e-9) {
                    return Err(gate(
                        &args.workload,
                        "nominal",
                        base + i as u64,
                        format!("estimate {v} is non-finite or out of range"),
                    ));
                }
            }
        }
        let publish_ns = watched
            .publish_ns
            .ok_or_else(|| format!("{}: no retrain was published during the run", args.workload))?;
        if served.server.metrics().swaps_published != 1 {
            return Err(format!(
                "{}: expected exactly one publish, saw {}",
                args.workload,
                served.server.metrics().swaps_published
            ));
        }
        let publish_s = publish_ns.saturating_sub(first_shift_ns) as f64 / 1e9;
        // Post-publish reads: sent after the publish was observed.
        let settled: Vec<usize> = (0..ops.len())
            .filter(|&i| ops[i].kind == OpKind::Read && res.ok(i) && res.sent_ns[i] > publish_ns)
            .collect();
        if settled.is_empty() {
            return Err(format!("{}: no reads were served after the publish", args.workload));
        }
        // The unconstrained query's estimate is the serving model's row
        // count (its selectivity is the product of full-domain masses).
        let mut probe_frames = Frames::default();
        let all = read_query(0, &table, Query::all());
        let probe = [Op {
            at_ns: 0,
            conn: 0,
            kind: OpKind::Read,
            frame: encode_read(&all, &mut probe_frames),
            tag: 0,
        }];
        let (rows_probe, _) = watched_phase(&served, &probe, &probe_frames, 6 << 32, false, None)?;
        check_replies(&args.workload, "row-count probe", &rows_probe, 6 << 32)?;
        let rows_at_publish = rows_probe.ok(0).then(|| rows_probe.value[0].round() as u64);
        let twin_started = Instant::now();
        let replay = Replay { initial: &models[0], table: &table, writes: &writes, pool: &pool };
        let (published, split, tick_ms, tries) =
            twin_publish(&replay, &ops, &res, &settled, first_shift_ns, rows_at_publish)
                .ok_or_else(|| {
                    let i = settled[0];
                    gate(
                        &args.workload,
                        "nominal",
                        base + i as u64,
                        "no replay of the online loop reproduces the served post-publish estimates"
                            .into(),
                    )
                })?;
        let refs: Vec<&ReadQuery> = pool.iter().collect();
        let expected = direct(&published, &refs);
        for &i in &settled {
            let want = expected[ops[i].tag as usize];
            if res.value[i].to_bits() != want.to_bits() {
                return Err(gate(
                    &args.workload,
                    "nominal",
                    base + i as u64,
                    format!(
                        "served {} after the publish but the published model gives {want}",
                        res.value[i]
                    ),
                ));
            }
        }
        c.report.note(format!(
            "publish observed {:.3} s after the first shifted row; retrain replayed after {split} of {} writes \
             ({tries} twin candidates, {:.1} s); {} post-publish reads verified",
            publish_s,
            writes.len(),
            twin_started.elapsed().as_secs_f64(),
            settled.len()
        ));
        let ev = eval_phase(&res, &ops, OpKind::Read, NOMINAL_WINDOWS);
        if !ev.valid {
            return Err(format!(
                "{}: the generator fell behind (late p99 {:.0} µs); latencies not reported",
                args.workload, ev.late_p99
            ));
        }
        let ingest: Vec<f64> = (0..ops.len())
            .filter(|&i| ops[i].kind == OpKind::Ingest)
            .filter_map(|i| res.latency_us(i))
            .collect();
        let mut qerrs: Vec<f64> = settled
            .iter()
            .map(|&i| q_error(res.value[i], truth[ops[i].tag as usize] as f64))
            .collect();
        let nominal_attempted = ops.len() as u64;

        if c.recorder.is_some() {
            // Tracing overhead on the settled model: the same reads
            // untraced, then traced.
            let mut prng = SmallRng::seed_from_u64(args.seed ^ 0x7ace);
            let times = poisson(plan.nominal_rate, 1.0, &mut prng);
            let tags: Vec<usize> = (0..times.len()).map(|_| zipf.sample(&mut prng)).collect();
            let probe = read_ops(&times, 2, &read_frames, |i| tags[i]);
            let (traced, _) = nominal_phase(&mut c, &served, &probe, &frames)?;
            check_bit_identical(
                &args.workload,
                "trace-probe",
                &traced,
                &probe,
                1 << 32,
                &expected,
            )?;
        }

        // ---- Read ladder on the settled model. ----
        let ladder = if args.trace {
            None
        } else {
            let step_s = args.seconds * (1.0 - DRIFT_SHARE) / LADDER_SLOTS;
            let mut lrng = SmallRng::seed_from_u64(args.seed ^ 0x1add_e403);
            let (rate, ladder_qerrs) =
                run_ladder(&served, &args.workload, &plan, step_s, |rate, secs| {
                    let times = poisson(rate, secs, &mut lrng);
                    let tags: Vec<usize> =
                        (0..times.len()).map(|_| zipf.sample(&mut lrng)).collect();
                    LadderStep {
                        ops: read_ops(&times, 2, &read_frames, |i| tags[i]),
                        frames: frames.clone(),
                        expected: expected.clone(),
                        truth: truth.clone(),
                    }
                })?;
            qerrs.extend(ladder_qerrs);
            Some(rate)
        };
        let measured = Measured {
            eval: ev,
            qerrs,
            rss,
            max_rate: ladder,
            ingest_p99: stats::percentile(&ingest, 99.0),
            publish_s,
            epochs: &epochs,
            nominal: &(res, watched),
            nominal_ops: &ops,
        };
        if c.args.trace {
            c.report.metric("online.tick_ms", tick_ms, "ms");
        }
        let shift_refs: Vec<Vec<u32>> = shift_rows.clone();
        finish(
            &mut c,
            &served,
            &plan,
            measured,
            &layers::LayerInputs {
                model: &models[0],
                queries: &refs,
                frames: &frames,
                frame_ids: &read_frames,
                online_table: &table,
                online_rows: &shift_refs,
                repeated_keys: true,
            },
        )?;
        // The reads, ingests and feedbacks of the drift run are all its
        // nominal operations.
        c.report.attempted = nominal_attempted;
        Ok(c.report)
    })();
    end_run(result, served, &inputs, &spec, setup_times, args)
}

/// Rebuild the published model: replay the online loop on a twin
/// `OnlineTable` with the same initial model, rows and feedback, letting
/// the retrain run after the first `k` writes, for candidate `k`s ordered
/// by how likely the live retrain ran there (the first write whose reply
/// was held up by the retrain's lock goes first). Returns the twin's
/// published model once it reproduces the served post-publish estimates,
/// with the split and the retraining tick's duration in ms.
fn twin_publish(
    replay: &Replay<'_>,
    ops: &[Op],
    res: &PhaseResult,
    settled: &[usize],
    first_shift_ns: u64,
    rows_at_publish: Option<u64>,
) -> Option<(DuetEstimator, usize, f64, usize)> {
    let (table, writes, pool) = (replay.table, replay.writes, replay.pool);
    // Write ops in write order with their reply latency.
    let write_ops: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].kind != OpKind::Read).collect();
    let lat: Vec<f64> = write_ops.iter().map(|&i| res.latency_us(i).unwrap_or(0.0)).collect();
    let typical = stats::median(&lat);
    // The retrain can only follow the first shifted row.
    let shift_from = write_ops.iter().position(|&i| ops[i].at_ns >= first_shift_ns).unwrap_or(0);
    let mut candidates: Vec<usize> = Vec::new();
    // The published model's row count says how many rows were ingested
    // before the retrain: only the feedback interleaved after that ingest
    // is left to place.
    if let Some(rows) = rows_at_publish {
        let ingested_before = rows.saturating_sub(table.num_rows() as u64);
        let mut seen = 0u64;
        for (k, w) in writes.iter().enumerate() {
            if seen == ingested_before {
                candidates.push(k);
            }
            if matches!(w, Write::Ingest(_)) {
                seen += 1;
            }
        }
        if seen == ingested_before {
            candidates.push(writes.len());
        }
    }
    // Then around the first write the retrain's lock held up.
    if let Some(first_held) =
        (shift_from..lat.len()).find(|&j| lat[j] > (typical * 4.0).max(3_000.0))
    {
        for d in 0..64usize {
            candidates.push(first_held.saturating_sub(d).max(shift_from));
            candidates.push((first_held + d).min(writes.len()));
        }
    }
    let mut tried = std::collections::HashSet::new();
    // A few distinct served probes decide each candidate quickly.
    let mut probes: Vec<(usize, f64)> = Vec::new();
    for &i in settled {
        let q = ops[i].tag as usize;
        if !probes.iter().any(|&(p, _)| p == q) {
            probes.push((q, res.value[i]));
        }
        if probes.len() == 8 {
            break;
        }
    }
    for k in candidates {
        if !tried.insert(k) {
            continue;
        }
        let Some((model, tick_ms)) = twin_retrain(replay, k) else {
            continue;
        };
        let refs: Vec<&ReadQuery> = probes.iter().map(|&(q, _)| &pool[q]).collect();
        let got = direct(&model, &refs);
        if got.iter().zip(&probes).all(|(g, &(_, served))| g.to_bits() == served.to_bits()) {
            return Some((model, k, tick_ms, tried.len()));
        }
    }
    None
}

/// What a twin replay of the online loop starts from.
struct Replay<'a> {
    /// The model registered before any write.
    initial: &'a DuetEstimator,
    /// The table online learning was enabled with.
    table: &'a Table,
    /// Every write, in the order the server applied them.
    writes: &'a [Write],
    /// The read pool feedback writes refer to.
    pool: &'a [ReadQuery],
}

/// Apply the first `k` writes to a twin online table and run ticks until it
/// retrains; returns the published model and the retraining tick's duration
/// (ms).
fn twin_retrain(replay: &Replay<'_>, k: usize) -> Option<(DuetEstimator, f64)> {
    let Replay { initial, table, writes, pool } = *replay;
    let writes = &writes[..k];
    use duet_serve::{
        HotSet, ModelSlot, ModelTier, OnlineHooks, OnlineTable, ServeMetrics, ShardedCache,
    };
    let slot = Arc::new(ModelSlot::new(initial.clone()));
    let hooks = OnlineHooks {
        slot: slot.clone(),
        cache: Arc::new(ShardedCache::new(4096, 8)),
        hot: Arc::new(HotSet::new(64)),
        tier: Arc::new(ModelTier::new(0)),
        metrics: Arc::new(ServeMetrics::new()),
        table_id: 0,
    };
    let mut twin = OnlineTable::new(table.clone(), OnlineConfig::default(), hooks);
    for w in writes {
        match w {
            Write::Ingest(row) => {
                twin.ingest_row(row).ok()?;
            }
            Write::Feedback { query, actual } => {
                let q = &pool[*query];
                twin.push_feedback(slot.uid(), q.preds.clone(), q.intervals.clone(), *actual)
                    .ok()?;
            }
        }
    }
    for _ in 0..4 {
        let started = Instant::now();
        let report = twin.tick();
        if report.retrained {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            return report.swapped.then(|| ((*slot.current()).clone(), ms));
        }
    }
    None
}
