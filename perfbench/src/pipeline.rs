//! Pieces every workload shares: loading `.mtx` text, timed set-up, the
//! checked reference pass, and the layer-by-layer solve path the traced run
//! drives from outside the session.

use std::collections::BTreeMap;
use std::time::Instant;

use capellini_core::{
    kernels, solve_serial_csr, Algorithm, DeviceCsr, PooledSolveBuffers, SolverSession,
};
use capellini_simt::{DeviceConfig, GpuDevice, LaunchStats};
use capellini_sparse::io::parse_matrix_market;
use capellini_sparse::{
    CsrMatrix, LevelSets, LowerTriangularCsr, MatrixStats, Schedule, ScheduleParams,
};

use crate::calib::HostSpeed;
use crate::check::{matches_reference, Digest, Tally};
use crate::inputs::{MatrixInput, RHS_PER_MATRIX};
use crate::trace::{Samples, Tracer};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Time one set-up burst spends repeating set-up, so that a set-up of a
/// few milliseconds is the median of hundreds of repetitions.
pub const SETUP_BURST_S: f64 = 0.1;
/// Upper limit on set-up repetitions per burst.
pub const SETUP_MAX_REPS: usize = 200;
/// A measured loop runs in this many equal segments...
pub const SEGMENTS: usize = 19;
/// ...with a set-up burst and host-speed probes before the first and after
/// each, so set-up and host speed are sampled across the whole run rather
/// than in its first second: host speed on a shared machine drifts over
/// seconds, and set-up time and the probe should see the same drift as
/// solve time.
pub const SETUP_BURSTS: usize = SEGMENTS + 1;

/// Host-speed probe samples taken before a measured loop and after each of
/// its segments.
pub const PROBES_PER_BURST: usize = 12;

/// Takes [`PROBES_PER_BURST`] host-speed samples.
pub fn probe(speed: &mut HostSpeed) {
    for _ in 0..PROBES_PER_BURST {
        speed.sample();
    }
}

/// The simulated device every workload runs on.
pub fn device() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub digest: Digest,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `.mtx` text → validated lower-triangular matrix.
pub fn load(text: &str) -> Result<LowerTriangularCsr, String> {
    let coo = parse_matrix_market(text).map_err(|e| format!("parse: {e}"))?;
    LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).map_err(|e| format!("assemble: {e}"))
}

/// [`load`] with a span around each of its two layers.
pub fn load_traced(text: &str, tr: &mut Tracer) -> Result<LowerTriangularCsr, String> {
    let coo = tr
        .span("sparse.io.parse", || parse_matrix_market(text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.span("sparse.csr.assemble", || {
        LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo))
    })
    .map_err(|e| format!("assemble: {e}"))
}

/// Set-up time samples of one run, in seconds.
#[derive(Default)]
pub struct SetupClock {
    secs: Samples,
    bursts: usize,
}

impl SetupClock {
    /// Runs `build` at least once and until `budget_s` is spent, dropping
    /// each result before the next build so every repetition starts from
    /// the same memory state, and timing each repetition. Returns the last
    /// result.
    pub fn burst<T>(
        &mut self,
        budget_s: f64,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let (mut spent, mut reps) = (0.0, 0);
        let mut last = None;
        while last.is_none() || (spent < budget_s && reps < SETUP_MAX_REPS) {
            drop(last.take());
            let t0 = Instant::now();
            let built = build()?;
            let secs = t0.elapsed().as_secs_f64();
            self.secs.push(secs);
            (spent, reps) = (spent + secs, reps + 1);
            last = Some(built);
        }
        self.bursts += 1;
        Ok(last.expect("a burst builds at least once"))
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        self.secs.median()
    }

    pub fn note(&self, notes: &mut Vec<String>) {
        notes.push(format!(
            "setup_s over {} repetitions in {} bursts: p10={:.6} median={:.6} p90={:.6}",
            self.secs.len(),
            self.bursts,
            self.secs.percentile(0.1),
            self.secs.median(),
            self.secs.percentile(0.9)
        ));
    }
}

/// Set-up under a `setup` span: loads each input's text, times from
/// outside the analysis layers a session build performs — statistics
/// (which includes a level-set pass), a separate level-set analysis, and
/// the coarsened schedule a Scheduled pick would build — and hands the
/// matrix to `wrap`, which makes what the workload serves from. Records the
/// summed level and schedule-unit counts.
pub fn setup_traced<T>(
    cfg: &DeviceConfig,
    inputs: &[MatrixInput],
    tr: &mut Tracer,
    layers: &mut Metrics,
    mut wrap: impl FnMut(LowerTriangularCsr, &MatrixInput, &mut Tracer) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let root = tr.enter("setup");
    let mut built = Vec::new();
    let (mut n_levels, mut units) = (0, 0);
    for input in inputs {
        let l = load_traced(&input.text, tr)?;
        std::hint::black_box(tr.span("sparse.stats.compute", || MatrixStats::compute(&l)));
        let levels = tr.span("sparse.levels.analyze", || LevelSets::analyze(&l));
        let schedule = tr.span("sparse.schedule.build", || {
            Schedule::build(&l, &levels, ScheduleParams::for_warp(cfg.warp_size))
        });
        n_levels += levels.n_levels();
        units += schedule.n_units();
        built.push(wrap(l, input, tr)?);
    }
    tr.exit(root);
    layers.insert("sparse.levels.n_levels", n_levels as f64);
    layers.insert("sparse.schedule.units", units as f64);
    Ok(built)
}

/// The checked result of one deterministic single-device solve.
pub struct Expected {
    /// `reference::solve_serial_csr`'s solution.
    pub x_ref: Vec<f64>,
    /// The session's solution (empty if the solve failed).
    pub x_dev: Vec<f64>,
    pub stats: LaunchStats,
    pub heap_events: u64,
}

/// Warms each session with one solve (a device's first launch reads its
/// data from DRAM, later ones hit L2), then solves every right-hand side of
/// every matrix once, checks each solution against the serial reference,
/// and folds every solve's statistics into `digest`. Indexed
/// `[matrix][rhs]`; all entries are warm solves.
pub fn reference_pass(
    sessions: &mut [SolverSession],
    inputs: &[MatrixInput],
    tally: &mut Tally,
    digest: &mut Digest,
) -> Vec<Vec<Expected>> {
    sessions
        .iter_mut()
        .zip(inputs)
        .map(|(s, input)| {
            std::iter::once(&input.rhs[0])
                .chain(&input.rhs)
                .map(|b| {
                    let x_ref = solve_serial_csr(s.matrix(), b);
                    match s.solve(b) {
                        Ok(rep) => {
                            let heap_events = s.device().last_launch_heap_events();
                            tally.record(matches_reference(rep.algorithm, &rep.x, &x_ref));
                            digest.solve(&rep.stats, heap_events);
                            Expected {
                                x_ref,
                                x_dev: rep.x,
                                stats: rep.stats,
                                heap_events,
                            }
                        }
                        Err(e) => {
                            eprintln!("{}: reference solve failed: {e}", input.name);
                            tally.record(false);
                            Expected {
                                x_ref,
                                x_dev: Vec::new(),
                                stats: LaunchStats::default(),
                                heap_events: 0,
                            }
                        }
                    }
                })
                .skip(1)
                .collect()
        })
        .collect()
}

/// Simulated statistics of one pass over the matrix set (first right-hand
/// side of each matrix): summed launch statistics and heap events.
pub fn first_pass(
    expected: &[Vec<Expected>],
    inputs: &[MatrixInput],
    notes: &mut Vec<String>,
) -> (LaunchStats, u64) {
    let mut total = LaunchStats::default();
    let mut heap = 0;
    for (e, input) in expected.iter().zip(inputs) {
        total.accumulate(&e[0].stats);
        heap += e[0].heap_events;
        notes.push(format!(
            "simulated {}: warm_cycles={} heap_events={}",
            input.name, e[0].stats.cycles, e[0].heap_events
        ));
    }
    (total, heap)
}

/// Fills the `simt.launch.*` metrics from one pass's statistics.
pub fn launch_metrics(m: &mut Metrics, s: &LaunchStats) {
    m.insert("simt.launch.cycles", s.cycles as f64);
    m.insert("simt.launch.warp_instructions", s.warp_instructions as f64);
    m.insert("simt.launch.failed_polls", s.failed_polls as f64);
    m.insert("simt.launch.stall_ticks", s.stall_ticks as f64);
    m.insert(
        "simt.launch.dram_bytes",
        (s.dram_read_bytes + s.dram_write_bytes) as f64,
    );
    m.insert("simt.launch.fences", s.fences as f64);
}

/// Fills the set-up layer metrics recorded under `parent` spans (one per
/// set-up repetition): each layer's time summed over the matrix set, median
/// over repetitions.
pub fn setup_layer_metrics(m: &mut Metrics, tr: &Tracer, parent: &str, text_bytes: usize) {
    let parse_ms = tr.per_parent_ms(parent, "sparse.io.parse").median();
    m.insert("sparse.io.parse_ms", parse_ms);
    m.insert(
        "sparse.io.parse_mb_per_s",
        ratio(text_bytes as f64 / 1e6, parse_ms / 1e3),
    );
    for (metric, span) in [
        ("sparse.csr.assemble_ms", "sparse.csr.assemble"),
        ("sparse.stats.compute_ms", "sparse.stats.compute"),
        ("sparse.levels.analyze_ms", "sparse.levels.analyze"),
        ("sparse.schedule.build_ms", "sparse.schedule.build"),
        ("sparse.partition.build_ms", "sparse.partition.build"),
        ("core.session.build_ms", "core.session.build"),
    ] {
        m.insert(metric, tr.per_parent_ms(parent, span).median());
    }
}

/// Measured session build time next to the modeled analysis cost, per
/// matrix and summed. `build_spans` holds every `core.session.build` span
/// in build order (matrix-major within each repetition).
pub fn model_drift(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    sessions: &[SolverSession],
    inputs: &[MatrixInput],
    build_spans: &Samples,
) {
    let per_matrix = build_spans.strided(sessions.len());
    let mut measured_total = 0.0;
    let mut modeled_total = 0.0;
    for ((s, input), builds) in sessions.iter().zip(inputs).zip(per_matrix) {
        let measured = builds.median();
        let modeled = s.analysis_ms();
        measured_total += measured;
        modeled_total += modeled;
        notes.push(format!(
            "model {}: core.session.build_ms={measured:.3} analysis_ms_modeled={modeled:.3} ratio={:.3}",
            input.name,
            ratio(measured, modeled)
        ));
    }
    m.insert("core.session.analysis_ms_modeled", modeled_total);
    m.insert(
        "core.session.model_ratio",
        ratio(measured_total, modeled_total),
    );
}

/// Host-side engine totals over the launches of a [`LayerPath`].
#[derive(Default, Clone, Copy)]
pub struct EngineTotals {
    pub launch_ms: f64,
    pub heap_events: u64,
    pub warp_instructions: u64,
    pub cycles: u64,
}

impl EngineTotals {
    pub fn sum<'a>(paths: impl IntoIterator<Item = &'a LayerPath>) -> Self {
        let mut total = EngineTotals::default();
        for p in paths {
            total.merge(p.engine);
        }
        total
    }

    pub fn merge(&mut self, o: EngineTotals) {
        self.launch_ms += o.launch_ms;
        self.heap_events += o.heap_events;
        self.warp_instructions += o.warp_instructions;
        self.cycles += o.cycles;
    }

    pub fn insert(&self, m: &mut Metrics) {
        let secs = self.launch_ms / 1e3;
        m.insert(
            "simt.engine.ns_per_event",
            ratio(self.launch_ms * 1e6, self.heap_events as f64),
        );
        m.insert(
            "simt.engine.warp_instr_per_s",
            ratio(self.warp_instructions as f64, secs),
        );
        m.insert("simt.engine.cycles_per_s", ratio(self.cycles as f64, secs));
    }
}

/// A session's warm solve taken apart into its public layers — matrix
/// upload, right-hand-side upload, kernel launch, readback — so the traced
/// run can time each one from outside.
pub struct LayerPath {
    dev: GpuDevice,
    dm: DeviceCsr,
    pool: PooledSolveBuffers,
    algorithm: Algorithm,
    n: usize,
    pub engine: EngineTotals,
}

impl LayerPath {
    pub fn new(
        cfg: &DeviceConfig,
        l: &LowerTriangularCsr,
        algorithm: Algorithm,
        tr: &mut Tracer,
    ) -> Self {
        let mut dev = GpuDevice::new(cfg.clone());
        let dm = tr.span("core.buffers.csr_upload", || DeviceCsr::upload(&mut dev, l));
        let pool = PooledSolveBuffers::new(&mut dev, l.n(), l.n());
        LayerPath {
            dev,
            dm,
            pool,
            algorithm,
            n: l.n(),
            engine: EngineTotals::default(),
        }
    }

    /// One untimed solve, so later launches run warm like a session's.
    pub fn warm_up(&mut self, b: &[f64]) -> Result<Vec<f64>, String> {
        let solved = self.solve(b, &mut Tracer::default());
        self.engine = EngineTotals::default();
        solved.map(|(x, _)| x)
    }

    /// One warm solve, layer by layer, each layer in its own span.
    pub fn solve(&mut self, b: &[f64], tr: &mut Tracer) -> Result<(Vec<f64>, LaunchStats), String> {
        let (dev, dm) = (&mut self.dev, self.dm);
        tr.span("core.buffers.upload", || self.pool.prepare(dev, b, self.n));
        let sb = self.pool.view();
        let t0 = Instant::now();
        let launched = tr.span("core.kernels.launch", || match self.algorithm {
            Algorithm::CapelliniWritingFirst => kernels::writing_first::launch(dev, dm, sb),
            Algorithm::CapelliniTwoPhase => kernels::two_phase::launch(dev, dm, sb),
            Algorithm::SyncFree => kernels::syncfree::launch(dev, dm, sb),
            Algorithm::NaiveThread => kernels::naive::launch(dev, dm, sb),
            other => Err(capellini_simt::SimtError::Launch(format!(
                "the layer path does not drive {}",
                other.label()
            ))),
        });
        let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = launched.map_err(|e| e.to_string())?;
        let x = tr.span("core.buffers.readback", || self.pool.read_x(&self.dev));
        self.engine.merge(EngineTotals {
            launch_ms,
            heap_events: self.dev.last_launch_heap_events(),
            warp_instructions: stats.warp_instructions,
            cycles: stats.cycles,
        });
        Ok((x, stats))
    }
}

/// Per-call medians of the solve-path layer spans.
pub fn solve_layer_metrics(m: &mut Metrics, tr: &Tracer) {
    m.insert(
        "core.buffers.csr_upload_ms",
        tr.durations_ms("core.buffers.csr_upload").sum(),
    );
    m.insert(
        "core.buffers.upload_ms",
        tr.durations_ms("core.buffers.upload").median(),
    );
    m.insert(
        "core.buffers.readback_ms",
        tr.durations_ms("core.buffers.readback").median(),
    );
    m.insert(
        "core.kernels.launch_ms",
        tr.durations_ms("core.kernels.launch").median(),
    );
}

/// Tracing overhead: mean latency of the interleaved traced and untraced
/// calls. Means, not medians, because both sides mix the same matrices
/// and a median of a mixture can jump between matrices.
pub fn overhead_metrics(m: &mut Metrics, untraced: &Samples, traced: &Samples) {
    let (u, t) = (untraced.mean(), traced.mean());
    m.insert("trace.untraced_solve_ms_mean", u);
    m.insert("trace.traced_solve_ms_mean", t);
    m.insert("trace.overhead_pct", 100.0 * (ratio(t, u) - 1.0));
}

/// A measured loop: per-call latencies, correct calls, and wall time.
pub struct Timed {
    pub lat_ms: Samples,
    /// The same latencies split by matrix.
    pub per_matrix_ms: Vec<Samples>,
    /// Each latency scaled by the probe samples taken right before and
    /// after the call ([`HostSpeed::bracket`]); empty when the loop took
    /// none.
    pub bracketed_ms: Samples,
    pub correct: u64,
    /// Wall time of the measured calls and their checks, probe samples
    /// excluded.
    pub wall_s: f64,
}

/// How long a measured loop runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// `secs` of measured calls in [`SEGMENTS`] equal segments.
    Seconds(f64),
    /// Exactly one call per (matrix, right-hand side) pair.
    OnePass,
}

/// In a traced run, odd right-hand sides take the traced path and even
/// ones the untraced path. Rounds over the matrix set alternate between
/// the two, so both see the same host conditions and their difference is
/// the tracing overhead.
pub fn traced_rhs(r: usize) -> bool {
    r % 2 == 1
}

/// Calls `solve(matrix, rhs)` round-robin over every (matrix, right-hand
/// side) pair until the budget is spent, timing each call; `check` then
/// judges each result outside the timed region. With a time budget,
/// `between` runs after each segment, outside the measured wall time. With
/// `speed`, a probe sample follows every call (so each call sits between
/// two) and [`probe`] runs after `between`.
pub fn round_robin<T>(
    budget: Budget,
    matrices: usize,
    mut solve: impl FnMut(usize, usize) -> T,
    mut check: impl FnMut(usize, usize, T) -> bool,
    mut between: impl FnMut() -> Result<(), String>,
    mut speed: Option<&mut HostSpeed>,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let mut per_matrix_ms = vec![Samples::default(); matrices];
    let mut bracketed_ms = Samples::default();
    let mut correct = 0;
    let mut wall_s = 0.0;
    let mut k = 0;
    let segments = match budget {
        Budget::Seconds(_) => SEGMENTS,
        Budget::OnePass => 1,
    };
    for _ in 0..segments {
        let mut before = speed.as_deref_mut().map(HostSpeed::sample);
        let start = Instant::now();
        let mut probe_s = 0.0;
        while match budget {
            Budget::Seconds(secs) => {
                start.elapsed().as_secs_f64() - probe_s < secs / SEGMENTS as f64
            }
            Budget::OnePass => k < matrices * RHS_PER_MATRIX,
        } {
            let (i, r) = (k % matrices, (k / matrices) % RHS_PER_MATRIX);
            let t0 = Instant::now();
            let out = solve(i, r);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            per_matrix_ms[i].push(ms);
            if let (Some(s), Some(prev)) = (speed.as_deref_mut(), before) {
                let t1 = Instant::now();
                let after = s.sample();
                probe_s += t1.elapsed().as_secs_f64();
                bracketed_ms.push(HostSpeed::bracket(ms, prev, after));
                before = Some(after);
            }
            let ok = check(i, r, out);
            tally.record(ok);
            correct += u64::from(ok);
            k += 1;
        }
        wall_s += start.elapsed().as_secs_f64() - probe_s;
        if matches!(budget, Budget::Seconds(_)) {
            between()?;
            if let Some(s) = speed.as_deref_mut() {
                probe(s);
            }
        }
    }
    let mut timed = Timed::new(per_matrix_ms, correct, wall_s);
    timed.bracketed_ms = bracketed_ms;
    Ok(timed)
}

impl Timed {
    pub fn new(per_matrix_ms: Vec<Samples>, correct: u64, wall_s: f64) -> Self {
        let mut lat_ms = Samples::default();
        for s in &per_matrix_ms {
            lat_ms.extend(s.clone());
        }
        Timed {
            lat_ms,
            per_matrix_ms,
            bracketed_ms: Samples::default(),
            correct,
            wall_s,
        }
    }
}

/// One line per matrix: its shape, statistics and the session's pick.
pub fn matrix_notes(notes: &mut Vec<String>, sessions: &[SolverSession], inputs: &[MatrixInput]) {
    for (s, input) in sessions.iter().zip(inputs) {
        let st = s.stats();
        notes.push(format!(
            "matrix {}: n={} nnz={} levels={} granularity={:.3} algorithm={}",
            input.name,
            st.n,
            st.nnz,
            st.n_levels,
            st.granularity,
            s.algorithm().label()
        ));
    }
}

/// The end-to-end metrics of an untraced run: set-up time, latency and
/// throughput, each scaled to the reference host speed — latencies call by
/// call where the loop bracketed each call with probe samples, the rest by
/// the run's median sample. The notes keep the unscaled figures.
pub fn end_to_end_metrics(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    clock: &SetupClock,
    speed: &HostSpeed,
    t: &Timed,
    inputs: &[MatrixInput],
) {
    let scale = speed.scale();
    let solves_per_s = ratio(t.correct as f64, t.wall_s);
    // The loop's wall time scales by the time-weighted mean of its calls'
    // own factors where it has them.
    let (p50, p90, loop_scale) = if t.bracketed_ms.len() > 0 {
        (
            t.bracketed_ms.median(),
            t.bracketed_ms.percentile(0.9),
            t.bracketed_ms.sum() / t.lat_ms.sum(),
        )
    } else {
        (
            t.lat_ms.median() * scale,
            t.lat_ms.percentile(0.9) * scale,
            scale,
        )
    };
    m.insert("setup_s", clock.median() * scale);
    m.insert("solve_ms_p50", p50);
    m.insert("solve_ms_p90", p90);
    m.insert("solves_per_s", solves_per_s / loop_scale);
    speed.note(notes);
    notes.push(format!(
        "unscaled: setup_s={:.6} solve_ms_p50={:.3} solve_ms_p90={:.3} solves_per_s={:.3}",
        clock.median(),
        t.lat_ms.median(),
        t.lat_ms.percentile(0.9),
        solves_per_s
    ));
    notes.push(format!("timed solves: {}", t.lat_ms.len()));
    for (input, s) in inputs.iter().zip(&t.per_matrix_ms) {
        notes.push(format!(
            "latency {}: solves={} p50_ms={:.3} p90_ms={:.3}",
            input.name,
            s.len(),
            s.median(),
            s.percentile(0.9)
        ));
    }
}
