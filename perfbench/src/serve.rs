//! `serve-skewed`: a closed loop of [`CLIENTS`] tenants against a
//! `SolverService` whose registry holds fewer sessions than the matrix
//! population, so hot-skewed requests mix warm coalesced solves with
//! eviction and session rebuilds.

use std::time::{Duration, Instant};

use capellini_core::{MatrixHandle, ServiceConfig, ServiceMetrics, SolverService, SolverSession};
use capellini_simt::DeviceConfig;

use crate::calib::HostSpeed;
use crate::check::{bitwise_equal, Digest, Tally};
use crate::inputs::{splitmix, MatrixInput, RHS_PER_MATRIX};
use crate::pipeline::{
    device, end_to_end_metrics, first_pass, launch_metrics, load, matrix_notes, model_drift,
    overhead_metrics, ratio, reference_pass, setup_layer_metrics, setup_traced,
    solve_layer_metrics, traced_rhs, EngineTotals, Expected, Metrics, Outcome, SetupClock, Timed,
    PROBES_PER_BURST, SEGMENTS, SETUP_BURSTS, SETUP_BURST_S,
};
use crate::solve::layer_pass;
use crate::trace::{Samples, Tracer};

/// Closed-loop clients, one tenant each (the host has 2 CPUs).
pub const CLIENTS: usize = 2;
/// Sessions the registry keeps resident: fewer than the population.
pub const REGISTRY_SESSIONS: usize = 4;
/// How long a worker waits for same-matrix arrivals to coalesce.
pub const COALESCE_WINDOW: Duration = Duration::from_millis(2);

fn service_config(cfg: &DeviceConfig) -> ServiceConfig {
    ServiceConfig::new(cfg.clone())
        .with_shards(1)
        .with_sessions_per_shard(REGISTRY_SESSIONS)
        .with_coalesce_window(COALESCE_WINDOW)
}

/// Requests per matrix in one deck: falling off as 1/rank, hottest first.
const DECK_SHARES: [usize; 6] = [60, 30, 20, 15, 12, 10];

/// A client's request order: decks of [`DECK_SHARES`] requests per matrix,
/// each deck shuffled from the client's seed. Every run sends the same mix,
/// so the latency percentiles are taken over the same mixture of matrices
/// at every seed; only the order changes.
struct Deck {
    state: u64,
    cards: Vec<usize>,
}

impl Deck {
    fn new(state: u64) -> Self {
        Deck {
            state,
            cards: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.cards.is_empty() {
            for (i, &n) in DECK_SHARES.iter().enumerate() {
                self.cards.extend(std::iter::repeat_n(i, n));
            }
            for k in (1..self.cards.len()).rev() {
                let j = (splitmix(&mut self.state) % (k as u64 + 1)) as usize;
                self.cards.swap(k, j);
            }
        }
        self.cards
            .pop()
            .expect("a deck is never empty after a refill")
    }
}

/// What one closed loop measured.
struct LoopResult {
    timed: Timed,
    service: ServiceMetrics,
    /// Traced runs only: round trips made inside a `core.service.solve`
    /// span (odd right-hand sides) and those made without one.
    traced_ms: Samples,
    untraced_ms: Samples,
}

/// One closed-loop client: its tenant, request stream and what it measured.
struct Client {
    tenant: String,
    deck: Deck,
    /// Round-trip latencies per matrix.
    lat: Vec<Samples>,
    tally: Tally,
    tr: Tracer,
    untraced: Samples,
}

impl Client {
    /// Sends requests one at a time until `deadline`, checking each
    /// response bitwise against a serial session's solution.
    fn run(
        &mut self,
        service: &SolverService,
        handles: &[MatrixHandle],
        inputs: &[MatrixInput],
        expected: &[Vec<Expected>],
        deadline: Instant,
        traced: bool,
    ) {
        while Instant::now() < deadline {
            let i = self.deck.next();
            let r = (splitmix(&mut self.deck.state) % RHS_PER_MATRIX as u64) as usize;
            let b = &inputs[i].rhs[r];
            let t0 = Instant::now();
            let res = if traced && traced_rhs(r) {
                self.tr.span("core.service.solve", || {
                    service.solve(&self.tenant, &handles[i], b)
                })
            } else {
                service.solve(&self.tenant, &handles[i], b)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.lat[i].push(ms);
            if traced && !traced_rhs(r) {
                self.untraced.push(ms);
            }
            let exp = &expected[i][r];
            self.tally.record(
                res.is_ok_and(|resp| !exp.x_dev.is_empty() && bitwise_equal(&resp.x, &exp.x_dev)),
            );
        }
    }
}

/// Runs the closed loop for `secs` on a fresh service, in [`SEGMENTS`]
/// segments with `between` run after each while the clients pause (the
/// service and its resident sessions stay up).
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    handles: &[MatrixHandle],
    inputs: &[MatrixInput],
    expected: &[Vec<Expected>],
    seed: u64,
    secs: f64,
    traced: bool,
    mut between: impl FnMut() -> Result<(), String>,
    tally: &mut Tally,
) -> Result<LoopResult, String> {
    let service = SolverService::new(service_config(&device()));
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            tenant: format!("tenant-{c}"),
            deck: Deck::new(seed ^ splitmix(&mut (0xc11e_4700 + c as u64))),
            lat: vec![Samples::default(); handles.len()],
            tally: Tally::default(),
            tr: Tracer::default(),
            untraced: Samples::default(),
        })
        .collect();
    let mut wall_s = 0.0;
    for _ in 0..SEGMENTS {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs / SEGMENTS as f64);
        std::thread::scope(|scope| {
            for client in &mut clients {
                let service = &service;
                scope.spawn(move || {
                    client.run(service, handles, inputs, expected, deadline, traced)
                });
            }
        });
        wall_s += start.elapsed().as_secs_f64();
        between()?;
    }
    service.shutdown();
    let mut per_matrix_ms = vec![Samples::default(); handles.len()];
    let mut loop_tally = Tally::default();
    let (mut traced_ms, mut untraced_ms) = (Samples::default(), Samples::default());
    for client in clients {
        for (all, mine) in per_matrix_ms.iter_mut().zip(client.lat) {
            all.extend(mine);
        }
        loop_tally.merge(client.tally);
        traced_ms.extend(client.tr.durations_ms("core.service.solve"));
        untraced_ms.extend(client.untraced);
    }
    tally.merge(loop_tally);
    Ok(LoopResult {
        timed: Timed::new(
            per_matrix_ms,
            loop_tally.attempted - loop_tally.failed,
            wall_s,
        ),
        service: service.metrics(),
        traced_ms,
        untraced_ms,
    })
}

/// One set-up: text → one submission handle per input.
fn build_handles(inputs: &[MatrixInput]) -> Result<Vec<MatrixHandle>, String> {
    inputs
        .iter()
        .map(|input| Ok(MatrixHandle::new(load(&input.text)?)))
        .collect()
}

fn service_notes(notes: &mut Vec<String>, m: &ServiceMetrics) {
    notes.push(format!(
        "service: solves={} launches={} mean_batch={:.3} sessions_created={} evictions={} rejects={} solve_errors={} queue_ms_mean={:.3}",
        m.solves,
        m.launches,
        m.mean_batch(),
        m.sessions_created,
        m.evictions,
        m.rejects,
        m.solve_errors,
        ratio(m.queue_ms_total, m.solves as f64)
    ));
}

pub fn run(
    inputs: Vec<MatrixInput>,
    seed: u64,
    secs: f64,
    traced: bool,
) -> Result<Outcome, String> {
    if inputs.len() != DECK_SHARES.len() {
        return Err(format!(
            "{} matrices for {} request shares",
            inputs.len(),
            DECK_SHARES.len()
        ));
    }
    let cfg = device();
    let mut tr = Tracer::default();
    let mut metrics = Metrics::new();
    let mut notes = Vec::new();

    // Set-up: `.mtx` text → submission handles. Sessions are built inside
    // the service on admission.
    let mut clock = SetupClock::default();
    let handles = if traced {
        clock.burst(SETUP_BURST_S * SETUP_BURSTS as f64, || {
            setup_traced(&cfg, &inputs, &mut tr, &mut metrics, |l, _, _| {
                Ok(MatrixHandle::new(l))
            })
        })?
    } else {
        clock.burst(SETUP_BURST_S, || build_handles(&inputs))?
    };

    // Serial sessions, one per matrix, produce the expected responses.
    let root = tr.enter("reference");
    let mut sessions: Vec<SolverSession> = handles
        .iter()
        .map(|h| {
            tr.span("core.session.build", || {
                SolverSession::new(&cfg, h.matrix().clone())
            })
        })
        .collect();
    tr.exit(root);
    matrix_notes(&mut notes, &sessions, &inputs);
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let expected = reference_pass(&mut sessions, &inputs, &mut tally, &mut digest);
    let (pass, heap_events) = first_pass(&expected, &inputs, &mut notes);
    let grid_reuses: u64 = sessions.iter().map(|s| s.device().grid_reuses()).sum();

    if traced {
        let text_bytes = inputs.iter().map(|i| i.text.len()).sum();
        setup_layer_metrics(&mut metrics, &tr, "setup", text_bytes);
        let builds = tr.durations_ms("core.session.build");
        metrics.insert("core.session.build_ms", builds.sum());
        model_drift(&mut metrics, &mut notes, &sessions, &inputs, &builds);
        let paths = layer_pass(&cfg, &sessions, &inputs, &expected, &mut tr, &mut tally);
        drop(sessions);
        solve_layer_metrics(&mut metrics, &tr);
        EngineTotals::sum(&paths).insert(&mut metrics);
        metrics.insert("simt.engine.heap_events", heap_events as f64);
        metrics.insert("simt.engine.grid_reuses", grid_reuses as f64);
        launch_metrics(&mut metrics, &pass);

        let run = closed_loop(
            &handles,
            &inputs,
            &expected,
            seed,
            secs,
            true,
            || Ok(()),
            &mut tally,
        )?;
        let m = run.service;
        service_notes(&mut notes, &m);
        metrics.insert(
            "core.service.queue_ms_mean",
            ratio(m.queue_ms_total, m.solves as f64),
        );
        metrics.insert("core.service.mean_batch", m.mean_batch());
        metrics.insert("core.service.launches", m.launches as f64);
        metrics.insert("core.service.sessions_created", m.sessions_created as f64);
        metrics.insert("core.service.evictions", m.evictions as f64);
        metrics.insert("core.service.rejects", m.rejects as f64);
        metrics.insert("core.service.analysis_ms_total", m.analysis_ms_total);
        overhead_metrics(&mut metrics, &run.untraced_ms, &run.traced_ms);
    } else {
        drop(sessions);
        // The service runs on every CPU, so each pause probes them all.
        let mut speed = HostSpeed::default();
        speed.sample_parallel(CLIENTS, PROBES_PER_BURST);
        let run = closed_loop(
            &handles,
            &inputs,
            &expected,
            seed,
            secs,
            false,
            || {
                clock.burst(SETUP_BURST_S, || build_handles(&inputs))?;
                speed.sample_parallel(CLIENTS, PROBES_PER_BURST);
                Ok(())
            },
            &mut tally,
        )?;
        service_notes(&mut notes, &run.service);
        end_to_end_metrics(
            &mut metrics,
            &mut notes,
            &clock,
            &speed,
            &run.timed,
            &inputs,
        );
        metrics.insert("sim_cycles", pass.cycles as f64);
    }
    clock.note(&mut notes);
    Ok(Outcome {
        tally,
        digest,
        metrics,
        notes,
    })
}
