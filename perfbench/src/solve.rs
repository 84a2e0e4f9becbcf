//! `ingest-wide` and `deep-chain`: `.mtx` text → session → repeated warm
//! single-device solves.

use std::time::Instant;

use capellini_core::{Algorithm, ShardConfig, SolverSession};
use capellini_simt::{DeviceConfig, LaunchStats};
use capellini_sparse::RowPartition;

use crate::calib::HostSpeed;
use crate::check::{matches_reference, Digest, Tally};
use crate::inputs::MatrixInput;
use crate::pipeline::{
    device, end_to_end_metrics, first_pass, launch_metrics, load, matrix_notes, model_drift,
    overhead_metrics, probe, reference_pass, round_robin, setup_layer_metrics, setup_traced,
    solve_layer_metrics, traced_rhs, Budget, EngineTotals, Expected, LayerPath, Metrics, Outcome,
    SetupClock, SETUP_BURSTS, SETUP_BURST_S,
};
use crate::trace::{Samples, Tracer};

/// What set-up leaves ready.
pub struct Ready {
    /// One session per input.
    pub sessions: Vec<SolverSession>,
    /// With a shard configuration: each session's first sharded solution
    /// of its first right-hand side, for checking. Empty otherwise.
    pub first_sharded: Vec<Vec<f64>>,
}

/// With `shard`, runs the session's first sharded solve on the first
/// right-hand side: the call that builds and caches its row partition.
fn first_sharded_solve(
    s: &mut SolverSession,
    input: &MatrixInput,
    shard: Option<&ShardConfig>,
) -> Result<Option<Vec<f64>>, String> {
    shard
        .map(|shard| {
            s.solve_sharded(&input.rhs[0], shard)
                .map(|rep| rep.x)
                .map_err(|e| format!("{}: first sharded solve: {e}", input.name))
        })
        .transpose()
}

/// A session and, with a shard configuration, its first sharded solution.
type Built = (SolverSession, Option<Vec<f64>>);

/// One set-up: text → one session per input and, with `shard`, each
/// session's first sharded solve.
pub fn build_sessions(
    cfg: &DeviceConfig,
    inputs: &[MatrixInput],
    shard: Option<&ShardConfig>,
) -> Result<Vec<Built>, String> {
    inputs
        .iter()
        .map(|input| {
            let mut s = SolverSession::new(cfg, load(&input.text)?);
            let first = first_sharded_solve(&mut s, input, shard)?;
            Ok((s, first))
        })
        .collect()
}

/// The run's first set-up burst, whose last repetition the run keeps. A
/// traced run spends the whole set-up budget here, times each layer from
/// outside (including the row partition a sharded solve builds), and
/// records measured against modeled analysis time.
pub fn setup(
    cfg: &DeviceConfig,
    inputs: &[MatrixInput],
    mut trace: Option<&mut Tracer>,
    shard: Option<&ShardConfig>,
    clock: &mut SetupClock,
    layers: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<Ready, String> {
    let mut boundary = 0;
    let built = match trace.as_deref_mut() {
        None => clock.burst(SETUP_BURST_S, || build_sessions(cfg, inputs, shard))?,
        Some(tr) => clock.burst(SETUP_BURST_S * SETUP_BURSTS as f64, || {
            boundary = 0;
            setup_traced(cfg, inputs, tr, layers, |l, input, tr| {
                if let Some(shard) = shard {
                    let part = tr.span("sparse.partition.build", || {
                        RowPartition::build(&l, shard.devices, cfg.warp_size)
                    });
                    boundary += part.boundary_entries();
                }
                let mut s = tr.span("core.session.build", || SolverSession::new(cfg, l));
                let first = first_sharded_solve(&mut s, input, shard)?;
                Ok((s, first))
            })
        })?,
    };
    let (sessions, first_sharded): (Vec<_>, Vec<_>) = built.into_iter().unzip();
    if let Some(tr) = trace {
        layers.insert("sparse.partition.boundary_entries", boundary as f64);
        let text_bytes = inputs.iter().map(|i| i.text.len()).sum();
        setup_layer_metrics(layers, tr, "setup", text_bytes);
        let builds = tr.durations_ms("core.session.build");
        model_drift(layers, notes, &sessions, inputs, &builds);
    }
    matrix_notes(notes, &sessions, inputs);
    Ok(Ready {
        sessions,
        first_sharded: first_sharded.into_iter().flatten().collect(),
    })
}

/// A solve's solution and launch statistics.
type Solved = Result<(Vec<f64>, LaunchStats), String>;

/// A solve is correct when it matches the serial reference and repeats the
/// reference pass's statistics exactly.
fn solved_ok(algorithm: Algorithm, res: Solved, exp: &Expected) -> bool {
    res.is_ok_and(|(x, stats)| matches_reference(algorithm, &x, &exp.x_ref) && stats == exp.stats)
}

fn session_solve(s: &mut SolverSession, b: &[f64]) -> Solved {
    s.solve(b)
        .map(|rep| (rep.x, rep.stats))
        .map_err(|e| e.to_string())
}

/// One warmed-up [`LayerPath`] per session.
fn layer_paths(
    cfg: &DeviceConfig,
    sessions: &[SolverSession],
    inputs: &[MatrixInput],
    expected: &[Vec<Expected>],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<LayerPath> {
    let mut paths = Vec::new();
    for ((s, input), exp) in sessions.iter().zip(inputs).zip(expected) {
        let mut path = LayerPath::new(cfg, s.matrix(), s.algorithm(), tr);
        let warm = path.warm_up(&input.rhs[0]);
        tally.record(warm.is_ok_and(|x| matches_reference(s.algorithm(), &x, &exp[0].x_ref)));
        paths.push(path);
    }
    paths
}

/// One layer-by-layer solve per (matrix, right-hand side), each in a
/// `solve` span. Returns the paths for their engine totals.
pub fn layer_pass(
    cfg: &DeviceConfig,
    sessions: &[SolverSession],
    inputs: &[MatrixInput],
    expected: &[Vec<Expected>],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<LayerPath> {
    let mut paths = layer_paths(cfg, sessions, inputs, expected, tr, tally);
    let algos: Vec<Algorithm> = sessions.iter().map(|s| s.algorithm()).collect();
    round_robin(
        Budget::OnePass,
        paths.len(),
        |i, r| {
            let root = tr.enter("solve");
            let res = paths[i].solve(&inputs[i].rhs[r], tr);
            tr.exit(root);
            res
        },
        |i, r, res| solved_ok(algos[i], res, &expected[i][r]),
        || Ok(()),
        None,
        tally,
    )
    .expect("a single pass runs nothing between segments");
    paths
}

/// Runs `ingest-wide` or `deep-chain` on `inputs`.
pub fn run(inputs: Vec<MatrixInput>, secs: f64, traced: bool) -> Result<Outcome, String> {
    let cfg = device();
    let mut tr = Tracer::default();
    let mut metrics = Metrics::new();
    let mut notes = Vec::new();
    let mut clock = SetupClock::default();
    let Ready { mut sessions, .. } = setup(
        &cfg,
        &inputs,
        traced.then_some(&mut tr),
        None,
        &mut clock,
        &mut metrics,
        &mut notes,
    )?;

    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let expected = reference_pass(&mut sessions, &inputs, &mut tally, &mut digest);
    let (pass, heap_events) = first_pass(&expected, &inputs, &mut notes);
    let grid_reuses: u64 = sessions.iter().map(|s| s.device().grid_reuses()).sum();
    let algos: Vec<Algorithm> = sessions.iter().map(|s| s.algorithm()).collect();
    let m = sessions.len();

    if traced {
        // Warm session solves and their layer-by-layer twins interleave, so
        // the tracing overhead is measured under the same host conditions.
        let mut paths = layer_paths(&cfg, &sessions, &inputs, &expected, &mut tr, &mut tally);
        let mut untraced = Samples::default();
        round_robin(
            Budget::Seconds(secs),
            m,
            |i, r| {
                let b = &inputs[i].rhs[r];
                if traced_rhs(r) {
                    let root = tr.enter("solve");
                    let res = paths[i].solve(b, &mut tr);
                    tr.exit(root);
                    res
                } else {
                    let t0 = Instant::now();
                    let res = session_solve(&mut sessions[i], b);
                    untraced.push(t0.elapsed().as_secs_f64() * 1e3);
                    res
                }
            },
            |i, r, res| solved_ok(algos[i], res, &expected[i][r]),
            || Ok(()),
            None,
            &mut tally,
        )?;
        solve_layer_metrics(&mut metrics, &tr);
        EngineTotals::sum(&paths).insert(&mut metrics);
        metrics.insert("simt.engine.heap_events", heap_events as f64);
        metrics.insert("simt.engine.grid_reuses", grid_reuses as f64);
        launch_metrics(&mut metrics, &pass);
        overhead_metrics(&mut metrics, &untraced, &tr.durations_ms("solve"));
    } else {
        let mut speed = HostSpeed::default();
        probe(&mut speed);
        let timed = round_robin(
            Budget::Seconds(secs),
            m,
            |i, r| session_solve(&mut sessions[i], &inputs[i].rhs[r]),
            |i, r, res| solved_ok(algos[i], res, &expected[i][r]),
            || {
                clock
                    .burst(SETUP_BURST_S, || build_sessions(&cfg, &inputs, None))
                    .map(drop)
            },
            Some(&mut speed),
            &mut tally,
        )?;
        end_to_end_metrics(&mut metrics, &mut notes, &clock, &speed, &timed, &inputs);
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
