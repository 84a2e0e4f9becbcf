//! `shard-4dev`: warm `SolverSession::solve_sharded` at 4 devices over a
//! PCIe-class link, checked bitwise against the single-device solve.

use std::time::Instant;

use capellini_core::{ShardConfig, SolverSession};

use crate::calib::HostSpeed;
use crate::check::{bitwise_equal, Digest, Tally};
use crate::inputs::MatrixInput;
use crate::pipeline::{
    device, end_to_end_metrics, first_pass, launch_metrics, overhead_metrics, probe,
    reference_pass, round_robin, solve_layer_metrics, traced_rhs, Budget, EngineTotals, Expected,
    Metrics, Outcome, SetupClock, Timed, SETUP_BURST_S,
};
use crate::solve::{build_sessions, layer_pass, setup, Ready};
use crate::trace::{Samples, Tracer};

/// Simulated devices per sharded solve.
pub const DEVICES: usize = 4;

/// Warm sharded solves until `secs` elapse, each checked bitwise against
/// the single-device solution, with `between` run after each segment and,
/// with `speed`, probe samples around every solve ([`round_robin`]). With
/// a tracer, odd right-hand sides run in a `core.shard.solve` span and the
/// others are timed into `untraced`.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    sessions: &mut [SolverSession],
    inputs: &[MatrixInput],
    expected: &[Vec<Expected>],
    shard: &ShardConfig,
    secs: f64,
    mut trace: Option<(&mut Tracer, &mut Samples)>,
    between: impl FnMut() -> Result<(), String>,
    speed: Option<&mut HostSpeed>,
    tally: &mut Tally,
) -> Result<Timed, String> {
    round_robin(
        Budget::Seconds(secs),
        sessions.len(),
        |i, r| {
            let b = &inputs[i].rhs[r];
            match trace.as_mut() {
                Some((tr, _)) if traced_rhs(r) => {
                    tr.span("core.shard.solve", || sessions[i].solve_sharded(b, shard))
                }
                Some((_, untraced)) => {
                    let t0 = Instant::now();
                    let res = sessions[i].solve_sharded(b, shard);
                    untraced.push(t0.elapsed().as_secs_f64() * 1e3);
                    res
                }
                None => sessions[i].solve_sharded(b, shard),
            }
        },
        |i, r, res| res.is_ok_and(|rep| sharded_ok(&rep.x, &expected[i][r])),
        between,
        speed,
        tally,
    )
}

/// A sharded solution must equal the checked single-device one bit for bit.
fn sharded_ok(x: &[f64], exp: &Expected) -> bool {
    !exp.x_dev.is_empty() && bitwise_equal(x, &exp.x_dev)
}

pub fn run(inputs: Vec<MatrixInput>, secs: f64, traced: bool) -> Result<Outcome, String> {
    let cfg = device();
    let shard = ShardConfig::pcie(DEVICES);
    let mut tr = Tracer::default();
    let mut metrics = Metrics::new();
    let mut notes = Vec::new();
    // Set-up includes each session's first sharded solve, which builds and
    // caches its row partition; later sharded solves reuse it.
    let mut clock = SetupClock::default();
    let Ready {
        mut sessions,
        first_sharded,
    } = setup(
        &cfg,
        &inputs,
        traced.then_some(&mut tr),
        Some(&shard),
        &mut clock,
        &mut metrics,
        &mut notes,
    )?;

    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let expected = reference_pass(&mut sessions, &inputs, &mut tally, &mut digest);
    for (x, exp) in first_sharded.iter().zip(&expected) {
        tally.record(sharded_ok(x, &exp[0]));
    }
    let (pass, heap_events) = first_pass(&expected, &inputs, &mut notes);
    let grid_reuses: u64 = sessions.iter().map(|s| s.device().grid_reuses()).sum();

    // One sharded solve per (matrix, rhs) on the cached partitions, each
    // checked and digested.
    let (mut makespan, mut link_messages, mut link_bytes) = (0u64, 0u64, 0u64);
    for (i, (s, input)) in sessions.iter_mut().zip(&inputs).enumerate() {
        for (r, b) in input.rhs.iter().enumerate() {
            match s.solve_sharded(b, &shard) {
                Ok(rep) => {
                    tally.record(sharded_ok(&rep.x, &expected[i][r]));
                    for st in &rep.per_device {
                        digest.solve(st, 0);
                    }
                    for v in [rep.makespan_cycles, rep.link_messages, rep.link_bytes] {
                        digest.u64(v);
                    }
                    if r == 0 {
                        makespan += rep.makespan_cycles;
                        link_messages += rep.link_messages;
                        link_bytes += rep.link_bytes;
                    }
                }
                Err(e) => {
                    eprintln!("{}: sharded solve failed: {e}", input.name);
                    tally.record(false);
                }
            }
        }
    }
    notes.push(format!(
        "sharded pass: devices={DEVICES} link=pcie makespan_cycles={makespan} link_messages={link_messages} link_bytes={link_bytes} single_device_cycles={}",
        pass.cycles
    ));

    if traced {
        let mut untraced = Samples::default();
        shard_loop(
            &mut sessions,
            &inputs,
            &expected,
            &shard,
            secs,
            Some((&mut tr, &mut untraced)),
            || Ok(()),
            None,
            &mut tally,
        )?;
        // One layer-by-layer pass over the single-device solves for the
        // buffer, launch and engine layers the sharded path runs inside.
        let paths = layer_pass(&cfg, &sessions, &inputs, &expected, &mut tr, &mut tally);
        solve_layer_metrics(&mut metrics, &tr);
        EngineTotals::sum(&paths).insert(&mut metrics);
        metrics.insert("simt.engine.heap_events", heap_events as f64);
        metrics.insert("simt.engine.grid_reuses", grid_reuses as f64);
        launch_metrics(&mut metrics, &pass);
        let shard_ms = tr.durations_ms("core.shard.solve");
        metrics.insert("core.shard.solve_ms", shard_ms.median());
        metrics.insert("core.shard.makespan_cycles", makespan as f64);
        metrics.insert("core.shard.link_messages", link_messages as f64);
        metrics.insert("core.shard.link_bytes", link_bytes as f64);
        overhead_metrics(&mut metrics, &untraced, &shard_ms);
    } else {
        let mut speed = HostSpeed::default();
        probe(&mut speed);
        let timed = shard_loop(
            &mut sessions,
            &inputs,
            &expected,
            &shard,
            secs,
            None,
            || {
                clock
                    .burst(SETUP_BURST_S, || {
                        build_sessions(&cfg, &inputs, Some(&shard))
                    })
                    .map(drop)
            },
            Some(&mut speed),
            &mut tally,
        )?;
        end_to_end_metrics(&mut metrics, &mut notes, &clock, &speed, &timed, &inputs);
        metrics.insert("sim_cycles", makespan as f64);
    }
    clock.note(&mut notes);
    Ok(Outcome {
        tally,
        digest,
        metrics,
        notes,
    })
}
