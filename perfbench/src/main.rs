//! Seeded benchmark of the CapelliniSpTRSV reproduction, from `.mtx` text
//! to solution and from service request to response.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, host times
//! scaled to a reference host speed measured by a fixed probe (`calib`); with
//! `--trace 1` it reports per-layer host time and counters, measured by
//! timing calls into each layer's public functions from outside. Human
//! readable lines come first; the last line of standard output is one JSON
//! object. See `README.md` in this directory for the workloads and metrics.

mod calib;
mod check;
mod inputs;
mod pipeline;
mod serve;
mod shard;
mod solve;
mod trace;

use std::process::ExitCode;

use pipeline::{Metrics, Outcome};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("solves_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.io.parse_ms", "ms"),
    ("sparse.io.parse_mb_per_s", "MB/s"),
    ("sparse.csr.assemble_ms", "ms"),
    ("sparse.stats.compute_ms", "ms"),
    ("sparse.levels.analyze_ms", "ms"),
    ("sparse.levels.n_levels", "count"),
    ("sparse.schedule.build_ms", "ms"),
    ("sparse.schedule.units", "count"),
    ("sparse.partition.build_ms", "ms"),
    ("sparse.partition.boundary_entries", "count"),
    ("core.session.build_ms", "ms"),
    ("core.session.analysis_ms_modeled", "ms"),
    ("core.session.model_ratio", "ratio"),
    ("core.buffers.csr_upload_ms", "ms"),
    ("core.buffers.upload_ms", "ms"),
    ("core.buffers.readback_ms", "ms"),
    ("core.kernels.launch_ms", "ms"),
    ("simt.engine.heap_events", "count"),
    ("simt.engine.ns_per_event", "ns"),
    ("simt.engine.warp_instr_per_s", "1/s"),
    ("simt.engine.cycles_per_s", "1/s"),
    ("simt.engine.grid_reuses", "count"),
    ("simt.launch.cycles", "cycles"),
    ("simt.launch.warp_instructions", "count"),
    ("simt.launch.failed_polls", "count"),
    ("simt.launch.stall_ticks", "count"),
    ("simt.launch.dram_bytes", "bytes"),
    ("simt.launch.fences", "count"),
    ("core.shard.solve_ms", "ms"),
    ("core.shard.makespan_cycles", "cycles"),
    ("core.shard.link_messages", "count"),
    ("core.shard.link_bytes", "bytes"),
    ("core.service.queue_ms_mean", "ms"),
    ("core.service.mean_batch", "count"),
    ("core.service.launches", "count"),
    ("core.service.sessions_created", "count"),
    ("core.service.evictions", "count"),
    ("core.service.rejects", "count"),
    ("core.service.analysis_ms_total", "ms"),
    ("trace.untraced_solve_ms_mean", "ms"),
    ("trace.traced_solve_ms_mean", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["ingest-wide", "deep-chain", "serve-skewed", "shard-4dev"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (secs, traced) = (args.seconds, args.trace);
    match args.workload.as_str() {
        "ingest-wide" => solve::run(
            inputs::generate(inputs::ingest_wide(), args.seed),
            secs,
            traced,
        ),
        "deep-chain" => solve::run(
            inputs::generate(inputs::deep_chain(), args.seed),
            secs,
            traced,
        ),
        "serve-skewed" => serve::run(
            inputs::generate(inputs::serve_population(), args.seed),
            args.seed,
            secs,
            traced,
        ),
        "shard-4dev" => shard::run(
            inputs::generate(inputs::shard_4dev(), args.seed),
            secs,
            traced,
        ),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: exactly the keys of `table`, in its order.
fn result_json(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        outcome.metrics.insert("peak_rss_mb", trace::peak_rss_mb());
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        eprintln!("perfbench: internal error: metric {extra} is not in the reported table");
        return ExitCode::FAILURE;
    }
    let missing_e2e = !args.trace
        && END_TO_END
            .iter()
            .any(|(n, _)| !outcome.metrics.contains_key(n));
    if missing_e2e {
        eprintln!("perfbench: internal error: an end-to-end metric was not measured");
        return ExitCode::FAILURE;
    }

    println!(
        "workload {} seed {} seconds {} trace {} device pascal-like/4 host_cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "digest launch_stats={} solves={}",
        outcome.digest.hex(),
        outcome.digest.solves
    );
    let t = outcome.tally;
    println!(
        "error_rate {} ({} failed of {} attempted)",
        pipeline::ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    print_metrics(&outcome.metrics, table);
    println!("{}", result_json(&outcome, table));
    ExitCode::SUCCESS
}

fn print_metrics(metrics: &Metrics, table: &[(&str, &str)]) {
    for (name, unit) in table {
        println!(
            "metric {name} {} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
}
