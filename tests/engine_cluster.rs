//! Differential suite for the crowd walk (DESIGN.md §9): walking an SM's
//! parked warps along their sorted slot residues, and accounting whole
//! windows of them in closed form, must be *observationally invisible* —
//! identical `LaunchStats`, solutions, heap events and error diagnostics as
//! taking every parked visit off the SM's visit heap one at a time, under
//! every memory model. A profiled launch does the latter (profiling wants
//! every instruction, so it never walks or batches), and profiling itself
//! is a pure observer (`profiling.rs`), so the same config with
//! `ProfileMode::sampled` is the oracle. The file and test names date from
//! the clustered engine this suite used to check against the serial one.

use capellini_sptrsv::core::kernels::{
    cusparse_like, hybrid, levelset, scheduled, syncfree, syncfree_csc, two_phase, writing_first,
};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::config::StoreScope;
use capellini_sptrsv::simt::GpuDevice;
use capellini_sptrsv::sparse::{gen, paper_example};

type Solve =
    fn(
        &mut GpuDevice,
        &LowerTriangularCsr,
        &[f64],
    ) -> Result<capellini_sptrsv::core::kernels::SimSolve, capellini_sptrsv::simt::SimtError>;

fn kernels() -> Vec<(&'static str, Solve)> {
    vec![
        ("writing_first", writing_first::solve as Solve),
        ("syncfree", syncfree::solve as Solve),
        ("syncfree_csc", syncfree_csc::solve as Solve),
        ("two_phase", two_phase::solve as Solve),
        ("levelset", levelset::solve as Solve),
        ("cusparse_like", cusparse_like::solve as Solve),
        ("hybrid", hybrid::solve as Solve),
        ("scheduled", scheduled::solve as Solve),
    ]
}

/// The same dataset miniature as `spin_fastforward.rs`: the paper's 8×8
/// example, a serial chain (worst-case spin depth, maximal parking), a
/// random DAG, and a banded matrix (mixed level widths), plus one of the
/// benchmark's deep shapes, whose crowds collide.
fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper8", paper_example()),
        ("chain256", gen::chain(256, 1, 7)),
        ("randomk", gen::random_k(600, 3, 600, 42)),
        ("banded", gen::banded(400, 5, 0.6, 7)),
        ("stencil3d8", gen::stencil3d(8, 8, 8, 1)),
    ]
}

fn base_cfg() -> DeviceConfig {
    DeviceConfig::pascal_like()
        .scaled_down(4)
        .with_spin_model(SpinModel::FastForward)
}

fn rhs(l: &LowerTriangularCsr) -> Vec<f64> {
    let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();
    linalg::rhs_for_solution(l, &x_true)
}

/// The per-visit reference for `cfg`: the same launch, profiled.
fn per_visit(cfg: &DeviceConfig) -> DeviceConfig {
    cfg.clone().with_profile(ProfileMode::sampled(4_096))
}

/// Runs one (kernel, matrix, config) cell and renders *everything
/// observable* into one comparable string: the full stats debug form, the
/// solution bit patterns, the heap-event count, and — on failure — the
/// complete error display.
fn observe(solve: Solve, l: &LowerTriangularCsr, b: &[f64], cfg: &DeviceConfig) -> String {
    let mut dev = GpuDevice::new(cfg.clone());
    let body = match solve(&mut dev, l, b) {
        Ok(o) => {
            let bits: Vec<u64> = o.x.iter().map(|v| v.to_bits()).collect();
            format!("ok stats={:?} xbits={bits:?}", o.stats)
        }
        Err(e) => format!("err={e}"),
    };
    format!("{body} heap_events={}", dev.last_launch_heap_events())
}

fn diff_one(name: &str, mname: &str, solve: Solve, l: &LowerTriangularCsr, cfg: &DeviceConfig) {
    let b = rhs(l);
    let oracle = observe(solve, l, &b, &per_visit(cfg));
    let walked = observe(solve, l, &b, cfg);
    assert_eq!(
        walked, oracle,
        "{name} on {mname}: the crowd walk diverged from the per-visit engine"
    );
}

fn diff_all(cfg: &DeviceConfig) {
    for (mname, l) in &matrices() {
        for (name, solve) in &kernels() {
            diff_one(name, mname, *solve, l, cfg);
        }
    }
}

#[test]
fn clusters_bit_exact_sc_fastforward() {
    diff_all(&base_cfg());
}

#[test]
fn clusters_bit_exact_relaxed_fastforward() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::relaxed(2_000)));
}

#[test]
fn clusters_bit_exact_relaxed_sm_scope() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::Relaxed {
        drain_ticks: 2_000,
        scope: StoreScope::Sm,
        racecheck: false,
    }));
}

#[test]
fn clusters_bit_exact_racecheck() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::racecheck(2_000)));
}

/// The fixture that caught the lazy-SM wake-projection bug, at a scale
/// where every SM holds a crowd of parked warps. The walk must actually
/// carry it, and the oracle must take every visit off the heap.
#[test]
fn clusters_bit_exact_on_golden_fixture() {
    let l = gen::random_k(3000, 3, 3000, 42);
    let cfg = base_cfg();
    diff_one(
        "syncfree",
        "randomk3000",
        syncfree::solve as Solve,
        &l,
        &cfg,
    );
    diff_one(
        "writing_first",
        "randomk3000",
        writing_first::solve as Solve,
        &l,
        &cfg,
    );
    let b = rhs(&l);
    let counters = |cfg: DeviceConfig| {
        let mut dev = GpuDevice::new(cfg);
        syncfree::solve(&mut dev, &l, &b).unwrap();
        dev.last_launch_ff_counters()
    };
    let (on, off) = (counters(cfg.clone()), counters(per_visit(&cfg)));
    assert!(on.walk_instructions > 0, "{on:?}");
    assert_eq!(
        off.walk_instructions + off.closed_form_instructions,
        0,
        "{off:?}"
    );
    assert!(off.heap_visit_instructions > 0, "{off:?}");
    assert_eq!((on.parks, on.wakes), (off.parks, off.wakes));
}

/// Timeout diagnostics: a run that exhausts its cycle budget must report
/// the same error text — same cycle counts, same live-warp census — with
/// the crowd walk as with every visit taken off the heap.
#[test]
fn clustered_timeout_diagnostics_match_serial() {
    let l = gen::chain(256, 1, 7);
    let b = rhs(&l);
    let mut cfg = base_cfg();
    cfg.max_cycles = 1_000; // far below the chain's dependency depth
    let run = |cfg: DeviceConfig| {
        let mut dev = GpuDevice::new(cfg);
        syncfree::solve(&mut dev, &l, &b).unwrap_err().to_string()
    };
    let oracle = run(per_visit(&cfg));
    assert!(
        oracle.contains("cycle budget"),
        "expected a timeout: {oracle}"
    );
    assert_eq!(run(cfg), oracle, "timeout text diverged");
}
