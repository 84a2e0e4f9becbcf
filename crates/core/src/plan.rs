//! One analyze/launch plan per algorithm (DESIGN.md §11).
//!
//! A [`Plan`] is the paper's preprocessing step made concrete: it is built
//! once on a device — after the CSR arrays and the `b`/`x`/`get_value`
//! buffers, so every entry point lays device memory out in the same order —
//! and then launched as often as needed. This is the
//! `csrsv2_analysis`/`csrsv2_solve` split of cuSPARSE (§2.4). Every solve
//! entry point goes through it: the cold [`crate::solver::solve_simulated`]
//! and [`crate::solver::solve_multi_simulated`], the warm
//! [`crate::session::SolverSession`], and the sharded row-kernel driver in
//! [`crate::shard`].

use std::ops::Range;

use capellini_simt::{
    BufU32, ExtEvent, GpuDevice, HostCostModel, LaunchStats, SimtError, WarpKernel,
};
use capellini_sparse::{LevelSets, LowerTriangularCsr, Schedule, ScheduleParams};

use crate::buffers::{DeviceCsr, MultiSolveBuffers, SolveBuffers};
use crate::kernels::cusparse_like::CusparseLikeKernel;
use crate::kernels::hybrid::{self, HybridKernel, Task};
use crate::kernels::naive::NaiveThreadKernel;
use crate::kernels::scheduled::{self, DeviceSchedule};
use crate::kernels::syncfree::SyncFreeKernel;
use crate::kernels::syncfree_csc::{self, DeviceCsc, SyncFreeCscKernel};
use crate::kernels::two_phase::TwoPhaseKernel;
use crate::kernels::writing_first::WritingFirstKernel;
use crate::kernels::{
    cusparse_like_multi, levelset, syncfree_multi, writing_first_multi, SimSolve,
};
use crate::select::Algorithm;
use crate::shard::ShardView;

/// One algorithm's analysis, resident on the device it was built on.
pub enum Plan {
    /// The host level sets (one launch per level) and the device-resident
    /// solve order.
    LevelSet {
        /// Level boundaries, read on the host between launches.
        levels: LevelSets,
        /// The rows in level order.
        order: BufU32,
    },
    /// Warp-per-row SyncFree: the CSR arrays are all it reads.
    SyncFree,
    /// The CSC scatter arrays, plus the host in-degrees that re-arm the
    /// consumable countdown before every launch.
    SyncFreeCsc {
        /// CSC arrays and the consumable `left_sum`/`in_degree` state.
        dc: DeviceCsc,
        /// Initial in-degree per row.
        deg: Vec<u32>,
    },
    /// The cuSPARSE-style per-row info array.
    CusparseLike {
        /// Per-row nonzero counts.
        info: BufU32,
    },
    /// Two-Phase CapelliniSpTRSV: no analysis.
    TwoPhase,
    /// Writing-First CapelliniSpTRSV: no analysis.
    WritingFirst,
    /// The deadlocking §3.3 straw man: no analysis.
    Naive,
    /// The warp/thread task list, on the host (for shard filtering) and on
    /// the device.
    Hybrid {
        /// The planned tasks, in launch order.
        tasks: Vec<Task>,
        /// The encoded tasks (one per launched warp).
        buf: BufU32,
    },
    /// The coarsened work-unit schedule.
    Scheduled {
        /// The device-resident schedule.
        sched: DeviceSchedule,
        /// Level count of the analysis the schedule was built from.
        n_levels: usize,
    },
}

impl Plan {
    /// Analyzes `l` for `algorithm` and uploads the result to `dev`, after
    /// the already-uploaded CSR `dm` (and, by contract, after the solve
    /// buffers).
    pub fn build(
        dev: &mut GpuDevice,
        l: &LowerTriangularCsr,
        dm: DeviceCsr,
        algorithm: Algorithm,
    ) -> Plan {
        let ws = dev.config().warp_size;
        match algorithm {
            Algorithm::LevelSet => {
                let levels = LevelSets::analyze(l);
                let order = dev.mem().alloc_u32(levels.order());
                Plan::LevelSet { levels, order }
            }
            Algorithm::SyncFree => Plan::SyncFree,
            Algorithm::SyncFreeCsc => {
                let csc = l.csr().to_csc();
                let deg = syncfree_csc::in_degrees(&csc);
                let dc = syncfree_csc::upload_csc(dev, &csc, &deg);
                Plan::SyncFreeCsc { dc, deg }
            }
            Algorithm::CusparseLike => Plan::CusparseLike {
                info: cusparse_like_multi::build_info(dev, dm),
            },
            Algorithm::CapelliniTwoPhase => Plan::TwoPhase,
            Algorithm::CapelliniWritingFirst => Plan::WritingFirst,
            Algorithm::NaiveThread => Plan::Naive,
            Algorithm::Hybrid => {
                let tasks = hybrid::plan_tasks(l, ws, hybrid::DEFAULT_THRESHOLD);
                let buf = hybrid::upload_task_list(dev, &tasks);
                Plan::Hybrid { tasks, buf }
            }
            Algorithm::Scheduled => {
                let levels = LevelSets::analyze(l);
                let schedule = Schedule::build(l, &levels, ScheduleParams::for_warp(ws));
                Plan::Scheduled {
                    sched: scheduled::upload_schedule(dev, &schedule),
                    n_levels: levels.n_levels(),
                }
            }
        }
    }

    /// The algorithm this plan launches.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Plan::LevelSet { .. } => Algorithm::LevelSet,
            Plan::SyncFree => Algorithm::SyncFree,
            Plan::SyncFreeCsc { .. } => Algorithm::SyncFreeCsc,
            Plan::CusparseLike { .. } => Algorithm::CusparseLike,
            Plan::TwoPhase => Algorithm::CapelliniTwoPhase,
            Plan::WritingFirst => Algorithm::CapelliniWritingFirst,
            Plan::Naive => Algorithm::NaiveThread,
            Plan::Hybrid { .. } => Algorithm::Hybrid,
            Plan::Scheduled { .. } => Algorithm::Scheduled,
        }
    }

    /// The modelled host cost of building this plan for `l`, in ms (Table
    /// 1's preprocessing).
    pub fn analysis_ms(&self, l: &LowerTriangularCsr) -> f64 {
        let host = HostCostModel::default();
        let (n, nnz) = (l.n(), l.nnz());
        match self {
            Plan::LevelSet { levels, .. } => {
                host.levelset_preprocessing_ms(n, nnz, levels.n_levels())
            }
            Plan::SyncFree => host.syncfree_preprocessing_ms(n, nnz),
            // CSC conversion plus the in-degree sweep (one pass over n rows).
            Plan::SyncFreeCsc { .. } => {
                host.syncfree_preprocessing_ms(n, nnz) + (n as f64 * 0.3) / 1e6
            }
            Plan::CusparseLike { .. } => host.cusparse_preprocessing_ms(n, nnz),
            Plan::TwoPhase | Plan::WritingFirst | Plan::Naive => host.capellini_preprocessing_ms(n),
            // Task planning walks row_ptr once: charge it like a light
            // analysis pass.
            Plan::Hybrid { .. } => host.capellini_preprocessing_ms(n) + (n as f64 * 1.2) / 1e6,
            Plan::Scheduled { n_levels, .. } => host.scheduled_preprocessing_ms(n, nnz, *n_levels),
        }
    }

    /// Launches one right-hand side against the prepared buffers `sb`.
    ///
    /// With `rows = Some(r0..r1)` only that shard's rows run (ids are
    /// offset by `r0`, so each row keeps the lane, warp and schedule
    /// position it has in the whole-matrix launch), and `events` carries
    /// the link deliveries the shard imports. Level-Set and Scheduled shard
    /// through their own drivers in [`crate::shard`]; asking them for a row
    /// range or for events is a [`SimtError::Launch`].
    pub fn launch(
        &self,
        dev: &mut GpuDevice,
        dm: DeviceCsr,
        sb: SolveBuffers,
        rows: Option<Range<u32>>,
        events: &[ExtEvent],
    ) -> Result<LaunchStats, SimtError> {
        let ws = dev.config().warp_size;
        let n_rows = rows.as_ref().map_or(dm.n, |r| (r.end - r.start) as usize);
        // Thread-per-row kernels see a shard's rows as thread ids, one
        // thread per row; warp-per-row kernels as one warp of `ws` lanes
        // per row (SyncFree-CSC: per column).
        let view = rows.as_ref().map(|r| (r.start, r.end));
        let threads = (n_rows.div_ceil(ws), view);
        let warps = (
            n_rows,
            view.map(|(r0, r1)| (r0 * ws as u32, r1 * ws as u32)),
        );
        let whole_matrix = rows.is_none() && events.is_empty();
        match self {
            Plan::WritingFirst => run(dev, WritingFirstKernel::new(dm, sb), threads, events),
            Plan::TwoPhase => run(dev, TwoPhaseKernel::new(dm, sb, ws), threads, events),
            Plan::Naive => run(dev, NaiveThreadKernel::new(dm, sb), threads, events),
            Plan::SyncFree => run(dev, SyncFreeKernel::new(dm, sb, ws), warps, events),
            Plan::CusparseLike { info } => run(
                dev,
                CusparseLikeKernel::new(dm, sb, *info, ws),
                warps,
                events,
            ),
            Plan::SyncFreeCsc { dc, deg } => {
                // The scatter consumes its in-degree countdown and left-sum
                // accumulators; re-arm them from the host copy.
                syncfree_csc::rearm(dev, *dc, deg);
                run(
                    dev,
                    SyncFreeCscKernel::new(*dc, sb.b, sb.x, ws),
                    warps,
                    events,
                )
            }
            Plan::Hybrid { tasks, buf } => {
                let Some(r) = rows else {
                    let kernel = HybridKernel::new(dm, sb, *buf, ws);
                    return run(dev, kernel, (tasks.len(), None), events);
                };
                // Blocks never span warp-aligned cuts, so filtering the
                // whole-matrix plan keeps every row's granularity.
                let local: Vec<Task> = tasks
                    .iter()
                    .copied()
                    .filter(|t| match *t {
                        Task::ThreadBlock { base } => r.contains(&base),
                        Task::WarpRow { row } => r.contains(&row),
                    })
                    .collect();
                let buf = hybrid::upload_task_list(dev, &local);
                let kernel = HybridKernel::new(dm, sb, buf, ws);
                run(dev, kernel, (local.len(), None), events)
            }
            Plan::LevelSet { levels, order } if whole_matrix => {
                levelset::launch_with_uploaded_levels(dev, dm, sb, levels, *order)
            }
            Plan::Scheduled { sched, .. } if whole_matrix => {
                scheduled::launch_with_schedule(dev, dm, sb, *sched)
            }
            Plan::LevelSet { .. } | Plan::Scheduled { .. } => Err(SimtError::Launch(format!(
                "{} shards through its own driver, not a row-range launch",
                self.algorithm().label()
            ))),
        }
    }

    /// Launches the batched SpTRSM kernel over every column of `mb` — for
    /// SyncFree, cuSPARSE-like and Writing-First. Every other algorithm has
    /// no batched kernel and returns `None`.
    pub fn launch_multi(
        &self,
        dev: &mut GpuDevice,
        dm: DeviceCsr,
        mb: MultiSolveBuffers,
    ) -> Option<Result<LaunchStats, SimtError>> {
        match self {
            Plan::SyncFree => Some(syncfree_multi::launch_multi(dev, dm, mb)),
            Plan::CusparseLike { info } => Some(cusparse_like_multi::launch_multi_with_info(
                dev, dm, mb, *info,
            )),
            Plan::WritingFirst => Some(writing_first_multi::launch_multi(dev, dm, mb)),
            _ => None,
        }
    }
}

/// Launches `kernel` on `grid.0` warps, behind a [`ShardView`] over ids
/// `grid.1 = (base, limit)` when one shard's rows are given.
fn run<K: WarpKernel>(
    dev: &mut GpuDevice,
    kernel: K,
    grid: (usize, Option<(u32, u32)>),
    events: &[ExtEvent],
) -> Result<LaunchStats, SimtError> {
    match grid {
        (warps, None) => dev.launch_with_events(&kernel, warps, events),
        (warps, Some((base, limit))) => {
            dev.launch_with_events(&ShardView::new(kernel, base, limit), warps, events)
        }
    }
}

/// The cold single-device path: checks `b`, uploads the CSR and
/// `b`/`x`/flags to `dev`, builds `algorithm`'s plan and launches it once.
/// Returns the solution and the plan's modelled analysis cost.
pub(crate) fn solve_once(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    algorithm: Algorithm,
) -> Result<(SimSolve, f64), SimtError> {
    check_rhs(b, l.n())?;
    let dm = DeviceCsr::upload(dev, l);
    let sb = SolveBuffers::upload(dev, b);
    let plan = Plan::build(dev, l, dm, algorithm);
    let stats = plan.launch(dev, dm, sb, None, &[])?;
    let sim = SimSolve {
        x: sb.read_x(dev),
        stats,
    };
    Ok((sim, plan.analysis_ms(l)))
}

/// The one right-hand-side length check every single-rhs entry point runs.
pub(crate) fn check_rhs(b: &[f64], n: usize) -> Result<(), SimtError> {
    if b.len() == n {
        Ok(())
    } else {
        Err(SimtError::Launch(format!(
            "rhs length {} does not match matrix dimension {n}",
            b.len()
        )))
    }
}

/// The one block-shape check every batched entry point runs: `bs` must
/// hold `n × nrhs` values. The multiply is checked, so an absurd `nrhs` is
/// the same structured error as any other mismatch, never an overflow
/// panic.
pub(crate) fn check_block(bs: &[f64], n: usize, nrhs: usize) -> Result<(), SimtError> {
    let expected = n.checked_mul(nrhs).ok_or_else(|| {
        SimtError::Launch(format!(
            "rhs block shape {n} rows x {nrhs} rhs overflows usize"
        ))
    })?;
    if bs.len() == expected {
        Ok(())
    } else {
        Err(SimtError::Launch(format!(
            "rhs block has {} elements, expected {n} rows x {nrhs} rhs = {expected}",
            bs.len(),
        )))
    }
}
