//! The cuSPARSE `csrsv` stand-in. cuSPARSE is closed source; the paper
//! (§2.4–2.5) treats it as a black box and infers from its short
//! preprocessing time that version 8.0 adopted a sync-free design. We model
//! it accordingly (see DESIGN.md §1): an analysis phase charged on the host
//! (`HostCostModel::cusparse_preprocessing_ms` — roughly 2× SyncFree's
//! conversion, matching Table 1's ordering) plus a warp-per-row sync-free
//! execution kernel with its own tuning:
//!
//! * a per-row load of the analysis metadata (the `csrsv2Info_t` lookup),
//! * a register-shuffle tree reduction (fewer instructions than the
//!   shared-memory tree, modelled as fused shared ops),
//! * a heavier spin loop (an extra backoff instruction per failed poll),
//!   which raises its dependency-stall percentage — cuSPARSE shows the
//!   highest stall rates in the paper's Figure 8b.

use capellini_simt::{BufU32, Effect, GpuDevice, LaneMem, Pc, SimtError, WarpKernel, PC_EXIT};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::SimSolve;

const P_LD_INFO: Pc = 0;
const P_LD_BEGIN: Pc = 1;
const P_LD_END: Pc = 2;
const P_STRIDE_CHECK: Pc = 3;
const P_LD_COL: Pc = 4;
const P_POLL: Pc = 5;
const P_BR_READY: Pc = 6;
const P_BACKOFF: Pc = 7;
const P_LD_VAL: Pc = 8;
const P_LD_X: Pc = 9;
const P_FMA: Pc = 10;
const P_RED_INIT: Pc = 11;
const P_RED_STEP: Pc = 12;
const P_BR_LANE0: Pc = 13;
const P_LD_B: Pc = 14;
const P_LD_DIAG: Pc = 15;
const P_DIV: Pc = 16;
const P_ST_X: Pc = 17;
const P_FENCE: Pc = 18;
const P_ST_FLAG: Pc = 19;

/// The cuSPARSE-like kernel: warp per row, shuffle reduction, info lookup.
pub struct CusparseLikeKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    /// Analysis metadata (per-row nonzero counts), loaded per row like the
    /// opaque `csrsv2Info_t` structure.
    info: BufU32,
    warp_size: u32,
}

impl CusparseLikeKernel {
    /// Builds the kernel from pre-uploaded state, including the info array
    /// (a `plan::Plan` builds that once).
    pub(crate) fn new(m: DeviceCsr, sb: SolveBuffers, info: BufU32, warp_size: usize) -> Self {
        CusparseLikeKernel {
            m,
            sb,
            info,
            warp_size: warp_size as u32,
        }
    }
}

/// Per-lane registers.
#[derive(Default)]
pub struct CuLane {
    j: u32,
    row_begin: u32,
    row_end: u32,
    col: u32,
    add_len: u32,
    sum: f64,
    v: f64,
    bv: f64,
    ready: bool,
}

impl WarpKernel for CusparseLikeKernel {
    type Lane = CuLane;

    fn name(&self) -> &'static str {
        "cusparse-like"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize
    }

    fn make_lane(&self, _tid: u32) -> CuLane {
        CuLane::default()
    }

    fn exec(&self, pc: Pc, l: &mut CuLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = (tid / self.warp_size) as usize;
        let lane = tid % self.warp_size;
        match pc {
            P_LD_INFO => {
                if i >= self.m.n {
                    return Effect::exit();
                }
                let _nnz_row = mem.load_u32(self.info, i);
                Effect::to(P_LD_BEGIN)
            }
            P_LD_BEGIN => {
                l.row_begin = mem.load_u32(self.m.row_ptr, i);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, i + 1);
                l.j = l.row_begin + lane;
                Effect::to(P_STRIDE_CHECK)
            }
            P_STRIDE_CHECK => {
                if l.j + 1 < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::to(P_RED_INIT)
                }
            }
            P_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(P_LD_VAL)
                } else {
                    Effect::to(P_BACKOFF)
                }
            }
            P_BACKOFF => {
                // Heavier spin: one extra instruction per failed poll.
                Effect::to(P_POLL)
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P_LD_X)
            }
            P_LD_X => {
                l.bv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_FMA)
            }
            P_FMA => {
                l.sum += l.v * l.bv;
                l.j += self.warp_size;
                Effect::flops(P_STRIDE_CHECK, 2)
            }
            P_RED_INIT => {
                mem.shared_store(lane as usize, l.sum);
                l.add_len = self.warp_size.next_power_of_two() / 2;
                Effect::to(P_RED_STEP)
            }
            P_RED_STEP => {
                // Shuffle-style step: read the partner's value and fold it,
                // one instruction per round (modelled as fused shared ops).
                if l.add_len == 0 {
                    return Effect::to(P_BR_LANE0);
                }
                if lane < l.add_len && lane + l.add_len < self.warp_size {
                    let partner = mem.shared_load((lane + l.add_len) as usize);
                    l.sum += partner;
                    mem.shared_store(lane as usize, l.sum);
                }
                l.add_len /= 2;
                Effect::flops(P_RED_STEP, 1)
            }
            P_BR_LANE0 => {
                if lane == 0 {
                    Effect::to(P_LD_B)
                } else {
                    Effect::exit()
                }
            }
            P_LD_B => {
                l.bv = mem.load_f64(self.sb.b, i);
                Effect::to(P_LD_DIAG)
            }
            P_LD_DIAG => {
                l.v = mem.load_f64(self.m.values, l.row_end as usize - 1);
                Effect::to(P_DIV)
            }
            P_DIV => {
                l.sum = (l.bv - l.sum) / l.v;
                Effect::flops(P_ST_X, 2)
            }
            P_ST_X => {
                mem.store_f64(self.sb.x, i, l.sum);
                Effect::to(P_FENCE)
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                mem.store_flag(self.sb.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("cusparse-like has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_INFO => PC_EXIT,
            P_STRIDE_CHECK => P_RED_INIT,
            P_BR_READY => P_LD_VAL,
            P_RED_STEP => P_BR_LANE0,
            P_BR_LANE0 => PC_EXIT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            P_BR_READY => {
                if target == P_BACKOFF {
                    0
                } else {
                    1
                }
            }
            P_BR_LANE0 => {
                if target == P_LD_B {
                    0
                } else {
                    1
                }
            }
            _ => {
                if target == PC_EXIT {
                    1
                } else {
                    0
                }
            }
        }
    }

    fn pc_name(&self, pc: Pc) -> &'static str {
        match pc {
            P_LD_INFO => "ld info[i]",
            P_LD_BEGIN => "ld rowPtr[i]",
            P_LD_END => "ld rowPtr[i+1]",
            P_STRIDE_CHECK => "stride loop?",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "busywait",
            P_BACKOFF => "backoff",
            P_LD_VAL => "ld val[j]",
            P_LD_X => "ld x[col]",
            P_FMA => "fma",
            P_RED_INIT => "shuffle init",
            P_RED_STEP => "shuffle step",
            P_BR_LANE0 => "lane0?",
            P_LD_B => "ld b[i]",
            P_LD_DIAG => "ld diag",
            P_DIV => "div",
            P_ST_X => "st x[i]",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/branch/backoff cycle touches no register but `ready`.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Convenience: upload, build the info array, solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    crate::plan::solve_once(dev, l, b, crate::select::Algorithm::CusparseLike).map(|(sim, _)| sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem, test_devices, test_matrices};
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn solves_all_test_matrices_on_all_devices() {
        for cfg in test_devices() {
            for (name, l) in test_matrices() {
                let (_, b) = problem(&l);
                let mut dev = GpuDevice::new(cfg.clone());
                let out = solve(&mut dev, &l, &b)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", cfg.name));
                check_against_reference(&l, &b, &out.x);
            }
        }
    }

    #[test]
    fn executes_more_instructions_than_plain_syncfree_when_spinning() {
        // The backoff instruction makes its spin loops heavier on
        // dependency-laden matrices.
        let l = capellini_sparse::gen::chain(2000, 1, 3);
        let (_, b) = problem(&l);
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let cu = solve(&mut d1, &l, &b).unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let sf = crate::kernels::syncfree::solve(&mut d2, &l, &b).unwrap();
        assert!(
            cu.stats.warp_instructions > sf.stats.warp_instructions,
            "cusparse {} vs syncfree {}",
            cu.stats.warp_instructions,
            sf.stats.warp_instructions
        );
    }
}
