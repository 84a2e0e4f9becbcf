//! The **scheduled** kernel: level-coarsened, load-balanced work units
//! (ROADMAP 5(a), after "Efficient Parallel Scheduling for Sparse
//! Triangular Solvers", arXiv 2503.05408).
//!
//! Preprocessing ([`capellini_sparse::schedule`]) merges runs of narrow
//! levels into *sequential* units, slot-maps wide levels into
//! *dependency-parallel* units (`rows × max_deps ≤ warp_size`), and falls
//! back to *row-parallel* units for rows too fat to slot-map. One warp
//! executes one unit in three phases per batch of `warp_size` rows:
//!
//! 1. **Stage (A0)** — lane `r` cooperatively copies row `base + r`'s
//!    operands into per-warp shared memory: row id, `b`, diagonal, and up
//!    to [`STAGE_CAP`] off-diagonal `(col, unit_of[col], val)` triples.
//!    Pure loads — no waits — so the whole phase runs before any producer
//!    finishes, off the critical path, and every global latency is paid
//!    once per *warp instruction* (the lanes' loads coalesce).
//! 2. **Gather (A1)** — cross-unit dependencies are resolved *in place*:
//!    the staged `val` is overwritten with the product `val * x[col]` once
//!    the producing unit's flag is observed.
//!    * **DepPar** units map every staged `(row, dep)` pair to one lane
//!      (`row = lane / stride`, `dep = lane % stride`): the unit's entire
//!      producer wait collapses to *one* spinning warp instruction and its
//!      entire `x` gather to *one* coalesced load — the lane-parallel
//!      dependency resolution of warp-per-row kernels, retained under
//!      coarsening.
//!    * **Seq**/**Par** units walk each lane's own staged row; intra-unit
//!      dependencies (Seq) are skipped here — program order in phase 3
//!      satisfies them without any flag traffic.
//! 3. **Resolve (B)** — the accumulation runs against shared memory only,
//!    in exact CSR column order (gathered products contribute `sum += p`,
//!    which is bit-identical to `sum += val * x` computed in place): Seq
//!    units on lane 0 in (level, row) order, Par/DepPar units one row per
//!    lane. Same-unit reads of `x` skip the flag protocol (same-warp
//!    store-to-load forwarding makes them safe under the relaxed model).
//!
//! Rows fatter than [`STAGE_CAP`] off-diagonals spill: the overflow tail
//! re-reads `col_idx`/`unit_of`/`values` from global memory during
//! resolve — polling inline as the classic sync-free kernels do — trading
//! latency for a bounded shared budget of `warp_size * (5 + 3 *
//! STAGE_CAP)` f64 words per warp.
//!
//! Synchronization collapses to *unit* granularity: after all lanes finish,
//! the warp reconverges, executes **one** fence, and lane 0 publishes
//! **one** flag indexed by unit id. Consumers resolve a dependency column
//! to its producing unit via `unit_of` and spin on that unit's flag —
//! sync-free spins across unit boundaries only, never per row.
//!
//! Liveness mirrors SyncFree's argument: units are emitted in level order,
//! so every spin targets a strictly lower unit index, lower warp ids
//! activate first (FIFO), and intra-warp spins cannot occur (a same-unit
//! dependency never polls). Each spin loop re-reads a single flag word and
//! mutates nothing, so it is pure for wake-on-write fast-forwarding.

use capellini_simt::{
    BufU32, Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT,
};
use capellini_sparse::{LowerTriangularCsr, Schedule};

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::SimSolve;

/// Off-diagonal entries staged in shared memory per row. Rows with more
/// spill to global loads during resolve. 32 covers every generator in the
/// bench suite (band matrices included) at a shared budget of
/// `32 * (5 + 96) = 3232` words per warp, and ≥ any warp size in the
/// config set, so dependency-parallel units (stride ≤ warp size) never
/// spill.
pub const STAGE_CAP: usize = 32;

/// Unit-kind codes, matching [`Schedule::encode_desc`].
const K_SEQ: u32 = 1;
const K_DEPPAR: u32 = 2;

// Unit setup + outer batch loop.
const P_LD_DESC0: Pc = 0;
const P_LD_DESC1: Pc = 1;
const P_BATCH_CHK: Pc = 2;
// Phase A0 — stage: lane r copies row rows[k0 + r] into shared memory.
const P_PF_ACT: Pc = 3;
const P_PF_LDROW: Pc = 4;
const P_PF_STROW: Pc = 5;
const P_PF_LDRP0: Pc = 6;
const P_PF_LDRP1: Pc = 7;
const P_PF_STLEN: Pc = 8;
const P_PF_STJ0: Pc = 9;
const P_PF_LDB: Pc = 10;
const P_PF_STB: Pc = 11;
const P_PF_LDDIAG: Pc = 12;
const P_PF_STDIAG: Pc = 13;
const P_PF_ECHK: Pc = 14;
const P_PF_LDCOL: Pc = 15;
const P_PF_STCOL: Pc = 16;
const P_PF_LDDU: Pc = 17;
const P_PF_STDU: Pc = 18;
const P_PF_LDVAL: Pc = 19;
const P_PF_STVAL: Pc = 20;
// Phase A1 — gather: staged vals of cross-unit deps become val * x[col].
const P_A1_SEL: Pc = 21;
// DepPar: one (row, dep) slot per lane; one poll, one coalesced x load.
const P_A1D_SCANCHK: Pc = 22;
const P_A1D_SCANLD: Pc = 23;
const P_A1D_MAP: Pc = 24;
const P_A1D_LDLEN: Pc = 25;
const P_A1D_ACT: Pc = 26;
const P_A1D_LDDU: Pc = 27;
const P_A1D_POLL: Pc = 28;
const P_A1D_BRRDY: Pc = 29;
const P_A1D_LDCOL: Pc = 30;
const P_A1D_LDX: Pc = 31;
const P_A1D_LDVAL: Pc = 32;
const P_A1D_MUL: Pc = 33;
const P_A1D_STVAL: Pc = 34;
// Seq/Par: each lane walks its own staged row's dependencies.
const P_A1L_ACT: Pc = 35;
const P_A1L_ECHK: Pc = 36;
const P_A1L_LDDU: Pc = 37;
const P_A1L_BRSAME: Pc = 38;
const P_A1L_POLL: Pc = 39;
const P_A1L_BRRDY: Pc = 40;
const P_A1L_LDCOL: Pc = 41;
const P_A1L_LDX: Pc = 42;
const P_A1L_LDVAL: Pc = 43;
const P_A1L_MUL: Pc = 44;
const P_A1L_STVAL: Pc = 45;
const P_A1L_NEXT: Pc = 46;
// Phase B — resolve: ordered accumulation against shared memory.
const P_RES_SEL: Pc = 47;
const P_RES_ROWCHK: Pc = 48;
const P_RES_LDROW: Pc = 49;
const P_RES_LDLEN: Pc = 50;
const P_RES_ECHK: Pc = 51;
const P_RES_OVCHK: Pc = 52;
const P_RES_LDDU: Pc = 53;
const P_RES_BRSAME: Pc = 54;
const P_RES_LDCOL: Pc = 55;
const P_RES_LDVAL: Pc = 56;
const P_RES_LDX: Pc = 57;
const P_RES_FMA: Pc = 58;
const P_RES_LDPROD: Pc = 59;
const P_RES_ADD: Pc = 60;
// Spill path: entries past STAGE_CAP re-read global memory and poll inline.
const P_RES_LDJ0: Pc = 61;
const P_RES_GCOL: Pc = 62;
const P_RES_GDU: Pc = 63;
const P_RES_GVAL: Pc = 64;
const P_RES_GBRSAME: Pc = 65;
const P_RES_GPOLL: Pc = 66;
const P_RES_GBRRDY: Pc = 67;
const P_RES_ENEXT: Pc = 68;
const P_RES_LDB: Pc = 69;
const P_RES_LDDIAG: Pc = 70;
const P_RES_DIV: Pc = 71;
const P_RES_STX: Pc = 72;
const P_BATCH_ADV: Pc = 73;
// Unit publication.
const P_FENCE: Pc = 74;
const P_BR_LANE0: Pc = 75;
const P_ST_FLAG: Pc = 76;

/// The schedule arrays resident on one device, as produced by
/// [`upload_schedule`] and kept by a `plan::Plan` across solves.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSchedule {
    /// Rows grouped by unit ([`Schedule::rows`]).
    pub rows: BufU32,
    /// `(start << 2) | kind` descriptors, `n_units + 1` words
    /// ([`Schedule::encode_desc`]).
    pub desc: BufU32,
    /// Row → producing-unit map ([`Schedule::unit_of`]).
    pub unit_of: BufU32,
    /// Unit count (= warps to launch).
    pub n_units: usize,
}

/// Uploads a built schedule's arrays.
pub fn upload_schedule(dev: &mut GpuDevice, s: &Schedule) -> DeviceSchedule {
    let mem = dev.mem();
    DeviceSchedule {
        rows: mem.alloc_u32(s.rows()),
        desc: mem.alloc_u32(&s.encode_desc()),
        unit_of: mem.alloc_u32(s.unit_of()),
        n_units: s.n_units(),
    }
}

/// The scheduled kernel: one warp per work unit.
pub struct ScheduledKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    sched: DeviceSchedule,
    warp_size: u32,
}

impl ScheduledKernel {
    /// Builds the kernel against a [`DeviceSchedule`]: one from
    /// [`upload_schedule`], or one the sharded path (`crate::shard`)
    /// assembles after stripping ghost rows out of a per-shard schedule.
    pub(crate) fn new(
        m: DeviceCsr,
        sb: SolveBuffers,
        sched: DeviceSchedule,
        warp_size: usize,
    ) -> Self {
        ScheduledKernel {
            m,
            sb,
            sched,
            warp_size: warp_size as u32,
        }
    }
}

/// Per-lane registers.
#[derive(Default)]
pub struct SchedLane {
    /// Start of the current batch in the `rows` array (uniform).
    k0: u32,
    /// End offset of the unit in `rows` (uniform).
    end: u32,
    /// Unit kind code (uniform): 0 = Par, [`K_SEQ`], [`K_DEPPAR`].
    kind: u32,
    /// This lane's staging slot: `k0 + lane`.
    my_k: u32,
    row: u32,
    /// Row-pointer base of the row being staged / spilled.
    j: u32,
    /// Off-diagonal count of the current row.
    off_len: u32,
    /// Off-diagonal cursor.
    e: u32,
    /// Batch-local row index: scan cursor (A1 DepPar) or resolve cursor (B).
    c: u32,
    /// Rows in the current batch (uniform).
    bl: u32,
    /// Resolve cursor step: 1 for Seq (lane 0 only), `warp_size` otherwise.
    step: u32,
    /// DepPar slot stride: max staged off-diagonals over the batch.
    stride: u32,
    col: u32,
    du: u32,
    sum: f64,
    v: f64,
    xv: f64,
    bv: f64,
    ready: bool,
}

impl ScheduledKernel {
    /// Base of the staged row-id array in shared memory.
    #[inline]
    fn sh_row(&self) -> usize {
        0
    }
    #[inline]
    fn sh_len(&self) -> usize {
        self.warp_size as usize
    }
    #[inline]
    fn sh_b(&self) -> usize {
        2 * self.warp_size as usize
    }
    #[inline]
    fn sh_diag(&self) -> usize {
        3 * self.warp_size as usize
    }
    #[inline]
    fn sh_j0(&self) -> usize {
        4 * self.warp_size as usize
    }
    #[inline]
    fn sh_col(&self, slot: usize, e: usize) -> usize {
        5 * self.warp_size as usize + slot * STAGE_CAP + e
    }
    #[inline]
    fn sh_du(&self, slot: usize, e: usize) -> usize {
        (5 + STAGE_CAP) * self.warp_size as usize + slot * STAGE_CAP + e
    }
    #[inline]
    fn sh_val(&self, slot: usize, e: usize) -> usize {
        (5 + 2 * STAGE_CAP) * self.warp_size as usize + slot * STAGE_CAP + e
    }
}

impl WarpKernel for ScheduledKernel {
    type Lane = SchedLane;

    fn name(&self) -> &'static str {
        "scheduled-units"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize * (5 + 3 * STAGE_CAP)
    }

    fn make_lane(&self, _tid: u32) -> SchedLane {
        SchedLane::default()
    }

    fn exec(&self, pc: Pc, l: &mut SchedLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let unit = tid / self.warp_size;
        let lane = tid % self.warp_size;
        let cap = STAGE_CAP as u32;
        match pc {
            // --- Unit setup --------------------------------------------
            P_LD_DESC0 => {
                let d = mem.load_u32(self.sched.desc, unit as usize);
                l.k0 = d >> 2;
                l.kind = d & 3;
                Effect::to(P_LD_DESC1)
            }
            P_LD_DESC1 => {
                l.end = mem.load_u32(self.sched.desc, unit as usize + 1) >> 2;
                Effect::to(P_BATCH_CHK)
            }
            P_BATCH_CHK => {
                // `k0`/`end` are uniform: this branch never diverges.
                if l.k0 < l.end {
                    Effect::to(P_PF_ACT)
                } else {
                    Effect::to(P_FENCE)
                }
            }
            // --- A0 stage: lane r copies row rows[k0 + r] --------------
            P_PF_ACT => {
                l.my_k = l.k0 + lane;
                if l.my_k < l.end {
                    Effect::to(P_PF_LDROW)
                } else {
                    Effect::to(P_A1_SEL)
                }
            }
            P_PF_LDROW => {
                l.row = mem.load_u32(self.sched.rows, l.my_k as usize);
                Effect::to(P_PF_STROW)
            }
            P_PF_STROW => {
                mem.shared_store(self.sh_row() + lane as usize, l.row as f64);
                Effect::to(P_PF_LDRP0)
            }
            P_PF_LDRP0 => {
                l.j = mem.load_u32(self.m.row_ptr, l.row as usize);
                Effect::to(P_PF_LDRP1)
            }
            P_PF_LDRP1 => {
                // The diagonal is the last stored entry of a lower row.
                let j1 = mem.load_u32(self.m.row_ptr, l.row as usize + 1);
                l.off_len = j1 - 1 - l.j;
                l.e = 0;
                Effect::to(P_PF_STLEN)
            }
            P_PF_STLEN => {
                mem.shared_store(self.sh_len() + lane as usize, l.off_len as f64);
                Effect::to(P_PF_STJ0)
            }
            P_PF_STJ0 => {
                mem.shared_store(self.sh_j0() + lane as usize, l.j as f64);
                Effect::to(P_PF_LDB)
            }
            P_PF_LDB => {
                l.bv = mem.load_f64(self.sb.b, l.row as usize);
                Effect::to(P_PF_STB)
            }
            P_PF_STB => {
                mem.shared_store(self.sh_b() + lane as usize, l.bv);
                Effect::to(P_PF_LDDIAG)
            }
            P_PF_LDDIAG => {
                l.v = mem.load_f64(self.m.values, (l.j + l.off_len) as usize);
                Effect::to(P_PF_STDIAG)
            }
            P_PF_STDIAG => {
                mem.shared_store(self.sh_diag() + lane as usize, l.v);
                Effect::to(P_PF_ECHK)
            }
            P_PF_ECHK => {
                if l.e < l.off_len.min(cap) {
                    Effect::to(P_PF_LDCOL)
                } else {
                    Effect::to(P_A1_SEL)
                }
            }
            P_PF_LDCOL => {
                l.col = mem.load_u32(self.m.col_idx, (l.j + l.e) as usize);
                Effect::to(P_PF_STCOL)
            }
            P_PF_STCOL => {
                mem.shared_store(self.sh_col(lane as usize, l.e as usize), l.col as f64);
                Effect::to(P_PF_LDDU)
            }
            P_PF_LDDU => {
                l.du = mem.load_u32(self.sched.unit_of, l.col as usize);
                Effect::to(P_PF_STDU)
            }
            P_PF_STDU => {
                mem.shared_store(self.sh_du(lane as usize, l.e as usize), l.du as f64);
                Effect::to(P_PF_LDVAL)
            }
            P_PF_LDVAL => {
                l.v = mem.load_f64(self.m.values, (l.j + l.e) as usize);
                Effect::to(P_PF_STVAL)
            }
            P_PF_STVAL => {
                mem.shared_store(self.sh_val(lane as usize, l.e as usize), l.v);
                l.e += 1;
                Effect::to(P_PF_ECHK)
            }
            // --- A1 gather: staged vals become val * x for ext deps ----
            P_A1_SEL => {
                l.bl = (l.end - l.k0).min(self.warp_size);
                l.stride = 1;
                l.c = 0;
                if l.kind == K_DEPPAR {
                    Effect::to(P_A1D_SCANCHK)
                } else {
                    Effect::to(P_A1L_ACT)
                }
            }
            // DepPar: scan the staged lengths for the slot stride, then
            // map lane -> (row = lane / stride, dep = lane % stride).
            P_A1D_SCANCHK => {
                if l.c < l.bl {
                    Effect::to(P_A1D_SCANLD)
                } else {
                    Effect::to(P_A1D_MAP)
                }
            }
            P_A1D_SCANLD => {
                let len = mem.shared_load(self.sh_len() + l.c as usize) as u32;
                l.stride = l.stride.max(len);
                l.c += 1;
                Effect::to(P_A1D_SCANCHK)
            }
            P_A1D_MAP => {
                l.c = lane / l.stride;
                l.e = lane % l.stride;
                if l.c < l.bl {
                    Effect::to(P_A1D_LDLEN)
                } else {
                    Effect::to(P_RES_SEL)
                }
            }
            P_A1D_LDLEN => {
                l.off_len = mem.shared_load(self.sh_len() + l.c as usize) as u32;
                Effect::to(P_A1D_ACT)
            }
            P_A1D_ACT => {
                // DepPar rows are single-level: every dep is cross-unit,
                // and stride ≤ warp_size ≤ STAGE_CAP keeps them staged.
                if l.e < l.off_len {
                    Effect::to(P_A1D_LDDU)
                } else {
                    Effect::to(P_RES_SEL)
                }
            }
            P_A1D_LDDU => {
                l.du = mem.shared_load(self.sh_du(l.c as usize, l.e as usize)) as u32;
                Effect::to(P_A1D_POLL)
            }
            P_A1D_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.du as usize);
                Effect::to(P_A1D_BRRDY)
            }
            P_A1D_BRRDY => {
                if l.ready {
                    Effect::to(P_A1D_LDCOL)
                } else {
                    Effect::to(P_A1D_POLL)
                }
            }
            P_A1D_LDCOL => {
                l.col = mem.shared_load(self.sh_col(l.c as usize, l.e as usize)) as u32;
                Effect::to(P_A1D_LDX)
            }
            P_A1D_LDX => {
                l.xv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_A1D_LDVAL)
            }
            P_A1D_LDVAL => {
                l.v = mem.shared_load(self.sh_val(l.c as usize, l.e as usize));
                Effect::to(P_A1D_MUL)
            }
            P_A1D_MUL => {
                l.v *= l.xv;
                Effect::flops(P_A1D_STVAL, 1)
            }
            P_A1D_STVAL => {
                mem.shared_store(self.sh_val(l.c as usize, l.e as usize), l.v);
                Effect::to(P_RES_SEL)
            }
            // Seq/Par: lane r gathers its own staged row's ext deps.
            P_A1L_ACT => {
                l.e = 0;
                if l.my_k < l.end {
                    Effect::to(P_A1L_ECHK)
                } else {
                    Effect::to(P_RES_SEL)
                }
            }
            P_A1L_ECHK => {
                if l.e < l.off_len.min(cap) {
                    Effect::to(P_A1L_LDDU)
                } else {
                    Effect::to(P_RES_SEL)
                }
            }
            P_A1L_LDDU => {
                l.du = mem.shared_load(self.sh_du(lane as usize, l.e as usize)) as u32;
                Effect::to(P_A1L_BRSAME)
            }
            P_A1L_BRSAME => {
                if l.du == unit {
                    // Intra-unit (Seq): phase-B program order handles it.
                    Effect::to(P_A1L_NEXT)
                } else {
                    Effect::to(P_A1L_POLL)
                }
            }
            P_A1L_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.du as usize);
                Effect::to(P_A1L_BRRDY)
            }
            P_A1L_BRRDY => {
                if l.ready {
                    Effect::to(P_A1L_LDCOL)
                } else {
                    Effect::to(P_A1L_POLL)
                }
            }
            P_A1L_LDCOL => {
                l.col = mem.shared_load(self.sh_col(lane as usize, l.e as usize)) as u32;
                Effect::to(P_A1L_LDX)
            }
            P_A1L_LDX => {
                l.xv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_A1L_LDVAL)
            }
            P_A1L_LDVAL => {
                l.v = mem.shared_load(self.sh_val(lane as usize, l.e as usize));
                Effect::to(P_A1L_MUL)
            }
            P_A1L_MUL => {
                l.v *= l.xv;
                Effect::flops(P_A1L_STVAL, 1)
            }
            P_A1L_STVAL => {
                mem.shared_store(self.sh_val(lane as usize, l.e as usize), l.v);
                Effect::to(P_A1L_NEXT)
            }
            P_A1L_NEXT => {
                l.e += 1;
                Effect::to(P_A1L_ECHK)
            }
            // --- B resolve: ordered accumulation, shared-only fast path -
            P_RES_SEL => {
                l.bl = (l.end - l.k0).min(self.warp_size);
                if l.kind == K_SEQ {
                    // Seq: lane 0 owns every staged row, the rest go idle.
                    l.step = 1;
                    l.c = if lane == 0 { 0 } else { l.bl };
                } else {
                    // Par/DepPar: lane r resolves its own staged row.
                    l.step = self.warp_size;
                    l.c = lane;
                }
                Effect::to(P_RES_ROWCHK)
            }
            P_RES_ROWCHK => {
                if l.c < l.bl {
                    Effect::to(P_RES_LDROW)
                } else {
                    Effect::to(P_BATCH_ADV)
                }
            }
            P_RES_LDROW => {
                l.row = mem.shared_load(self.sh_row() + l.c as usize) as u32;
                l.sum = 0.0;
                Effect::to(P_RES_LDLEN)
            }
            P_RES_LDLEN => {
                l.off_len = mem.shared_load(self.sh_len() + l.c as usize) as u32;
                l.e = 0;
                Effect::to(P_RES_ECHK)
            }
            P_RES_ECHK => {
                if l.e < l.off_len {
                    Effect::to(P_RES_OVCHK)
                } else {
                    Effect::to(P_RES_LDB)
                }
            }
            P_RES_OVCHK => {
                if l.e < cap {
                    Effect::to(P_RES_LDDU)
                } else {
                    Effect::to(P_RES_LDJ0)
                }
            }
            P_RES_LDDU => {
                l.du = mem.shared_load(self.sh_du(l.c as usize, l.e as usize)) as u32;
                Effect::to(P_RES_BRSAME)
            }
            P_RES_BRSAME => {
                if l.du == unit {
                    // Intra-unit dependency: Seq program order already
                    // produced x[col]; load it and multiply in place.
                    Effect::to(P_RES_LDCOL)
                } else {
                    // Cross-unit: phase A1 left the product in the slot.
                    Effect::to(P_RES_LDPROD)
                }
            }
            P_RES_LDCOL => {
                l.col = mem.shared_load(self.sh_col(l.c as usize, l.e as usize)) as u32;
                Effect::to(P_RES_LDVAL)
            }
            P_RES_LDVAL => {
                l.v = mem.shared_load(self.sh_val(l.c as usize, l.e as usize));
                Effect::to(P_RES_LDX)
            }
            P_RES_LDX => {
                l.xv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_RES_FMA)
            }
            P_RES_FMA => {
                l.sum += l.v * l.xv;
                Effect::flops(P_RES_ENEXT, 2)
            }
            P_RES_LDPROD => {
                l.v = mem.shared_load(self.sh_val(l.c as usize, l.e as usize));
                Effect::to(P_RES_ADD)
            }
            P_RES_ADD => {
                // A1 computed v = val * x with the same operands the serial
                // reference multiplies here, so `sum += v` is bit-exact.
                l.sum += l.v;
                Effect::flops(P_RES_ENEXT, 1)
            }
            // Spill path: entries past STAGE_CAP re-read global memory.
            P_RES_LDJ0 => {
                l.j = mem.shared_load(self.sh_j0() + l.c as usize) as u32;
                Effect::to(P_RES_GCOL)
            }
            P_RES_GCOL => {
                l.col = mem.load_u32(self.m.col_idx, (l.j + l.e) as usize);
                Effect::to(P_RES_GDU)
            }
            P_RES_GDU => {
                l.du = mem.load_u32(self.sched.unit_of, l.col as usize);
                Effect::to(P_RES_GVAL)
            }
            P_RES_GVAL => {
                l.v = mem.load_f64(self.m.values, (l.j + l.e) as usize);
                Effect::to(P_RES_GBRSAME)
            }
            P_RES_GBRSAME => {
                if l.du == unit {
                    Effect::to(P_RES_LDX)
                } else {
                    Effect::to(P_RES_GPOLL)
                }
            }
            P_RES_GPOLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.du as usize);
                Effect::to(P_RES_GBRRDY)
            }
            P_RES_GBRRDY => {
                if l.ready {
                    Effect::to(P_RES_LDX)
                } else {
                    Effect::to(P_RES_GPOLL)
                }
            }
            P_RES_ENEXT => {
                l.e += 1;
                Effect::to(P_RES_ECHK)
            }
            P_RES_LDB => {
                l.bv = mem.shared_load(self.sh_b() + l.c as usize);
                Effect::to(P_RES_LDDIAG)
            }
            P_RES_LDDIAG => {
                l.v = mem.shared_load(self.sh_diag() + l.c as usize);
                Effect::to(P_RES_DIV)
            }
            P_RES_DIV => {
                l.xv = (l.bv - l.sum) / l.v;
                Effect::flops(P_RES_STX, 2)
            }
            P_RES_STX => {
                mem.store_f64(self.sb.x, l.row as usize, l.xv);
                l.c += l.step;
                Effect::to(P_RES_ROWCHK)
            }
            P_BATCH_ADV => {
                l.k0 += self.warp_size;
                Effect::to(P_BATCH_CHK)
            }
            // --- Publish the unit --------------------------------------
            P_FENCE => Effect::fence(P_BR_LANE0),
            P_BR_LANE0 => {
                if lane == 0 {
                    Effect::to(P_ST_FLAG)
                } else {
                    Effect::exit()
                }
            }
            P_ST_FLAG => {
                mem.store_flag(self.sb.flags, unit as usize, true);
                Effect::exit()
            }
            _ => unreachable!("scheduled has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            // Outer batch loop (uniform, but the ipdom is well-defined).
            P_BATCH_CHK => P_FENCE,
            // Stage: idle lanes and finished stagers meet at the gather.
            P_PF_ACT | P_PF_ECHK => P_A1_SEL,
            // Gather dispatch (uniform kind) and both gather exits.
            P_A1_SEL | P_A1D_MAP | P_A1D_ACT | P_A1L_ACT | P_A1L_ECHK => P_RES_SEL,
            // DepPar stride scan (uniform loop).
            P_A1D_SCANCHK => P_A1D_MAP,
            // Gather spins: woken lanes wait at the x load.
            P_A1D_BRRDY => P_A1D_LDCOL,
            P_A1L_BRRDY => P_A1L_LDCOL,
            // Seq/Par gather: intra deps skip straight to the next entry.
            P_A1L_BRSAME => P_A1L_NEXT,
            // Resolve row loop: idle/finished lanes park at the batch end.
            P_RES_ROWCHK => P_BATCH_ADV,
            // Column loop: short rows park at the row finalize.
            P_RES_ECHK => P_RES_LDB,
            // Staged intra/ext and spill subpaths all meet at the advance.
            P_RES_OVCHK | P_RES_BRSAME => P_RES_ENEXT,
            // Spill dependency resolution: both arms meet at the x load.
            P_RES_GBRSAME | P_RES_GBRRDY => P_RES_LDX,
            P_BR_LANE0 => PC_EXIT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // Blocking spins run first, SyncFree style: every spin targets
            // another warp's flag, so no same-warp lane is starved.
            P_A1D_BRRDY => u8::from(target != P_A1D_POLL),
            P_A1L_BRRDY => u8::from(target != P_A1L_POLL),
            P_RES_GBRRDY => u8::from(target != P_RES_GPOLL),
            P_BR_LANE0 => u8::from(target != P_ST_FLAG),
            _ => u8::from(target == PC_EXIT),
        }
    }

    fn pc_name(&self, pc: Pc) -> &'static str {
        match pc {
            P_LD_DESC0 | P_LD_DESC1 | P_BATCH_CHK => "ld unit desc",
            P_PF_ACT | P_PF_LDROW | P_PF_STROW | P_PF_LDRP0 | P_PF_LDRP1 | P_PF_STLEN
            | P_PF_STJ0 | P_PF_LDB | P_PF_STB | P_PF_LDDIAG | P_PF_STDIAG => "stage row",
            P_PF_ECHK | P_PF_LDCOL | P_PF_STCOL | P_PF_LDDU | P_PF_STDU | P_PF_LDVAL
            | P_PF_STVAL => "stage cols",
            P_A1_SEL | P_A1D_SCANCHK | P_A1D_SCANLD | P_A1D_MAP | P_A1D_LDLEN | P_A1D_ACT => {
                "slot map"
            }
            P_A1D_POLL | P_A1D_BRRDY | P_A1L_POLL | P_A1L_BRRDY => "unit spin",
            P_A1D_LDDU | P_A1D_LDCOL | P_A1D_LDX | P_A1D_LDVAL | P_A1D_MUL | P_A1D_STVAL
            | P_A1L_ACT | P_A1L_ECHK | P_A1L_LDDU | P_A1L_BRSAME | P_A1L_LDCOL | P_A1L_LDX
            | P_A1L_LDVAL | P_A1L_MUL | P_A1L_STVAL | P_A1L_NEXT => "gather x",
            P_RES_SEL | P_RES_ROWCHK | P_RES_LDROW | P_RES_LDLEN => "resolve row",
            P_RES_ECHK | P_RES_OVCHK | P_RES_LDDU | P_RES_BRSAME | P_RES_LDCOL | P_RES_LDVAL
            | P_RES_LDPROD | P_RES_LDJ0 | P_RES_GCOL | P_RES_GDU | P_RES_GVAL | P_RES_GBRSAME => {
                "col walk"
            }
            P_RES_GPOLL | P_RES_GBRRDY => "spill spin",
            P_RES_LDX | P_RES_FMA | P_RES_ADD | P_RES_ENEXT => "accumulate",
            P_RES_LDB | P_RES_LDDIAG | P_RES_DIV | P_RES_STX => "finalize row",
            P_BATCH_ADV => "next batch",
            P_FENCE | P_BR_LANE0 | P_ST_FLAG => "publish unit",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): each poll re-reads one
    /// flag word per trip and mutates nothing else.
    fn spin_pure(&self, pc: Pc) -> bool {
        matches!(pc, P_A1D_POLL | P_A1L_POLL | P_RES_GPOLL)
    }
}

/// Runs the scheduled kernel against an already-uploaded schedule, one
/// warp per unit.
pub fn launch_with_schedule(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
    sched: DeviceSchedule,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    dev.launch(&ScheduledKernel::new(m, sb, sched, ws), sched.n_units)
}

/// Convenience: upload, analyze and coarsen with the device's warp-tuned
/// defaults, solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    crate::plan::solve_once(dev, l, b, crate::select::Algorithm::Scheduled).map(|(sim, _)| sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem, test_devices, test_matrices};
    use capellini_simt::{DeviceConfig, GpuDevice, MemoryModel, SpinModel};
    use capellini_sparse::{gen, LevelSets, ScheduleParams};

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
    fn matches_the_serial_reference_bitwise() {
        // Accumulation follows CSR column order per row — the exact
        // floating-point schedule of the serial reference.
        for (name, l) in test_matrices() {
            let (_, b) = problem(&l);
            let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
            let out = solve(&mut dev, &l, &b).unwrap();
            let x_ref = crate::reference::solve_serial_csr(&l, &b);
            for (i, (got, want)) in out.x.iter().zip(&x_ref).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name}: x[{i}] differs from the serial reference"
                );
            }
        }
    }

    #[test]
    fn deep_chain_still_completes() {
        let l = gen::chain(2_000, 1, 5);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
        // The whole chain coarsens into one sequential unit: one warp.
        assert_eq!(out.stats.warps_launched, 1);
    }

    #[test]
    fn rows_past_the_stage_cap_spill_to_global_loads() {
        // Band 40 > STAGE_CAP off-diagonals per row: the resolve loop must
        // take the spill path and still match the reference bitwise.
        let l = gen::dense_band(160, STAGE_CAP + 8, 11);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        let x_ref = crate::reference::solve_serial_csr(&l, &b);
        for (i, (got, want)) in out.x.iter().zip(&x_ref).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "x[{i}] differs (spill path)");
        }
    }

    #[test]
    fn launches_one_warp_per_unit() {
        let l = gen::diagonal(1_000);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let levels = LevelSets::analyze(&l);
        let s = Schedule::build(&l, &levels, ScheduleParams::for_warp(32));
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
        assert_eq!(out.stats.warps_launched, s.n_units() as u64);
    }

    #[test]
    fn relaxed_and_fastforward_match_replay_bitwise() {
        let l = gen::powerlaw(600, 3.0, 21);
        let (_, b) = problem(&l);
        let base = DeviceConfig::pascal_like().scaled_down(4);
        let mut dev = GpuDevice::new(base.clone());
        let want = solve(&mut dev, &l, &b).unwrap();
        for mm in [
            MemoryModel::SequentiallyConsistent,
            MemoryModel::relaxed(2_000),
            MemoryModel::racecheck(2_000),
        ] {
            for sm in [SpinModel::Replay, SpinModel::FastForward] {
                let cfg = base.clone().with_memory_model(mm).with_spin_model(sm);
                let mut dev = GpuDevice::new(cfg);
                let got = solve(&mut dev, &l, &b).unwrap();
                for (i, (g, w)) in got.x.iter().zip(&want.x).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "x[{i}] under {mm:?}/{sm:?}");
                }
            }
        }
    }

    #[test]
    fn empty_system_launches_zero_warps() {
        let l = LowerTriangularCsr::try_new(
            capellini_sparse::CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap(),
        )
        .unwrap();
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &[]).unwrap();
        assert!(out.x.is_empty());
        assert_eq!(out.stats.warps_launched, 0);
    }
}
