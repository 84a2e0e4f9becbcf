//! Output checks and the simulated-statistics digest.

use capellini_core::Algorithm;
use capellini_simt::LaunchStats;
use capellini_sparse::linalg::rel_error_inf;

/// Relative inf-norm tolerance for kernels whose floating-point summation
/// order differs from the serial reference (the tolerance `tests/` uses).
pub const REDUCTION_TOL: f64 = 1e-10;

/// True for kernels that sum each row in CSR order on one lane, so their
/// solution must equal the serial reference bit for bit.
pub fn is_bitwise_kernel(a: Algorithm) -> bool {
    matches!(
        a,
        Algorithm::CapelliniWritingFirst
            | Algorithm::CapelliniTwoPhase
            | Algorithm::NaiveThread
            | Algorithm::Scheduled
    )
}

/// Checks a device solution against `reference::solve_serial_csr`'s.
pub fn matches_reference(a: Algorithm, x: &[f64], x_ref: &[f64]) -> bool {
    if x.len() != x_ref.len() {
        return false;
    }
    if is_bitwise_kernel(a) {
        bitwise_equal(x, x_ref)
    } else {
        x.iter().all(|v| v.is_finite()) && rel_error_inf(x, x_ref) <= REDUCTION_TOL
    }
}

pub fn bitwise_equal(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Solves attempted and failed (wrong, rejected or errored).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// FNV-1a over every simulated statistic of a run's deterministic solves.
/// A change that only speeds up the simulator must leave it unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    pub solves: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            solves: 0,
        }
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in one solve's launch statistics and scheduler heap events.
    pub fn solve(&mut self, stats: &LaunchStats, heap_events: u64) {
        self.bytes(format!("{stats:?}").as_bytes());
        self.u64(heap_events);
        self.solves += 1;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}
