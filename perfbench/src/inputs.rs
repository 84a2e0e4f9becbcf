//! Seeded workload inputs. Every matrix is generated from the run's seed and
//! serialised to Matrix Market text before any timing starts, so the
//! program under test only ever sees `.mtx` text and right-hand sides.
//!
//! Matrices keep their generator's row order. A random topological
//! relabel (`GenSpec::shuffled`) would make the simulated event count of
//! the wide matrices vary by 8–11% from seed to seed, which the host-time
//! metrics inherit.

use capellini_sparse::gen::GenSpec;
use capellini_sparse::io::to_matrix_market_string;

/// Right-hand sides generated per matrix; solves cycle through them.
pub const RHS_PER_MATRIX: usize = 4;

/// One matrix of a workload: its stand-in name, Matrix Market text and
/// right-hand sides.
pub struct MatrixInput {
    pub name: &'static str,
    pub text: String,
    pub rhs: Vec<Vec<f64>>,
}

/// splitmix64: the benchmark's own seed expander.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1).
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates `specs` under `seed`: each matrix gets its own generator seed
/// and [`RHS_PER_MATRIX`] right-hand sides with entries in [-1, 1).
pub fn generate(specs: Vec<(&'static str, GenSpec)>, seed: u64) -> Vec<MatrixInput> {
    let mut state = seed;
    specs
        .into_iter()
        .map(|(name, spec)| {
            let l = spec.build(splitmix(&mut state));
            let rhs = (0..RHS_PER_MATRIX)
                .map(|_| (0..l.n()).map(|_| 2.0 * unit(&mut state) - 1.0).collect())
                .collect();
            MatrixInput {
                name,
                text: to_matrix_market_string(l.csr()),
                rhs,
            }
        })
        .collect()
}

/// High-granularity stand-ins (δ above the Figure 6 threshold, so the
/// session picks Capellini Writing-First) at n = 4·10⁴ each: large enough
/// that parsing and analysis weigh in set-up, no larger because host time
/// on bigger working sets swings with other tenants' memory traffic.
pub fn ingest_wide() -> Vec<(&'static str, GenSpec)> {
    vec![
        (
            "wiki-Talk-like",
            GenSpec::PowerLaw {
                n: 40_000,
                avg_deg: 2.6,
            },
        ),
        (
            "lp1-like",
            GenSpec::UltraSparseWide {
                n: 40_000,
                heads: 8,
                deps: 1,
            },
        ),
        (
            "rajat29-like",
            GenSpec::Layered {
                n: 40_000,
                k: 5,
                layers: 4,
            },
        ),
    ]
}

/// Deep, low-granularity stand-ins (the session picks SyncFree), each
/// sized so one warm solve stays well under 0.5 s of host time.
pub fn deep_chain() -> Vec<(&'static str, GenSpec)> {
    vec![
        ("chain", GenSpec::Chain { n: 400, k: 2 }),
        (
            "nlpkkt160-like",
            GenSpec::Stencil3D {
                nx: 10,
                ny: 10,
                nz: 10,
            },
        ),
        ("cant-like", GenSpec::DenseBand { n: 250, band: 30 }),
    ]
}

/// The service's matrix population, hottest first (request weights fall
/// off as 1/rank).
pub fn serve_population() -> Vec<(&'static str, GenSpec)> {
    vec![
        (
            "powerlaw-8k",
            GenSpec::PowerLaw {
                n: 8_000,
                avg_deg: 3.0,
            },
        ),
        (
            "layered-8k",
            GenSpec::Layered {
                n: 8_000,
                k: 4,
                layers: 5,
            },
        ),
        (
            "lpwide-8k",
            GenSpec::UltraSparseWide {
                n: 8_000,
                heads: 16,
                deps: 2,
            },
        ),
        (
            "circuit-6k",
            GenSpec::Circuit {
                n: 6_000,
                rails: 4,
                dense_every: 256,
            },
        ),
        (
            "randk-1k",
            GenSpec::RandomK {
                n: 1_000,
                k: 3,
                window: 1_000,
            },
        ),
        ("stencil2d-24", GenSpec::Stencil2D { nx: 24, ny: 24 }),
    ]
}

/// One wide and one deep matrix for the 4-device sharded solve.
pub fn shard_4dev() -> Vec<(&'static str, GenSpec)> {
    vec![
        (
            "powerlaw-12k",
            GenSpec::PowerLaw {
                n: 12_000,
                avg_deg: 3.0,
            },
        ),
        (
            "nlpkkt-like-11",
            GenSpec::Stencil3D {
                nx: 11,
                ny: 11,
                nz: 11,
            },
        ),
    ]
}
