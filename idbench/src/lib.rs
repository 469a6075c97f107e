//! The idbox benchmark: workloads, checks, metrics and layer peeling.
//! The `idbench` binary is the command line around [`runs::run`].
//!
//! ```text
//! cargo run --release --manifest-path idbench/Cargo.toml -- \
//!     --workload <meta|churn|bulk|box_make> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload against the real stack and prints every
//! metric by name with its unit, one `# metric` line each, then as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` (the end-to-end set with `--trace 0`, the per-layer set
//! with `--trace 1`). Every reply is checked; a wrong byte, a failed
//! operation or a forbidden probe that succeeds makes the run incorrect
//! and the exit code 1. See `idbench/README.md` for the workloads, the
//! metrics and what each per-layer metric is expected to move.

pub mod counters;
pub mod json;
pub mod make;
pub mod model;
pub mod peel;
pub mod rng;
pub mod runs;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire;

use model::Kind;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("mib_per_s", "MiB/s"),
    ("job_s", "s"),
    ("setup_s", "s"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chirp.server_us", "us"),
    ("chirp.residual_us", "us"),
    ("chirp.wakeups_per_op", "count"),
    ("chirp.flushes_per_op", "count"),
    ("chirp.loop_lag_p99_us", "us"),
    ("chirp.outbuf_hwm_kib", "KiB"),
    ("chirp.codec_ns", "ns"),
    ("chirp.wire_bytes_per_op", "B"),
    ("auth.connect_us", "us"),
    ("interpose.boxed_op_ns", "ns"),
    ("interpose.direct_op_ns", "ns"),
    ("interpose.traps_per_op", "count"),
    ("interpose.pokes_per_op", "count"),
    ("interpose.channel_bytes_per_op", "B"),
    ("interpose.slowdown", "ratio"),
    ("core.check_ns", "ns"),
    ("core.verdict_hit_frac", "ratio"),
    ("core.denials", "count"),
    ("kernel.syscall_ns", "ns"),
    ("kernel.syscalls_per_op", "count"),
    ("kernel.lock_waits_per_kop", "count"),
    ("kernel.lock_wait_p99_us", "us"),
    ("vfs.resolve_ns", "ns"),
    ("vfs.dentry_hit_frac", "ratio"),
    ("vfs.read_mib_per_s", "MiB/s"),
    ("vfs.write_mib_per_s", "MiB/s"),
    ("vfs.wal_appends_per_op", "count"),
    ("vfs.wal_bytes_per_op", "B"),
    ("vfs.wal_fsyncs_per_s", "1/s"),
    ("vfs.wal_replay_s", "s"),
    ("process.cpu_us_per_op", "us"),
    ("process.cswitch_per_op", "count"),
    ("process.allocs_per_op", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// A deliberate fault, for the benchmark's own tests: proof that its
/// checks catch a wrong byte and a fail-open verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip one byte of a staged file behind the server's back.
    Corrupt,
    /// Grant every identity read access where probes must be refused.
    FailOpen,
}

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Option<Inject>,
}

/// The benchmark's own directory (scratch space for WAL directories and
/// span files lives under it, inside the checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What a run measured and checked.
pub struct Outcome {
    pub tally: wire::Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and context lines printed before the metrics.
    pub notes: Vec<String>,
}
