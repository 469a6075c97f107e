//! Single-connection metadata throughput: serial vs pipelined vs batch.
//!
//! Wire protocol v1 was strict request/response, so one connection's
//! metadata rate was capped at one round trip per operation no matter
//! how fast the server got. Protocol gen 2 breaks the cap two ways:
//! pipelining (many in-flight frames, `id=`-correlated replies) and the
//! `batch` RPC (many sub-operations in one frame). This bench drives
//! one authenticated connection with a pure `stat` workload in each
//! mode and reports operations per second, plus the speedup over the
//! serial baseline, into `results/BENCH_pipeline.tsv`.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin pipeline
//! ```
//!
//! Each mode also reports *where the time went* on the server: the
//! event-loop lag histogram is diffed around the mode's window, so the
//! `loop_p99_us` column says how long one readiness cycle ran — the
//! number that separates "the wire is the bottleneck" (tiny cycles,
//! many round trips) from "dispatch is" (few cycles, each doing real
//! work).
//!
//! Knobs: `IDBOX_BENCH_WINDOW_MS` shrinks the per-mode measurement
//! window (CI smoke); `IDBOX_PIPELINE_DEPTH` (comma-separated) picks
//! the pipeline depths to sweep, default `4,16,64`. With
//! `IDBOX_BENCH_ASSERT_PIPELINE` set, the run fails unless pipelining
//! at depth >= 16 clears 5x serial — skipped on single-core hosts,
//! where client and server contend for one hardware thread. The TSV is
//! written before the gate runs, so a red run still records what it
//! measured; each row carries the host's cores, the per-mode window
//! and the git sha of the code measured.

use idbox_auth::ClientCredential;
use idbox_bench::{env_list, env_u64, git_sha, spawn_server};
use idbox_chirp::{BatchOp, ChirpClient, ServerConfig};
use parking_lot::Log2Buckets;
use std::time::{Duration, Instant};

const WINDOW_MS: u64 = 1500;
const FILE: &str = "/bench/data.dat";

/// Serial baseline: one `stat` per round trip, v1 style.
fn run_serial(c: &mut ChirpClient, window: Duration) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        c.stat(FILE).unwrap();
        ops += 1;
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// Pipelined: bursts of `depth` stats per round trip.
fn run_pipelined(c: &mut ChirpClient, depth: usize, window: Duration) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        let mut p = c.pipeline();
        for _ in 0..depth {
            p.stat(FILE);
        }
        for r in p.run().unwrap() {
            r.result.unwrap();
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// Batched: `depth` stat sub-operations per single `batch` frame.
fn run_batched(c: &mut ChirpClient, depth: usize, window: Duration) -> f64 {
    let ops_tmpl: Vec<BatchOp> = (0..depth)
        .map(|_| BatchOp::Stat(FILE.to_string()))
        .collect();
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        for r in c.batch(&ops_tmpl).unwrap() {
            r.stat().unwrap();
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", WINDOW_MS));
    let warmup = (window / 4).max(Duration::from_millis(50));
    let depths: Vec<usize> = env_list("IDBOX_PIPELINE_DEPTH", &[4, 16, 64]);

    let (handle, ca) = spawn_server(ServerConfig {
        name: "pipeline".into(),
        ..Default::default()
    });
    let creds = vec![ClientCredential::Globus(ca.issue("/O=UnivNowhere/CN=Fred"))];
    let mut c = ChirpClient::connect(handle.addr(), &creds).unwrap();
    c.mkdir("/bench", 0o755).unwrap();
    c.put(FILE, &vec![7u8; 4096]).unwrap();

    // Loop-lag p99 across one mode's window: diff the server's merged
    // histogram around the run.
    let lag_window = |handle: &idbox_chirp::ChirpServerHandle, before: Log2Buckets<22>| {
        let window = handle.loop_stats().lag_buckets().diff(&before);
        window
            .percentile(99.0)
            .map_or_else(|| "-".to_string(), |v| v.to_string())
    };

    let provenance = format!("{cores}\t{}\t{}", window.as_millis(), git_sha());
    let mut rows = Vec::new();
    // Warm the caches and the session before the serial baseline so
    // every mode is compared warm-on-warm.
    run_serial(&mut c, warmup);
    let lag0 = handle.loop_stats().lag_buckets();
    let serial = run_serial(&mut c, window);
    let lag = lag_window(&handle, lag0);
    println!("serial        : {serial:>10.0} ops/s  (baseline, loop p99 {lag} us)");
    rows.push(format!("serial\t1\t{serial:.0}\t1.00\t{lag}\t{provenance}"));

    let mut deep_speedup = 0.0f64;
    for &depth in &depths {
        run_pipelined(&mut c, depth, warmup);
        let lag0 = handle.loop_stats().lag_buckets();
        let rate = run_pipelined(&mut c, depth, window);
        let lag = lag_window(&handle, lag0);
        let speedup = rate / serial;
        if depth >= 16 {
            deep_speedup = deep_speedup.max(speedup);
        }
        println!(
            "pipeline d={depth:<3}: {rate:>10.0} ops/s  ({speedup:.2}x serial, loop p99 {lag} us)"
        );
        rows.push(format!("pipeline\t{depth}\t{rate:.0}\t{speedup:.2}\t{lag}\t{provenance}"));
    }

    let batch_depth = 64;
    run_batched(&mut c, batch_depth, warmup);
    let lag0 = handle.loop_stats().lag_buckets();
    let rate = run_batched(&mut c, batch_depth, window);
    let lag = lag_window(&handle, lag0);
    let speedup = rate / serial;
    println!(
        "batch    n={batch_depth:<2}: {rate:>10.0} ops/s  ({speedup:.2}x serial, loop p99 {lag} us)"
    );
    rows.push(format!("batch\t{batch_depth}\t{rate:.0}\t{speedup:.2}\t{lag}\t{provenance}"));

    if cores < 2 {
        println!("note: only {cores} core(s) available; client and server are core-bound");
    }
    idbox_bench::write_tsv(
        "BENCH_pipeline.tsv",
        "mode\tdepth\tops_per_sec\tspeedup_vs_serial\tloop_p99_us\thost_cores\twindow_ms\tgit_sha",
        &rows,
    );
    // Optional regression gate: pipelining must actually beat the
    // round-trip cap. Skipped — not weakened — on single-core hosts.
    if std::env::var("IDBOX_BENCH_ASSERT_PIPELINE").is_ok() {
        if cores < 2 {
            println!("pipeline assertion skipped: requires >= 2 cores, host has {cores}");
        } else {
            assert!(
                deep_speedup >= 5.0,
                "pipelining failed to clear the round-trip cap: best deep-pipeline \
                 speedup {deep_speedup:.2}x < 5x serial on a {cores}-core host"
            );
            println!("pipeline assertion passed: {deep_speedup:.2}x serial at depth >= 16");
        }
    }
    let _ = c.quit();
    handle.shutdown();
}
