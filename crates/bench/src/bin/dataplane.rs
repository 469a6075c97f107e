//! Data-plane throughput: the zero-copy extent pipeline vs the copying
//! read path, across payload sizes from 4 KiB to 64 MiB.
//!
//! PR "zero-copy data plane" rebuilt the byte-moving path: `get` (and
//! `pread`) replies carry `Arc`-backed extents borrowed straight from
//! the Vfs chunk store, queued as scatter-gather segments and flushed
//! with vectored writes — the file bytes are never copied into guest
//! memory or a flat connection buffer. This bench drives two servers,
//! one with the pipeline on (default) and one ablated to the old
//! copying path (`copy_data_plane`), and reports MiB/s plus process-
//! wide allocations per operation for each transfer size, into
//! `results/BENCH_dataplane.tsv`.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin dataplane
//! ```
//!
//! Knobs: `IDBOX_BENCH_WINDOW_MS` shrinks the per-mode measurement
//! window (CI smoke); `IDBOX_DATAPLANE_SIZES` (comma-separated bytes)
//! picks the sizes to sweep. With `IDBOX_BENCH_ASSERT_DATAPLANE` set,
//! the run fails unless zero-copy `get` clears 2x the copying path's
//! MiB/s at some size >= 1 MiB — skipped on single-core hosts, where
//! client and server contend for one hardware thread.

use idbox_auth::{CertificateAuthority, ClientCredential};
use idbox_bench::{env_list, env_u64, spawn_server};
use idbox_chirp::{ChirpClient, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Allocation-counting wrapper around the system allocator, so the
/// allocs-per-op column can show the copy path's per-transfer buffer
/// churn against the extent path's near-flat profile. Process-wide:
/// client and server run in this one process, which is the point.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WINDOW_MS: u64 = 800;
const MIB: f64 = (1u64 << 20) as f64;

fn server(copy_data_plane: bool) -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    spawn_server(ServerConfig {
        name: "dataplane".into(),
        copy_data_plane,
        ..Default::default()
    })
}

fn connect(handle: &idbox_chirp::ChirpServerHandle, ca: &CertificateAuthority) -> ChirpClient {
    let creds = vec![ClientCredential::Globus(ca.issue("/O=UnivNowhere/CN=Fred"))];
    ChirpClient::connect(handle.addr(), &creds).unwrap()
}

/// Patterned payload: corruption anywhere in the pipeline fails the
/// length/content checks instead of passing silently.
fn payload(size: usize) -> Vec<u8> {
    (0..size as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect()
}

/// Run `f` repeatedly for `window` (at least once) and report
/// (ops/s, allocations/op).
fn timed(window: Duration, mut f: impl FnMut()) -> (f64, f64) {
    let t0 = Instant::now();
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut ops = 0u64;
    while ops == 0 || t0.elapsed() < window {
        f();
        ops += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - a0;
    (ops as f64 / dt, allocs as f64 / ops as f64)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", WINDOW_MS));
    let warmup = (window / 4).max(Duration::from_millis(50));
    let sizes: Vec<usize> = env_list(
        "IDBOX_DATAPLANE_SIZES",
        &[4 << 10, 64 << 10, 1 << 20, 8 << 20, 64 << 20],
    );

    let (zc_handle, zc_ca) = server(false);
    let (cp_handle, cp_ca) = server(true);
    let mut zc = connect(&zc_handle, &zc_ca);
    let mut cp = connect(&cp_handle, &cp_ca);
    zc.mkdir("/bench", 0o755).unwrap();
    cp.mkdir("/bench", 0o755).unwrap();

    let mut rows = Vec::new();
    let mut best_large_speedup = 0.0f64;
    println!("{:>10}  {:<14} {:>10}  {:>10}  notes", "size", "mode", "MiB/s", "allocs/op");
    for &size in &sizes {
        let data = payload(size);
        let path = format!("/bench/f{size}.dat");
        zc.put(&path, &data).unwrap();
        cp.put(&path, &data).unwrap();
        let mib = size as f64 / MIB;
        // Pipelining depth scaled so one burst stays near 32 MiB of
        // in-flight replies even at the top of the sweep.
        let depth = ((32 << 20) / size).clamp(2, 8);

        // Ablated baseline: the pre-extent copying path.
        timed(warmup, || assert_eq!(cp.get(&path).unwrap().len(), size));
        let (ops, allocs) = timed(window, || assert_eq!(cp.get(&path).unwrap().len(), size));
        let copy_rate = ops * mib;
        println!("{size:>10}  {:<14} {copy_rate:>10.1}  {allocs:>10.0}  baseline", "get/copy");
        rows.push(format!("get\tcopy\t{size}\t{copy_rate:.1}\t{allocs:.0}\t1.00\t{cores}"));

        // Zero-copy, serial.
        timed(warmup, || assert_eq!(zc.get(&path).unwrap().len(), size));
        let (ops, allocs) = timed(window, || assert_eq!(zc.get(&path).unwrap().len(), size));
        let zc_rate = ops * mib;
        let speedup = zc_rate / copy_rate;
        if size >= 1 << 20 {
            best_large_speedup = best_large_speedup.max(speedup);
        }
        println!("{size:>10}  {:<14} {zc_rate:>10.1}  {allocs:>10.0}  {speedup:.2}x copy", "get/zerocopy");
        rows.push(format!(
            "get\tzerocopy\t{size}\t{zc_rate:.1}\t{allocs:.0}\t{speedup:.2}\t{cores}"
        ));

        // Zero-copy, pipelined: `depth` gets in flight on one
        // connection, replies streamed under backpressure.
        let run_pipe = |c: &mut ChirpClient| {
            let mut p = c.pipeline();
            for _ in 0..depth {
                p.get(&path);
            }
            for r in p.run().unwrap() {
                assert_eq!(r.payload.as_ref().map(Vec::len), Some(size));
            }
        };
        timed(warmup, || run_pipe(&mut zc));
        let (bursts, allocs) = timed(window, || run_pipe(&mut zc));
        let pipe_rate = bursts * depth as f64 * mib;
        let allocs = allocs / depth as f64;
        let speedup = pipe_rate / copy_rate;
        println!(
            "{size:>10}  {:<14} {pipe_rate:>10.1}  {allocs:>10.0}  {speedup:.2}x copy, depth {depth}",
            "get/pipelined"
        );
        rows.push(format!(
            "get-pipelined\tzerocopy\t{size}\t{pipe_rate:.1}\t{allocs:.0}\t{speedup:.2}\t{cores}"
        ));

        // Inbound: `put` through the pooled payload buffers.
        timed(warmup, || zc.put(&path, &data).unwrap());
        let (ops, allocs) = timed(window, || zc.put(&path, &data).unwrap());
        let put_rate = ops * mib;
        println!("{size:>10}  {:<14} {put_rate:>10.1}  {allocs:>10.0}", "put");
        rows.push(format!("put\tzerocopy\t{size}\t{put_rate:.1}\t{allocs:.0}\t-\t{cores}"));
    }

    if cores < 2 {
        println!("note: only {cores} core(s) available; client and server are core-bound");
    }
    // Optional regression gate: the extent pipeline must actually beat
    // the copying path on large transfers. Skipped — not weakened — on
    // single-core hosts.
    if std::env::var("IDBOX_BENCH_ASSERT_DATAPLANE").is_ok() {
        if cores < 2 {
            println!("dataplane assertion skipped: requires >= 2 cores, host has {cores}");
        } else {
            assert!(
                best_large_speedup >= 2.0,
                "zero-copy data plane failed its floor: best 1 MiB+ get speedup \
                 {best_large_speedup:.2}x < 2x the copying path on a {cores}-core host"
            );
            println!("dataplane assertion passed: {best_large_speedup:.2}x copy path at 1 MiB+");
        }
    }

    idbox_bench::write_tsv(
        "BENCH_dataplane.tsv",
        "op\tmode\tsize_bytes\tmib_per_sec\tallocs_per_op\tspeedup_vs_copy\thost_cores",
        &rows,
    );
    let _ = zc.quit();
    let _ = cp.quit();
    zc_handle.shutdown();
    cp_handle.shutdown();
}
