//! Kernel-lock contention bench: disjoint identities, disjoint
//! subtrees, shared kernel.
//!
//! The sharded-kernel success metric. N client threads, each a
//! distinct identity working a private subtree (`/w/c{i}`), hammer one
//! `SharedKernel` through in-kernel supervisors with a metadata-heavy
//! mix — open/write/seek/read/close/unlink — that is *all mutating
//! calls*, the traffic the old single kernel-wide lock serialized
//! completely. With the kernel sharded, clients in disjoint
//! subtrees take disjoint locks, so aggregate throughput should scale
//! with client count on a multi-core host.
//!
//! Each level also reports *where the time went*: the shard-lock
//! profiles (`parking_lot::lock_snapshot`) are diffed around the timed
//! window, giving total acquisitions, how many blocked, total blocked
//! milliseconds, and the p99 contended wait — the numbers that say
//! whether a flat speedup curve is lock contention or something else.
//!
//! Emits `results/BENCH_contention.tsv`. Knobs:
//!
//! * `IDBOX_BENCH_WINDOW_MS` — timed window per level (default 400).
//! * `IDBOX_BENCH_LEVELS` — comma-separated client counts (default
//!   `1,2,4,8`).
//! * `IDBOX_BENCH_ASSERT_SCALING` — when set, require `speedup_vs_1`
//!   ≥ 1.5 at 4 clients; skipped (not weakened) on hosts with fewer
//!   than 4 cores, where the ratio cannot mean what it asserts.

use idbox_bench::{env_list, env_u64};
use idbox_interpose::{share, AllowAll, GuestCtx, SharedKernel, Supervisor};
use idbox_kernel::{Kernel, OpenFlags, Whence};
use idbox_types::Identity;
use idbox_vfs::Cred;
use parking_lot::DomainLockSnapshot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FILES_PER_CLIENT: usize = 8;

/// Where the time went: per-domain lock-wait deltas across one level,
/// matched by domain name (a domain registered mid-run has no earlier
/// baseline and counts from zero).
fn lock_delta(now: &[DomainLockSnapshot], then: &[DomainLockSnapshot]) -> Vec<DomainLockSnapshot> {
    now.iter()
        .map(|d| {
            match then
                .iter()
                .find(|e| e.domain == d.domain && e.shards.len() == d.shards.len())
            {
                Some(e) => d.diff(e),
                None => d.clone(),
            }
        })
        .collect()
}

/// Run one contention level: `n` clients for `window`. Returns the
/// total syscalls dispatched and the measured wall time.
fn run_level(kernel: &SharedKernel, n: usize, window: Duration) -> (u64, Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(n + 1));
    let mut joins = Vec::with_capacity(n);
    for i in 0..n {
        let kernel = Arc::clone(kernel);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let home = format!("/w/c{i}");
            let pid = {
                let k = &*kernel;
                let pid = k.spawn(Cred::new(1000, 1000), &home, "contend").unwrap();
                k.set_identity(
                    pid,
                    Identity::new(format!("globus:/O=Bench/CN=client{i}")),
                )
                .unwrap();
                pid
            };
            let mut sup = Supervisor::in_kernel(kernel, Box::new(AllowAll));
            let mut ctx = GuestCtx::new(&mut sup, pid);
            let mut buf = [0u8; 64];
            let mut ops = 0u64;
            let mut j = 0usize;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let path = format!("{home}/f{j}");
                j = (j + 1) % FILES_PER_CLIENT;
                let fd = ctx
                    .open(&path, OpenFlags::rdwr_create(), 0o644)
                    .unwrap();
                ctx.write(fd, b"identity boxing under contention").unwrap();
                ctx.lseek(fd, 0, Whence::Set).unwrap();
                ctx.read(fd, &mut buf).unwrap();
                ctx.close(fd).unwrap();
                ctx.unlink(&path).unwrap();
                ops += 6;
            }
            ctx.exit(0);
            total.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for j in joins {
        j.join().unwrap();
    }
    (total.load(Ordering::Relaxed), t0.elapsed())
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", 400));
    let warmup = (window / 4).max(Duration::from_millis(50));
    let levels: Vec<usize> = env_list("IDBOX_BENCH_LEVELS", &[1, 2, 4, 8]);

    let k = Kernel::new();
    let root = k.vfs().root();
    k.vfs().mkdir(root, "/w", 0o755, &Cred::ROOT).unwrap();
    let max = levels.iter().copied().max().unwrap_or(1);
    for i in 0..max {
        let dir = format!("/w/c{i}");
        k.vfs().mkdir(root, &dir, 0o755, &Cred::ROOT).unwrap();
        k.vfs().chown(root, &dir, 1000, 1000, &Cred::ROOT).unwrap();
    }
    println!(
        "contention bench: {} proc shard(s), {} vfs shard(s), {} core(s)",
        k.proc_shard_count(),
        k.vfs().shard_count(),
        cores
    );
    let kernel = share(k);

    let mut rows = Vec::new();
    let mut single_rate = 0.0f64;
    let mut speedup_at_4 = None;
    for &n in &levels {
        // Untimed warm-up so every level starts with hot caches and
        // settled allocator state.
        run_level(&kernel, n, warmup);
        let lock0 = parking_lot::lock_snapshot();
        let (ops, elapsed) = run_level(&kernel, n, window);
        let diffs = lock_delta(&parking_lot::lock_snapshot(), &lock0);
        let rate = ops as f64 / elapsed.as_secs_f64();
        if single_rate == 0.0 {
            single_rate = rate;
        }
        let speedup = rate / single_rate;
        if n == 4 {
            speedup_at_4 = Some(speedup);
        }
        // Where the time went: how many lock acquisitions this level's
        // syscalls made, how many of those actually blocked, and how
        // bad a blocked one got.
        let acq: u64 = diffs.iter().map(|d| d.acquisitions()).sum();
        let waits: u64 = diffs.iter().map(|d| d.waits()).sum();
        let wait_ms = diffs.iter().map(|d| d.wait_total_us()).sum::<u64>() as f64 / 1000.0;
        let p99 = parking_lot::lock_wait_percentile_us(&diffs, 99.0);
        let p99_cell = p99.map_or_else(|| "-".to_string(), |v| v.to_string());
        let contended_pct = if acq > 0 {
            100.0 * waits as f64 / acq as f64
        } else {
            0.0
        };
        println!(
            "{n} clients: {rate:>10.0} syscalls/s  ({speedup:.2}x of single client)  \
             locks: {waits}/{acq} contended ({contended_pct:.2}%), \
             {wait_ms:.1} ms waiting, p99 {p99_cell} us"
        );
        // Single-core hosts cannot show lock scaling: record `-`, not
        // a misleading ~1.0.
        let speedup_cell = if cores >= 2 {
            format!("{speedup:.2}")
        } else {
            "-".to_string()
        };
        rows.push(format!(
            "{n}\t{rate:.0}\t{speedup_cell}\t{acq}\t{waits}\t{wait_ms:.1}\t{p99_cell}\t{cores}"
        ));
    }
    if cores < 2 {
        println!("note: only {cores} core(s) available; client scaling is core-bound");
    }
    idbox_bench::write_tsv(
        "BENCH_contention.tsv",
        "clients\tsyscalls_per_sec\tspeedup_vs_1\tlock_acquisitions\tlock_waits\t\
         lock_wait_ms\tlock_wait_p99_us\thost_cores",
        &rows,
    );
    if std::env::var("IDBOX_BENCH_ASSERT_SCALING").is_ok() {
        match speedup_at_4 {
            Some(s) if cores >= 4 => {
                assert!(
                    s >= 1.5,
                    "sharded kernel failed to scale: {s:.2}x at 4 clients \
                     on a {cores}-core host (want >= 1.5x)"
                );
                println!("scaling assertion passed: {s:.2}x at 4 clients");
            }
            Some(_) | None => {
                println!(
                    "scaling assertion skipped: needs a 4-client level and >= 4 cores \
                     (host has {cores})"
                );
            }
        }
    }
}
