//! Server throughput under concurrent clients.
//!
//! Before the kernel was split into independently locked domains, every
//! Chirp request — even a pure read — serialized on one kernel-wide
//! lock, so adding clients added no throughput. This bench spawns one
//! server and drives it with 1/2/4/8 concurrent authenticated clients
//! running a read-heavy stat/open/pread/close loop, and reports aggregate
//! requests per second at each level, plus per-level p50/p99 dispatch
//! latency from the kernel's histograms (bucket ceilings, ns).
//!
//! Every level runs an untimed warm-up pass first, so `speedup_vs_1`
//! compares warm runs against a warm single-client baseline instead of
//! folding cold-cache startup into whichever level happened to run
//! first. Each row also reports the dentry- and verdict-cache hit rates
//! observed during its timed window.
//!
//! After the levels finish, an admin client pulls the `metrics` RPC and
//! the Prometheus exposition is snapshotted into
//! `results/server_throughput_metrics.prom`, so each bench run leaves
//! the per-identity accounting it generated next to its TSV.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin server_throughput
//! ```
//!
//! `--faults` switches to the degradation-under-faults experiment: a
//! seeded [`FaultProxy`] between clients and server drops a growing
//! fraction of request connections while the server's filesystem
//! reports EIO at the same rate, and retrying clients drive an
//! idempotent workload through the storm. The sweep reports goodput,
//! failures, and retry/reconnect work per fault rate, and writes
//! `results/BENCH_faults.json`. Each client also periodically probes a
//! tree it has no rights to; the run aborts if any probe ever succeeds
//! (a fail-open verdict — faults must never become allows).
//!
//! `--overhead` measures the cost of the self-observation plane: the
//! same read-heavy workload runs in alternating windows with shard-lock
//! profiling + flight recording enabled and disabled, best-of-3 each
//! side, and reports the on/off throughput ratio into
//! `results/BENCH_overhead.tsv`. With `IDBOX_BENCH_ASSERT_OVERHEAD`
//! set (and >= 2 cores, where the ratio is not pure scheduler noise),
//! the run fails if the enabled side falls below 97% of the disabled
//! side — the observability plane must stay cheap enough to leave on.
//!
//! `IDBOX_BENCH_WINDOW_MS` and `IDBOX_BENCH_LEVELS` (comma-separated
//! client counts) shrink the run for CI smoke tests.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, RetryPolicy, ServerConfig};
use idbox_kernel::OpenFlags;
use idbox_testkit::fault::{FaultPlan, FaultProxy};
use idbox_types::AuthMethod;
use idbox_vfs::FaultHook;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Reads per open: the loop is stat, open, PREADS x pread, close —
/// read-heavy, like a real client walking and reading files.
const PREADS: u64 = 8;
const REQS_PER_ROUND: u64 = 3 + PREADS;

/// Default measurement window per concurrency level.
const WINDOW_MS: u64 = 1500;

fn server() -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xBE7C4);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let s = ChirpServer::new(ServerConfig {
        name: "throughput".into(),
        verifier,
        root_acl,
        admins: vec![format!("globus:{ADMIN}")],
        ..Default::default()
    })
    .unwrap();
    (s.spawn().unwrap(), ca)
}

const ADMIN: &str = "/O=UnivNowhere/CN=Admin";

/// Run `n` clients against `addr` for `window`; return total requests
/// served across all of them.
fn run_level(
    addr: std::net::SocketAddr,
    ca: &CertificateAuthority,
    n: usize,
    window: Duration,
) -> (u64, Duration) {
    let start_line = Arc::new(Barrier::new(n + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..n)
        .map(|i| {
            let ca = ca.clone();
            let start_line = Arc::clone(&start_line);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let creds = vec![ClientCredential::Globus(
                    ca.issue(format!("/O=UnivNowhere/CN=User{i}")),
                )];
                let mut c = ChirpClient::connect(addr, &creds).unwrap();
                let file = format!("/u{i}/data.dat");
                // Levels share the server, so the directory may already
                // exist from a smaller level's run.
                match c.mkdir(&format!("/u{i}"), 0o755) {
                    Ok(()) | Err(idbox_types::Errno::EEXIST) => {}
                    Err(e) => panic!("mkdir /u{i}: {e:?}"),
                }
                c.put(&file, &vec![7u8; 4096]).unwrap();
                start_line.wait();
                let mut reqs = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.stat(&file).unwrap();
                    let fd = c.open(&file, OpenFlags::rdonly(), 0).unwrap();
                    for _ in 0..PREADS {
                        let data = c.pread(fd, 4096, 0).unwrap();
                        assert_eq!(data.len(), 4096);
                    }
                    c.close(fd).unwrap();
                    reqs += REQS_PER_ROUND;
                }
                let _ = c.quit();
                reqs
            })
        })
        .collect();
    start_line.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    (total, t0.elapsed())
}

/// Sum a per-identity counter family out of a Prometheus exposition.
fn family_sum(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(family))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Verdict-cache (hits, misses) across all identities on the server.
fn verdict_counts(exposition: &str) -> (u64, u64) {
    (
        family_sum(exposition, "idbox_verdict_cache_hits_total{"),
        family_sum(exposition, "idbox_verdict_cache_misses_total{"),
    )
}

fn hit_pct(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        100.0 * hits as f64 / (hits + misses) as f64
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One row of the degradation-under-faults sweep.
struct FaultRow {
    fault_pct: u32,
    reqs_per_sec: f64,
    ok: u64,
    failed: u64,
    fail_open: u64,
    retries: u64,
    reconnects: u64,
    wire_faults: u64,
    vfs_faults: u64,
}

/// Drive `clients` retrying clients through a fault proxy at
/// `fault_pct` (% of request lines dropping their connection, % of
/// filesystem data ops reporting EIO) for `window`.
fn run_fault_level(
    ca: &CertificateAuthority,
    fault_pct: u32,
    clients: usize,
    window: Duration,
    seed: u64,
) -> FaultRow {
    let (handle, _) = {
        // Fresh server per rate, so histograms and counters are not
        // polluted across levels; reuse the caller's CA for clients.
        let mut verifier = ServerVerifier::new();
        verifier.accept = vec![AuthMethod::Globus];
        verifier.cas.trust(ca.clone());
        let mut root_acl = Acl::empty();
        root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
        let s = ChirpServer::new(ServerConfig {
            name: format!("faults-{fault_pct}"),
            verifier,
            root_acl,
            ..Default::default()
        })
        .unwrap();
        (s.spawn().unwrap(), ())
    };
    let ppm = fault_pct * 10_000; // 1 % = 10_000 ppm
    let plan = FaultPlan::with_rates(seed, ppm, ppm);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();

    // Stage each client's file over the clean, direct path — before the
    // filesystem hook arms, so staging cannot eat an injected EIO.
    for i in 0..clients {
        let creds = vec![ClientCredential::Globus(
            ca.issue(format!("/O=UnivNowhere/CN=User{i}")),
        )];
        let mut c = ChirpClient::connect(handle.addr(), &creds).unwrap();
        c.mkdir(&format!("/u{i}"), 0o755).unwrap();
        c.put(&format!("/u{i}/data.dat"), &vec![7u8; 4096]).unwrap();
        let _ = c.quit();
    }
    // A directory no bench client may touch: reserve-created under an
    // identity that never runs a workload. The clients probe it during
    // the storm — a success there would be a fail-open verdict (a fault
    // turned into an allow), which is a bug at any fault rate.
    {
        let creds = vec![ClientCredential::Globus(
            ca.issue("/O=UnivNowhere/CN=Warden"),
        )];
        let mut c = ChirpClient::connect(handle.addr(), &creds).unwrap();
        c.mkdir("/private", 0o700).unwrap();
        c.put("/private/secret", b"keep out").unwrap();
        let _ = c.quit();
    }
    {
        let plan = plan.clone();
        handle
            .kernel()
            .vfs()
            .set_fault_hook(Some(FaultHook::new(move |op, _| plan.vfs_fault(op))));
    }

    let start_line = Arc::new(Barrier::new(clients + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let addr = proxy.addr();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let ca = ca.clone();
            let start_line = Arc::clone(&start_line);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let creds = vec![ClientCredential::Globus(
                    ca.issue(format!("/O=UnivNowhere/CN=User{i}")),
                )];
                // Deep attempt budget: a retry's *reconnect* re-runs
                // the multi-line auth handshake, where every line draws
                // at the drop rate — so per-attempt failure odds are
                // several times the per-line rate.
                let policy = RetryPolicy {
                    max_attempts: 16,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(20),
                    budget: Duration::from_secs(10),
                    jitter_seed: seed ^ i as u64,
                    io_timeout: Some(Duration::from_secs(2)),
                    ..Default::default()
                };
                let mut c = ChirpClient::connect_with(addr, &creds, policy).unwrap();
                let file = format!("/u{i}/data.dat");
                let dir = format!("/u{i}");
                start_line.wait();
                let (mut ok, mut failed, mut fail_open) = (0u64, 0u64, 0u64);
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Idempotent-only mix: everything here is safe to
                    // retry, so under the policy the storm should cost
                    // latency, not correctness.
                    let results = [
                        c.stat(&file).map(|_| ()),
                        c.get(&file).map(|_| ()),
                        c.readdir(&dir).map(|_| ()),
                    ];
                    for r in results {
                        match r {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    // Every 32nd round, probe the forbidden tree. The
                    // only acceptable *answer* is EACCES; a success is
                    // fail-open. A transport failure (retry budget spent
                    // mid-storm) is neither — the verdict never arrived.
                    if rounds.is_multiple_of(32) && c.get("/private/secret").is_ok() {
                        fail_open += 1;
                    }
                    rounds += 1;
                }
                (ok, failed, fail_open, c.retries(), c.reconnects())
            })
        })
        .collect();
    start_line.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut row = FaultRow {
        fault_pct,
        reqs_per_sec: 0.0,
        ok: 0,
        failed: 0,
        fail_open: 0,
        retries: 0,
        reconnects: 0,
        wire_faults: 0,
        vfs_faults: 0,
    };
    for w in workers {
        let (ok, failed, fail_open, retries, reconnects) = w.join().unwrap();
        row.ok += ok;
        row.failed += failed;
        row.fail_open += fail_open;
        row.retries += retries;
        row.reconnects += reconnects;
    }
    row.reqs_per_sec = row.ok as f64 / t0.elapsed().as_secs_f64();
    row.wire_faults = plan.wire_injected();
    row.vfs_faults = plan.vfs_injected();
    drop(proxy);
    handle.shutdown();
    row
}

/// The `--faults` experiment: sweep injected-fault rates and report how
/// goodput degrades while the retry layer keeps the failure count at
/// (ideally) zero.
fn run_faults() {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xBE7C4);
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", WINDOW_MS));
    let clients = env_u64("IDBOX_BENCH_FAULT_CLIENTS", 4) as usize;
    let seed = env_u64("IDBOX_BENCH_FAULT_SEED", 0x1DB0F);
    let mut rows = Vec::new();
    for fault_pct in [0u32, 5, 10, 20] {
        let row = run_fault_level(&ca, fault_pct, clients, window, seed);
        println!(
            "{:>2}% faults: {:>9.0} req/s  ok {} failed {} fail_open {}  retries {} \
             reconnects {}  injected wire {} vfs {}",
            row.fault_pct,
            row.reqs_per_sec,
            row.ok,
            row.failed,
            row.fail_open,
            row.retries,
            row.reconnects,
            row.wire_faults,
            row.vfs_faults
        );
        rows.push(row);
    }
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"server_throughput_faults\",\n");
    json.push_str(&format!("  \"window_ms\": {},\n", window.as_millis()));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fault_pct\": {}, \"reqs_per_sec\": {:.1}, \"ok\": {}, \"failed\": {}, \
             \"fail_open\": {}, \"retries\": {}, \"reconnects\": {}, \"wire_faults\": {}, \
             \"vfs_faults\": {}}}{}\n",
            r.fault_pct,
            r.reqs_per_sec,
            r.ok,
            r.failed,
            r.fail_open,
            r.retries,
            r.reconnects,
            r.wire_faults,
            r.vfs_faults,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    idbox_bench::write_text("BENCH_faults.json", &json);
    if let Some(worst) = rows.iter().find(|r| r.failed > 0) {
        println!(
            "note: {} operations failed at {}% faults (retry budget exhausted)",
            worst.failed, worst.fault_pct
        );
    } else {
        println!("all operations succeeded at every fault rate (faults fully masked)");
    }
    // Not gated behind an env knob: a fail-open verdict — the forbidden
    // probe succeeding because a fault confused the policy path — is a
    // security bug at any fault rate, in any run.
    let fail_open: u64 = rows.iter().map(|r| r.fail_open).sum();
    assert_eq!(
        fail_open, 0,
        "{fail_open} fail-open verdict(s): a denied operation succeeded under injected faults"
    );
    println!("fail-open check passed: every forbidden probe stayed denied under the storm");
}

/// The `--overhead` experiment: is always-on observability actually
/// affordable? Windows alternate enabled/disabled on the same warm
/// server so clock drift and thermal state hit both sides equally, and
/// each side keeps its best of three — comparing best-vs-best filters
/// scheduler hiccups out of both numerator and denominator.
fn run_overhead() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", WINDOW_MS));
    let warmup = (window / 4).max(Duration::from_millis(50));
    let clients = env_u64("IDBOX_BENCH_OVERHEAD_CLIENTS", 2) as usize;
    let (handle, ca) = server();
    let addr = handle.addr();
    run_level(addr, &ca, clients, warmup);
    let set_plane = |on: bool| {
        parking_lot::set_lock_profiling(on);
        idbox_obs::flight::set_flight_enabled(on);
    };
    let (mut best_on, mut best_off) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        set_plane(true);
        let (reqs, elapsed) = run_level(addr, &ca, clients, window);
        best_on = best_on.max(reqs as f64 / elapsed.as_secs_f64());
        set_plane(false);
        let (reqs, elapsed) = run_level(addr, &ca, clients, window);
        best_off = best_off.max(reqs as f64 / elapsed.as_secs_f64());
    }
    // Leave the plane the way production runs it.
    set_plane(true);
    let ratio = if best_off > 0.0 { best_on / best_off } else { 0.0 };
    println!(
        "observation plane on : {best_on:>10.0} req/s\n\
         observation plane off: {best_off:>10.0} req/s\n\
         on/off ratio         : {ratio:.4}  ({:+.2}% overhead)",
        (1.0 - ratio) * 100.0
    );
    idbox_bench::write_tsv(
        "BENCH_overhead.tsv",
        "clients\treqs_per_sec_on\treqs_per_sec_off\ton_over_off\thost_cores",
        &[format!(
            "{clients}\t{best_on:.0}\t{best_off:.0}\t{ratio:.4}\t{cores}"
        )],
    );
    if std::env::var("IDBOX_BENCH_ASSERT_OVERHEAD").is_ok() {
        if cores < 2 {
            println!("overhead assertion skipped: requires >= 2 cores, host has {cores}");
        } else {
            assert!(
                ratio >= 0.97,
                "self-observation plane too expensive: enabled throughput is \
                 {:.1}% of disabled ({best_on:.0} vs {best_off:.0} req/s, want >= 97%)",
                ratio * 100.0
            );
            println!("overhead assertion passed: {:.2}% of disabled", ratio * 100.0);
        }
    }
    handle.shutdown();
}

fn main() {
    if std::env::args().any(|a| a == "--faults") {
        run_faults();
        return;
    }
    if std::env::args().any(|a| a == "--overhead") {
        run_overhead();
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(env_u64("IDBOX_BENCH_WINDOW_MS", WINDOW_MS));
    let warmup = (window / 4).max(Duration::from_millis(50));
    let levels: Vec<usize> = std::env::var("IDBOX_BENCH_LEVELS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let (handle, ca) = server();
    let addr = handle.addr();
    let admin_creds = vec![ClientCredential::Globus(ca.issue(ADMIN))];
    let mut admin = ChirpClient::connect(addr, &admin_creds).unwrap();
    let mut rows = Vec::new();
    let mut single_rate = 0.0f64;
    let mut best_speedup = 0.0f64;
    for n in &levels {
        let n = *n;
        // Untimed warm-up: connections, directories, and the dentry +
        // verdict caches are all hot before the clock starts, at every
        // level — so speedup_vs_1 compares warm against warm.
        run_level(addr, &ca, n, warmup);
        // Snapshot the kernel's latency histograms and the cache
        // counters around the timed window: the diffs isolate this
        // level's dispatches.
        let level_start = handle.kernel().latency().snapshot();
        let (d_hits0, d_misses0) = handle.kernel().vfs().dentry_stats();
        let (v_hits0, v_misses0) = verdict_counts(&admin.metrics().unwrap());
        let (reqs, elapsed) = run_level(addr, &ca, n, window);
        let level_end = handle.kernel().latency().snapshot();
        let (d_hits1, d_misses1) = handle.kernel().vfs().dentry_stats();
        let (v_hits1, v_misses1) = verdict_counts(&admin.metrics().unwrap());
        let w = level_end.diff(&level_start);
        let p50 = w.overall_percentile(50.0).unwrap_or(0);
        let p99 = w.overall_percentile(99.0).unwrap_or(0);
        let dentry_pct = hit_pct(d_hits1 - d_hits0, d_misses1 - d_misses0);
        let verdict_pct = hit_pct(v_hits1 - v_hits0, v_misses1 - v_misses0);
        let rate = reqs as f64 / elapsed.as_secs_f64();
        if single_rate == 0.0 {
            single_rate = rate;
        }
        let speedup = rate / single_rate;
        println!(
            "{n} clients: {rate:>10.0} req/s  ({speedup:.2}x of warm single-client)  \
             p50 {p50} ns, p99 {p99} ns, dentry {dentry_pct:.1}% hit, verdict {verdict_pct:.1}% hit"
        );
        // On a single-core host the ratio says nothing about lock
        // scaling (everything is core-bound), so record a `-` rather
        // than a misleading ~1.0.
        let speedup_cell = if cores >= 2 {
            format!("{speedup:.2}")
        } else {
            "-".to_string()
        };
        best_speedup = best_speedup.max(speedup);
        rows.push(format!(
            "{n}\t{rate:.0}\t{speedup_cell}\t{p50}\t{p99}\t{dentry_pct:.1}\t{verdict_pct:.1}\t{cores}"
        ));
    }
    if cores < 2 {
        // Clients and server share one hardware thread here, so
        // aggregate wall-clock throughput cannot exceed ~1x no matter
        // how the kernel locks: its per-domain locking shows up as
        // scaling only when there are cores to run clients on.
        println!("note: only {cores} core(s) available; client scaling is core-bound");
    }
    // Optional regression gate: with IDBOX_BENCH_ASSERT_SCALING set,
    // require multi-client throughput to actually scale. Skipped — not
    // weakened — on single-core hosts, where the ratio is meaningless.
    if std::env::var("IDBOX_BENCH_ASSERT_SCALING").is_ok() {
        if cores < 2 {
            println!("scaling assertion skipped: requires >= 2 cores, host has {cores}");
        } else {
            assert!(
                best_speedup >= 1.2,
                "multi-client throughput failed to scale: best speedup \
                 {best_speedup:.2}x < 1.2x on a {cores}-core host"
            );
            println!("scaling assertion passed: best speedup {best_speedup:.2}x");
        }
    }
    idbox_bench::write_tsv(
        "server_throughput.tsv",
        "clients\treqs_per_sec\tspeedup_vs_1\tp50_ns\tp99_ns\tdentry_hit_pct\tverdict_hit_pct\thost_cores",
        &rows,
    );
    // Snapshot the per-identity accounting the run produced.
    let exposition = admin.metrics().unwrap();
    let path = idbox_bench::results_path("server_throughput_metrics.prom");
    std::fs::write(&path, &exposition).unwrap();
    let identities = exposition
        .lines()
        .filter(|l| l.starts_with("idbox_syscalls_total{"))
        .count();
    println!(
        "metrics: {identities} per-identity syscall samples -> {}",
        path.display()
    );
    let _ = admin.quit();
    handle.shutdown();
}
