//! One run of one workload: set-up (several times, median reported),
//! warm-up, the timed window, the end-to-end metrics — or, traced, an
//! untraced and a traced half, counter deltas across the traced half,
//! the server's trace dump, and the layer-peeling replays.

use crate::counters::{delta, delta_percentile, Expo};
use crate::model::{Kind, Oracle, USERS, WILDCARD};
use crate::spans::{self, SpanLog};
use crate::stats::{median, percentile, ratio, LatHist};
use crate::wire::{self, Conn, Stack, Tally};
use crate::{make, peel, sys, Args, Inject, Outcome};
use idbox_acl::Rights;
use idbox_chirp::{export_path, ChirpServer};
use idbox_interpose::SharedKernel;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 5;
const MIB: f64 = crate::model::MIB as f64;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch =
        crate::bench_dir()
            .join("out")
            .join(format!("{}-{}", args.kind.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = match args.kind {
        Kind::BoxMake => run_make(args),
        _ => run_chirp(args, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Warm-up before timing: caches fill, lazy set-up finishes.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).min(1.0))
}

/// Totals across connections: RPCs timed, verified bytes, probes.
fn totals(conns: &[Conn]) -> (u64, u64, u64, u64) {
    conns.iter().fold((0, 0, 0, 0), |(r, g, p, pr), c| {
        (
            r + c.rpcs(),
            g + c.tally.get_bytes,
            p + c.tally.put_bytes,
            pr + c.tally.probes,
        )
    })
}

/// Sub-window length: one second, or a quarter of a short window.
fn sub_window(seconds: f64) -> Duration {
    Duration::from_secs_f64(if seconds >= 4.0 { 1.0 } else { seconds / 4.0 })
}

/// Throughput, latency percentiles and verified MiB/s as the median over
/// the window's full sub-windows, so a few slow seconds of a shared
/// host do not set the run's figure.
fn windowed(conns: &[Conn], secs: f64, sub: Duration) -> (f64, f64, f64, f64) {
    let sub_s = sub.as_secs_f64();
    let full = ((secs / sub_s).floor() as usize).max(1);
    let (mut ops, mut p50, mut p99, mut mib) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in 0..full {
        let mut h = LatHist::default();
        for c in conns {
            if let Some(l) = c.lat.get(w) {
                h.merge(l);
            }
        }
        let bytes: u64 = conns
            .iter()
            .flat_map(|c| c.jobs.iter())
            .filter(|j| (j.end_ns / (sub.as_nanos() as u64).max(1)) as usize == w)
            .map(|j| j.bytes)
            .sum();
        ops.push(h.count() as f64 / sub_s);
        p50.push(h.percentile_ns(50.0) / 1e3);
        p99.push(h.percentile_ns(99.0) / 1e3);
        mib.push(bytes as f64 / MIB / sub_s);
    }
    (
        median(&mut ops),
        median(&mut p50),
        median(&mut p99),
        median(&mut mib),
    )
}

/// The end-to-end view of one timed phase.
struct Phase {
    secs: f64,
    rpcs: u64,
    get_bytes: u64,
    put_bytes: u64,
    probes: u64,
}

fn timed_phase(conns: &mut [Conn], oracle: &Oracle, window: Duration) -> Phase {
    for c in conns.iter_mut() {
        c.begin_phase(sub_window(window.as_secs_f64()));
    }
    let (_, g0, p0, pr0) = totals(conns);
    let secs = wire::run_phase(conns, oracle, window).as_secs_f64();
    let (rpcs, g1, p1, pr1) = totals(conns);
    Phase {
        secs,
        rpcs,
        get_bytes: g1 - g0,
        put_bytes: p1 - p0,
        probes: pr1 - pr0,
    }
}

fn run_chirp(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let kind = args.kind;
    let oracle = Oracle::build(kind, args.seed);
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut replica: Option<SharedKernel> = None;
    let mut stack: Option<Stack> = None;
    for s in 0..SETUPS {
        let wal = kind.durable().then(|| scratch.join(format!("wal{s}")));
        let t0 = Instant::now();
        let st = wire::setup(&oracle, wal)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if s + 1 == SETUPS {
            stack = Some(st);
            break;
        }
        // The first set-up's kernel is the layer-peeling replica: staged
        // exactly like the one under load.
        if args.trace && replica.is_none() {
            replica = Some(st.kernel());
        }
        for c in st.clients {
            let _ = c.quit();
        }
        st.handle.shutdown();
    }
    let mut st = stack.expect("at least one set-up");
    let addr = st.handle.addr();
    let wal_dir = st.wal_dir.clone();
    notes.push(format!(
        "provenance connections={} event_loops={} wal_fs={}",
        USERS.len(),
        st.handle.loop_stats().workers().len(),
        wal_dir
            .as_deref()
            .map_or_else(|| "-".to_string(), sys::fs_type),
    ));
    if let Some(inj) = args.inject {
        inject(&st.kernel(), &oracle, inj)?;
    }
    let mut conns: Vec<Conn> = st
        .clients
        .drain(..)
        .enumerate()
        .map(|(u, c)| Conn::new(u, c, kind, args.seed))
        .collect();
    wire::run_phase(&mut conns, &oracle, warmup(args.seconds));
    let server_kernel = st.kernel();
    let mut m = BTreeMap::new();
    if !args.trace {
        let window = Duration::from_secs_f64(args.seconds);
        let ph = timed_phase(&mut conns, &oracle, window);
        let (ops, p50, p99, mib) = windowed(&conns, ph.secs, sub_window(args.seconds));
        let job_s = conns
            .iter()
            .map(|c| median(&mut c.jobs.iter().map(|j| j.secs).collect::<Vec<_>>()))
            .sum::<f64>()
            / conns.len() as f64;
        m.insert("ops_per_s", ops);
        m.insert("lat_p50_us", p50);
        m.insert("lat_p99_us", p99);
        m.insert("mib_per_s", mib);
        m.insert("job_s", job_s);
        m.insert("rss_mib", sys::resident_mib());
        notes.push(format!(
            "window secs={:.3} sub_window_s={:.3} rpcs={} latency_samples={} jobs={} probes={} \
             whole_window ops_per_s={:.1} get_mib_per_s={:.3} put_mib_per_s={:.3}",
            ph.secs,
            sub_window(args.seconds).as_secs_f64(),
            ph.rpcs,
            ph.rpcs,
            conns.iter().map(|c| c.jobs.len()).sum::<usize>(),
            ph.probes,
            ph.rpcs as f64 / ph.secs,
            ph.get_bytes as f64 / MIB / ph.secs,
            ph.put_bytes as f64 / MIB / ph.secs,
        ));
    } else {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let untraced = timed_phase(&mut conns, &oracle, half);
        let (before, _) = wire::admin_snapshot(addr).map_err(|e| format!("metrics: {e:?}"))?;
        let dentry0 = server_kernel.read().vfs().dentry_stats();
        for c in conns.iter_mut() {
            c.log.on = true;
        }
        let use0 = sys::usage();
        let alloc0 = sys::allocs();
        sys::count_allocs(true);
        let traced = timed_phase(&mut conns, &oracle, half);
        sys::count_allocs(false);
        let alloc1 = sys::allocs();
        let use1 = sys::usage();
        let dentry1 = server_kernel.read().vfs().dentry_stats();
        let (after, health) = wire::admin_snapshot(addr).map_err(|e| format!("metrics: {e:?}"))?;
        let dump = {
            let mut a =
                wire::connect(addr, crate::model::ADMIN).map_err(|e| format!("admin: {e:?}"))?;
            let secs = (args.seconds / 2.0).ceil() as u64 + 1;
            let d = a
                .tracedump(Some(secs))
                .map_err(|e| format!("tracedump: {e:?}"))?;
            let _ = a.quit();
            d
        };
        let ops = traced.rpcs as f64;
        let (server_us, residual_us, joined) = join_server_spans(&dump, &conns);
        m.insert("chirp.server_us", server_us);
        m.insert("chirp.residual_us", residual_us);
        m.insert(
            "chirp.wakeups_per_op",
            delta(&before, &after, "idbox_loop_wakeups_total") / ops,
        );
        m.insert(
            "chirp.flushes_per_op",
            delta(&before, &after, "idbox_loop_flushes_total") / ops,
        );
        m.insert(
            "chirp.loop_lag_p99_us",
            delta_percentile(&before, &after, "idbox_loop_lag_us", 99.0).unwrap_or(0.0),
        );
        m.insert(
            "chirp.outbuf_hwm_kib",
            after.max("idbox_loop_outbuf_high_watermark_bytes") / 1024.0,
        );
        m.insert(
            "chirp.wire_bytes_per_op",
            (delta(&before, &after, "idbox_bytes_in_total")
                + delta(&before, &after, "idbox_bytes_out_total"))
                / ops,
        );
        let hits = delta(&before, &after, "idbox_verdict_cache_hits_total");
        let misses = delta(&before, &after, "idbox_verdict_cache_misses_total");
        m.insert("core.verdict_hit_frac", ratio(hits, hits + misses));
        let denials = delta(&before, &after, "idbox_denials_total");
        m.insert("core.denials", denials);
        m.insert(
            "kernel.syscalls_per_op",
            delta(&before, &after, "idbox_syscalls_total") / ops,
        );
        m.insert(
            "kernel.lock_waits_per_kop",
            delta(&before, &after, "idbox_shard_lock_waits_total") / ops * 1e3,
        );
        m.insert(
            "kernel.lock_wait_p99_us",
            delta_percentile(&before, &after, "idbox_shard_lock_wait_us", 99.0).unwrap_or(0.0),
        );
        let (dh, dm) = (
            (dentry1.0 - dentry0.0) as f64,
            (dentry1.1 - dentry0.1) as f64,
        );
        m.insert("vfs.dentry_hit_frac", ratio(dh, dh + dm));
        m.insert(
            "vfs.wal_appends_per_op",
            delta(&before, &after, "idbox_wal_appends_total") / ops,
        );
        m.insert(
            "vfs.wal_bytes_per_op",
            delta(&before, &after, "idbox_wal_bytes_total") / ops,
        );
        m.insert(
            "vfs.wal_fsyncs_per_s",
            delta(&before, &after, "idbox_wal_fsyncs_total") / traced.secs,
        );
        m.insert("process.cpu_us_per_op", (use1.cpu_us - use0.cpu_us) / ops);
        m.insert(
            "process.cswitch_per_op",
            (use1.vol_cswitch - use0.vol_cswitch) / ops,
        );
        m.insert("process.allocs_per_op", (alloc1 - alloc0) as f64 / ops);
        let (u_rate, t_rate) = (untraced.rpcs as f64 / untraced.secs, ops / traced.secs);
        m.insert("bench.trace_overhead_frac", 1.0 - t_rate / u_rate);
        notes.push(format!(
            "traced untraced_ops_per_s={u_rate:.1} traced_ops_per_s={t_rate:.1} joined_spans={joined} \
             probes={} denials={denials} event_loops={} shed={} stalls={}",
            traced.probes, health.workers, health.shed, health.stalls
        ));
        if denials != traced.probes as f64 {
            conns[0].tally.fail(format!(
                "server counted {denials} denials for {} forbidden probes",
                traced.probes
            ));
        }
        let mut spans_out: Vec<spans::Span> = conns
            .iter_mut()
            .flat_map(|c| c.log.spans.drain(..))
            .collect();
        // Authentication: repeated connects (handshake + negotiation).
        let mut connect_us = Vec::new();
        for i in 0..32 {
            let t0 = Instant::now();
            let c = wire::connect(addr, USERS[i % USERS.len()])
                .map_err(|e| format!("connect: {e:?}"))?;
            connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let _ = c.quit();
        }
        m.insert("auth.connect_us", median(&mut connect_us));
        // Peel on the replica.
        let mut log = SpanLog::new(true, 100);
        let jobs = match kind {
            Kind::Bulk => 6,
            _ => 600,
        };
        let replica = replica.ok_or("no replica kernel")?;
        let p = peel::peel_chirp(&replica, &oracle, jobs, &mut log)
            .map_err(|e| format!("peel: {e:?}"))?;
        let pops = p.ops as f64;
        m.insert("chirp.codec_ns", p.codec_ns);
        m.insert("interpose.boxed_op_ns", p.boxed_op_ns);
        m.insert("interpose.direct_op_ns", p.direct_op_ns);
        m.insert("interpose.traps_per_op", p.cost.traps as f64 / pops);
        m.insert("interpose.pokes_per_op", p.cost.pokes as f64 / pops);
        m.insert(
            "interpose.channel_bytes_per_op",
            p.cost.channel_bytes as f64 / pops,
        );
        m.insert("interpose.slowdown", ratio(p.boxed_op_ns, p.direct_op_ns));
        m.insert("core.check_ns", p.check_ns);
        m.insert("kernel.syscall_ns", p.syscall_ns);
        m.insert("vfs.resolve_ns", p.resolve_ns);
        m.insert("vfs.read_mib_per_s", p.vfs_read_mib_s);
        m.insert("vfs.write_mib_per_s", p.vfs_write_mib_s);
        notes.push(format!(
            "peel ops={} replay_mismatches={} boxed_errors={} fail_open={}",
            p.ops, p.replay_mismatches, p.boxed_errors, p.fail_open
        ));
        if p.fail_open > 0 {
            conns[0].tally.fail_open = true;
            conns[0].tally.fail(format!(
                "FAIL-OPEN: {} probes let through on the replayed stream",
                p.fail_open
            ));
        }
        spans_out.append(&mut log.spans);
        write_spans(args, &spans_out, &mut notes);
    }
    wire::final_check(&mut conns, &oracle);
    let mut tally = Tally::default();
    for c in conns {
        let _ = c.client.quit();
        tally.merge(c.tally);
    }
    st.handle.shutdown();
    drop(server_kernel);
    if args.trace {
        // Boot on churn's WAL directory (replay); a volatile workload's
        // server boots with no log.
        let t0 = Instant::now();
        let booted = ChirpServer::new(wire::server_config(wal_dir.clone()))
            .map_err(|e| format!("boot: {e:?}"))?;
        let replay_s = t0.elapsed().as_secs_f64();
        drop(booted);
        m.insert("vfs.wal_replay_s", replay_s);
    } else {
        m.insert("setup_s", median(&mut setup_s));
    }
    notes.push(format!(
        "setup setups={} setup_s_each={:?}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    Ok(Outcome {
        tally,
        metrics: m,
        notes,
    })
}

/// Median server `rpc` span and median client-minus-server residual,
/// over requests present both in the server's trace dump and in the
/// client's own spans (joined on the trace id).
fn join_server_spans(dump: &str, conns: &[Conn]) -> (f64, f64, usize) {
    let Ok(doc) = crate::json::parse(dump) else {
        return (0.0, 0.0, 0);
    };
    let mut server = std::collections::HashMap::new();
    for ev in doc.get("traceEvents").map(|v| v.as_arr()).unwrap_or(&[]) {
        if ev.get("cat").and_then(|c| c.as_str()) != Some("rpc") {
            continue;
        }
        let (Some(trace), Some(dur)) = (
            ev.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(|t| t.as_str()),
            ev.get("dur").and_then(|d| d.as_f64()),
        ) else {
            continue;
        };
        if let Ok(t) = u64::from_str_radix(trace, 16) {
            server.insert(t, dur);
        }
    }
    let (mut s_us, mut r_us) = (Vec::new(), Vec::new());
    for sp in conns
        .iter()
        .flat_map(|c| c.log.spans.iter())
        .filter(|s| s.name == "chirp.rpc")
    {
        if let Some(&dur) = server.get(&sp.req) {
            s_us.push(dur);
            r_us.push(sp.dur_ns() as f64 / 1e3 - dur);
        }
    }
    let n = s_us.len();
    (median(&mut s_us), median(&mut r_us), n)
}

/// Chrome trace of the benchmark's spans, next to the benchmark.
fn write_spans(args: &Args, spans_out: &[spans::Span], notes: &mut Vec<String>) {
    let dir = crate::bench_dir().join("out");
    let path = dir.join(format!("spans-{}-{}.json", args.kind.name(), args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::render(spans_out)))
    {
        Ok(()) => notes.push(format!(
            "spans written={} file={}",
            spans_out.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
}

/// Apply a deliberate fault to the served kernel (tests only).
fn inject(kernel: &SharedKernel, oracle: &Oracle, inj: Inject) -> Result<(), String> {
    let k = kernel.read();
    let vfs = k.vfs();
    let root = vfs.root();
    let cred = peel::SUP_CRED;
    match inj {
        Inject::Corrupt => {
            // Every file user 0 reads gets one byte flipped.
            for (path, data) in &oracle.files[0] {
                let ino = vfs
                    .resolve(root, &export_path(path), true, &cred)
                    .map_err(|e| format!("{e:?}"))?;
                vfs.write_at(ino, 0, &[data[0] ^ 0x5A])
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        Inject::FailOpen => {
            // Every staged directory also grants the wildcard read.
            let mut dirs: Vec<String> = oracle
                .files
                .iter()
                .flatten()
                .filter_map(|(p, _)| p.rsplit_once('/').map(|(d, _)| d.to_string()))
                .collect();
            dirs.sort();
            dirs.dedup();
            for d in dirs {
                let ino = vfs
                    .resolve(root, &export_path(&d), true, &cred)
                    .map_err(|e| format!("{e:?}"))?;
                let mut acl = idbox_core::read_acl(vfs, ino, &cred)
                    .map_err(|e| format!("{e:?}"))?
                    .unwrap_or_default();
                acl.set(WILDCARD, Rights::READ | Rights::LIST);
                idbox_core::write_acl(vfs, ino, &acl, &cred).map_err(|e| format!("{e:?}"))?;
            }
        }
    }
    Ok(())
}

fn run_make(args: &Args) -> Result<Outcome, String> {
    let model = idbox_core::BoxOptions::default().cost_model;
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut m = BTreeMap::new();
    if args.inject == Some(Inject::Corrupt) {
        return Err("--inject corrupt applies to the Chirp workloads".into());
    }
    let (reference, _) = make::reference()?;
    let mut log = SpanLog::new(false, 1);
    // Warm-up build.
    let p = make::prepare(model)?;
    make::build(p, model, &reference, false, &mut tally, &mut log, 0);
    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let phase = |record: bool, log: &mut SpanLog, tally: &mut Tally| -> Result<MakePhase, String> {
        let mut ph = MakePhase::default();
        let t0 = Instant::now();
        while t0.elapsed() < window || ph.builds.is_empty() {
            let p = make::prepare(model)?;
            if args.inject == Some(Inject::FailOpen) {
                grant_builder(&p)?;
            }
            ph.setup_s.push(p.setup_s);
            let b = make::build(p, model, &reference, record, tally, log, 0);
            // Only the latest build keeps its tree and captured calls.
            if let Some(prev) = ph.builds.last_mut() {
                prev.kernel = None;
                prev.captured = Vec::new();
            }
            ph.builds.push(b);
            if tally.fail_open {
                break;
            }
        }
        ph.secs = t0.elapsed().as_secs_f64();
        Ok(ph)
    };
    if !args.trace {
        let ph = phase(false, &mut log, &mut tally)?;
        let mut secs: Vec<f64> = ph.builds.iter().map(|b| b.secs).collect();
        let n = secs.len();
        let mut us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
        m.insert("ops_per_s", n as f64 / ph.secs);
        m.insert("lat_p50_us", percentile(&mut us, 50.0).unwrap_or(0.0));
        m.insert("lat_p99_us", percentile(&mut us, 99.0).unwrap_or(0.0));
        let out: u64 = ph.builds.iter().map(|b| b.out_bytes).sum();
        m.insert("mib_per_s", out as f64 / MIB / ph.secs);
        m.insert("job_s", median(&mut secs));
        m.insert("setup_s", median(&mut ph.setup_s.clone()));
        m.insert("rss_mib", sys::resident_mib());
        notes.push(format!(
            "window secs={:.3} builds={n} latency_samples={n} probes={} traps_per_build={}",
            ph.secs,
            ph.builds.len(),
            ph.builds.first().map_or(0, |b| b.cost.traps)
        ));
    } else {
        let untraced = phase(false, &mut log, &mut tally)?;
        log.on = true;
        let lock0 = Expo::parse(&idbox_obs::render_lock_prometheus(
            &parking_lot::lock_snapshot(),
        ));
        let use0 = sys::usage();
        let alloc0 = sys::allocs();
        sys::count_allocs(true);
        let traced = phase(true, &mut log, &mut tally)?;
        sys::count_allocs(false);
        let alloc1 = sys::allocs();
        let use1 = sys::usage();
        let lock1 = Expo::parse(&idbox_obs::render_lock_prometheus(
            &parking_lot::lock_snapshot(),
        ));
        let n = traced.builds.len() as f64;
        let sum = |f: &dyn Fn(&make::Build) -> f64| traced.builds.iter().map(f).sum::<f64>();
        let mut boxed_s: Vec<f64> = untraced.builds.iter().map(|b| b.secs).collect();
        let boxed_ns = median(&mut boxed_s) * 1e9;
        let direct_ns = make::direct_build_s(3)? * 1e9;
        m.insert("interpose.boxed_op_ns", boxed_ns);
        m.insert("interpose.direct_op_ns", direct_ns);
        m.insert("interpose.slowdown", ratio(boxed_ns, direct_ns));
        m.insert("interpose.traps_per_op", sum(&|b| b.cost.traps as f64) / n);
        m.insert("interpose.pokes_per_op", sum(&|b| b.cost.pokes as f64) / n);
        m.insert(
            "interpose.channel_bytes_per_op",
            sum(&|b| b.cost.channel_bytes as f64) / n,
        );
        m.insert("core.check_ns", sum(&|b| b.check_ns as f64) / n);
        let (vh, vm) = (sum(&|b| b.verdicts.0 as f64), sum(&|b| b.verdicts.1 as f64));
        m.insert("core.verdict_hit_frac", ratio(vh, vh + vm));
        let denials = sum(&|b| b.denials as f64);
        m.insert("core.denials", denials);
        m.insert("kernel.syscalls_per_op", sum(&|b| b.syscalls as f64) / n);
        m.insert(
            "kernel.lock_waits_per_kop",
            delta(&lock0, &lock1, "idbox_shard_lock_waits_total") / n * 1e3,
        );
        m.insert(
            "kernel.lock_wait_p99_us",
            delta_percentile(&lock0, &lock1, "idbox_shard_lock_wait_us", 99.0).unwrap_or(0.0),
        );
        let (dh, dm) = (sum(&|b| b.dentry.0 as f64), sum(&|b| b.dentry.1 as f64));
        m.insert("vfs.dentry_hit_frac", ratio(dh, dh + dm));
        m.insert("process.cpu_us_per_op", (use1.cpu_us - use0.cpu_us) / n);
        m.insert(
            "process.cswitch_per_op",
            (use1.vol_cswitch - use0.vol_cswitch) / n,
        );
        m.insert("process.allocs_per_op", (alloc1 - alloc0) as f64 / n);
        let (u_rate, t_rate) = (
            untraced.builds.len() as f64 / untraced.secs,
            n / traced.secs,
        );
        m.insert("bench.trace_overhead_frac", 1.0 - t_rate / u_rate);
        let last = traced.builds.last().ok_or("no traced build")?;
        let (syscall_ns, resolve_ns, mismatches, vr, vw) =
            make::peel(model, &last.captured, &mut log)?;
        m.insert("kernel.syscall_ns", syscall_ns as f64);
        m.insert("vfs.resolve_ns", resolve_ns as f64);
        m.insert("vfs.read_mib_per_s", vr);
        m.insert("vfs.write_mib_per_s", vw);
        for name in [
            "chirp.server_us",
            "chirp.residual_us",
            "chirp.wakeups_per_op",
            "chirp.flushes_per_op",
            "chirp.loop_lag_p99_us",
            "chirp.outbuf_hwm_kib",
            "chirp.codec_ns",
            "chirp.wire_bytes_per_op",
            "auth.connect_us",
            "vfs.wal_appends_per_op",
            "vfs.wal_bytes_per_op",
            "vfs.wal_fsyncs_per_s",
            "vfs.wal_replay_s",
        ] {
            m.insert(name, 0.0);
        }
        if denials != n {
            tally.fail(format!(
                "policy counted {denials} denials for {n} forbidden probes"
            ));
        }
        notes.push(format!(
            "traced untraced_builds_per_s={u_rate:.3} traced_builds_per_s={t_rate:.3} builds={n} \
             replay_calls={} replay_mismatches={mismatches}; chirp, auth and WAL metrics read 0 (no network, no WAL)",
            last.captured.len()
        ));
        write_spans(args, &log.spans, &mut notes);
    }
    Ok(Outcome {
        tally,
        metrics: m,
        notes,
    })
}

#[derive(Default)]
struct MakePhase {
    secs: f64,
    builds: Vec<make::Build>,
    setup_s: Vec<f64>,
}

/// Give the builder read access to the other identity's home (tests).
fn grant_builder(p: &make::Prepared) -> Result<(), String> {
    let k = p.kernel.read();
    let vfs = k.vfs();
    let root = vfs.root();
    let dir = p.probe.rsplit_once('/').map_or("/", |(d, _)| d);
    let ino = vfs
        .resolve(root, dir, true, &peel::SUP_CRED)
        .map_err(|e| format!("{e:?}"))?;
    let mut acl = idbox_core::read_acl(vfs, ino, &peel::SUP_CRED)
        .map_err(|e| format!("{e:?}"))?
        .unwrap_or_default();
    acl.set(make::BUILDER, Rights::READ | Rights::LIST);
    idbox_core::write_acl(vfs, ino, &acl, &peel::SUP_CRED).map_err(|e| format!("{e:?}"))
}
