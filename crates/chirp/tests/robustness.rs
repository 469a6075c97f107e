//! Robustness end-to-end tests: seeded fault injection against the
//! real Chirp stack over TCP.
//!
//! A [`FaultProxy`] sits between the client and the server injecting
//! wire faults from a seeded [`FaultPlan`]; the same plan drives a Vfs
//! errno hook inside the server's kernel. The retrying client must mask
//! every injected fault for idempotent RPCs, surface them for
//! non-idempotent ones, and never turn a denial into an allow.
//!
//! Set `IDBOX_PROP_SEED` to reproduce a property-test failure exactly.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, RetryPolicy, ServerConfig};
use idbox_core::Verdict;
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::FaultHook;
use proptest::fault::{Dir, Fault, FaultPlan, FaultProxy};
use std::time::Duration;

fn gsi_setup() -> (CertificateAuthority, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus, AuthMethod::Hostname];
    v.cas.trust(ca.clone());
    (ca, v)
}

fn fred_creds(ca: &CertificateAuthority) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=Fred"),
    )]
}

const FRED: &str = "globus:/O=UnivNowhere/CN=Fred";

fn root_acl() -> Acl {
    let mut acl = Acl::empty();
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    acl
}

/// A fast retry policy for tests: tight backoff, generous attempts.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
        budget: Duration::from_secs(10),
        jitter_seed: 0xFA17,
        retry_mutating: false,
        io_timeout: Some(Duration::from_secs(2)),
    }
}

fn spawn_server(config: ServerConfig) -> idbox_chirp::ChirpServerHandle {
    ChirpServer::new(config).unwrap().spawn().unwrap()
}

fn default_server() -> idbox_chirp::ChirpServerHandle {
    let (_, verifier) = gsi_setup();
    spawn_server(ServerConfig {
        name: "robust".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    })
}

/// Wire the plan's Vfs errno stream into the server's filesystem.
fn hook_vfs(handle: &idbox_chirp::ChirpServerHandle, plan: &FaultPlan) {
    let plan = plan.clone();
    handle
        .kernel()
        .vfs()
        .set_fault_hook(Some(FaultHook::new(move |op, _ino| plan.vfs_fault(op))));
}

/// A mid-RPC transport fault must poison the connection — the next RPC
/// runs on a *fresh* authenticated session (new generation), never on
/// the half-dead socket.
#[test]
fn transport_fault_poisons_connection_and_reconnect_recovers() {
    let (ca, verifier) = gsi_setup();
    let handle = spawn_server(ServerConfig {
        name: "poison".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    });
    let plan = FaultPlan::new(11);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();
    // Plain `connect`: no automatic retry, so the fault surfaces.
    let mut c = ChirpClient::connect(proxy.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    assert_eq!(c.generation(), 1);

    // Truncate the next reply: the RPC fails and the session is dead.
    plan.arm(Dir::Rx, Fault::Truncate(3));
    assert!(c.stat("/work").is_err(), "truncated reply must fail");

    // The next RPC transparently redials, re-authenticates, and works.
    let st = c.stat("/work").unwrap();
    assert!(st.size > 0 || st.mode > 0);
    assert_eq!(c.generation(), 2, "reconnect must bump the generation");
    assert_eq!(c.reconnects(), 1);
    handle.shutdown();
}

/// Armed wire and filesystem faults are fully masked by the retry
/// policy for idempotent RPCs: the caller sees only success.
#[test]
fn seeded_faults_are_masked_for_idempotent_rpcs() {
    let (ca, verifier) = gsi_setup();
    let handle = spawn_server(ServerConfig {
        name: "masked".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    });
    let plan = FaultPlan::new(22);
    hook_vfs(&handle, &plan);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();
    let mut c = ChirpClient::connect_with(proxy.addr(), &fred_creds(&ca), test_policy()).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    c.put("/work/data", b"survives faults").unwrap();

    // Drop the request on the wire: stat must still succeed.
    plan.arm(Dir::Tx, Fault::Drop);
    assert_eq!(c.stat("/work/data").unwrap().size, 15);

    // Truncate the reply: get must still deliver the bytes.
    plan.arm(Dir::Rx, Fault::Truncate(5));
    assert_eq!(c.get("/work/data").unwrap(), b"survives faults");

    // An EIO deep inside the server's filesystem read path: retried.
    plan.arm_vfs(Errno::EIO);
    assert_eq!(c.get("/work/data").unwrap(), b"survives faults");

    assert!(c.retries() >= 2, "faults should have forced retries");
    assert!(c.reconnects() >= 2, "wire drops should have reconnected");
    assert!(plan.wire_injected() >= 2 && plan.vfs_injected() >= 1);
    handle.shutdown();
}

/// Connection loss during a non-idempotent RPC surfaces as an error —
/// the client must not silently re-run `mkdir`/`exec`, because a lost
/// reply does not say whether the server already executed the request.
#[test]
fn non_idempotent_failures_surface_instead_of_retrying() {
    let (ca, verifier) = gsi_setup();
    let handle = spawn_server(ServerConfig {
        name: "at-most-once".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    });
    let plan = FaultPlan::new(33);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();
    let mut c = ChirpClient::connect_with(proxy.addr(), &fred_creds(&ca), test_policy()).unwrap();

    // The reply to mkdir is dropped: the error surfaces, unretried.
    plan.arm(Dir::Rx, Fault::Drop);
    assert!(c.mkdir("/work", 0o755).is_err());
    assert_eq!(c.retries(), 0, "mutating RPCs must not auto-retry");

    // The ambiguity is real: the server *did* run the mkdir before the
    // reply was lost. The caller decides how to resolve it — here, by
    // observing the directory exists on the next (reconnected) RPC.
    assert!(c.stat("/work").is_ok());

    // Opting in to at-least-once retries mutating verbs too; mkdir of
    // an existing directory then surfaces the server's EEXIST.
    let mut optin = test_policy();
    optin.retry_mutating = true;
    let mut c2 = ChirpClient::connect_with(proxy.addr(), &fred_creds(&ca), optin).unwrap();
    plan.arm(Dir::Rx, Fault::Drop);
    assert_eq!(c2.mkdir("/work", 0o755), Err(Errno::EEXIST));
    assert!(c2.retries() >= 1);
    handle.shutdown();
}

/// The value of the first Prometheus sample line starting with `head`.
fn sample(text: &str, head: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(head))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {head:?} in:\n{text}"))
}

/// One identity over its concurrency cap is shed with EAGAIN while its
/// long RPC runs; a retrying client masks the shed, and both the shed
/// and the retries are visible in Prometheus and the audit ring.
#[test]
fn per_identity_limit_sheds_and_retry_masks_it() {
    let (ca, verifier) = gsi_setup();
    let mut server = ChirpServer::new(ServerConfig {
        name: "limited".to_string(),
        verifier,
        root_acl: root_acl(),
        max_inflight_per_identity: Some(1),
        ..Default::default()
    })
    .unwrap();
    server.register_program("sleeper", |_, args| {
        let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(100);
        std::thread::sleep(Duration::from_millis(ms));
        0
    });
    let handle = server.spawn().unwrap();

    let mut a = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    a.mkdir("/work", 0o755).unwrap();
    a.put_mode("/work/sleep.exe", b"#!guest sleeper\n", 0o755)
        .unwrap();

    // A holds Fred's one slot for ~600 ms...
    let exec = std::thread::spawn(move || {
        a.exec("/work/sleep.exe", &["600"]).unwrap();
        a
    });
    std::thread::sleep(Duration::from_millis(150));

    // ...so B (same identity) is shed — and a patient retry policy
    // masks the shed entirely.
    let patient = RetryPolicy {
        max_attempts: 100,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(25),
        budget: Duration::from_secs(10),
        ..test_policy()
    };
    let mut b = ChirpClient::connect_with(handle.addr(), &fred_creds(&ca), patient).unwrap();
    assert!(b.stat("/work/sleep.exe").is_ok());
    assert!(b.retries() >= 1, "the shed should have forced a retry");
    let a = exec.join().unwrap();

    // The degradation is observable: per-identity shed and retry
    // counters in the Prometheus exposition, and an `rpc-shed` row in
    // the same audit ring as every policy ruling.
    let text = handle.metrics().render_prometheus();
    let fred = format!("identity=\"{FRED}\"");
    assert!(sample(&text, &format!("idbox_rpcs_shed_total{{{fred}}}")) >= 1.0);
    assert!(sample(&text, &format!("idbox_rpcs_retried_total{{{fred}}}")) >= 1.0);
    let shed_rows: Vec<_> = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.syscall == "rpc-shed")
        .collect();
    assert!(!shed_rows.is_empty(), "shed must be audited");
    let row = &shed_rows[0];
    assert_eq!(row.identity, FRED);
    assert_eq!(row.verdict, Verdict::Deny);
    assert_eq!(row.errno, Some(Errno::EAGAIN));
    assert!(
        row.path.as_deref().unwrap_or("").contains("identity-limit"),
        "{row:?}"
    );
    a.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

/// A draining server sheds every RPC; `begin_drain` is observable from
/// a connected session without shutting the server down.
#[test]
fn drain_mode_sheds_new_work() {
    let (ca, _) = gsi_setup();
    let handle = {
        let (_, verifier) = gsi_setup();
        spawn_server(ServerConfig {
            name: "draining".to_string(),
            verifier,
            root_acl: root_acl(),
            ..Default::default()
        })
    };
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(c.whoami().is_ok());
    handle.begin_drain();
    assert_eq!(c.whoami(), Err(Errno::EAGAIN));
    let drain_rows = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.syscall == "rpc-shed" && e.path.as_deref().unwrap_or("").contains("drain"))
        .count();
    assert!(drain_rows >= 1);
    handle.shutdown();
}

/// Shutdown waits for in-flight RPCs but no longer than the configured
/// drain deadline: a stuck guest program cannot hang the embedding
/// process, and the timeout is audited as a deny.
#[test]
fn drain_deadline_bounds_shutdown() {
    let (ca, verifier) = gsi_setup();
    let mut server = ChirpServer::new(ServerConfig {
        name: "bounded".to_string(),
        verifier,
        root_acl: root_acl(),
        drain_deadline: Duration::from_millis(200),
        ..Default::default()
    })
    .unwrap();
    server.register_program("sleeper", |_, _| {
        std::thread::sleep(Duration::from_secs(5));
        0
    });
    let handle = server.spawn().unwrap();
    let audit = std::sync::Arc::clone(handle.audit_ring());

    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    c.put_mode("/work/stuck.exe", b"#!guest sleeper\n", 0o755)
        .unwrap();
    let exec = std::thread::spawn(move || {
        let _ = c.exec("/work/stuck.exe", &[]);
    });
    // Wait until the exec is really in flight.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.inflight() == 0 {
        assert!(std::time::Instant::now() < deadline, "exec never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    let t0 = std::time::Instant::now();
    handle.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?} despite a 200ms drain deadline"
    );
    let drain = audit
        .snapshot()
        .into_iter()
        .find(|e| e.syscall == "drain")
        .expect("drain outcome must be audited");
    assert_eq!(drain.verdict, Verdict::Deny);
    assert_eq!(drain.errno, Some(Errno::EBUSY));
    exec.join().unwrap();

    // An idle server, by contrast, drains clean: verdict allow.
    let handle = default_server();
    let audit = std::sync::Arc::clone(handle.audit_ring());
    handle.shutdown();
    let drain = audit
        .snapshot()
        .into_iter()
        .find(|e| e.syscall == "drain")
        .unwrap();
    assert_eq!(drain.verdict, Verdict::Allow);
    assert_eq!(drain.errno, None);
}

/// The acceptance scenario: sustained seeded faults — 10 % of request
/// lines lose their connection, 10 % of filesystem data ops report EIO
/// — and every idempotent RPC still succeeds through retry/reconnect,
/// while denials stay denials (zero fail-open).
#[test]
fn sustained_faults_are_fully_masked_and_never_fail_open() {
    let (ca, verifier) = gsi_setup();
    let handle = spawn_server(ServerConfig {
        name: "storm".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    });
    // Seed the export space over a clean, direct connection first.
    let mut setup = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    setup.mkdir("/work", 0o755).unwrap();
    setup.put("/work/data", b"payload under fire").unwrap();
    setup.quit().unwrap();

    // 100_000 ppm = 10 % per request line / per data op.
    let plan = FaultPlan::with_rates(0x1DB0, 100_000, 100_000);
    hook_vfs(&handle, &plan);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();

    let mut fred =
        ChirpClient::connect_with(proxy.addr(), &fred_creds(&ca), test_policy()).unwrap();
    for i in 0..200 {
        match i % 4 {
            0 => assert_eq!(fred.stat("/work/data").unwrap().size, 18, "op {i}"),
            1 => assert_eq!(fred.get("/work/data").unwrap(), b"payload under fire", "op {i}"),
            2 => assert!(!fred.readdir("/work").unwrap().is_empty(), "op {i}"),
            _ => assert!(fred.getacl("/work").unwrap().allows(
                &idbox_types::Identity::new(FRED),
                Rights::READ
            )),
        }
    }
    assert!(plan.wire_injected() > 0, "the storm never struck the wire");
    assert!(plan.vfs_injected() > 0, "the storm never struck the vfs");
    assert!(fred.retries() > 0 && fred.reconnects() > 0);

    // Zero fail-open: George has no rights in /work, and no amount of
    // injected failure and retrying may ever flip a deny into an allow.
    let george_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=George"),
    )];
    let mut george =
        ChirpClient::connect_with(proxy.addr(), &george_creds, test_policy()).unwrap();
    for _ in 0..20 {
        assert_eq!(george.get("/work/data"), Err(Errno::EACCES));
    }
    let denials = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| {
            e.identity == "globus:/O=UnivNowhere/CN=George" && e.verdict == Verdict::Deny
        })
        .count();
    assert!(denials >= 20, "denials under faults: {denials}");
    handle.shutdown();
}

mod properties {
    use idbox_core::{AuditRing, Verdict};
    use idbox_obs::IdentityMetrics;
    use idbox_types::Errno;
    use proptest::prelude::*;

    proptest::proptest! {
        /// Any interleaving of shed / retry / start / finish events
        /// keeps the Prometheus tallies equal to the event log, keeps
        /// the inflight gauge exactly consistent (never negative, even
        /// with spurious finishes), and lands one audit row per shed.
        #[test]
        fn shed_and_retry_accounting_is_consistent(
            events in proptest::collection::vec(0u32..5u32, 1..120usize),
        ) {
            let metrics = IdentityMetrics::new(&["open"], 64);
            let ring = AuditRing::default();
            let c = metrics.handle("globus:/O=UnivNowhere/CN=Fred");
            let (mut shed, mut retried, mut inflight, mut admission) =
                (0u64, 0u64, 0u64, 0u64);
            for e in events {
                match e {
                    0 => {
                        c.bump_rpc_shed();
                        ring.record_named(
                            "globus:/O=UnivNowhere/CN=Fred",
                            "rpc-shed",
                            None,
                            Verdict::Deny,
                            Some(Errno::EAGAIN),
                            None,
                        );
                        shed += 1;
                    }
                    1 => {
                        c.bump_rpc_retried();
                        retried += 1;
                    }
                    2 => {
                        c.rpc_started();
                        inflight += 1;
                    }
                    3 => {
                        // May be spurious (more finishes than starts):
                        // the gauge must saturate at zero, not wrap.
                        c.rpc_finished();
                        inflight = inflight.saturating_sub(1);
                    }
                    _ => {
                        metrics.bump_admission_shed();
                        admission += 1;
                    }
                }
            }
            prop_assert_eq!(c.rpcs_shed(), shed);
            prop_assert_eq!(c.rpcs_retried(), retried);
            prop_assert_eq!(c.inflight(), inflight);
            prop_assert_eq!(metrics.admission_shed(), admission);
            prop_assert_eq!(ring.total_recorded(), shed);

            let text = metrics.render_prometheus();
            let fred = "identity=\"globus:/O=UnivNowhere/CN=Fred\"";
            prop_assert!(text.contains(&format!(
                "idbox_rpcs_shed_total{{{fred}}} {shed}"
            )));
            prop_assert!(text.contains(&format!(
                "idbox_rpcs_retried_total{{{fred}}} {retried}"
            )));
            prop_assert!(text.contains(&format!(
                "idbox_inflight_requests{{{fred}}} {inflight}"
            )));
            prop_assert!(text.contains(&format!(
                "idbox_admission_shed_total {admission}"
            )));
        }
    }
}
