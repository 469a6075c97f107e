//! End-to-end durability: a Chirp server whose export space survives
//! restarts through the write-ahead log.
//!
//! Three successive server lifetimes share one WAL directory. The
//! first populates the namespace and tightens an ACL; the second must
//! see the data *and* keep enforcing the operator's live ACL (recovery
//! must never fail open), then cuts a snapshot over the wire; the
//! third boots from snapshot + log suffix and must see every lifetime's
//! writes. A volatile control server answers `walsnap` with `ENOSYS`.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ServerConfig};
use idbox_types::{AuthMethod, Errno};
use std::path::{Path, PathBuf};

fn gsi_setup() -> (CertificateAuthority, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus];
    v.cas.trust(ca.clone());
    (ca, v)
}

fn creds(ca: &CertificateAuthority, cn: &str) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue(format!("/O=UnivNowhere/CN={cn}")),
    )]
}

fn root_acl() -> Acl {
    let mut acl = Acl::empty();
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    acl
}

/// A durable config pointed at `dir`, syncing every op (the test kills
/// servers at arbitrary moments, so no group-commit loss window) with
/// auto-snapshots off — the test drives snapshots via the RPC.
fn durable_config(dir: &Path) -> ServerConfig {
    let (_, verifier) = gsi_setup();
    ServerConfig {
        name: "durable".to_string(),
        verifier,
        root_acl: root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        wal_dir: Some(dir.to_path_buf()),
        wal_sync_ops: 0,
        wal_snapshot_ops: 0,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("idbox-chirp-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn export_space_survives_restarts_and_acls_stay_closed() {
    let dir = tmpdir("e2e");
    let (ca, _) = gsi_setup();

    // ---- Lifetime 1: populate, then tighten /work's ACL. ----------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = server.recovery().expect("durable server has a report");
        assert!(!report.restored, "first boot must start empty");
        let handle = server.spawn().unwrap();
        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        fred.mkdir("/work", 0o755).unwrap();
        fred.put("/work/data", b"survives the restart").unwrap();
        // Reserve-created ACL names Fred; add George as read-only,
        // the live ACL state recovery must reproduce exactly.
        let mut acl = fred.getacl("/work").unwrap();
        acl.set("globus:/O=UnivNowhere/CN=George", Rights::READ);
        fred.setacl("/work", &acl).unwrap();
    } // handle drops: server shuts down

    // ---- Lifetime 2: everything is back, nothing leaks. -----------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = *server.recovery().unwrap();
        assert!(report.restored, "second boot must replay the log");
        assert!(report.replayed > 0, "mutations came from log records");
        assert!(!report.corrupt_frame, "clean shutdown leaves no corruption");
        let handle = server.spawn().unwrap();

        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        assert_eq!(fred.get("/work/data").unwrap(), b"survives the restart");

        // George holds exactly the recovered grant: read, nothing more.
        let mut george = ChirpClient::connect(handle.addr(), &creds(&ca, "George")).unwrap();
        assert_eq!(george.get("/work/data").unwrap(), b"survives the restart");
        assert_eq!(
            george.put("/work/evil", b"nope").unwrap_err(),
            Errno::EACCES,
            "recovered ACL must not fail open"
        );
        // Helen was never granted anything.
        let mut helen = ChirpClient::connect(handle.addr(), &creds(&ca, "Helen")).unwrap();
        assert_eq!(helen.get("/work/data").unwrap_err(), Errno::EACCES);

        // The WAL metrics families are on the wire for admins.
        let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
        let metrics = admin.metrics().unwrap();
        assert!(metrics.contains("idbox_wal_appends_total"));
        assert!(metrics.contains("idbox_wal_fsyncs_total"));
        assert!(!metrics.contains("idbox_wal_replayed_records_total 0\n"));
        // Snapshot over the wire: admin-gated, returns the watermark.
        assert_eq!(fred.walsnap().unwrap_err(), Errno::EACCES);
        let watermark = admin.walsnap().unwrap();
        assert!(watermark > 0, "snapshot watermark covers the replayed ops");
        let metrics = admin.metrics().unwrap();
        assert!(metrics.contains("idbox_wal_snapshots_total 1\n"));

        // Post-snapshot mutations land in the log suffix.
        fred.put("/work/later", b"after the snapshot").unwrap();
    }

    // ---- Lifetime 3: snapshot + suffix boot. ----------------------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = *server.recovery().unwrap();
        assert!(report.restored);
        assert!(report.snapshot_loaded, "third boot starts from the snapshot");
        let handle = server.spawn().unwrap();
        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        assert_eq!(fred.get("/work/data").unwrap(), b"survives the restart");
        assert_eq!(fred.get("/work/later").unwrap(), b"after the snapshot");
        let mut helen = ChirpClient::connect(handle.addr(), &creds(&ca, "Helen")).unwrap();
        assert_eq!(helen.get("/work/data").unwrap_err(), Errno::EACCES);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn volatile_server_reports_walsnap_unsupported() {
    let (ca, verifier) = gsi_setup();
    let handle = ChirpServer::new(ServerConfig {
        name: "volatile".to_string(),
        verifier,
        root_acl: root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    assert_eq!(admin.walsnap().unwrap_err(), Errno::ENOSYS);
    // No WAL: the metrics exposition carries no WAL families.
    assert!(!admin.metrics().unwrap().contains("idbox_wal_"));
}
