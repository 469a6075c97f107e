//! Concurrent Chirp service: several authenticated clients drive one
//! server over real TCP at the same time, so this exercises the
//! kernel's per-domain locking end to end — correctness here means
//! every client sees exactly its own files (ACL isolation holds under
//! contention) and the server stays live throughout.

use idbox::acl::{Acl, Rights};
use idbox::auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox::chirp::{ChirpClient, ChirpServer, ServerConfig};
use idbox::types::{AuthMethod, Errno};
use std::sync::{Arc, Barrier};

const NCLIENTS: usize = 6;
const ROUNDS: usize = 20;

fn server() -> (idbox::chirp::ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xC0FFEE);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let s = ChirpServer::new(ServerConfig {
        name: "concurrent".into(),
        verifier,
        root_acl,
        ..Default::default()
    })
    .unwrap();
    (s.spawn().unwrap(), ca)
}

fn creds(ca: &CertificateAuthority, i: usize) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue(format!("/O=UnivNowhere/CN=User{i}")),
    )]
}

#[test]
fn concurrent_clients_stay_isolated_and_live() {
    let (handle, ca) = server();
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(NCLIENTS));

    let workers: Vec<_> = (0..NCLIENTS)
        .map(|i| {
            let ca = ca.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = ChirpClient::connect(addr, &creds(&ca, i)).unwrap();
                assert_eq!(
                    c.whoami().unwrap().to_string(),
                    format!("globus:/O=UnivNowhere/CN=User{i}")
                );

                // Phase 1: everyone reserves a directory and writes a
                // private file, all at once.
                let dir = format!("/u{i}");
                let file = format!("{dir}/data.dat");
                let body = format!("client {i} payload").into_bytes();
                c.mkdir(&dir, 0o755).unwrap();
                c.put(&file, &body).unwrap();

                // Phase 2 starts only when every directory exists, so
                // the cross-reads below test ACLs, not timing.
                barrier.wait();

                for round in 0..ROUNDS {
                    // Read-heavy own traffic, served concurrently with
                    // everyone else's.
                    assert_eq!(c.stat(&file).unwrap().size, body.len() as u64);
                    assert_eq!(c.get(&file).unwrap(), body, "round {round}");
                    // The neighbour's reserved directory stays shut.
                    let other = (i + 1) % NCLIENTS;
                    assert_eq!(
                        c.get(&format!("/u{other}/data.dat")),
                        Err(Errno::EACCES),
                        "client {i} read client {other}'s file"
                    );
                    assert_eq!(c.readdir(&format!("/u{other}")), Err(Errno::EACCES));
                }

                // Writes interleave with the readers without corruption.
                let body2 = format!("client {i} rewritten").into_bytes();
                c.put(&file, &body2).unwrap();
                assert_eq!(c.get(&file).unwrap(), body2);
                c.quit().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Liveness after the storm: a fresh client still gets served, and
    // the finished sessions drain out of the registry.
    let mut late = ChirpClient::connect(addr, &creds(&ca, 99)).unwrap();
    assert!(late.whoami().is_ok());
    assert_eq!(late.readdir("/u0"), Err(Errno::EACCES));
    late.quit().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.active_connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never drained: {}",
            handle.active_connections()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}
