//! Figure 3 — the distributed workflow, as an integration test: GSI
//! authentication, reserve-right mkdir, staging, remote execution in an
//! identity box, retrieval — plus the Parrot-style mount of the same
//! server into a local guest namespace.

use idbox::acl::{Acl, Rights};
use idbox::auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox::chirp::{ChirpClient, ChirpDriver, ChirpServer, ServerConfig};
use idbox::interpose::{share, GuestCtx, Supervisor};
use idbox::kernel::Kernel;
use idbox::types::{AuthMethod, Errno, Identity};
use idbox::vfs::Cred;

fn server() -> (idbox::chirp::ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 7777);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let mut s = ChirpServer::new(ServerConfig {
        name: "fig3".into(),
        verifier,
        root_acl,
        ..Default::default()
    })
    .unwrap();
    s.register_program("sim", |ctx, _| {
        let input = match ctx.read_file("input.dat") {
            Ok(i) => i,
            Err(_) => return 1,
        };
        let sum: u64 = input.iter().map(|&b| b as u64).sum();
        match ctx.write_file("out.dat", format!("sum={sum}").as_bytes()) {
            Ok(()) => 0,
            Err(_) => 1,
        }
    });
    (s.spawn().unwrap(), ca)
}

#[test]
fn figure3_workflow_and_mount() {
    let (handle, ca) = server();
    let creds = vec![ClientCredential::Globus(ca.issue("/O=UnivNowhere/CN=Fred"))];

    // The five numbered steps of Figure 3.
    let mut c = ChirpClient::connect(handle.addr(), &creds).unwrap();
    c.mkdir("/work", 0o755).unwrap(); // 1 (reserve right)
    c.put_mode("/work/sim.exe", b"#!guest sim\n", 0o755).unwrap(); // 3
    c.put("/work/input.dat", &[1, 2, 3, 4]).unwrap();
    assert_eq!(c.exec("/work/sim.exe", &[]).unwrap(), 0); // 4
    assert_eq!(c.get("/work/out.dat").unwrap(), b"sum=10"); // 5

    // The identity box on the server really was Fred's: his box home
    // exists in the server kernel, named by the identity.
    {
        let k = handle.kernel();
        let root = k.vfs().root();
        let boxes = k.vfs().readdir(root, "/home/boxes", &Cred::ROOT).unwrap();
        assert!(
            boxes.iter().any(|e| e.name.contains("Fred")),
            "server-side box home missing: {boxes:?}"
        );
    }

    // Parrot-style access: a local guest mounts the server and reads the
    // same output file as an ordinary path.
    let c2 = ChirpClient::connect(handle.addr(), &creds).unwrap();
    let kernel = share(Kernel::new());
    let pid = {
        let k = &*kernel;
        k.mount("/chirp/fig3", Box::new(ChirpDriver::new(c2)));
        let pid = k.spawn(Cred::new(1000, 1000), "/tmp", "guest").unwrap();
        k.set_identity(pid, Identity::new("globus:/O=UnivNowhere/CN=Fred"))
            .unwrap();
        pid
    };
    let mut sup = Supervisor::direct(kernel);
    let mut ctx = GuestCtx::new(&mut sup, pid);
    assert_eq!(ctx.read_file("/chirp/fig3/work/out.dat").unwrap(), b"sum=10");
    let st = ctx.stat("/chirp/fig3/work/out.dat").unwrap();
    assert_eq!(st.size, 6);

    // A different identity cannot ride Fred's mounted connection.
    {
        let k = ctx.supervisor().kernel();
        k.set_identity(pid, Identity::new("globus:/O=UnivNowhere/CN=Mallory"))
            .unwrap();
    }
    assert_eq!(
        ctx.read_file("/chirp/fig3/work/out.dat"),
        Err(Errno::EPERM)
    );
    handle.shutdown();
}
