//! Thread-safety of the shared kernel: many supervisors (one per
//! visitor), each on its own OS thread, hammering one simulated machine
//! — the situation a busy Chirp server is in.

use idbox::core::IdentityBox;
use idbox::interpose::share;
use idbox::kernel::{Account, Kernel};
use idbox::types::Errno;
use idbox::vfs::Cred;
use std::sync::Arc;

#[test]
fn many_boxes_one_kernel() {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("op", 1000, 1000)).unwrap();
    let kernel = share(k);
    let sup = Cred::new(1000, 1000);

    let mut threads = Vec::new();
    for i in 0..8 {
        let kernel = kernel.clone();
        threads.push(std::thread::spawn(move || {
            let id = format!("kerberos:user{i}@nowhere.edu");
            let b = IdentityBox::create(kernel, id.as_str(), sup).unwrap();
            let home = b.home().to_string();
            b.run("worker", move |ctx| {
                // Private work in the visitor's own home.
                for round in 0..30 {
                    let path = format!("{home}/r{round}.dat");
                    let payload = format!("user{i} round{round}");
                    ctx.write_file(&path, payload.as_bytes()).unwrap();
                    assert_eq!(ctx.read_file(&path).unwrap(), payload.as_bytes());
                    if round % 3 == 0 {
                        ctx.unlink(&path).unwrap();
                    }
                }
                // Probing another user's home is always denied, never a
                // crash, even mid-churn.
                let other = format!(
                    "/home/boxes/kerberos_user{}_nowhere.edu",
                    (i + 1) % 8
                );
                match ctx.readdir(&other) {
                    Err(Errno::EACCES) | Err(Errno::ENOENT) => {}
                    other_result => panic!("expected denial, got {other_result:?}"),
                }
                // Shared scratch space: everyone appends to their own
                // file in world-writable /tmp (no ACL: nobody rules).
                ctx.write_file(&format!("/tmp/u{i}.log"), b"done").unwrap();
                0
            })
            .unwrap()
        }));
    }
    for t in threads {
        let (code, report) = t.join().unwrap();
        assert_eq!(code, 0);
        assert!(report.traps > 0);
    }

    // Post-mortem integrity: every expected file exists with the right
    // content; the account database is untouched.
    let k = &*kernel;
    let root = k.vfs().root();
    for i in 0..8 {
        let log = k
            .vfs()
            .read_file(root, &format!("/tmp/u{i}.log"), &Cred::ROOT)
            .unwrap();
        assert_eq!(log, b"done");
    }
    assert_eq!(k.accounts().len(), 3, "root, nobody, op — nothing else");
}

#[test]
fn fork_trees_in_parallel() {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("op", 1000, 1000)).unwrap();
    let kernel = share(k);
    let sup = Cred::new(1000, 1000);
    let b = Arc::new(IdentityBox::create(kernel, "Fred", sup).unwrap());

    let mut threads = Vec::new();
    for t in 0..4 {
        let b = Arc::clone(&b);
        threads.push(std::thread::spawn(move || {
            b.run("tree", move |ctx| {
                for _ in 0..10 {
                    let child = ctx
                        .run_child(|c| {
                            // Children see the same identity and can work.
                            assert_eq!(c.get_user_name().unwrap().as_str(), "Fred");
                            c.write_file(&format!("child-{t}.out"), b"x").unwrap();
                            0
                        })
                        .unwrap();
                    let (reaped, code) = ctx.wait().unwrap();
                    assert_eq!((reaped, code), (child, 0));
                }
                0
            })
            .unwrap()
            .0
        }));
    }
    for t in threads {
        assert_eq!(t.join().unwrap(), 0);
    }
    // No process leaks: only init remains running (everything else
    // exited and was reaped or is a reparented zombie init can reap).
    let k = b.kernel();
    let live = k
        .pids()
        .into_iter()
        .filter(|&p| k.process(p).map(|pr| pr.is_alive()).unwrap_or(false))
        .count();
    assert_eq!(live, 1, "only init should still be alive");
}
