//! The Section 9 forensic facility: an audited identity box records the
//! objects accessed and the activities taken.

use idbox::core::{BoxOptions, IdentityBox};
use idbox::interpose::share;
use idbox::kernel::{Account, Kernel};
use idbox::vfs::Cred;

fn audited_box() -> IdentityBox {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("op", 1000, 1000)).unwrap();
    {
        let root = k.vfs().root();
        k.vfs().mkdir(root, "/home/op", 0o700, &Cred::ROOT).unwrap();
        k.vfs().chown(root, "/home/op", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs()
            .write_file(root, "/home/op/secret", b"s", &Cred::new(1000, 1000))
            .unwrap();
    }
    IdentityBox::with_options(
        share(k),
        "JoeHacker",
        Cred::new(1000, 1000),
        BoxOptions {
            audit: true,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn every_activity_is_recorded() {
    let b = audited_box();
    b.run("suspect", |ctx| {
        ctx.write_file("loot.txt", b"haul").unwrap();
        let _ = ctx.read_file("/home/op/secret"); // denied
        ctx.mkdir("stash", 0o755).unwrap();
        let _ = ctx.rename("loot.txt", "stash/loot.txt");
        0
    })
    .unwrap();
    let audit = b.audit().unwrap();
    let log = audit.render();
    // The activities taken...
    assert!(log.contains("open(loot.txt [w])"), "{log}");
    assert!(log.contains("mkdir(stash)"), "{log}");
    assert!(log.contains("rename(loot.txt -> stash/loot.txt)"), "{log}");
    // ...and the denials, flagged.
    assert!(log.contains("open(/home/op/secret [r]) = EACCES DENIED"), "{log}");
    assert_eq!(audit.denials().len(), 1);
    // Exit is recorded too: the record is complete.
    assert!(log.contains("exit(0)"), "{log}");
}

#[test]
fn audit_spans_multiple_sessions_and_children() {
    let b = audited_box();
    b.run("session1", |ctx| {
        ctx.write_file("day1.txt", b"x").unwrap();
        0
    })
    .unwrap();
    b.run("session2", |ctx| {
        let child = ctx
            .run_child(|c| {
                c.write_file("child.txt", b"y").unwrap();
                0
            })
            .unwrap();
        let _ = ctx.wait();
        let _ = child;
        0
    })
    .unwrap();
    let audit = b.audit().unwrap();
    let log = audit.render();
    assert!(log.contains("day1.txt"), "{log}");
    assert!(log.contains("child.txt"), "{log}");
    assert!(log.contains("fork()"), "{log}");
    // Sequence numbers are strictly increasing across sessions.
    let records = audit.records();
    for w in records.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
}

#[test]
fn unaudited_boxes_carry_no_log() {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("op", 1000, 1000)).unwrap();
    let b = IdentityBox::create(share(k), "Plain", Cred::new(1000, 1000)).unwrap();
    assert!(b.audit().is_none());
    b.run("quiet", |ctx| {
        ctx.write_file("f", b"x").unwrap();
        0
    })
    .unwrap();
    assert!(b.audit().is_none());
}
