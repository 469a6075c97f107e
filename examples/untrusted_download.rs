//! Untrusted web browsing (Section 9): run a downloaded program under a
//! credentialed name, contain it, and keep a forensic record.
//!
//! ```text
//! cargo run --example untrusted_download
//! ```

use idbox::core::{BoxOptions, IdentityBox};
use idbox::interpose::share;
use idbox::kernel::{Account, Kernel};
use idbox::vfs::Cred;

fn main() {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("alice", 1000, 1000)).unwrap();
    let alice = Cred::new(1000, 1000);
    {
        let root = k.vfs().root();
        k.vfs().mkdir(root, "/home/alice", 0o700, &Cred::ROOT).unwrap();
        k.vfs().chown(root, "/home/alice", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs()
            .write_file(root, "/home/alice/banking.txt", b"account 12345", &alice)
            .unwrap();
    }
    let kernel = share(k);

    // The downloaded program carries credentials naming its publisher;
    // the credential does not make it trusted — it names the box. The
    // audit option records everything it does, for forensics.
    let b = IdentityBox::with_options(
        kernel,
        "BigSoftwareCorp",
        alice,
        BoxOptions {
            audit: true,
            ..Default::default()
        },
    )
    .unwrap();
    println!("running downloaded program in identity box: {}", b.identity());

    let stats = b.stats().clone();
    let (code, _) = b
        .run("freeware-installer", |p| {
            // The "installer" does its legitimate work...
            p.write_file("install.log", b"installed v1.0\n").unwrap();
            // ...and also tries things its publisher shouldn't.
            let snoop = p.read_file("/home/alice/banking.txt");
            let implant = p.write_file("/etc/passwd.bak", b"oops");
            let tamper = p.write_file("/bin/ls", b"trojan");
            println!("  snoop banking.txt : {snoop:?}");
            println!("  implant in /etc   : {implant:?}");
            println!("  tamper with /bin  : {tamper:?}");
            assert!(snoop.is_err() && implant.is_err() && tamper.is_err());
            0
        })
        .unwrap();

    let (checks, denials, rewrites, _) = stats.snapshot();
    println!("program exited {code}");
    println!("forensic record: {checks} checked path operations, {denials} denied, {rewrites} rewritten");
    assert!(denials >= 3);

    // Section 9: "recording the objects accessed and the activities
    // taken by the untrusted user."
    let audit = b.audit().expect("audit enabled");
    println!("
audit log — denied operations:");
    for r in audit.denials() {
        println!("  {r}");
    }
    println!("objects accessed: {:?}", audit.objects_accessed());
    assert!(audit.denials().len() >= 3);
    println!("
alice's files, the account database, and the system are untouched.");
}
