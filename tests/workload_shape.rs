//! Figure 5 shape checks spanning workloads + interposer + box.
//!
//! Debug builds are too noisy for percentage comparisons, so the cheap
//! structural shape (trap density, syscall mixes) is always checked and
//! the full Figure 5(b) band check is `#[ignore]`d — run it with
//! `cargo test --release -- --ignored` or regenerate the table with the
//! `fig5b_table` harness binary.

use idbox::types::CostModel;
use idbox::workloads::{all_apps, time_direct_and_boxed, Scale};

/// The syscall *mix* is what distinguishes make from the scientific
/// applications: metadata calls dominate it.
#[test]
fn make_is_metadata_bound_the_others_are_io_bound() {
    use idbox::interpose::{share, GuestCtx, Supervisor};
    use idbox::kernel::Kernel;
    use idbox::vfs::Cred;
    for app in all_apps() {
        let kernel = share(Kernel::new());
        let pid = {
            let k = &*kernel;
            let root = k.vfs().root();
            k.vfs().mkdir_all(root, "/w", 0o777, &Cred::ROOT).unwrap();
            k.spawn(Cred::new(1000, 1000), "/w", app.name).unwrap()
        };
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        (app.prepare)(&mut ctx, Scale::test());
        assert_eq!((app.run)(&mut ctx, Scale::test()), 0, "{}", app.name);
        let k = &*kernel;
        let count = |name: &str| k.stats.count(name);
        // Metadata calls vs. data-moving calls: the distinction Section 7
        // draws between make and the scientific codes.
        let metadata = count("stat")
            + count("lstat")
            + count("fstat")
            + count("open")
            + count("close")
            + count("readdir")
            + count("fork")
            + count("exec")
            + count("wait");
        let data = count("read") + count("write") + count("pread") + count("pwrite");
        match app.name {
            "make" => assert!(
                metadata > data,
                "make must be metadata-bound: {metadata} metadata vs {data} data calls"
            ),
            _ => assert!(
                data > metadata,
                "{}: scientific apps move data, not metadata ({metadata} vs {data})",
                app.name
            ),
        }
    }
}

/// Full Figure 5(b) reproduction: run with `--release -- --ignored`.
/// Asserts the paper's *shape*: all five scientific applications below
/// 15% overhead, make far above all of them.
#[test]
#[ignore = "timing-sensitive; run in release mode (see fig5b_table)"]
fn figure5b_shape_in_release() {
    let model = CostModel::calibrated();
    let results = time_direct_and_boxed(Scale(0.5), model, 3).unwrap();
    let make = results.iter().find(|m| m.name == "make").unwrap();
    let sci: Vec<_> = results.iter().filter(|m| m.name != "make").collect();
    for m in &sci {
        assert!(
            m.overhead_pct() < 15.0,
            "{}: scientific overhead {:.1}% too high",
            m.name,
            m.overhead_pct()
        );
    }
    let sci_max = sci.iter().map(|m| m.overhead_pct()).fold(0.0, f64::max);
    assert!(
        make.overhead_pct() > sci_max * 2.0,
        "make {:.1}% must dominate scientific max {:.1}%",
        make.overhead_pct(),
        sci_max
    );
    assert!(
        make.overhead_pct() > 15.0,
        "make {:.1}% must be substantial",
        make.overhead_pct()
    );
}
