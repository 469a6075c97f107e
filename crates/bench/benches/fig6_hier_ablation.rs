//! Criterion bench for the Section 9 / Figure 6 ablation: the same
//! hierarchical identity policy enforced in-kernel (proposed) vs. via
//! user-level interposition (this paper), against the plain kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idbox_core::IdentityBoxPolicy;
use idbox_hier::{DomainTree, HierId, HierPolicy};
use idbox_interpose::{share, GuestCtx, SharedKernel, Supervisor};
use idbox_types::CostModel;
use idbox_vfs::Cred;
use parking_lot::Mutex;
use std::sync::Arc;

/// A deferred supervisor constructor (one per ablation config).
type SupFactory = Box<dyn Fn() -> Supervisor>;

fn policy(domain: &HierId, tree: &Arc<Mutex<DomainTree>>) -> Box<HierPolicy> {
    Box::new(HierPolicy::new(
        domain.clone(),
        Arc::clone(tree),
        IdentityBoxPolicy::new(
            domain.to_identity(),
            Cred::new(1000, 1000),
            "/tmp/.passwd",
            true,
        ),
    ))
}

fn setup() -> (SharedKernel, Arc<Mutex<DomainTree>>, HierId) {
    let kernel = share(idbox_kernel::Kernel::new());
    let tree = Arc::new(Mutex::new(DomainTree::new()));
    let root = HierId::root();
    let visitor = {
        let mut t = tree.lock();
        let dthain = t.create(&root, &root, "dthain").unwrap();
        t.create(&dthain, &dthain, "visitor").unwrap()
    };
    (kernel, tree, visitor)
}

fn bench_hier(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_hier");
    group.sample_size(30);
    let (kernel, tree, visitor) = setup();
    let configs: Vec<(&str, SupFactory)> = vec![
        (
            "plain-kernel",
            Box::new({
                let kernel = Arc::clone(&kernel);
                move || Supervisor::direct(Arc::clone(&kernel))
            }),
        ),
        (
            "in-kernel-idbox",
            Box::new({
                let (kernel, tree, visitor) =
                    (Arc::clone(&kernel), Arc::clone(&tree), visitor.clone());
                move || Supervisor::in_kernel(Arc::clone(&kernel), policy(&visitor, &tree))
            }),
        ),
        (
            "interposed-idbox",
            Box::new({
                let (kernel, tree, visitor) =
                    (Arc::clone(&kernel), Arc::clone(&tree), visitor.clone());
                move || {
                    Supervisor::interposed(
                        Arc::clone(&kernel),
                        policy(&visitor, &tree),
                        CostModel::calibrated(),
                    )
                }
            }),
        ),
    ];
    for (name, make_sup) in configs {
        let pid = {
            let k = &*kernel;
            let pid = k.spawn(Cred::new(1000, 1000), "/tmp", "bench").unwrap();
            k.set_identity(pid, visitor.to_identity()).unwrap();
            pid
        };
        tree.lock().assign(pid, visitor.clone()).unwrap();
        let mut sup = make_sup();
        let mut ctx = GuestCtx::new(&mut sup, pid);
        ctx.write_file("/tmp/p.dat", b"x").unwrap();
        group.bench_function(BenchmarkId::new("stat", name), |b| {
            b.iter(|| ctx.stat("/tmp/p.dat").unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hier);
criterion_main!(benches);
