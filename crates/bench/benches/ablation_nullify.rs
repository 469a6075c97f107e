//! Ablation: the cost of nullification (Section 5).
//!
//! On Linux a trapped syscall cannot be aborted outright, so Parrot
//! converts it into a `getpid()` that really enters the kernel — two
//! extra mode switches plus a kernel entry per trap. A hypothetical
//! kernel with abortable syscalls would save exactly that. We model it
//! by shrinking `switches_per_trap` from 6 to 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idbox_interpose::{share, AllowAll, GuestCtx, Supervisor};
use idbox_kernel::Kernel;
use idbox_types::CostModel;
use idbox_vfs::Cred;

fn bench_nullify(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_nullify");
    group.sample_size(30);
    let base = CostModel::calibrated();
    let configs = [
        ("nullify-to-getpid (real)", base),
        (
            "abortable-syscall (hypothetical)",
            CostModel {
                switches_per_trap: 4,
                ..base
            },
        ),
    ];
    for (name, model) in configs {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "nullify").unwrap();
        let mut sup = Supervisor::interposed(kernel, Box::new(AllowAll), model);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        ctx.write_file("/tmp/f", b"x").unwrap();
        group.bench_function(BenchmarkId::new("stat", name), |b| {
            b.iter(|| ctx.stat("/tmp/f").unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nullify);
criterion_main!(benches);
