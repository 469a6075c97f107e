//! Criterion bench for Figure 5(a): per-syscall latency, unmodified vs.
//! inside the identity box, for the paper's seven cases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idbox_interpose::{share, AllowAll, GuestCtx, Supervisor};
use idbox_kernel::Kernel;
use idbox_types::CostModel;
use idbox_vfs::Cred;
use idbox_workloads::micro::{self, MicroCase};

fn setup(model: Option<CostModel>) -> (Supervisor, idbox_kernel::Pid) {
    let kernel = share(Kernel::new());
    let pid = kernel.spawn(Cred::ROOT, "/tmp", "micro").unwrap();
    let sup = match model {
        None => Supervisor::direct(kernel),
        Some(m) => Supervisor::interposed(kernel, Box::new(AllowAll), m),
    };
    (sup, pid)
}

fn bench_fig5a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a");
    group.sample_size(20);
    for case in MicroCase::all() {
        for (mode, model) in [
            ("unmodified", None),
            ("identity-box", Some(CostModel::calibrated())),
        ] {
            let (mut sup, pid) = setup(model);
            let mut ctx = GuestCtx::new(&mut sup, pid);
            micro::prepare(&mut ctx);
            group.bench_with_input(
                BenchmarkId::new(case.label(), mode),
                &case,
                |b, &case| {
                    b.iter(|| micro::run_case(&mut ctx, case, 16));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5a);
criterion_main!(benches);
