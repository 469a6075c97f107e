//! Criterion bench for Figure 4(b): the two supervisor⇄tracee data
//! paths. Reads of increasing size cross via word-at-a-time pokes (small)
//! or the I/O channel's extra copy (bulk); the direct path is the
//! baseline single copy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idbox_interpose::{share, AllowAll, GuestCtx, Supervisor};
use idbox_kernel::{Kernel, OpenFlags};
use idbox_types::CostModel;
use idbox_vfs::Cred;

fn setup(model: Option<CostModel>, size: usize) -> (Supervisor, idbox_kernel::Pid) {
    let kernel = share(Kernel::new());
    let pid = kernel.spawn(Cred::ROOT, "/tmp", "dp").unwrap();
    {
        let k = &*kernel;
        let root = k.vfs().root();
        k.vfs()
            .write_file(root, "/tmp/dp.dat", &vec![0x5A; size], &Cred::ROOT)
            .unwrap();
    }
    let sup = match model {
        None => Supervisor::direct(kernel),
        Some(m) => Supervisor::interposed(kernel, Box::new(AllowAll), m),
    };
    (sup, pid)
}

fn bench_datapaths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_datapaths");
    group.sample_size(20);
    for size in [64usize, 256, 8192, 65536] {
        group.throughput(Throughput::Bytes(size as u64));
        for (mode, model) in [
            ("direct", None),
            ("interposed", Some(CostModel::calibrated())),
        ] {
            let (mut sup, pid) = setup(model, size);
            let mut ctx = GuestCtx::new(&mut sup, pid);
            let fd = ctx.open("/tmp/dp.dat", OpenFlags::rdonly(), 0).unwrap();
            let mut buf = vec![0u8; size];
            group.bench_with_input(
                BenchmarkId::new(mode, size),
                &size,
                |b, _| {
                    b.iter(|| ctx.pread(fd, &mut buf, 0).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_datapaths);
criterion_main!(benches);
