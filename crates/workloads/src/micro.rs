//! The Figure 5(a) system-call microbenchmarks.
//!
//! The paper times 1000 cycles of 100,000 iterations of getpid, stat,
//! open/close, and 1-byte / 8-kilobyte reads and writes against a file
//! wholly in the buffer cache. These guests reproduce each case; the
//! harness runs them under a direct and an interposed supervisor and
//! reports microseconds per call.

use crate::compute::fill_data;
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// The benchmark file (pre-staged, resident in the simulated VFS — the
/// analogue of "wholly in the system buffer cache").
pub const BENCH_FILE: &str = "bench.dat";

/// One microbenchmark case of Figure 5(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroCase {
    /// `getpid()` — the null call.
    Getpid,
    /// `stat` of an existing file.
    Stat,
    /// `open` + `close` of an existing file.
    OpenClose,
    /// 1-byte `pread`.
    Read1,
    /// 8-kilobyte `pread`.
    Read8k,
    /// 1-byte `pwrite`.
    Write1,
    /// 8-kilobyte `pwrite`.
    Write8k,
}

impl MicroCase {
    /// All cases in figure order.
    pub fn all() -> [MicroCase; 7] {
        [
            MicroCase::Getpid,
            MicroCase::Stat,
            MicroCase::OpenClose,
            MicroCase::Read1,
            MicroCase::Read8k,
            MicroCase::Write1,
            MicroCase::Write8k,
        ]
    }

    /// Label as printed in the figure.
    pub fn label(&self) -> &'static str {
        match self {
            MicroCase::Getpid => "getpid",
            MicroCase::Stat => "stat",
            MicroCase::OpenClose => "open-close",
            MicroCase::Read1 => "read 1 byte",
            MicroCase::Read8k => "read 8 kbyte",
            MicroCase::Write1 => "write 1 byte",
            MicroCase::Write8k => "write 8 kbyte",
        }
    }
}

/// Stage the benchmark file (16 KiB of data, enough for 8 KiB reads at
/// offset 0).
pub fn prepare(ctx: &mut GuestCtx<'_>) {
    let mut data = vec![0u8; 16 * 1024];
    fill_data(0xBE7C4, &mut data);
    ctx.write_file(BENCH_FILE, &data).expect("stage bench file");
}

/// Run `iters` iterations of one case. Returns a checksum so results
/// cannot be optimized away. Call [`prepare`] first.
pub fn run_case(ctx: &mut GuestCtx<'_>, case: MicroCase, iters: u64) -> u64 {
    let mut sink = 0u64;
    match case {
        MicroCase::Getpid => {
            for _ in 0..iters {
                sink ^= ctx.getpid() as u64;
            }
        }
        MicroCase::Stat => {
            for _ in 0..iters {
                let st = ctx.stat(BENCH_FILE).expect("stat bench file");
                sink ^= st.size;
            }
        }
        MicroCase::OpenClose => {
            for _ in 0..iters {
                let fd = ctx
                    .open(BENCH_FILE, OpenFlags::rdonly(), 0)
                    .expect("open bench file");
                ctx.close(fd).expect("close bench file");
                sink ^= fd as u64;
            }
        }
        MicroCase::Read1 | MicroCase::Read8k => {
            let len = if case == MicroCase::Read1 { 1 } else { 8192 };
            let fd = ctx
                .open(BENCH_FILE, OpenFlags::rdonly(), 0)
                .expect("open bench file");
            let mut buf = vec![0u8; len];
            for _ in 0..iters {
                let n = ctx.pread(fd, &mut buf, 0).expect("pread");
                sink ^= n as u64 ^ buf[0] as u64;
            }
            ctx.close(fd).expect("close");
        }
        MicroCase::Write1 | MicroCase::Write8k => {
            let len = if case == MicroCase::Write1 { 1 } else { 8192 };
            let fd = ctx
                .open(BENCH_FILE, OpenFlags::rdwr(), 0)
                .expect("open bench file");
            let mut buf = vec![0u8; len];
            fill_data(0x11, &mut buf);
            for i in 0..iters {
                buf[0] = i as u8;
                let n = ctx.pwrite(fd, &buf, 0).expect("pwrite");
                sink ^= n as u64;
            }
            ctx.close(fd).expect("close");
        }
    }
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::{share, AllowAll, Supervisor};
    use idbox_kernel::Kernel;
    use idbox_types::CostModel;
    use idbox_vfs::Cred;

    #[test]
    fn all_cases_run_in_both_modes() {
        for interposed in [false, true] {
            let kernel = share(Kernel::new());
            let pid = kernel.spawn(Cred::ROOT, "/tmp", "micro").unwrap();
            let mut sup = if interposed {
                Supervisor::interposed(kernel, Box::new(AllowAll), CostModel::calibrated())
            } else {
                Supervisor::direct(kernel)
            };
            let mut ctx = GuestCtx::new(&mut sup, pid);
            prepare(&mut ctx);
            for case in MicroCase::all() {
                run_case(&mut ctx, case, 10);
            }
        }
    }

    #[test]
    fn read_cases_count_traps_per_iteration() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "micro").unwrap();
        let mut sup =
            Supervisor::interposed(kernel, Box::new(AllowAll), CostModel::calibrated());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx);
        ctx.supervisor().reset_cost_report();
        run_case(&mut ctx, MicroCase::Read8k, 50);
        let report = ctx.supervisor().cost_report();
        // open + 50 preads + close = 52 traps.
        assert_eq!(report.traps, 52);
        // 8 KiB payloads travel through the channel.
        assert!(report.channel_bytes >= 50 * 8192);
    }

    #[test]
    fn labels_cover_figure() {
        let labels: Vec<_> = MicroCase::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 7);
        assert!(labels.contains(&"getpid"));
        assert!(labels.contains(&"write 8 kbyte"));
    }
}
