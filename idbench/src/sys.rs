//! Process-level measurements: CPU time and context switches
//! (`getrusage`), resident memory, a counting allocator, and host
//! provenance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The global allocator: the system allocator plus an allocation
/// counter that only counts while [`count_allocs`] is on (the traced
/// run), so the untraced run pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to CPU `cpu` (modulo the host's cores); a
/// host that refuses keeps the thread unpinned.
pub fn pin_to_cpu(cpu: usize) {
    let cpu = cpu % host_cores();
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a valid 1024-bit CPU set; pid 0 is this thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

/// Whole-process resource usage at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    /// Voluntary context switches (a thread blocked and gave up its core).
    pub vol_cswitch: f64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` for RUSAGE_SELF (0).
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    Usage {
        cpu_us: tv(&ru.utime) + tv(&ru.stime),
        vol_cswitch: ru.nvcsw as f64,
    }
}

/// Resident memory now, in MiB, after returning freed heap pages to the
/// OS, so the figure is the memory the run holds rather than what the
/// allocator happens to keep cached.
pub fn resident_mib() -> f64 {
    // SAFETY: `malloc_trim` only releases free heap memory.
    unsafe {
        malloc_trim(0);
    }
    let pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .unwrap_or(0.0);
    pages * 4096.0 / (1 << 20) as f64
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, when run from a git
/// checkout; `none` otherwise.
pub fn git_sha(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(root, r))
            .unwrap_or_else(|_| "none".to_string()),
        None => head,
    }
}

fn packed_ref(root: &Path, name: &str) -> std::io::Result<String> {
    let packed = std::fs::read_to_string(root.join(".git/packed-refs"))?;
    packed
        .lines()
        .find_map(|l| {
            let (sha, r) = l.split_once(' ')?;
            (r == name).then(|| sha.to_string())
        })
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mnt), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            best = Some((mnt.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_moves_and_root_has_a_filesystem() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu_us >= a.cpu_us);
        assert!(resident_mib() > 0.0);
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
