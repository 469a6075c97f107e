//! Processes, file descriptors, and signals.

use idbox_types::Identity;
use idbox_vfs::{Cred, Ino};
use std::sync::atomic::{AtomicU64, Ordering};

/// A process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Maximum open file descriptors per process.
pub const MAX_FDS: usize = 256;

/// Open-file flags (a decoded subset of `O_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// With `create`: fail if the file exists.
    pub excl: bool,
    /// Truncate to zero length on open.
    pub trunc: bool,
    /// All writes go to end of file.
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the classic "write a file" open.
    pub fn wronly_create_trunc() -> Self {
        OpenFlags {
            write: true,
            create: true,
            trunc: true,
            ..Default::default()
        }
    }

    /// `O_RDWR`.
    pub fn rdwr() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }

    /// `O_RDWR | O_CREAT`.
    pub fn rdwr_create() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_APPEND`.
    pub fn append_create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            append: true,
            ..Default::default()
        }
    }

    /// Encode into a raw bitfield for the register-level ABI.
    pub fn to_bits(self) -> u64 {
        (self.read as u64)
            | (self.write as u64) << 1
            | (self.create as u64) << 2
            | (self.excl as u64) << 3
            | (self.trunc as u64) << 4
            | (self.append as u64) << 5
    }

    /// Decode from the raw bitfield.
    pub fn from_bits(bits: u64) -> Self {
        OpenFlags {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            create: bits & 4 != 0,
            excl: bits & 8 != 0,
            trunc: bits & 16 != 0,
            append: bits & 32 != 0,
        }
    }
}

/// Signals understood by the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Interrupt (Ctrl-C).
    Int,
    /// Termination request; delivered to the pending queue.
    Term,
    /// Unblockable kill; the process dies immediately.
    Kill,
    /// User-defined signal 1.
    Usr1,
    /// User-defined signal 2.
    Usr2,
}

impl Signal {
    /// Conventional signal number.
    pub fn number(self) -> u32 {
        match self {
            Signal::Int => 2,
            Signal::Kill => 9,
            Signal::Usr1 => 10,
            Signal::Usr2 => 12,
            Signal::Term => 15,
        }
    }

    /// Decode a signal number.
    pub fn from_number(n: u32) -> Option<Signal> {
        Some(match n {
            2 => Signal::Int,
            9 => Signal::Kill,
            10 => Signal::Usr1,
            12 => Signal::Usr2,
            15 => Signal::Term,
            _ => return None,
        })
    }
}

/// Which end of a pipe an fd holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEnd {
    /// The reading end.
    Read,
    /// The writing end.
    Write,
}

/// Where an open file's bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileBacking {
    /// A local VFS inode (pinned while open).
    Local(Ino),
    /// A handle owned by a mounted [`FsDriver`](crate::FsDriver).
    Driver {
        /// Index into the kernel's mount table.
        mount: usize,
        /// Driver-private descriptor.
        dfd: u64,
    },
    /// One end of an in-kernel pipe.
    Pipe {
        /// Index into the kernel's pipe table.
        id: usize,
        /// Generation of the slot at open time. Slots are recycled after
        /// both ends close; the kernel rejects any fd whose generation no
        /// longer matches the slot's with `EBADF`, so a stale fd can
        /// never alias a newer pipe that happens to reuse the same id.
        gen: u64,
        /// Which end this fd holds.
        end: PipeEnd,
    },
}

/// One open-file table entry.
#[derive(Debug)]
pub struct OpenFile {
    /// Backing store.
    pub backing: FileBacking,
    /// Current offset. Atomic so dispatch can advance it through
    /// `&self`: an fd is private to one process, so this is per-fd
    /// interior mutability, not cross-thread contention, and `Relaxed`
    /// ordering suffices (the offset publishes no other data, so there
    /// is nothing for it to order).
    offset: AtomicU64,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
}

impl OpenFile {
    /// A fresh entry at offset zero.
    pub fn new(backing: FileBacking, flags: OpenFlags) -> Self {
        OpenFile {
            backing,
            offset: AtomicU64::new(0),
            flags,
        }
    }

    /// The current file offset.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::Relaxed)
    }

    /// Set the file offset (callable through a shared borrow; see the
    /// field comment).
    pub fn set_offset(&self, off: u64) {
        self.offset.store(off, Ordering::Relaxed)
    }
}

impl Clone for OpenFile {
    fn clone(&self) -> Self {
        OpenFile {
            backing: self.backing.clone(),
            // Snapshot semantics: the copy starts at the source's current
            // offset but does not share it afterwards (dup/fork in this
            // kernel copy offsets rather than sharing the file table
            // entry, as documented in DESIGN.md).
            offset: AtomicU64::new(self.offset()),
            flags: self.flags,
        }
    }
}

impl PartialEq for OpenFile {
    fn eq(&self, other: &Self) -> bool {
        self.backing == other.backing
            && self.offset() == other.offset()
            && self.flags == other.flags
    }
}

impl Eq for OpenFile {}

/// Process lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Alive.
    Running,
    /// Exited with a status; waiting to be reaped by its parent.
    Zombie(i32),
}

/// A process table entry.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id (self-parent for the initial process).
    pub ppid: Pid,
    /// Unix credentials used for kernel permission checks.
    pub cred: Cred,
    /// The global identity attached by an identity box, if any. The kernel
    /// stores it (it is "carried with each process", paper Section 3) but
    /// never interprets it; the box supervisor does.
    pub identity: Option<Identity>,
    /// Current working directory inode.
    pub cwd: Ino,
    /// Textual cwd (what `getcwd` reports).
    pub cwd_path: String,
    /// Open files; index = fd.
    pub fds: Vec<Option<OpenFile>>,
    /// Lifecycle state.
    pub state: ProcState,
    /// Undelivered signals, in arrival order.
    pub pending: Vec<Signal>,
    /// File-creation mask.
    pub umask: u16,
    /// The program name last `exec`ed (for diagnostics / ps).
    pub comm: String,
    /// Environment variables. Seeded by the supervisor (`set_env`),
    /// inherited across `fork`, readable by the guest via `getenv` —
    /// how a boxed child learns e.g. the trace id of the request that
    /// spawned it.
    pub env: std::collections::BTreeMap<String, String>,
}

impl Process {
    /// Find the lowest free fd slot, extending the table if needed.
    pub fn alloc_fd(&mut self) -> Option<usize> {
        for (i, slot) in self.fds.iter().enumerate() {
            if slot.is_none() {
                return Some(i);
            }
        }
        if self.fds.len() < MAX_FDS {
            self.fds.push(None);
            Some(self.fds.len() - 1)
        } else {
            None
        }
    }

    /// Borrow an open file by fd.
    pub fn file(&self, fd: usize) -> Option<&OpenFile> {
        self.fds.get(fd).and_then(|f| f.as_ref())
    }

    /// Mutably borrow an open file by fd.
    pub fn file_mut(&mut self, fd: usize) -> Option<&mut OpenFile> {
        self.fds.get_mut(fd).and_then(|f| f.as_mut())
    }

    /// True while the process has not exited.
    pub fn is_alive(&self) -> bool {
        matches!(self.state, ProcState::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_bits_roundtrip() {
        for bits in 0..64u64 {
            let f = OpenFlags::from_bits(bits);
            assert_eq!(f.to_bits(), bits);
        }
    }

    #[test]
    fn flag_constructors() {
        assert!(OpenFlags::rdonly().read);
        assert!(!OpenFlags::rdonly().write);
        let w = OpenFlags::wronly_create_trunc();
        assert!(w.write && w.create && w.trunc && !w.read);
        let a = OpenFlags::append_create();
        assert!(a.append && a.write);
    }

    #[test]
    fn signal_numbers_roundtrip() {
        for s in [Signal::Int, Signal::Kill, Signal::Usr1, Signal::Usr2, Signal::Term] {
            assert_eq!(Signal::from_number(s.number()), Some(s));
        }
        assert_eq!(Signal::from_number(99), None);
    }

    #[test]
    fn fd_allocation_reuses_lowest() {
        let mut p = Process {
            pid: Pid(1),
            ppid: Pid(1),
            cred: Cred::ROOT,
            identity: None,
            cwd: Ino(1),
            cwd_path: "/".into(),
            fds: vec![None; 3],
            state: ProcState::Running,
            pending: vec![],
            umask: 0o022,
            comm: "init".into(),
            env: Default::default(),
        };
        assert_eq!(p.alloc_fd(), Some(0));
        p.fds[0] = Some(OpenFile::new(
            FileBacking::Local(Ino(2)),
            OpenFlags::rdonly(),
        ));
        assert_eq!(p.alloc_fd(), Some(1));
        p.fds[1] = Some(OpenFile::new(
            FileBacking::Local(Ino(3)),
            OpenFlags::rdonly(),
        ));
        p.fds[0] = None;
        assert_eq!(p.alloc_fd(), Some(0));
    }

    #[test]
    fn open_file_offset_is_shared_borrow_mutable_but_clone_snapshots() {
        let f = OpenFile::new(FileBacking::Local(Ino(2)), OpenFlags::rdonly());
        assert_eq!(f.offset(), 0);
        f.set_offset(42); // through &f
        assert_eq!(f.offset(), 42);
        let g = f.clone();
        assert_eq!(g.offset(), 42);
        f.set_offset(7);
        assert_eq!(g.offset(), 42, "clone must not share the offset cell");
        assert_ne!(f, g);
    }
}
