//! The Parrot-style system-call interposition agent.
//!
//! This crate reproduces the *mechanism* of the paper's Section 5 and
//! Figure 4. A guest program runs against a [`TraceeVm`] — simulated
//! registers plus a flat byte memory, standing in for a `ptrace`d child.
//! Every system call the guest makes is marshalled into the VM's
//! registers and memory exactly once (a real application does the same
//! when it loads the syscall ABI), and then executed by a
//! [`Supervisor`] in one of two modes:
//!
//! * **Direct** — the baseline: the call is decoded straight out of the
//!   VM by slice access and dispatched to the kernel, with one
//!   kernel-side copy for data. This models an ordinary, untraced
//!   system call.
//! * **Interposed** — the identity-box path, following Figure 4(a)
//!   step by step: the supervisor gains control (context switches), reads
//!   the call **word by word** via [`TraceeVm::peek_word`], consults a
//!   [`SyscallPolicy`] (the identity box), implements the call itself,
//!   **nullifies** the original call into a `getpid()` that really enters
//!   the kernel, pokes the result back word by word — or, for bulk data,
//!   stages it through the shared [`IoChannel`] and coerces the
//!   application into pulling it in, paying the extra copy of
//!   Figure 4(b).
//!
//! The context switches do not happen by themselves in a simulation, so
//! the supervisor *performs* them through
//! [`idbox_types::SwitchEngine`]; [`calibrate`] picks the switch cost so
//! a boxed `getpid` lands near the paper's order-of-magnitude slowdown,
//! and every other number emerges from the mechanism.

pub mod abi;
mod channel;
mod executor;
mod guest;
mod policy;
mod trace;
mod vm;

pub mod calibrate;

pub use channel::IoChannel;
pub use executor::{ExecMode, ObsHooks, Supervisor};
pub use guest::GuestCtx;
pub use policy::{AllowAll, DenyAll, PolicyDecision, SyscallPolicy};
pub use trace::{TraceRecord, TraceSink};
pub use vm::TraceeVm;

use idbox_kernel::Kernel;
use std::sync::Arc;

/// The kernel handle shared between supervisors (and, in the distributed
/// system, server threads).
///
/// The kernel is built as an owned value, configured through its `&mut`
/// builder calls (`vfs_mut`, `accounts_mut`), and then shared. Every
/// method a shared kernel offers takes `&self`: system calls dispatch
/// through [`Kernel::syscall_shared`], and the kernel's own per-domain
/// locks (vfs inode shards, process-table shards, the pipe, mount and
/// account tables) provide mutual exclusion where state actually
/// collides.
pub type SharedKernel = Arc<Kernel>;

/// Wrap a configured kernel for sharing.
pub fn share(kernel: Kernel) -> SharedKernel {
    Arc::new(kernel)
}

/// Payloads at or below this size move word-by-word through peek/poke;
/// larger payloads go through the I/O channel (paper, Section 5).
pub const SMALL_IO_MAX: usize = 256;
