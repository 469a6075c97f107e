//! The mapping trait and admitted sessions.

use idbox_core::IdentityBox;
use idbox_interpose::{GuestCtx, SharedKernel, Supervisor};
use idbox_types::{Errno, Principal, SysResult};
use idbox_vfs::Cred;
use std::fmt;
use std::sync::Arc;

/// Failure to map a principal into the local system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// A human administrator must act (create an account, edit the
    /// gridmap) before this principal can be admitted.
    NeedsAdministrator,
    /// The method has run out of local accounts (pools).
    NoAccountsAvailable,
    /// The method has no way to express this operation (e.g. grid-name
    /// based sharing under private accounts).
    Unsupported,
    /// An underlying system error.
    Sys(Errno),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NeedsAdministrator => write!(f, "administrator intervention required"),
            MapError::NoAccountsAvailable => write!(f, "no local accounts available"),
            MapError::Unsupported => write!(f, "operation not expressible under this method"),
            MapError::Sys(e) => write!(f, "system error: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<Errno> for MapError {
    fn from(e: Errno) -> Self {
        MapError::Sys(e)
    }
}

/// How an admitted session executes guest programs.
#[derive(Clone)]
pub enum Runner {
    /// Directly under a local credential (every account-based method).
    Plain,
    /// Inside an identity box.
    Boxed(Arc<IdentityBox>),
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Runner::Plain => write!(f, "Plain"),
            Runner::Boxed(b) => write!(f, "Boxed({})", b.identity()),
        }
    }
}

/// An admitted visitor: the local execution context their jobs get.
#[derive(Debug)]
pub struct Session {
    /// The proven global identity.
    pub principal: Principal,
    /// The local account name the session runs under (informational).
    pub account: String,
    /// The Unix credential of the session's processes.
    pub cred: Cred,
    /// Where the visitor's files go.
    pub home: String,
    /// Execution mode.
    pub runner: Runner,
}

impl Session {
    /// Run a guest program in this session. Account-based sessions run
    /// natively (direct supervisor); boxed sessions run interposed under
    /// the identity-box policy.
    pub fn run(
        &self,
        kernel: &SharedKernel,
        comm: &str,
        prog: impl FnOnce(&mut GuestCtx<'_>) -> i32,
    ) -> SysResult<i32> {
        match &self.runner {
            Runner::Plain => {
                let pid = kernel.spawn(self.cred, &self.home, comm)?;
                let mut sup = Supervisor::direct(Arc::clone(kernel));
                let mut ctx = GuestCtx::new(&mut sup, pid);
                let code = prog(&mut ctx);
                ctx.exit(code);
                Ok(code)
            }
            Runner::Boxed(b) => {
                let (code, _) = b.run(comm, prog)?;
                Ok(code)
            }
        }
    }
}

/// A method of admitting globally-identified users to a local system.
pub trait IdentityMapper: Send {
    /// Method name as in Figure 1.
    fn name(&self) -> &'static str;

    /// Must the service operator be root to employ this method?
    fn requires_privilege(&self) -> bool;

    /// Figure 1's administrative-burden label.
    fn burden_label(&self) -> &'static str;

    /// Map a principal into a local session.
    fn admit(&mut self, kernel: &SharedKernel, principal: &Principal)
        -> Result<Session, MapError>;

    /// End a session (pools recycle the account, anonymous methods
    /// destroy it).
    fn release(&mut self, kernel: &SharedKernel, session: Session) -> Result<(), MapError> {
        let _ = (kernel, session);
        Ok(())
    }

    /// A manual root intervention admitting this principal (creating the
    /// account, editing the gridmap). Methods that need none succeed
    /// trivially.
    fn administer(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<(), MapError> {
        let _ = (kernel, principal);
        Ok(())
    }

    /// The visitor `session` tries to share `path` with another *grid*
    /// identity, without administrator help. This is the crux of
    /// Figure 1's sharing column: the visitor knows only the other
    /// user's global name.
    fn grant(
        &mut self,
        kernel: &SharedKernel,
        session: &Session,
        other: &Principal,
        path: &str,
    ) -> Result<(), MapError> {
        let _ = (kernel, session, other, path);
        Err(MapError::Unsupported)
    }

    /// Manual root interventions performed so far.
    fn interventions(&self) -> u64 {
        0
    }
}
