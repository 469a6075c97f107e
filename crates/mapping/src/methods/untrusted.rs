//! The untrusted-account (`nobody`) method.

use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_interpose::SharedKernel;
use idbox_types::Principal;
use idbox_vfs::Cred;

/// Run all visiting processes as the low-privilege `nobody` account, the
/// way classic Web and FTP servers do. Protects the owner, but visitors
/// share one namespace with no privacy between them; privileges are
/// required to set the account up and switch into it.
pub struct UntrustedAccount {
    /// Where visitor files land (nobody has no home; `/tmp` by custom).
    workdir: String,
}

impl Default for UntrustedAccount {
    fn default() -> Self {
        UntrustedAccount::new()
    }
}

impl UntrustedAccount {
    /// The standard configuration.
    pub fn new() -> Self {
        UntrustedAccount {
            workdir: "/tmp".to_string(),
        }
    }
}

impl IdentityMapper for UntrustedAccount {
    fn name(&self) -> &'static str {
        "untrusted"
    }

    fn requires_privilege(&self) -> bool {
        true // setuid(nobody) takes root
    }

    fn burden_label(&self) -> &'static str {
        "-"
    }

    fn admit(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<Session, MapError> {
        let accounts = kernel.accounts();
        let acct = accounts
            .lookup("nobody")
            .ok_or(MapError::NeedsAdministrator)?;
        Ok(Session {
            principal: principal.clone(),
            account: acct.name.clone(),
            cred: Cred::new(acct.uid, acct.gid),
            home: self.workdir.clone(),
            runner: Runner::Plain,
        })
    }

    fn grant(
        &mut self,
        _kernel: &SharedKernel,
        _session: &Session,
        _other: &Principal,
        _path: &str,
    ) -> Result<(), MapError> {
        // Same account for everyone: sharing is implicit.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::Kernel;
    use idbox_types::AuthMethod;

    #[test]
    fn everyone_is_nobody() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = UntrustedAccount::new();
        let p = Principal::new(AuthMethod::Hostname, "h.x.edu");
        let s = m.admit(&kernel, &p).unwrap();
        assert_eq!(s.account, "nobody");
        assert_eq!(s.cred.uid, 65534);
        assert_eq!(s.home, "/tmp");
        assert!(m.requires_privilege());
    }
}
