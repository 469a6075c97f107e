//! The single-account method.

use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_interpose::SharedKernel;
use idbox_types::Principal;
use idbox_vfs::Cred;

/// Run every visiting process in the operator's own account.
///
/// Requires no privilege and is often a necessity; obviously it does not
/// protect the account holder, nor afford visitors any privacy from each
/// other — but everyone admitted can trivially share and return (paper,
/// Section 2: "Personal GASS").
pub struct SingleAccount {
    account: String,
}

impl SingleAccount {
    /// Map everyone onto `account` (the operator's own, which must
    /// exist).
    pub fn new(account: impl Into<String>) -> Self {
        SingleAccount {
            account: account.into(),
        }
    }
}

impl IdentityMapper for SingleAccount {
    fn name(&self) -> &'static str {
        "single"
    }

    fn requires_privilege(&self) -> bool {
        false
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
            .lookup(&self.account)
            .ok_or(MapError::NeedsAdministrator)?;
        Ok(Session {
            principal: principal.clone(),
            account: acct.name.clone(),
            cred: Cred::new(acct.uid, acct.gid),
            home: acct.home.clone(),
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
        // Everyone lands in the same account: sharing is implicit.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::{Account, Kernel};
    use idbox_types::AuthMethod;

    #[test]
    fn everyone_shares_the_account() {
        let mut kern = Kernel::new();
        kern.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
        let root = kern.vfs().root();
        kern.vfs()
            .mkdir_all(root, "/home/dthain", 0o755, &Cred::ROOT)
            .unwrap();
        let kernel = idbox_interpose::share(kern);
        let mut m = SingleAccount::new("dthain");
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        let george = Principal::new(AuthMethod::Globus, "/O=X/CN=George");
        let s1 = m.admit(&kernel, &fred).unwrap();
        let s2 = m.admit(&kernel, &george).unwrap();
        assert_eq!(s1.cred, s2.cred);
        assert_eq!(s1.home, s2.home);
        assert_eq!(m.interventions(), 0);
        assert!(!m.requires_privilege());
    }

    #[test]
    fn missing_account_needs_admin() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = SingleAccount::new("ghost");
        let p = Principal::new(AuthMethod::Unix, "x");
        assert_eq!(m.admit(&kernel, &p).unwrap_err(), MapError::NeedsAdministrator);
    }
}
