//! Private accounts with a gridmap file.

use crate::methods::create_account_with_home;
use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_interpose::SharedKernel;
use idbox_types::Principal;
use idbox_vfs::Cred;
use std::collections::BTreeMap;

/// One distinct local account per grid user, mapped through a "gridmap"
/// table (I-WAY's approach, still the most widespread). Gives every user
/// privacy, but a human administrator must create each account and edit
/// the map — and because visitors never learn each other's local names,
/// grid-identity-based sharing is impossible.
#[derive(Default)]
pub struct PrivateAccounts {
    gridmap: BTreeMap<String, String>,
    next_serial: u32,
    interventions: u64,
}

impl PrivateAccounts {
    /// An empty gridmap.
    pub fn new() -> Self {
        PrivateAccounts::default()
    }

    /// The gridmap contents (principal → local account), for display.
    pub fn gridmap(&self) -> &BTreeMap<String, String> {
        &self.gridmap
    }
}

impl IdentityMapper for PrivateAccounts {
    fn name(&self) -> &'static str {
        "private"
    }

    fn requires_privilege(&self) -> bool {
        true
    }

    fn burden_label(&self) -> &'static str {
        "per user"
    }

    fn admit(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<Session, MapError> {
        let account = self
            .gridmap
            .get(&principal.qualified())
            .cloned()
            .ok_or(MapError::NeedsAdministrator)?;
        let accounts = kernel.accounts();
        let acct = accounts
            .lookup(&account)
            .ok_or(MapError::NeedsAdministrator)?;
        Ok(Session {
            principal: principal.clone(),
            account: acct.name.clone(),
            cred: Cred::new(acct.uid, acct.gid),
            home: acct.home.clone(),
            runner: Runner::Plain,
        })
    }

    fn administer(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<(), MapError> {
        if self.gridmap.contains_key(&principal.qualified()) {
            return Ok(());
        }
        self.interventions += 1;
        self.next_serial += 1;
        let account = format!("griduser{}", self.next_serial);
        create_account_with_home(kernel, &account)?;
        self.gridmap.insert(principal.qualified(), account);
        Ok(())
    }

    fn interventions(&self) -> u64 {
        self.interventions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::Kernel;
    use idbox_types::AuthMethod;

    #[test]
    fn needs_admin_then_distinct_accounts() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = PrivateAccounts::new();
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        let george = Principal::new(AuthMethod::Globus, "/O=X/CN=George");
        assert_eq!(
            m.admit(&kernel, &fred).unwrap_err(),
            MapError::NeedsAdministrator
        );
        m.administer(&kernel, &fred).unwrap();
        m.administer(&kernel, &george).unwrap();
        let s1 = m.admit(&kernel, &fred).unwrap();
        let s2 = m.admit(&kernel, &george).unwrap();
        assert_ne!(s1.cred.uid, s2.cred.uid);
        assert_ne!(s1.home, s2.home);
        assert_eq!(m.interventions(), 2);
    }

    #[test]
    fn readmission_is_stable() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = PrivateAccounts::new();
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        m.administer(&kernel, &fred).unwrap();
        let a = m.admit(&kernel, &fred).unwrap();
        let b = m.admit(&kernel, &fred).unwrap();
        assert_eq!(a.account, b.account);
        // Re-administering the same user is free.
        m.administer(&kernel, &fred).unwrap();
        assert_eq!(m.interventions(), 1);
    }

    #[test]
    fn sharing_is_unsupported() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = PrivateAccounts::new();
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        m.administer(&kernel, &fred).unwrap();
        let s = m.admit(&kernel, &fred).unwrap();
        let george = Principal::new(AuthMethod::Globus, "/O=X/CN=George");
        assert_eq!(
            m.grant(&kernel, &s, &george, "/x").unwrap_err(),
            MapError::Unsupported
        );
    }
}
