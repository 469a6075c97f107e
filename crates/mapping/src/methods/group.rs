//! Shared group accounts (the Grid3 approach).

use crate::methods::create_account_with_home;
use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_acl::SubjectPattern;
use idbox_interpose::SharedKernel;
use idbox_types::{Identity, Principal};
use idbox_vfs::Cred;

/// A small number of accounts, each corresponding to a well-known
/// experiment or collaboration; principals are matched to groups by
/// wildcard patterns. Within one group nothing is private and all data
/// is shared; between groups there is privacy but no sharing — the
/// "fixed" policies of Figure 1.
pub struct GroupAccounts {
    groups: Vec<(SubjectPattern, String)>,
    interventions: u64,
}

impl GroupAccounts {
    /// Create the group accounts up front (one administrative action per
    /// group).
    pub fn with_groups(
        kernel: &SharedKernel,
        groups: &[(&str, &str)],
    ) -> Result<Self, MapError> {
        let mut out = GroupAccounts {
            groups: Vec::new(),
            interventions: 0,
        };
        for (pattern, account) in groups {
            out.interventions += 1;
            create_account_with_home(kernel, account)?;
            out.groups
                .push((SubjectPattern::new(*pattern), account.to_string()));
        }
        Ok(out)
    }

    fn group_of(&self, principal: &Principal) -> Option<&str> {
        let id = Identity::new(principal.qualified());
        self.groups
            .iter()
            .find(|(p, _)| p.matches(&id))
            .map(|(_, a)| a.as_str())
    }
}

impl IdentityMapper for GroupAccounts {
    fn name(&self) -> &'static str {
        "group"
    }

    fn requires_privilege(&self) -> bool {
        true
    }

    fn burden_label(&self) -> &'static str {
        "per group"
    }

    fn admit(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<Session, MapError> {
        let account = self
            .group_of(principal)
            .ok_or(MapError::NeedsAdministrator)?
            .to_string();
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

    fn grant(
        &mut self,
        _kernel: &SharedKernel,
        session: &Session,
        other: &Principal,
        _path: &str,
    ) -> Result<(), MapError> {
        // Sharing exists exactly within the group: same account, nothing
        // to do. Across groups there is no mechanism at all.
        let mine = self.group_of(&session.principal);
        let theirs = self.group_of(other);
        if mine.is_some() && mine == theirs {
            Ok(())
        } else {
            Err(MapError::Unsupported)
        }
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

    fn setup() -> (SharedKernel, GroupAccounts) {
        let kernel = idbox_interpose::share(Kernel::new());
        let m = GroupAccounts::with_groups(
            &kernel,
            &[
                ("globus:/O=UnivNowhere/*", "grid_un"),
                ("globus:/O=Elsewhere/*", "grid_el"),
            ],
        )
        .unwrap();
        (kernel, m)
    }

    #[test]
    fn same_org_same_account() {
        let (kernel, mut m) = setup();
        let fred = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=Fred");
        let george = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=George");
        let eve = Principal::new(AuthMethod::Globus, "/O=Elsewhere/CN=Eve");
        let s1 = m.admit(&kernel, &fred).unwrap();
        let s2 = m.admit(&kernel, &george).unwrap();
        let s3 = m.admit(&kernel, &eve).unwrap();
        assert_eq!(s1.cred, s2.cred);
        assert_ne!(s1.cred, s3.cred);
        assert_eq!(m.interventions(), 2); // one per group, not per user
    }

    #[test]
    fn unmatched_principal_needs_admin() {
        let (kernel, mut m) = setup();
        let stranger = Principal::new(AuthMethod::Kerberos, "x@unknown.org");
        assert_eq!(
            m.admit(&kernel, &stranger).unwrap_err(),
            MapError::NeedsAdministrator
        );
    }

    #[test]
    fn grant_within_group_only() {
        let (kernel, mut m) = setup();
        let fred = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=Fred");
        let george = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=George");
        let eve = Principal::new(AuthMethod::Globus, "/O=Elsewhere/CN=Eve");
        let s = m.admit(&kernel, &fred).unwrap();
        assert!(m.grant(&kernel, &s, &george, "/f").is_ok());
        assert_eq!(
            m.grant(&kernel, &s, &eve, "/f").unwrap_err(),
            MapError::Unsupported
        );
    }
}
