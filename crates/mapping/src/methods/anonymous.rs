//! Anonymous per-job accounts (Condor-on-NT style).

use crate::methods::{create_account_with_home, destroy_account_with_home};
use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_interpose::SharedKernel;
use idbox_types::Principal;

/// A fresh account for every single job, destroyed when the job ends.
/// Needs privilege but no per-user administration; gives privacy but no
/// sharing — and an ID means nothing after the job completes, so there
/// is no returning to stored data.
#[derive(Default)]
pub struct AnonymousAccounts {
    serial: u32,
}

impl AnonymousAccounts {
    /// A fresh generator.
    pub fn new() -> Self {
        AnonymousAccounts::default()
    }
}

impl IdentityMapper for AnonymousAccounts {
    fn name(&self) -> &'static str {
        "anonymous"
    }

    fn requires_privilege(&self) -> bool {
        true
    }

    fn burden_label(&self) -> &'static str {
        "-"
    }

    fn admit(
        &mut self,
        kernel: &SharedKernel,
        principal: &Principal,
    ) -> Result<Session, MapError> {
        self.serial += 1;
        let account = format!("anon{}", self.serial);
        let (cred, home) = create_account_with_home(kernel, &account)?;
        Ok(Session {
            principal: principal.clone(),
            account,
            cred,
            home,
            runner: Runner::Plain,
        })
    }

    fn release(&mut self, kernel: &SharedKernel, session: Session) -> Result<(), MapError> {
        destroy_account_with_home(kernel, &session.account)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::Kernel;
    use idbox_types::AuthMethod;
    use idbox_vfs::Cred;

    #[test]
    fn every_job_fresh_account() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = AnonymousAccounts::new();
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        let s1 = m.admit(&kernel, &fred).unwrap();
        let s2 = m.admit(&kernel, &fred).unwrap();
        // Even the same user gets distinct accounts per job.
        assert_ne!(s1.account, s2.account);
        assert_ne!(s1.cred.uid, s2.cred.uid);
        assert_eq!(m.interventions(), 0);
    }

    #[test]
    fn release_destroys_account_and_home() {
        let kernel = idbox_interpose::share(Kernel::new());
        let mut m = AnonymousAccounts::new();
        let fred = Principal::new(AuthMethod::Globus, "/O=X/CN=Fred");
        let s = m.admit(&kernel, &fred).unwrap();
        let (account, home) = (s.account.clone(), s.home.clone());
        // The job leaves data behind...
        {
            let k = &*kernel;
            let root = k.vfs().root();
            k.vfs()
                .write_file(root, &format!("{home}/out.dat"), b"x", &Cred::ROOT)
                .unwrap();
        }
        m.release(&kernel, s).unwrap();
        let k = &*kernel;
        assert!(k.accounts().lookup(&account).is_none());
        let root = k.vfs().root();
        assert!(k.vfs().read_file(root, &format!("{home}/out.dat"), &Cred::ROOT).is_err());
    }
}
