//! Identity boxing as a mapping method.

use crate::session::{IdentityMapper, MapError, Runner, Session};
use idbox_acl::Rights;
use idbox_core::IdentityBox;
use idbox_interpose::SharedKernel;
use idbox_types::Principal;
use idbox_vfs::Cred;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Map every visitor into an identity box named by their principal:
/// named protection domains created on the fly, no account database
/// consulted, no privileges required, and sharing expressed directly in
/// terms of grid identities through ACLs.
pub struct IdentityBoxMapper {
    sup_cred: Cred,
    boxes: BTreeMap<String, Arc<IdentityBox>>,
}

impl IdentityBoxMapper {
    /// Boxes are supervised by the (unprivileged) operator credential.
    pub fn new(sup_cred: Cred) -> Self {
        IdentityBoxMapper {
            sup_cred,
            boxes: BTreeMap::new(),
        }
    }
}

impl IdentityMapper for IdentityBoxMapper {
    fn name(&self) -> &'static str {
        "identity box"
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
        let key = principal.qualified();
        let b = match self.boxes.get(&key) {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(
                    IdentityBox::create(
                        Arc::clone(kernel),
                        principal.to_identity(),
                        self.sup_cred,
                    )
                    .map_err(MapError::Sys)?,
                );
                self.boxes.insert(key, Arc::clone(&b));
                b
            }
        };
        Ok(Session {
            principal: principal.clone(),
            account: format!("(box) {}", principal),
            cred: self.sup_cred,
            home: b.home().to_string(),
            runner: Runner::Boxed(b),
        })
    }

    fn grant(
        &mut self,
        kernel: &SharedKernel,
        session: &Session,
        other: &Principal,
        path: &str,
    ) -> Result<(), MapError> {
        // The visitor themself extends rights by editing the ACL of the
        // directory containing `path` — possible because they hold the A
        // right in their own home, and expressed purely in grid names.
        let Runner::Boxed(b) = &session.runner else {
            return Err(MapError::Unsupported);
        };
        let dir = idbox_vfs::path::split_parent(path)
            .map(|(d, _)| d.to_string())
            .ok_or(MapError::Unsupported)?;
        let other_name = other.qualified();
        let acl_path = format!("{dir}/{}", idbox_types::ACL_FILE_NAME);
        let code = b
            .run("setacl", move |ctx| {
                let Ok(acl) = ctx.read_file(&acl_path) else {
                    return 1;
                };
                let mut text = String::from_utf8_lossy(&acl).into_owned();
                text.push_str(&format!(
                    "{} {}\n",
                    other_name,
                    (Rights::READ | Rights::LIST).letters()
                ));
                match ctx.write_file(&acl_path, text.as_bytes()) {
                    Ok(()) => 0,
                    Err(_) => 1,
                }
            })
            .map_err(MapError::Sys)?
            .0;
        let _ = kernel;
        if code == 0 {
            Ok(())
        } else {
            Err(MapError::Unsupported)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::{Account, Kernel};
    use idbox_types::AuthMethod;

    fn setup() -> (SharedKernel, IdentityBoxMapper) {
        let mut k = Kernel::new();
        k.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
        let kernel = idbox_interpose::share(k);
        (kernel, IdentityBoxMapper::new(Cred::new(1000, 1000)))
    }

    #[test]
    fn admit_without_accounts_or_privilege() {
        let (kernel, mut m) = setup();
        let before = kernel.accounts().len();
        let fred = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=Fred");
        let s = m.admit(&kernel, &fred).unwrap();
        assert!(matches!(s.runner, Runner::Boxed(_)));
        // No local account was created.
        assert_eq!(kernel.accounts().len(), before);
        assert_eq!(m.interventions(), 0);
        assert!(!m.requires_privilege());
    }

    #[test]
    fn grid_name_sharing_works() {
        let (kernel, mut m) = setup();
        let fred = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=Fred");
        let george = Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=George");
        let sf = m.admit(&kernel, &fred).unwrap();
        let data = format!("{}/data.txt", sf.home);
        let data2 = data.clone();
        sf.run(&kernel, "write", move |ctx| {
            ctx.write_file(&data2, b"shared").unwrap();
            0
        })
        .unwrap();
        // Before the grant, George is denied.
        let sg = m.admit(&kernel, &george).unwrap();
        let data3 = data.clone();
        let denied = sg
            .run(&kernel, "probe", move |ctx| {
                i32::from(ctx.read_file(&data3).is_ok())
            })
            .unwrap();
        assert_eq!(denied, 0);
        // Fred grants to George's grid name; now George reads.
        m.grant(&kernel, &sf, &george, &data).unwrap();
        let data4 = data.clone();
        let allowed = sg
            .run(&kernel, "probe", move |ctx| {
                i32::from(ctx.read_file(&data4).is_ok())
            })
            .unwrap();
        assert_eq!(allowed, 1);
    }
}
