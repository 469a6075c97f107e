//! The seven mapping methods of Figure 1.

mod anonymous;
mod boxmap;
mod group;
mod pool;
mod private;
mod single;
mod untrusted;

pub use anonymous::AnonymousAccounts;
pub use boxmap::IdentityBoxMapper;
pub use group::GroupAccounts;
pub use pool::AccountPool;
pub use private::PrivateAccounts;
pub use single::SingleAccount;
pub use untrusted::UntrustedAccount;

use idbox_interpose::SharedKernel;
use idbox_kernel::Account;
use idbox_types::SysResult;
use idbox_vfs::Cred;

/// Create a local account plus a 0700 home directory owned by it.
/// This is the root-only action whose frequency Figure 1's burden column
/// measures.
pub(crate) fn create_account_with_home(
    kernel: &SharedKernel,
    name: &str,
) -> SysResult<(Cred, String)> {
    let Account { uid, home, .. } = kernel.account_add_with(|db| {
        let uid = db.next_free_uid();
        Account::new(name, uid, uid)
    })?;
    let root = kernel.vfs().root();
    kernel.vfs().mkdir_all(root, &home, 0o700, &Cred::ROOT)?;
    kernel.vfs().chown(root, &home, uid, uid, &Cred::ROOT)?;
    kernel.sync_passwd_file();
    Ok((Cred::new(uid, uid), home))
}

/// Remove an account and its home directory (recursive), as root.
pub(crate) fn destroy_account_with_home(kernel: &SharedKernel, name: &str) -> SysResult<()> {
    let home = match kernel.account_remove(name) {
        Ok(account) => account.home,
        Err(_) => return Ok(()),
    };
    kernel.sync_passwd_file();
    let root = kernel.vfs().root();
    remove_tree(kernel.vfs(), root, &home)?;
    Ok(())
}

fn remove_tree(
    vfs: &idbox_vfs::Vfs,
    root: idbox_vfs::Ino,
    path: &str,
) -> SysResult<()> {
    use idbox_vfs::FileKind;
    let entries = match vfs.readdir(root, path, &Cred::ROOT) {
        Ok(e) => e,
        Err(_) => return Ok(()), // already gone
    };
    for e in entries {
        if e.name == "." || e.name == ".." {
            continue;
        }
        let child = format!("{}/{}", path.trim_end_matches('/'), e.name);
        match e.kind {
            FileKind::Dir => remove_tree(vfs, root, &child)?,
            _ => {
                let _ = vfs.unlink(root, &child, &Cred::ROOT);
            }
        }
    }
    let _ = vfs.rmdir(root, path, &Cred::ROOT);
    Ok(())
}
