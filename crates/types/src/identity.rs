//! Free-form global identities.

use std::fmt;
use std::sync::Arc;

/// A free-form, globally meaningful identity string.
///
/// An identity box attaches one of these to every process and resource a
/// visiting user employs. The supervising user may pick *absolutely any*
/// name — `MyFriend`, `JohnQPublic`, `Anonymous429`, or a principal name
/// produced by an authentication exchange such as
/// `globus:/O=UnivNowhere/CN=Fred`. The string is opaque to the kernel; only
/// ACL subject patterns give it meaning.
///
/// `Identity` is cheaply cloneable (`Arc<str>` inside) because it is copied
/// into every process table entry and consulted on every privilege check.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity(Arc<str>);

impl Identity {
    /// Create an identity from any string.
    pub fn new(name: impl AsRef<str>) -> Self {
        Identity(Arc::from(name.as_ref()))
    }

    /// The identity used for ACL-less directories: the visiting user is
    /// treated as the untrusted Unix account `nobody`.
    pub fn nobody() -> Self {
        Identity::new(crate::NOBODY)
    }

    /// View the identity as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if this is the `nobody` identity.
    pub fn is_nobody(&self) -> bool {
        self.as_str() == crate::NOBODY
    }

    /// A sanitized form usable as a path component for the visitor's
    /// synthesized home directory: every character outside
    /// `[A-Za-z0-9._-]` is replaced with `_`.
    pub fn home_component(&self) -> String {
        let mut out = String::with_capacity(self.0.len());
        for c in self.0.chars() {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                out.push(c);
            } else {
                out.push('_');
            }
        }
        if out.is_empty() {
            out.push('_');
        }
        out
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Identity({})", &self.0)
    }
}

impl From<&str> for Identity {
    fn from(s: &str) -> Self {
        Identity::new(s)
    }
}

impl From<String> for Identity {
    fn from(s: String) -> Self {
        Identity::new(s)
    }
}

impl PartialEq<&str> for Identity {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl AsRef<str> for Identity {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let id = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        assert_eq!(id.as_str(), "globus:/O=UnivNowhere/CN=Fred");
        assert_eq!(id.to_string(), "globus:/O=UnivNowhere/CN=Fred");
    }

    #[test]
    fn nobody_is_nobody() {
        assert!(Identity::nobody().is_nobody());
        assert!(!Identity::new("fred").is_nobody());
    }

    #[test]
    fn clone_is_equal() {
        let a = Identity::new("MyFriend");
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn home_component_sanitizes() {
        let id = Identity::new("globus:/O=Univ Nowhere/CN=Fred");
        let h = id.home_component();
        assert!(!h.contains('/'));
        assert!(!h.contains(':'));
        assert!(!h.contains(' '));
        assert!(h.contains("Fred"));
    }

    #[test]
    fn home_component_empty_identity() {
        assert_eq!(Identity::new("").home_component(), "_");
    }

    #[test]
    fn any_name_is_valid() {
        // The paper: "MyFriend, JohnQPublic, and Anonymous429 are all valid".
        for name in ["MyFriend", "JohnQPublic", "Anonymous429", "日本語", "a b c"] {
            let id = Identity::new(name);
            assert_eq!(id.as_str(), name);
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Identity::new("a") < Identity::new("b"));
    }
}
