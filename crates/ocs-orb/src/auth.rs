//! Pluggable per-call authentication hooks.
//!
//! The paper's OCS signs every call by default (and optionally encrypts
//! it) using a Kerberos-like authentication service (§3.3). The ORB keeps
//! that policy pluggable: a [`ClientAuth`] seals outgoing request bodies
//! and a [`ServerAuth`] unseals and verifies them. The `ocs-auth` crate
//! provides the ticket-based implementation; [`NoAuth`] is the pass-
//! through used where security is not under test.

use bytes::Bytes;

/// Client-side call sealing: produces the principal, the auth blob and
/// (possibly transformed, e.g. encrypted) body for each outgoing request.
pub trait ClientAuth: Send + Sync {
    /// The principal this client authenticates as.
    fn principal(&self) -> &str;

    /// Seals a request body: returns `(body', auth_blob)`. For
    /// signature-only schemes `body'` is the input unchanged.
    fn seal(&self, body: Bytes) -> (Bytes, Bytes);

    /// Unseals a reply body (inverse of the server's reply sealing).
    /// Returns `None` if verification fails.
    fn unseal_reply(&self, body: Bytes) -> Option<Bytes> {
        Some(body)
    }
}

/// Server-side call verification: checks the auth blob and recovers the
/// plaintext body.
pub trait ServerAuth: Send + Sync {
    /// Verifies and unseals a request body. Returns the plaintext body
    /// if the caller's credentials check out, `None` otherwise.
    fn unseal(&self, principal: &str, auth: &[u8], body: Bytes) -> Option<Bytes>;

    /// Seals a reply body for the given principal.
    fn seal_reply(&self, _principal: &str, body: Bytes) -> Bytes {
        body
    }
}

/// Pass-through authentication: all calls accepted, principal taken on
/// faith from the request.
pub struct NoAuth;

impl ClientAuth for NoAuth {
    fn principal(&self) -> &str {
        "anonymous"
    }

    fn seal(&self, body: Bytes) -> (Bytes, Bytes) {
        (body, Bytes::new())
    }
}

impl ServerAuth for NoAuth {
    fn unseal(&self, _principal: &str, _auth: &[u8], body: Bytes) -> Option<Bytes> {
        Some(body)
    }
}

/// A fixed-principal variant of [`NoAuth`] for tests and settop clients
/// in simulations where the auth service is not under test.
pub struct NamedPrincipal(pub String);

impl ClientAuth for NamedPrincipal {
    fn principal(&self) -> &str {
        &self.0
    }

    fn seal(&self, body: Bytes) -> (Bytes, Bytes) {
        (body, Bytes::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noauth_passes_everything_through() {
        let (body, auth) = NoAuth.seal(Bytes::from_static(b"x"));
        assert_eq!(&body[..], b"x");
        assert!(auth.is_empty());
        assert_eq!(
            NoAuth
                .unseal("whoever", b"", Bytes::from_static(b"y"))
                .unwrap(),
            Bytes::from_static(b"y")
        );
        assert_eq!(NoAuth.principal(), "anonymous");
    }

    #[test]
    fn named_principal() {
        assert_eq!(NamedPrincipal("settop-3".into()).principal(), "settop-3");
    }
}
