//! Kerberos-like tickets and the per-call sealing hooks (§3.3).
//!
//! Flow, simplified to a single realm as the Orlando deployment was one
//! administrative domain:
//!
//! 1. Every principal (settop, service, operator) shares a secret key
//!    with the authentication service.
//! 2. A client logs in: it proves knowledge of its key with an HMAC
//!    authenticator and receives a *ticket* — `{principal, session key,
//!    expiry}` sealed under the **realm key** shared by the servers —
//!    plus the session key sealed under its own key.
//! 3. Every call carries the ticket and an HMAC of the body under the
//!    session key ("calls are signed by default"); the body may also be
//!    encrypted ("optionally encrypted"). Servers unseal the ticket with
//!    the realm key, verify the HMAC, and surface the proven principal
//!    to the servant as the caller identity.
//! 4. Replies are signed (and encrypted, if the call was) under the same
//!    session key, so "a client knows that any replies it receives come
//!    from the intended recipient".

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use ocs_orb::{ClientAuth, ServerAuth};
use ocs_sim::{Rt, SimTime};
use ocs_wire::{impl_wire_struct, Wire};
use parking_lot::Mutex;

use crate::crypto::{digest_eq, hmac_sha256, keystream_xor};

/// The plaintext contents of a ticket.
#[derive(Clone, Debug, PartialEq)]
pub struct Ticket {
    /// The authenticated principal.
    pub principal: String,
    /// Session key for call signing/encryption.
    pub session_key: Bytes,
    /// Expiry instant (runtime time).
    pub expires: SimTime,
}

impl_wire_struct!(Ticket {
    principal,
    session_key,
    expires
});

/// A ticket sealed under the realm key: `nonce || keystream ciphertext`.
pub fn seal_ticket(realm_key: &[u8], ticket: &Ticket, nonce: u64) -> Bytes {
    let mut body = ticket.to_bytes().to_vec();
    keystream_xor(realm_key, nonce, &mut body);
    let mut out = nonce.to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    Bytes::from(out)
}

/// Unseals a ticket. Returns `None` on malformed input (wrong realm key
/// produces garbage that fails to decode).
pub fn unseal_ticket(realm_key: &[u8], sealed: &[u8]) -> Option<Ticket> {
    if sealed.len() < 8 {
        return None;
    }
    let nonce = u64::from_le_bytes(sealed[..8].try_into().ok()?);
    let mut body = sealed[8..].to_vec();
    keystream_xor(realm_key, nonce, &mut body);
    Ticket::from_bytes(&body).ok()
}

/// The per-call auth blob carried in request headers.
#[derive(Clone, Debug, PartialEq)]
struct CallBlob {
    sealed_ticket: Bytes,
    body_mac: Bytes,
    encrypted: bool,
    nonce: u64,
}

impl_wire_struct!(CallBlob {
    sealed_ticket,
    body_mac,
    encrypted,
    nonce
});

/// Client-side sealing with a ticket (implements the ORB's
/// [`ClientAuth`] hook). Created by
/// [`AuthClient::login`](crate::service::AuthClientHandle::login).
pub struct TicketClientAuth {
    rt: Rt,
    principal: String,
    sealed_ticket: Bytes,
    session_key: Bytes,
    /// Encrypt call bodies as well as signing them (§3.3: off by
    /// default, avoiding "the overhead of encryption").
    pub encrypt: bool,
    nonce: Mutex<u64>,
}

impl TicketClientAuth {
    /// Creates a sealing hook from login results.
    pub fn new(
        rt: Rt,
        principal: String,
        sealed_ticket: Bytes,
        session_key: Bytes,
        encrypt: bool,
    ) -> TicketClientAuth {
        TicketClientAuth {
            nonce: Mutex::new(rt.rand_u64()),
            rt,
            principal,
            sealed_ticket,
            session_key,
            encrypt,
        }
    }
}

impl ClientAuth for TicketClientAuth {
    fn principal(&self) -> &str {
        &self.principal
    }

    fn seal(&self, body: Bytes) -> (Bytes, Bytes) {
        let session_key = &self.session_key;
        let nonce = {
            let mut n = self.nonce.lock();
            *n = n.wrapping_add(1);
            *n
        };
        let _ = &self.rt;
        let body = if self.encrypt {
            let mut b = body.to_vec();
            keystream_xor(session_key, nonce, &mut b);
            Bytes::from(b)
        } else {
            body
        };
        let mac = hmac_sha256(session_key, &body);
        let blob = CallBlob {
            sealed_ticket: self.sealed_ticket.clone(),
            body_mac: Bytes::copy_from_slice(&mac),
            encrypted: self.encrypt,
            nonce,
        };
        (body, blob.to_bytes())
    }

    fn unseal_reply(&self, body: Bytes) -> Option<Bytes> {
        // Reply format: payload || 32-byte HMAC under the session key.
        if body.len() < 32 {
            return None;
        }
        let (payload, mac) = body.split_at(body.len() - 32);
        if !digest_eq(&hmac_sha256(&self.session_key, payload), mac) {
            return None;
        }
        Some(Bytes::copy_from_slice(payload))
    }
}

/// Server-side verification with the realm key (implements the ORB's
/// [`ServerAuth`] hook).
pub struct RealmServerAuth {
    rt: Rt,
    realm_key: Bytes,
    /// Session keys of recently verified principals, for reply signing.
    sessions: Mutex<HashMap<String, Bytes>>,
}

impl RealmServerAuth {
    /// Creates the verification hook for a service holding the realm key.
    pub fn new(rt: Rt, realm_key: Bytes) -> RealmServerAuth {
        RealmServerAuth {
            rt,
            realm_key,
            sessions: Mutex::new(HashMap::new()),
        }
    }
}

impl ServerAuth for RealmServerAuth {
    fn unseal(&self, principal: &str, auth: &[u8], body: Bytes) -> Option<Bytes> {
        let blob = CallBlob::from_bytes(auth).ok()?;
        let ticket = unseal_ticket(&self.realm_key, &blob.sealed_ticket)?;
        if ticket.principal != principal {
            return None; // Claimed identity does not match the ticket.
        }
        if self.rt.now() > ticket.expires {
            return None; // Expired ticket.
        }
        if !digest_eq(&hmac_sha256(&ticket.session_key, &body), &blob.body_mac) {
            return None; // Body was tampered with (or wrong key).
        }
        let body = if blob.encrypted {
            let mut b = body.to_vec();
            keystream_xor(&ticket.session_key, blob.nonce, &mut b);
            Bytes::from(b)
        } else {
            body
        };
        self.sessions
            .lock()
            .insert(principal.to_string(), ticket.session_key.clone());
        Some(body)
    }

    fn seal_reply(&self, principal: &str, body: Bytes) -> Bytes {
        let Some(key) = self.sessions.lock().get(principal).cloned() else {
            return body;
        };
        let mac = hmac_sha256(&key, &body);
        let mut out = body.to_vec();
        out.extend_from_slice(&mac);
        Bytes::from(out)
    }
}

/// Derives a session key from the auth service's RNG state.
pub fn fresh_session_key(rt: &Rt) -> Bytes {
    let mut key = Vec::with_capacity(32);
    for _ in 0..4 {
        key.extend_from_slice(&rt.rand_u64().to_le_bytes());
    }
    Bytes::from(key)
}

/// Default ticket lifetime.
pub const TICKET_LIFETIME: Duration = Duration::from_secs(8 * 3600);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_seal_round_trips() {
        let t = Ticket {
            principal: "settop-9".into(),
            session_key: Bytes::from_static(b"0123456789abcdef"),
            expires: SimTime::from_secs(3600),
        };
        let sealed = seal_ticket(b"realm", &t, 42);
        assert_eq!(unseal_ticket(b"realm", &sealed).unwrap(), t);
        // Wrong realm key: garbage that fails to decode (or mismatches).
        match unseal_ticket(b"wrong", &sealed) {
            None => {}
            Some(t2) => assert_ne!(t2, t),
        }
    }

    #[test]
    fn short_sealed_ticket_rejected() {
        assert!(unseal_ticket(b"realm", &[1, 2, 3]).is_none());
    }
}
