//! The authentication service proper: principal registry and ticket
//! granting, exported as an OCS object like every other service.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, ClientCtx, ObjRef, OrbError};
use ocs_sim::{Rt, SimTime};
use ocs_wire::{impl_wire_enum, impl_wire_struct};
use parking_lot::Mutex;

use crate::crypto::{digest_eq, hmac_sha256, keystream_xor};
use crate::tickets::{fresh_session_key, seal_ticket, Ticket, TicketClientAuth, TICKET_LIFETIME};

/// Errors from the authentication service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// The principal is not registered.
    UnknownPrincipal { principal: String },
    /// The authenticator did not verify (wrong key).
    BadCredentials,
    /// Transport failure.
    Comm { err: OrbError },
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownPrincipal { principal } => {
                write!(f, "unknown principal: {principal}")
            }
            AuthError::BadCredentials => write!(f, "bad credentials"),
            AuthError::Comm { err } => write!(f, "communication failure: {err}"),
        }
    }
}

impl std::error::Error for AuthError {}

impl_wire_enum!(AuthError {
    0 => UnknownPrincipal { principal },
    1 => BadCredentials,
    2 => Comm { err },
});
impl_rpc_fault!(AuthError);

/// The ticket grant returned by a successful login.
#[derive(Clone, Debug, PartialEq)]
pub struct TicketGrant {
    /// The ticket, sealed under the realm key (opaque to the client).
    pub sealed_ticket: Bytes,
    /// The session key, sealed under the client's own key.
    pub sealed_session_key: Bytes,
    /// Nonce used to seal the session key.
    pub nonce: u64,
    /// Expiry of the ticket.
    pub expires: SimTime,
}

impl_wire_struct!(TicketGrant {
    sealed_ticket,
    sealed_session_key,
    nonce,
    expires
});

declare_interface! {
    /// The authentication service interface: Kerberos-like ticket grant.
    pub interface AuthApi [AuthApiClient, AuthApiServant]: "ocs.auth" {
        /// Obtain a ticket. `authenticator` must be
        /// `HMAC(principal_key, principal || nonce_le)`.
        1 => fn get_ticket(&self, principal: String, nonce: u64, authenticator: Bytes) -> Result<TicketGrant, AuthError>;
    }
}

/// The authentication service implementation.
pub struct AuthService {
    rt: Rt,
    realm_key: Bytes,
    principals: Mutex<HashMap<String, Bytes>>,
}

impl AuthService {
    /// Creates the service with the realm key servers share.
    pub fn new(rt: Rt, realm_key: Bytes) -> Arc<AuthService> {
        Arc::new(AuthService {
            rt,
            realm_key,
            principals: Mutex::new(HashMap::new()),
        })
    }

    /// Registers (or replaces) a principal's secret key.
    pub fn register_principal(&self, principal: &str, key: Bytes) {
        self.principals.lock().insert(principal.to_string(), key);
    }
}

impl AuthApi for AuthService {
    fn get_ticket(
        &self,
        _caller: &Caller,
        principal: String,
        nonce: u64,
        authenticator: Bytes,
    ) -> Result<TicketGrant, AuthError> {
        let key = self
            .principals
            .lock()
            .get(&principal)
            .cloned()
            .ok_or_else(|| AuthError::UnknownPrincipal {
                principal: principal.clone(),
            })?;
        let mut msg = principal.as_bytes().to_vec();
        msg.extend_from_slice(&nonce.to_le_bytes());
        if !digest_eq(&hmac_sha256(&key, &msg), &authenticator) {
            return Err(AuthError::BadCredentials);
        }
        let session_key = fresh_session_key(&self.rt);
        let expires = self.rt.now() + TICKET_LIFETIME;
        let ticket = Ticket {
            principal,
            session_key: session_key.clone(),
            expires,
        };
        let ticket_nonce = self.rt.rand_u64();
        let sealed_ticket = seal_ticket(&self.realm_key, &ticket, ticket_nonce);
        let mut sealed_key = session_key.to_vec();
        keystream_xor(&key, nonce, &mut sealed_key);
        Ok(TicketGrant {
            sealed_ticket,
            sealed_session_key: Bytes::from(sealed_key),
            nonce,
            expires,
        })
    }
}

/// Client-side login helper.
pub struct AuthClientHandle;

impl AuthClientHandle {
    /// Logs `principal` in against the auth service at `auth_ref`,
    /// returning a call-sealing hook for the ORB.
    pub fn login(
        ctx: ClientCtx,
        auth_ref: ObjRef,
        principal: &str,
        key: &[u8],
        encrypt: bool,
    ) -> Result<Arc<TicketClientAuth>, AuthError> {
        let rt = ctx.rt().clone();
        let client = AuthApiClient::attach(ctx, auth_ref).map_err(|err| AuthError::Comm { err })?;
        let nonce = rt.rand_u64();
        let mut msg = principal.as_bytes().to_vec();
        msg.extend_from_slice(&nonce.to_le_bytes());
        let authenticator = Bytes::copy_from_slice(&hmac_sha256(key, &msg));
        let grant = client.get_ticket(principal.to_string(), nonce, authenticator)?;
        let mut session_key = grant.sealed_session_key.to_vec();
        keystream_xor(key, grant.nonce, &mut session_key);
        Ok(Arc::new(TicketClientAuth::new(
            rt,
            principal.to_string(),
            grant.sealed_ticket,
            Bytes::from(session_key),
            encrypt,
        )))
    }
}
