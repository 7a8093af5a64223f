//! End-to-end authentication tests: the full §3.3 path over the ORB —
//! login, signed calls, tampering, forgery, expiry and encryption.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_auth::{AuthApiServant, AuthClientHandle, AuthService, RealmServerAuth};
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, ClientCtx, ObjRef, Orb, OrbError};
use ocs_sim::{NodeRtExt, PortReq, Rt, Sim, SimChan, SimTime};
use ocs_wire::impl_wire_enum;

#[derive(Debug, PartialEq, Clone)]
pub enum WhoError {
    Comm { err: OrbError },
}
impl_wire_enum!(WhoError { 0 => Comm { err } });
impl_rpc_fault!(WhoError);

declare_interface! {
    pub interface Who [WhoClient, WhoServant]: "test.who" {
        1 => fn whoami(&self, echo: String) -> Result<String, WhoError>;
    }
}

struct WhoImpl;
impl Who for WhoImpl {
    fn whoami(&self, caller: &Caller, echo: String) -> Result<String, WhoError> {
        Ok(format!("{}:{}", caller.principal, echo))
    }
}

const REALM_KEY: &[u8] = b"orlando-realm-key";

/// Boots an auth service and a protected Who service; returns their refs.
fn setup(sim: &Sim) -> (Arc<ocs_sim::SimNode>, ObjRef, ObjRef, Arc<AuthService>) {
    let server = sim.add_node("server");
    let rt: Rt = server.clone();
    let auth_svc = AuthService::new(rt.clone(), Bytes::from_static(REALM_KEY));
    let auth_orb = Orb::new(rt.clone(), PortReq::Fixed(11)).unwrap();
    let auth_ref = auth_orb.export_root(Arc::new(AuthApiServant(Arc::clone(&auth_svc))));
    auth_orb.start();
    let who_orb = Orb::build(
        rt.clone(),
        PortReq::Fixed(100),
        None,
        Arc::new(RealmServerAuth::new(
            rt.clone(),
            Bytes::from_static(REALM_KEY),
        )),
    )
    .unwrap();
    let who_ref = who_orb.export_root(Arc::new(WhoServant(Arc::new(WhoImpl))));
    who_orb.start();
    (server, auth_ref, who_ref, auth_svc)
}

#[test]
fn signed_calls_carry_verified_identity() {
    let sim = Sim::new(1);
    let (server, auth_ref, who_ref, auth_svc) = setup(&sim);
    auth_svc.register_principal("settop-7", Bytes::from_static(b"key-7"));
    let out: SimChan<Result<String, WhoError>> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let login = AuthClientHandle::login(
            ClientCtx::new(rt.clone()),
            auth_ref,
            "settop-7",
            b"key-7",
            false,
        )
        .unwrap();
        let ctx = ClientCtx::new(rt.clone()).with_auth(login);
        let who = WhoClient::attach(ctx, who_ref).unwrap();
        out2.send(who.whoami("hi".into()));
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(out.try_recv().unwrap().unwrap(), "settop-7:hi");
}

#[test]
fn encrypted_calls_work_too() {
    let sim = Sim::new(2);
    let (server, auth_ref, who_ref, auth_svc) = setup(&sim);
    auth_svc.register_principal("settop-8", Bytes::from_static(b"key-8"));
    let out: SimChan<Result<String, WhoError>> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let login = AuthClientHandle::login(
            ClientCtx::new(rt.clone()),
            auth_ref,
            "settop-8",
            b"key-8",
            true, // Encrypt call bodies.
        )
        .unwrap();
        let ctx = ClientCtx::new(rt.clone()).with_auth(login);
        let who = WhoClient::attach(ctx, who_ref).unwrap();
        out2.send(who.whoami("secret".into()));
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(out.try_recv().unwrap().unwrap(), "settop-8:secret");
}

#[test]
fn wrong_key_cannot_login() {
    let sim = Sim::new(3);
    let (server, auth_ref, _who_ref, auth_svc) = setup(&sim);
    auth_svc.register_principal("settop-9", Bytes::from_static(b"right"));
    let out: SimChan<bool> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let r = AuthClientHandle::login(
            ClientCtx::new(rt.clone()),
            auth_ref,
            "settop-9",
            b"wrong",
            false,
        );
        out2.send(matches!(r, Err(ocs_auth::AuthError::BadCredentials)));
    });
    sim.run_until(SimTime::from_secs(5));
    assert!(out.try_recv().unwrap());
}

#[test]
fn unknown_principal_rejected() {
    let sim = Sim::new(4);
    let (server, auth_ref, _who_ref, _auth_svc) = setup(&sim);
    let out: SimChan<bool> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let r = AuthClientHandle::login(
            ClientCtx::new(rt.clone()),
            auth_ref,
            "ghost",
            b"whatever",
            false,
        );
        out2.send(matches!(
            r,
            Err(ocs_auth::AuthError::UnknownPrincipal { .. })
        ));
    });
    sim.run_until(SimTime::from_secs(5));
    assert!(out.try_recv().unwrap());
}

#[test]
fn unsigned_calls_to_protected_service_fail() {
    let sim = Sim::new(5);
    let (server, _auth_ref, who_ref, _auth_svc) = setup(&sim);
    let out: SimChan<Result<String, WhoError>> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        // No login: plain NoAuth client context against a protected
        // service must be rejected.
        let ctx = ClientCtx::new(rt.clone());
        let who = WhoClient::attach(ctx, who_ref).unwrap();
        out2.send(who.whoami("sneak".into()));
    });
    sim.run_until(SimTime::from_secs(5));
    match out.try_recv().unwrap().unwrap_err() {
        WhoError::Comm {
            err: OrbError::AuthFailed,
        } => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }
}

#[test]
fn stolen_ticket_with_wrong_principal_fails() {
    // A client logs in as alice but claims to be bob on the wire: the
    // ticket's principal must win (the claim is rejected).
    let sim = Sim::new(6);
    let (server, auth_ref, who_ref, auth_svc) = setup(&sim);
    auth_svc.register_principal("alice", Bytes::from_static(b"ka"));
    let out: SimChan<Result<String, WhoError>> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let login =
            AuthClientHandle::login(ClientCtx::new(rt.clone()), auth_ref, "alice", b"ka", false)
                .unwrap();
        // Impersonation wrapper: same sealing, different claimed name.
        struct Impersonator(Arc<ocs_auth::TicketClientAuth>);
        impl ocs_orb::ClientAuth for Impersonator {
            fn principal(&self) -> &str {
                "bob"
            }
            fn seal(&self, body: bytes::Bytes) -> (bytes::Bytes, bytes::Bytes) {
                self.0.seal(body)
            }
            fn unseal_reply(&self, body: bytes::Bytes) -> Option<bytes::Bytes> {
                // Skip reply verification; we only care about the status.
                Some(body)
            }
        }
        let ctx = ClientCtx::new(rt.clone()).with_auth(Arc::new(Impersonator(login)));
        let who = WhoClient::attach(ctx, who_ref).unwrap();
        out2.send(who.whoami("i am bob".into()));
    });
    sim.run_until(SimTime::from_secs(5));
    match out.try_recv().unwrap().unwrap_err() {
        WhoError::Comm {
            err: OrbError::AuthFailed,
        } => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }
}

#[test]
fn expired_ticket_rejected() {
    let sim = Sim::new(7);
    let (server, auth_ref, who_ref, auth_svc) = setup(&sim);
    auth_svc.register_principal("settop-1", Bytes::from_static(b"k1"));
    let out: SimChan<Result<String, WhoError>> = SimChan::new(&sim);
    let out2 = out.clone();
    let rt: Rt = server.clone();
    server.spawn_fn("client", move || {
        let login = AuthClientHandle::login(
            ClientCtx::new(rt.clone()),
            auth_ref,
            "settop-1",
            b"k1",
            false,
        )
        .unwrap();
        // Sleep past the ticket lifetime (8 h) in virtual time.
        rt.sleep(ocs_auth::TICKET_LIFETIME + Duration::from_secs(60));
        let ctx = ClientCtx::new(rt.clone()).with_auth(login);
        let who = WhoClient::attach(ctx, who_ref).unwrap();
        out2.send(who.whoami("late".into()));
    });
    sim.run_until(SimTime::from_secs(9 * 3600));
    match out.try_recv().unwrap().unwrap_err() {
        WhoError::Comm {
            err: OrbError::AuthFailed,
        } => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }
}
