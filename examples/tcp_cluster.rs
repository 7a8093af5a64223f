//! The same OCS code on the REAL runtime: OS threads and TCP over
//! loopback instead of the simulation. Starts a name-service replica
//! group, an authentication service and an echo-style shop service,
//! then drives authenticated calls and a §8.2 rebind through a service
//! restart — all over real sockets.
//!
//! ```sh
//! cargo run --example tcp_cluster
//! ```

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use itv_system::auth::{AuthApiServant, AuthClientHandle, AuthService, RealmServerAuth};
use itv_system::cluster::RealCluster;
use itv_system::media::{ports, ShopApiClient, ShopApiServant, ShopSvc};
use itv_system::name::{NsHandle, RebindPolicy, Rebinding};
use itv_system::orb::{ClientCtx, Orb};
use itv_system::sim::{PortReq, Rt};

const REALM_KEY: &[u8] = b"orlando-realm-key";

fn main() {
    // Three "servers" and a settop (all threads in this process, talking
    // over TCP); the servers run a 3-replica name service, settled, with
    // `svc` bound.
    println!("starting a 3-replica name service over TCP...");
    let cluster = RealCluster::launch(3, 1);
    println!(
        "election settled: {} master ({} replicas)",
        cluster.ns_group.masters().len(),
        cluster.ns_group.peers().len()
    );

    // Authentication service on server 0.
    let rt0: Rt = cluster.servers[0].clone();
    let auth_svc = AuthService::new(rt0.clone(), Bytes::from_static(REALM_KEY));
    auth_svc.register_principal("settop-1", Bytes::from_static(b"k1"));
    let auth_orb = Orb::new(rt0.clone(), PortReq::Fixed(ports::AUTH)).expect("auth orb");
    let auth_ref = auth_orb.export_root(Arc::new(AuthApiServant(Arc::clone(&auth_svc))));
    auth_orb.start();

    // A protected shop service on server 1.
    let rt1: Rt = cluster.servers[1].clone();
    let shop = ShopSvc::new(rt1.clone(), Duration::ZERO);
    let shop_orb = Orb::build(
        rt1.clone(),
        PortReq::Fixed(ports::SHOP),
        None,
        Arc::new(RealmServerAuth::new(
            rt1.clone(),
            Bytes::from_static(REALM_KEY),
        )),
    )
    .expect("shop orb");
    let shop_ref = shop_orb.export_root(Arc::new(ShopApiServant(Arc::clone(&shop))));
    shop_orb.start();

    // Bind both into the name space.
    let ns = cluster.ns(0);
    ns.bind("svc/auth", auth_ref).expect("bind auth");
    ns.bind("svc/shop", shop_ref).expect("bind shop");
    println!("services bound: svc/auth, svc/shop");

    // A "settop" on its own node logs in and makes signed calls.
    let srt: Rt = cluster.settops[0].clone();
    let any_replica = cluster.ns_group.peers()[2];
    let settop_ns = NsHandle::new(ClientCtx::new(srt.clone()), any_replica);
    let auth_found = settop_ns.resolve("svc/auth").expect("resolve auth");
    let login = AuthClientHandle::login(
        ClientCtx::new(srt.clone()),
        auth_found,
        "settop-1",
        b"k1",
        false,
    )
    .expect("login");
    println!("settop-1 logged in (ticket obtained over TCP)");

    let signed_ctx = ClientCtx::new(srt.clone()).with_auth(login);
    let shop_found = settop_ns.resolve("svc/shop").expect("resolve shop");
    let client = ShopApiClient::attach(signed_ctx.clone(), shop_found).expect("attach");
    let screen = client
        .interact(1, "browse".to_string())
        .expect("signed call");
    println!("signed call answered: {screen}");

    // §8.2 over TCP: kill the shop's ORB, restart it fresh (new
    // incarnation), rebind the name, and watch a Rebinding proxy recover.
    println!("restarting the shop service (new incarnation)...");
    shop_orb.shutdown();
    std::thread::sleep(Duration::from_millis(200));
    let shop_orb2 = Orb::build(
        rt1.clone(),
        PortReq::Fixed(ports::SHOP),
        None,
        Arc::new(RealmServerAuth::new(
            rt1.clone(),
            Bytes::from_static(REALM_KEY),
        )),
    )
    .expect("shop orb 2");
    let shop_ref2 = shop_orb2.export_root(Arc::new(ShopApiServant(Arc::clone(&shop))));
    shop_orb2.start();
    ns.unbind("svc/shop").expect("unbind");
    ns.bind("svc/shop", shop_ref2).expect("rebind");

    // Naming traffic stays unsigned; the shop calls carry the ticket.
    let rebinding: Rebinding<ShopApiClient> = Rebinding::new(
        NsHandle::new(ClientCtx::new(srt.clone()), any_replica),
        "svc/shop",
        RebindPolicy {
            retry_interval: Duration::from_millis(200),
            backoff_cap: Duration::from_millis(200),
            give_up_after: Duration::from_secs(10),
            jitter: false,
        },
    )
    .with_service_ctx(signed_ctx.clone());
    // Seed the cache with the OLD (now dead) reference path by resolving
    // through the rebinding proxy after the restart: the first call may
    // hit the stale route and transparently recover.
    let screen = rebinding
        .call(|c| c.interact(2, "pizza".to_string()))
        .expect("rebind call");
    println!("after restart, rebind proxy answered: {screen}");
    println!("tcp_cluster example complete.");
    std::process::exit(0); // Router threads are detached; exit hard.
}
