//! The interactive application back end: the server half of home
//! shopping and multiplayer games (§3: "applications are themselves
//! distributed, with a portion to control the user interface running on
//! the settop and a portion to provide access to data and other services
//! running on a server machine").
//!
//! One generic request/reply service covers both workload shapes; the
//! settop apps differ only in interaction rate and payload. Modelled
//! per-interaction service time makes per-server capacity finite, which
//! the linear-scaling experiment (E4) measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::{NetError, PortReq, Rt, Semaphore};

use crate::types::MediaError;

declare_interface! {
    /// Interactive application service (shopping catalog browsing, game
    /// moves, etc.).
    pub interface ShopApi [ShopApiClient, ShopApiServant]: "itv.shop" {
        /// One user interaction: returns the next screen/state.
        1 => fn interact(&self, session: u64, input: String) -> Result<String, MediaError>;
        /// The product/app catalog.
        2 => fn catalog(&self) -> Result<Vec<String>, MediaError>;
    }
}

/// The interactive application service.
pub struct ShopSvc {
    rt: Rt,
    products: Vec<String>,
    /// Modelled CPU per interaction, serialized per replica.
    service_time: Duration,
    cpu: Semaphore,
    interactions: AtomicU64,
}

impl ShopSvc {
    /// Creates the service with a per-interaction service time.
    pub fn new(rt: Rt, service_time: Duration) -> Arc<ShopSvc> {
        Arc::new(ShopSvc {
            cpu: Semaphore::new(&rt, 1),
            rt,
            products: vec![
                "sweater".to_string(),
                "sneakers".to_string(),
                "pizza".to_string(),
            ],
            service_time,
            interactions: AtomicU64::new(0),
        })
    }

    /// Interactions served (throughput metric for E4).
    pub fn served(&self) -> u64 {
        self.interactions.load(Ordering::Relaxed)
    }

    /// Starts an ORB serving this instance on `port`.
    pub fn serve(self: &Arc<Self>, rt: Rt, port: u16) -> Result<ObjRef, NetError> {
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        let obj = orb.export_root(Arc::new(ShopApiServant(Arc::clone(self))));
        orb.start();
        Ok(obj)
    }
}

impl ShopApi for ShopSvc {
    fn interact(&self, caller: &Caller, session: u64, input: String) -> Result<String, MediaError> {
        if self.service_time > Duration::ZERO {
            self.cpu.acquire();
            self.rt.busy(self.service_time);
            self.cpu.release();
        }
        self.interactions.fetch_add(1, Ordering::Relaxed);
        // A tiny deterministic "screen" state machine.
        let products = &self.products;
        let screen = match input.as_str() {
            "home" => "menu:browse,search,cart".to_string(),
            "browse" => format!("list:{}", products.join(",")),
            other => {
                if let Some(p) = products.iter().find(|p| *p == other) {
                    format!("detail:{p}:$19.99")
                } else {
                    format!("echo:{other}")
                }
            }
        };
        Ok(format!("{}#{}@{}", screen, session, caller.principal))
    }

    fn catalog(&self, _caller: &Caller) -> Result<Vec<String>, MediaError> {
        Ok(self.products.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_sim::{NodeRtExt, Sim, SimChan, SimTime};

    #[test]
    fn interactions_follow_the_screen_machine() {
        let sim = Sim::new(1);
        let node = sim.add_node("server");
        let rt: Rt = node.clone();
        let shop = ShopSvc::new(rt.clone(), Duration::from_millis(2));
        let out: SimChan<String> = SimChan::new(&sim);
        let out2 = out.clone();
        let shop2 = Arc::clone(&shop);
        node.spawn_fn("user", move || {
            let c = Caller::local(ocs_sim::NodeId(7));
            out2.send(shop2.interact(&c, 1, "home".into()).unwrap());
            out2.send(shop2.interact(&c, 1, "browse".into()).unwrap());
            out2.send(shop2.interact(&c, 1, "pizza".into()).unwrap());
        });
        sim.run_until(SimTime::from_secs(2));
        assert!(out.try_recv().unwrap().starts_with("menu:"));
        assert!(out.try_recv().unwrap().starts_with("list:sweater"));
        assert!(out.try_recv().unwrap().starts_with("detail:pizza"));
        assert_eq!(shop.served(), 3);
    }
}
