//! The Boot Broadcast Service and Kernel Broadcast Service (§3.3,
//! §3.4.1): "because settops are diskless, the kernel and first
//! application are broadcast to settops using a secure protocol. This
//! broadcast also provides the settops with basic configuration
//! information, such as the IP address of the name service replica to be
//! used by this settop."
//!
//! Substitution note (DESIGN.md): the trial used a one-to-many broadcast
//! channel; this reproduction models it as pull — each settop fetches
//! its boot parameters and the kernel image at boot. The *security*
//! property is preserved: boot parameters carry the kernel's SHA-256,
//! and the settop verifies the downloaded image against it before
//! "running" it.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use ocs_auth::crypto::sha256;
use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::{Addr, NetError, NodeId, PortReq, Rt};
use parking_lot::RwLock;

use crate::content::Catalog;
use crate::types::{BootParams, MediaError};

declare_interface! {
    /// The Boot Broadcast Service interface.
    pub interface BootApi [BootApiClient, BootApiServant]: "itv.boot" {
        /// Boot parameters for a settop (name-service replica address,
        /// neighborhood, kernel digest).
        1 => fn boot_params(&self, settop: NodeId) -> Result<BootParams, MediaError>;
    }
}

declare_interface! {
    /// The Kernel Broadcast Service interface.
    pub interface KbsApi [KbsApiClient, KbsApiServant]: "itv.kbs" {
        /// The settop kernel image.
        1 => fn kernel(&self) -> Result<Bytes, MediaError>;
    }
}

/// Per-settop boot configuration (the cluster's address plan).
#[derive(Clone, Debug, PartialEq)]
pub struct SettopPlan {
    /// The name-service replica this settop should use.
    pub ns_addr: Addr,
    /// The settop's neighborhood.
    pub neighborhood: u32,
}

/// The Boot Broadcast Service: maps settops to their plans.
pub struct BootSvc {
    plans: RwLock<BTreeMap<NodeId, SettopPlan>>,
    kernel_digest: Bytes,
    kernel_size: u64,
}

impl BootSvc {
    /// Creates the service for a kernel image of `kernel_size` bytes.
    pub fn new(kernel_size: u64) -> Arc<BootSvc> {
        let image = Catalog::synthesize(kernel_size as usize);
        Arc::new(BootSvc {
            plans: RwLock::new(BTreeMap::new()),
            kernel_digest: Bytes::copy_from_slice(&sha256(&image)),
            kernel_size,
        })
    }

    /// Registers (or updates) a settop's plan.
    pub fn set_plan(&self, settop: NodeId, plan: SettopPlan) {
        self.plans.write().insert(settop, plan);
    }

    /// The kernel digest boot parameters will carry.
    pub fn kernel_digest(&self) -> Bytes {
        self.kernel_digest.clone()
    }

    /// Starts an ORB serving this instance; bind under `svc/boot`.
    pub fn serve(self: &Arc<Self>, rt: Rt, port: u16) -> Result<ObjRef, NetError> {
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        let obj = orb.export_root(Arc::new(BootApiServant(Arc::clone(self))));
        orb.start();
        Ok(obj)
    }
}

impl BootApi for BootSvc {
    fn boot_params(&self, _caller: &Caller, settop: NodeId) -> Result<BootParams, MediaError> {
        let plans = self.plans.read();
        let plan = plans.get(&settop).ok_or(MediaError::NotFound {
            title: format!("settop {settop}"),
        })?;
        Ok(BootParams {
            ns_addr: plan.ns_addr,
            neighborhood: plan.neighborhood,
            kernel_digest: self.kernel_digest.clone(),
            kernel_size: self.kernel_size,
        })
    }
}

/// The Kernel Broadcast Service: serves the kernel image.
pub struct KernelSvc {
    image: Bytes,
}

impl KernelSvc {
    /// Creates the service with a synthesized image of `size` bytes
    /// (deterministically identical to [`BootSvc`]'s digest source).
    pub fn new(size: u64) -> Arc<KernelSvc> {
        Arc::new(KernelSvc {
            image: Catalog::synthesize(size as usize),
        })
    }

    /// Starts an ORB serving this instance; bind under `svc/kbs`
    /// (primary/backup in the paper, §5.2).
    pub fn serve(self: &Arc<Self>, rt: Rt, port: u16) -> Result<ObjRef, NetError> {
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        let obj = orb.export_root(Arc::new(KbsApiServant(Arc::clone(self))));
        orb.start();
        Ok(obj)
    }
}

impl KbsApi for KernelSvc {
    fn kernel(&self, _caller: &Caller) -> Result<Bytes, MediaError> {
        Ok(self.image.clone())
    }
}

/// Verifies a downloaded kernel image against the boot parameters'
/// digest (the settop's secure-boot check).
pub fn verify_kernel(params: &BootParams, image: &[u8]) -> bool {
    image.len() as u64 == params.kernel_size && sha256(image)[..] == params.kernel_digest[..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_params_per_settop() {
        let svc = BootSvc::new(1000);
        let c = Caller::local(NodeId(1));
        assert!(svc.boot_params(&c, NodeId(100)).is_err());
        svc.set_plan(
            NodeId(100),
            SettopPlan {
                ns_addr: Addr::new(NodeId(1), 10),
                neighborhood: 2,
            },
        );
        let p = svc.boot_params(&c, NodeId(100)).unwrap();
        assert_eq!(p.neighborhood, 2);
        assert_eq!(p.kernel_size, 1000);
    }

    #[test]
    fn kernel_verifies_against_digest() {
        let boot = BootSvc::new(4096);
        let kbs = KernelSvc::new(4096);
        let c = Caller::local(NodeId(1));
        boot.set_plan(
            NodeId(100),
            SettopPlan {
                ns_addr: Addr::new(NodeId(1), 10),
                neighborhood: 1,
            },
        );
        let params = boot.boot_params(&c, NodeId(100)).unwrap();
        let image = kbs.kernel(&c).unwrap();
        assert!(verify_kernel(&params, &image));
        // A tampered image fails the check.
        let mut bad = image.to_vec();
        bad[0] ^= 1;
        assert!(!verify_kernel(&params, &bad));
        // A truncated image fails the check.
        assert!(!verify_kernel(&params, &image[..100]));
    }
}
