//! The Reliable Delivery Service (§3.3): "downloads to the settop such
//! data as fonts, images, and binaries, using a variable bit rate
//! connection."
//!
//! Replicated per neighborhood (§5.1: replicas bind under their
//! neighborhood number in a replicated context with the neighborhood
//! selector). The download travels as the RPC reply; the simulated
//! settop downlink's bandwidth turns size into transfer time, which is
//! what the §9.3 response-time experiment measures.

use std::sync::Arc;

use bytes::Bytes;
use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::{NetError, PortReq, Rt};

use crate::content::Catalog;
use crate::types::MediaError;

declare_interface! {
    /// The Reliable Delivery Service interface.
    pub interface RdsApi [RdsApiClient, RdsApiServant]: "itv.rds" {
        /// Download a named object (application binary, font, image).
        /// §3.4.2: "openData returns the application executable."
        1 => fn open_data(&self, name: String) -> Result<Bytes, MediaError>;
        /// Names available for download.
        2 => fn list(&self) -> Result<Vec<String>, MediaError>;
    }
}

/// The Reliable Delivery Service.
pub struct Rds {
    catalog: Catalog,
}

impl Rds {
    /// Creates the service over the content catalog.
    pub fn new(catalog: Catalog) -> Arc<Rds> {
        Arc::new(Rds { catalog })
    }

    /// Starts an ORB serving this instance on `port`; returns the
    /// reference to bind under `svc/rds/<nbhd>`.
    pub fn serve(self: &Arc<Self>, rt: Rt, port: u16) -> Result<ObjRef, NetError> {
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        let obj = orb.export_root(Arc::new(RdsApiServant(Arc::clone(self))));
        orb.start();
        Ok(obj)
    }
}

impl RdsApi for Rds {
    fn open_data(&self, _caller: &Caller, name: String) -> Result<Bytes, MediaError> {
        let info = self
            .catalog
            .download(&name)
            .ok_or(MediaError::NotFound { title: name })?;
        Ok(Catalog::synthesize(info.size as usize))
    }

    fn list(&self, _caller: &Caller) -> Result<Vec<String>, MediaError> {
        Ok(self.catalog.download_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::DownloadInfo;
    use ocs_sim::NodeId;

    #[test]
    fn open_data_returns_sized_payload() {
        let catalog = Catalog::new();
        catalog.add_download(DownloadInfo {
            name: "vod".into(),
            size: 1234,
        });
        let rds = Rds::new(catalog);
        let c = Caller::local(NodeId(1));
        assert_eq!(rds.open_data(&c, "vod".into()).unwrap().len(), 1234);
        assert!(matches!(
            rds.open_data(&c, "nope".into()).unwrap_err(),
            MediaError::NotFound { .. }
        ));
        assert_eq!(rds.list(&c).unwrap(), vec!["vod".to_string()]);
    }
}
