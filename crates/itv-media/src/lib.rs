//! The ITV services of the Orlando trial (paper §3.3), built on OCS:
//!
//! * [`ConnectionManager`] — modelled-ATM bandwidth admission (per-settop
//!   6 Mbit/s downstream, per-server egress), per-neighborhood replicas
//!   with primary/backup (§5.2), state re-learned from MMS reassertion;
//! * [`Mds`] — the Media Delivery Service: per-server replicas streaming
//!   constant-bit-rate segments, one dynamic movie object per open;
//! * [`Mms`] — the Media Management Service: replica choice by content
//!   location and load, connection allocation, RAS-driven reclamation of
//!   crashed settops' movies (§3.5.1), and §10.1.1 state recovery by
//!   querying MDS replicas;
//! * [`Rds`] — the Reliable Delivery Service: per-neighborhood download
//!   of binaries/fonts/images;
//! * [`BootSvc`]/[`KernelSvc`] — boot parameters and the kernel image,
//!   with the secure-boot digest check;
//! * [`FileSvc`] — the file service, exporting `FileSystemContext`
//!   objects into the cluster name space (the §4.3 remote-context path);
//! * [`ShopSvc`] — the interactive application back end (home shopping /
//!   games).

mod broadcast;
mod cmgr;
mod cmrep;
mod cmtable;
mod content;
mod fs;
mod mds;
mod mms;
mod rds;
mod shop;
mod types;

pub use broadcast::{
    verify_kernel, BootApi, BootApiClient, BootApiServant, BootSvc, KbsApi, KbsApiClient,
    KbsApiServant, KernelSvc, SettopPlan,
};
pub use cmgr::{CmAccountRow, CmApi, CmApiClient, CmApiServant, CmBudgets, ConnectionManager};
pub use cmrep::{CmReplica, CmReplicaConfig};
pub use cmtable::{CmAccount, CmSnapshot, CmTable, CmUpdate};
pub use content::{Catalog, DownloadInfo, MovieInfo};
pub use fs::{
    FileApi, FileApiClient, FileApiServant, FileSvc, FileSvcApi, FileSvcClient, FileSvcServant,
};
pub use mds::{
    Mds, MdsApi, MdsApiClient, MdsApiServant, MovieCtl, MovieCtlClient, MovieCtlServant,
};
pub use mms::{Mms, MmsApi, MmsApiClient, MmsApiServant, MmsConfig};
pub use rds::{Rds, RdsApi, RdsApiClient, RdsApiServant};
pub use shop::{ShopApi, ShopApiClient, ShopApiServant, ShopSvc};
pub use types::{
    names, ports, BootParams, CmUsage, ConnDesc, MdsSession, MdsStatus, MediaError, MovieTicket,
    Segment,
};
