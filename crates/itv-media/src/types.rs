//! Shared wire types, errors, and the port and name conventions of the
//! ITV services.

use std::fmt;

use bytes::Bytes;
use ocs_orb::{impl_rpc_fault, ObjRef, OrbError};
use ocs_sim::{Addr, NodeId};
use ocs_wire::{impl_wire_enum, impl_wire_struct};

/// Well-known service ports, identical on every server (the cluster's
/// address plan). A port an OCS service opens by itself is defined in
/// its crate and re-exported here.
pub mod ports {
    /// Name service replicas.
    pub const NS: u16 = 10;
    /// Authentication service.
    pub const AUTH: u16 = 11;
    /// Database service.
    pub const DB: u16 = 12;
    /// Resource Audit Service.
    pub use ocs_ras::RAS_PORT as RAS;
    /// Settop Manager.
    pub use ocs_ras::SETTOP_MGR_PORT as SETTOP_MGR;
    /// Cluster Service Controller.
    pub use ocs_svcctl::CSC_PORT as CSC;
    /// Server Service Controller.
    pub use ocs_svcctl::SSC_PORT as SSC;
    /// Connection Managers: neighbourhood `n`'s replicas listen at
    /// `CMGR + n`.
    pub const CMGR: u16 = 2000;
    /// Media Delivery Service.
    pub const MDS: u16 = 21;
    /// Media Management Service.
    pub const MMS: u16 = 22;
    /// Reliable Delivery Services: neighbourhood `n`'s listens at
    /// `RDS + n`.
    pub const RDS: u16 = 3000;
    /// Boot Broadcast Service.
    pub const BOOT: u16 = 24;
    /// Kernel Broadcast Service.
    pub const KBS: u16 = 25;
    /// File service.
    pub const FILE: u16 = 26;
    /// Interactive application service (shopping/games back end).
    pub const SHOP: u16 = 27;
    /// Telemetry servant (every node — servers and settops alike).
    pub const TELEMETRY: u16 = 19;
    /// Settop: media stream receive port.
    pub const SETTOP_STREAM: u16 = 98;
    /// Settop: liveness agent port.
    pub use ocs_ras::SETTOP_AGENT_PORT as SETTOP_AGENT;
}

/// Well-known names: where each singleton service, and each context of
/// per-node or per-neighbourhood services, is bound. Like [`ports`], it
/// re-exports the OCS services' own.
pub mod names {
    /// The Media Management Service primary (§5.2 bind race).
    pub const MMS: &str = "svc/mms";
    /// Replicated context of the MDS replicas, `svc/mds/<node>` each.
    pub const MDS: &str = "svc/mds";
    /// Context of the Connection Managers, `svc/cmgr/<n>` per
    /// neighbourhood.
    pub const CMGR: &str = "svc/cmgr";
    /// Replicated context of the Reliable Delivery Services,
    /// `svc/rds/<n>` per neighbourhood, resolved by neighbourhood.
    pub const RDS: &str = "svc/rds";
    /// Replicated context of the shopping back ends, `svc/shop/<node>`
    /// each, resolved round-robin.
    pub const SHOP: &str = "svc/shop";
    /// Replicated context of the authentication services,
    /// `svc/auth/<node>` each.
    pub const AUTH: &str = "svc/auth";
    /// The Kernel Broadcast Service primary.
    pub const KBS: &str = "svc/kbs";
    /// The Boot Broadcast Service.
    pub const BOOT: &str = "svc/boot";
    /// The file service's context-creation object.
    pub const FILE: &str = "svc/file";
    /// The database service.
    pub use ocs_db::DB_PATH as DB;
    /// The Settop Manager.
    pub use ocs_ras::SETTOP_MGR_PATH as SETTOP_MGR;
    /// The Cluster Service Controller group's master.
    pub use ocs_svcctl::CSC_PATH as CSC;
    /// Context of the Server Service Controllers, `svc/ssc/<node>` each.
    pub use ocs_svcctl::SSC_CTX as SSC;
}

/// Errors shared by the media-path services.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MediaError {
    /// Unknown movie or application title.
    NotFound { title: String },
    /// The service replica is at capacity (e.g. MDS stream slots).
    Busy,
    /// Admission control refused the bandwidth (Connection Manager).
    NoBandwidth,
    /// No replica can serve the request (no MDS holds the content, or
    /// the caller's neighborhood has no live replica).
    NoReplica,
    /// Unknown session/connection id.
    UnknownSession { id: u64 },
    /// A dependency (name service, CM, MDS...) failed.
    Dependency { what: String },
    /// Transport failure.
    Comm { err: OrbError },
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::NotFound { title } => write!(f, "not found: {title}"),
            MediaError::Busy => write!(f, "service at capacity"),
            MediaError::NoBandwidth => write!(f, "insufficient bandwidth"),
            MediaError::NoReplica => write!(f, "no usable replica"),
            MediaError::UnknownSession { id } => write!(f, "unknown session {id}"),
            MediaError::Dependency { what } => write!(f, "dependency failure: {what}"),
            MediaError::Comm { err } => write!(f, "communication failure: {err}"),
        }
    }
}

impl std::error::Error for MediaError {}

impl_wire_enum!(MediaError {
    0 => NotFound { title },
    1 => Busy,
    2 => NoBandwidth,
    3 => NoReplica,
    4 => UnknownSession { id },
    5 => Dependency { what },
    6 => Comm { err },
});
impl_rpc_fault!(MediaError);

/// A connection allocation as tracked by the Connection Manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnDesc {
    /// Allocation id.
    pub conn: u64,
    /// The settop endpoint of the virtual circuit.
    pub settop: NodeId,
    /// The server endpoint.
    pub server: NodeId,
    /// Reserved downstream bandwidth in bits per second.
    pub down_bps: u64,
}

impl_wire_struct!(ConnDesc {
    conn,
    settop,
    server,
    down_bps
});

/// Connection Manager utilization snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmUsage {
    /// Active allocations.
    pub allocations: u32,
    /// Total reserved downstream bits per second.
    pub reserved_down_bps: u64,
    /// Allocations refused since start (blocking count, for E10).
    pub refused: u64,
    /// Allocations reclaimed by lease expiry (owner stopped reasserting).
    pub expired: u64,
}

impl_wire_struct!(CmUsage {
    allocations,
    reserved_down_bps,
    refused,
    expired
});

/// Status of one MDS replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MdsStatus {
    /// Streams currently open.
    pub open_streams: u32,
    /// Stream-slot capacity.
    pub max_streams: u32,
}

impl_wire_struct!(MdsStatus {
    open_streams,
    max_streams
});

/// One open MDS session, for MMS state recovery (§10.1.1).
#[derive(Clone, Debug, PartialEq)]
pub struct MdsSession {
    /// The movie object's id on the MDS ORB.
    pub object_id: u64,
    /// Movie title.
    pub title: String,
    /// Delivery destination (the settop's stream port).
    pub dest: Addr,
    /// Current position in milliseconds.
    pub position_ms: u64,
    /// Whether delivery is running.
    pub playing: bool,
}

impl_wire_struct!(MdsSession {
    object_id,
    title,
    dest,
    position_ms,
    playing
});

/// What the MMS hands back from `open`: everything a settop needs to
/// play and later close a movie.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MovieTicket {
    /// MMS session id (used for `close`).
    pub session: u64,
    /// The movie-control object on the chosen MDS replica.
    pub movie: ObjRef,
    /// Connection allocation backing the stream.
    pub conn: u64,
    /// The serving MDS node.
    pub mds_node: NodeId,
}

impl_wire_struct!(MovieTicket {
    session,
    movie,
    conn,
    mds_node
});

/// A media stream segment, sent raw (outside the ORB) from the MDS to
/// the settop's stream port at the movie's constant bit rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// MDS-side movie object id (lets a settop discard stale streams).
    pub object_id: u64,
    /// Position of this segment's end, in milliseconds.
    pub position_ms: u64,
    /// Whether this is the final segment of the movie.
    pub last: bool,
    /// Payload (synthetic; sized to the bit rate).
    pub data: Bytes,
}

impl_wire_struct!(Segment {
    object_id,
    position_ms,
    last,
    data
});

/// Boot parameters handed to a settop by the Boot Broadcast Service
/// (§3.4.1): "the IP address of the name service replica to be used by
/// this settop", plus the kernel digest for the secure boot check.
#[derive(Clone, Debug, PartialEq)]
pub struct BootParams {
    /// The name-service replica this settop should use.
    pub ns_addr: Addr,
    /// The settop's neighborhood number.
    pub neighborhood: u32,
    /// SHA-256 of the kernel image the KBS will deliver.
    pub kernel_digest: Bytes,
    /// Size of the kernel image in bytes.
    pub kernel_size: u64,
}

impl_wire_struct!(BootParams {
    ns_addr,
    neighborhood,
    kernel_digest,
    kernel_size
});

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_wire::Wire;

    #[test]
    fn wire_types_round_trip() {
        let c = ConnDesc {
            conn: 1,
            settop: NodeId(100),
            server: NodeId(2),
            down_bps: 6_000_000,
        };
        assert_eq!(ConnDesc::from_bytes(&c.to_bytes()).unwrap(), c);
        let s = Segment {
            object_id: 4,
            position_ms: 1500,
            last: false,
            data: Bytes::from_static(b"payload"),
        };
        assert_eq!(Segment::from_bytes(&s.to_bytes()).unwrap(), s);
        let e = MediaError::UnknownSession { id: 7 };
        assert_eq!(MediaError::from_bytes(&e.to_bytes()).unwrap(), e);
    }
}
