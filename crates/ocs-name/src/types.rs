//! Wire types of the naming system: errors, bindings, selector
//! specifications and the replication update log.

use std::collections::BTreeMap;
use std::fmt;

use ocs_orb::{impl_rpc_fault, ObjRef, OrbError};
use ocs_sim::NodeId;
use ocs_wire::{impl_wire_enum, impl_wire_struct};

/// A primary's `(view, commit)`, sent with its answer to a read a stale
/// backup forwarded to it, so the backup catches up at once instead of
/// at the next heartbeat; `None` from a replica that is not the primary.
pub type CommitPoint = Option<(u64, u64)>;

/// Errors raised by naming operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NsError {
    /// No binding with the given name (or a missing path component).
    NotFound { name: String },
    /// `bind` on a name that is already bound. This is the primitive the
    /// §5.2 primary/backup scheme builds on: backups retry `bind` and
    /// keep failing with this error while the primary's binding exists.
    AlreadyBound { name: String },
    /// A path component resolved to a non-context object.
    NotAContext { name: String },
    /// The name is syntactically invalid (empty, or empty component).
    BadName { name: String },
    /// No elected master (or the master lost its majority): updates are
    /// unavailable, though reads still work at any live replica (§4.6).
    NoMaster,
    /// A replicated context has no selector or the selector failed to
    /// choose (e.g. no replica matches the caller's neighborhood).
    NoReplicaAvailable { name: String },
    /// The operation is only valid on a replicated context.
    NotReplicated { name: String },
    /// Transport-level failure.
    Comm { err: OrbError },
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::NotFound { name } => write!(f, "name not found: {name}"),
            NsError::AlreadyBound { name } => write!(f, "name already bound: {name}"),
            NsError::NotAContext { name } => write!(f, "not a context: {name}"),
            NsError::BadName { name } => write!(f, "bad name: {name:?}"),
            NsError::NoMaster => write!(f, "no name-service master elected"),
            NsError::NoReplicaAvailable { name } => {
                write!(f, "no replica available under: {name}")
            }
            NsError::NotReplicated { name } => write!(f, "not a replicated context: {name}"),
            NsError::Comm { err } => write!(f, "communication failure: {err}"),
        }
    }
}

impl std::error::Error for NsError {}

impl_wire_enum!(NsError {
    0 => NotFound { name },
    1 => AlreadyBound { name },
    2 => NotAContext { name },
    3 => BadName { name },
    4 => NoMaster,
    5 => NoReplicaAvailable { name },
    6 => NotReplicated { name },
    7 => Comm { err },
});
impl_rpc_fault!(NsError);

/// One name → object binding, as returned by `list`.
#[derive(Clone, Debug, PartialEq)]
pub struct Binding {
    /// The name within its context.
    pub name: String,
    /// The bound object.
    pub obj: ObjRef,
    /// Load hint for dynamic selectors (0 when unreported). The paper
    /// left dynamic load-balancing selectors as future work (§11); this
    /// field is the hook our `LeastLoaded` selector uses.
    pub load: u32,
}

impl_wire_struct!(Binding { name, obj, load });

/// The selection policy of a replicated context (§4.5).
///
/// The paper's deployed system used two *static* selectors (per-
/// neighborhood and per-server, §5.1); `RoundRobin` and `LeastLoaded`
/// implement the "more powerful selectors" the conclusion anticipates,
/// and `Remote` supports arbitrarily complex selector objects exported by
/// other services.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectorSpec {
    /// Always the first binding in name order.
    First,
    /// Rotate through bindings (per-replica counter; not globally fair).
    RoundRobin,
    /// Choose the binding whose name equals the caller's neighborhood
    /// number, per the supplied settop-node → neighborhood map.
    Neighborhood { map: BTreeMap<NodeId, u32> },
    /// Choose the binding whose object lives on the caller's own node.
    SameServer,
    /// Choose the binding with the smallest reported load.
    LeastLoaded,
    /// Delegate to a remote selector object implementing the
    /// `ocs.selector` interface.
    Remote { selector: ObjRef },
}

impl_wire_enum!(SelectorSpec {
    0 => First,
    1 => RoundRobin,
    2 => Neighborhood { map },
    3 => SameServer,
    4 => LeastLoaded,
    5 => Remote { selector },
});

/// A replicated state-machine update, identified by absolute path.
///
/// Updates are serialized through the master and applied in sequence
/// order at every replica (§4.6), so context ids assigned during replay
/// agree across replicas.
#[derive(Clone, Debug, PartialEq)]
pub enum NsUpdate {
    /// Bind an object under an absolute path.
    Bind { path: String, obj: ObjRef },
    /// Remove the binding at an absolute path.
    Unbind { path: String },
    /// Create and bind an ordinary context.
    NewContext { path: String },
    /// Create and bind a replicated context with the given selector.
    NewReplContext {
        path: String,
        selector: SelectorSpec,
    },
    /// Update the load hint on a binding (dynamic-selector support).
    ReportLoad { path: String, load: u32 },
}

impl_wire_enum!(NsUpdate {
    0 => Bind { path, obj },
    1 => Unbind { path },
    2 => NewContext { path },
    3 => NewReplContext { path, selector },
    4 => ReportLoad { path, load },
});

/// Splits a slash-separated path into components, validating syntax.
pub fn split_path(path: &str) -> Result<Vec<&str>, NsError> {
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    if trimmed.is_empty() {
        return Err(NsError::BadName {
            name: path.to_string(),
        });
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(NsError::BadName {
            name: path.to_string(),
        });
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_sim::Addr;
    use ocs_wire::Wire;

    fn obj() -> ObjRef {
        ObjRef {
            addr: Addr::new(NodeId(1), 10),
            incarnation: 5,
            type_id: 77,
            object_id: 0,
        }
    }

    #[test]
    fn error_round_trips() {
        for e in [
            NsError::NotFound { name: "x".into() },
            NsError::NoMaster,
            NsError::Comm {
                err: OrbError::Timeout,
            },
        ] {
            assert_eq!(NsError::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }

    #[test]
    fn selector_round_trips() {
        let mut map = BTreeMap::new();
        map.insert(NodeId(100), 1u32);
        map.insert(NodeId(101), 2);
        for s in [
            SelectorSpec::First,
            SelectorSpec::RoundRobin,
            SelectorSpec::Neighborhood { map },
            SelectorSpec::SameServer,
            SelectorSpec::LeastLoaded,
            SelectorSpec::Remote { selector: obj() },
        ] {
            assert_eq!(SelectorSpec::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn update_round_trips() {
        for u in [
            NsUpdate::Bind {
                path: "svc/mms".into(),
                obj: obj(),
            },
            NsUpdate::Unbind {
                path: "svc/mms".into(),
            },
            NsUpdate::NewContext { path: "svc".into() },
            NsUpdate::NewReplContext {
                path: "svc/rds".into(),
                selector: SelectorSpec::First,
            },
            NsUpdate::ReportLoad {
                path: "svc/mds/1".into(),
                load: 42,
            },
        ] {
            assert_eq!(NsUpdate::from_bytes(&u.to_bytes()).unwrap(), u);
        }
    }

    #[test]
    fn path_splitting() {
        assert_eq!(split_path("a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("/a").unwrap(), vec!["a"]);
        assert_eq!(split_path("solo").unwrap(), vec!["solo"]);
        assert!(split_path("").is_err());
        assert!(split_path("/").is_err());
        assert!(split_path("a//b").is_err());
        assert!(split_path("a/").is_err());
    }
}
