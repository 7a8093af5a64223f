//! Remote interfaces of the name service: the public `NamingContext`
//! interface (§4.4) and the selector interface (§4.5). (The internal
//! replica-to-replica protocol of §4.6 is `ocs-vsr`'s peer interface,
//! under the wire name `ocs.ns-peer`.)

use ocs_orb::declare_interface;

use crate::types::{Binding, NsError, SelectorSpec};
use ocs_orb::ObjRef;
use ocs_sim::NodeId;

/// The naming interface's type name; other services (like the file
/// service) export objects with this type id to plug into the name space
/// as remotely implemented contexts (§4.3).
pub const NAMING_TYPE_NAME: &str = "ocs.naming";

/// Type id shared by all naming-context objects.
pub const NAMING_TYPE_ID: u32 = ocs_wire::type_id_of(NAMING_TYPE_NAME);

declare_interface! {
    /// The `NamingContext` interface of §4.4, extended with
    /// `bind_repl_context`'s selector argument, `list_repl` (§4.5) and
    /// `report_load` (dynamic-selector support).
    ///
    /// `resolve`/`list` are served locally by any replica; mutating
    /// operations are forwarded to the elected master (§4.6).
    pub interface NamingContext [NamingContextClient, NamingContextServant]: "ocs.naming" {
        /// Resolve a (possibly multi-component) name to an object.
        1 => fn resolve(&self, name: String) -> Result<ObjRef, NsError>;
        /// Bind an object to a name. Fails with `AlreadyBound` if the
        /// name is taken — the primitive under §5.2 primary/backup.
        2 => fn bind(&self, name: String, obj: ObjRef) -> Result<(), NsError>;
        /// Remove the binding for a name.
        3 => fn unbind(&self, name: String) -> Result<(), NsError>;
        /// Create a fresh ordinary context bound at `name`.
        4 => fn bind_new_context(&self, name: String) -> Result<ObjRef, NsError>;
        /// Create a fresh replicated context with the given selector.
        5 => fn bind_repl_context(&self, name: String, selector: SelectorSpec) -> Result<ObjRef, NsError>;
        /// List the bindings of the named context. For a replicated
        /// context, returns the selector's choice only.
        6 => fn list(&self, name: String) -> Result<Vec<Binding>, NsError>;
        /// List *all* bindings of a replicated context.
        7 => fn list_repl(&self, name: String) -> Result<Vec<Binding>, NsError>;
        /// Report a load hint for a binding (used by `LeastLoaded`).
        8 => fn report_load(&self, name: String, load: u32) -> Result<(), NsError>;
    }
}

declare_interface! {
    /// A selector object (§4.5): services may export arbitrarily complex
    /// selection policies and reference them from replicated contexts via
    /// [`SelectorSpec::Remote`](crate::SelectorSpec::Remote).
    pub interface Selector [SelectorClient, SelectorServant]: "ocs.selector" {
        /// Choose one of `candidates` for the client at `client_node`;
        /// returns the index of the chosen binding.
        1 => fn select(&self, client_node: NodeId, candidates: Vec<Binding>) -> Result<u32, NsError>;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_ids_are_distinct() {
        assert_ne!(NamingContextClient::TYPE_ID, SelectorClient::TYPE_ID);
        assert_eq!(NamingContextClient::TYPE_ID, NAMING_TYPE_ID);
    }
}
