//! Node-level shared resolve cache (§8.1: "name resolution is cached
//! client-side"). Every [`Rebinding`](crate::Rebinding) proxy on a node
//! consults one [`ResolveCache`], so a thousand proxies for
//! `svc/cmgr/7` cost one remote resolve between failures instead of
//! one each — the coalescing the paper's settop population count rests
//! on. A slot holds what the lookup returned ([`Cached`]): the one
//! reference a `resolve` answered, or the whole replica set a
//! `list_repl` did (the MMS picks among the `svc/mds` replicas itself).
//! The lookup → miss → install protocol over it is
//! [`NsHandle::cached`](crate::NsHandle::cached).
//!
//! Entries are *generation-stamped*: `invalidate` bumps the path's
//! generation, and an `install` only lands if the generation it read
//! *before* resolving is still current. A resolve that raced with an
//! invalidation (it may carry the very binding whose death triggered
//! the invalidation) is refused instead of reinstalling a stale
//! reference for every proxy on the node.
//!
//! Who invalidates: a caller that a cached target failed
//! ([`NsHandle::invalidate`](crate::NsHandle::invalidate)), and — on a
//! node that runs a name-service replica — every committed update, for
//! its own path and for the context it sits in
//! ([`ResolveCache::invalidate_commit`]).

use std::collections::HashMap;
use std::sync::Arc;

use ocs_orb::ObjRef;
use ocs_sim::NodeRt;
use parking_lot::Mutex;

use crate::types::Binding;

/// What a name-service lookup returned, as the cache holds it.
#[derive(Clone, Debug, PartialEq)]
pub enum Cached {
    /// `resolve`: the object bound at the path (for a replicated
    /// context, the selector's choice).
    Ref(ObjRef),
    /// `list_repl`: every binding of the replicated context at the path.
    Set(Arc<[Binding]>),
}

#[derive(Default)]
struct Slot {
    /// Bumped by every invalidation of this path.
    generation: u64,
    /// The cached answer, if any, valid for `generation`.
    value: Option<Cached>,
}

/// The per-node path → lookup-answer cache. Obtain with
/// [`ResolveCache::of`]; all handles on one node share storage.
#[derive(Default)]
pub struct ResolveCache {
    slots: Mutex<HashMap<String, Slot>>,
}

impl ResolveCache {
    /// The node's shared cache, installed in the runtime's extension map
    /// on first use (every caller on the node sees the same instance).
    pub fn of(rt: &dyn NodeRt) -> std::sync::Arc<ResolveCache> {
        rt.extensions().get_or_init(ResolveCache::default)
    }

    /// The current generation of `path` (0 if never seen). Read this
    /// *before* a remote resolve and pass it to [`ResolveCache::install`].
    pub fn generation(&self, path: &str) -> u64 {
        self.slots
            .lock()
            .get(path)
            .map(|s| s.generation)
            .unwrap_or(0)
    }

    /// The cached answer for `path`, with the generation it was
    /// installed at, or `None` after an invalidation or before the first
    /// successful install.
    pub fn lookup(&self, path: &str) -> Option<(u64, Cached)> {
        let slots = self.slots.lock();
        let slot = slots.get(path)?;
        slot.value.clone().map(|v| (slot.generation, v))
    }

    /// Installs `value` for `path`, but only if the path's generation is
    /// still `seen_gen` (the value read before the lookup began).
    /// Returns whether the install landed; `false` means an
    /// `invalidate` raced the lookup and the answer may be stale.
    pub fn install(&self, path: &str, seen_gen: u64, value: Cached) -> bool {
        let mut slots = self.slots.lock();
        let slot = slots.entry(path.to_string()).or_default();
        if slot.generation != seen_gen {
            return false;
        }
        slot.value = Some(value);
        true
    }

    /// Drops the cached answer for `path` and bumps its generation, so
    /// in-flight lookups that started earlier cannot reinstall it.
    /// Returns the new generation.
    pub fn invalidate(&self, path: &str) -> u64 {
        let mut slots = self.slots.lock();
        let slot = slots.entry(path.to_string()).or_default();
        slot.generation += 1;
        slot.value = None;
        slot.generation
    }

    /// A committed update at `path` changed what a `resolve` of it
    /// answers *and* what its parent context lists or selects — a bind,
    /// unbind or load report under `svc/mds/…` is a different `svc/mds`
    /// replica set — so both are dropped.
    pub fn invalidate_commit(&self, path: &str) {
        self.invalidate(path);
        if let Some((parent, _)) = path.rsplit_once('/') {
            self.invalidate(parent);
        }
    }

    /// Number of paths with a live cached answer (observability).
    pub fn live_entries(&self) -> usize {
        self.slots
            .lock()
            .values()
            .filter(|s| s.value.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_sim::{Addr, NodeId};

    fn objref(n: u32) -> ObjRef {
        ObjRef {
            addr: Addr::new(NodeId(n), 1),
            incarnation: 7,
            type_id: 1,
            object_id: 0,
        }
    }

    fn obj(n: u32) -> Cached {
        Cached::Ref(objref(n))
    }

    /// The regression for the stale-rebind race: a resolve that began
    /// before an `invalidate` (and may therefore carry the dead binding)
    /// must not be reinstalled. Under the old unconditional re-cache,
    /// `install` here would have succeeded and every proxy on the node
    /// would have been handed the stale reference again.
    #[test]
    fn invalidate_wins_over_inflight_resolve() {
        let cache = ResolveCache::default();
        let path = "svc/cmgr/3";
        // Proxy A starts a resolve: reads the generation first.
        let gen_seen = cache.generation(path);
        // Before A's resolve returns, proxy B hits a dead reference and
        // invalidates the path.
        cache.invalidate(path);
        // A's (now possibly stale) resolve completes and tries to cache.
        assert!(!cache.install(path, gen_seen, obj(1)), "stale install refused");
        assert_eq!(cache.lookup(path), None, "stale binding not reinstalled");
        // A fresh resolve (reading the post-invalidation generation)
        // installs fine.
        let gen2 = cache.generation(path);
        assert!(cache.install(path, gen2, obj(2)));
        assert_eq!(cache.lookup(path), Some((gen2, obj(2))));
    }

    #[test]
    fn cache_is_shared_per_node() {
        let sim = ocs_sim::Sim::new(1);
        let node = sim.add_node("n");
        let a = ResolveCache::of(&*node);
        let b = ResolveCache::of(&*node);
        let g = a.generation("x");
        assert!(a.install("x", g, obj(9)));
        assert_eq!(b.lookup("x"), Some((g, obj(9))), "same cache instance");
        let other = sim.add_node("m");
        assert_eq!(ResolveCache::of(&*other).lookup("x"), None, "per node");
    }

    /// What a name-service replica does on its own node after a commit:
    /// the path's answer and its parent context's list are both gone,
    /// nothing further up or beside them is.
    #[test]
    fn a_commit_invalidates_the_path_and_its_parent_context() {
        let cache = ResolveCache::default();
        let set = |names: &[&str]| {
            Cached::Set(
                names
                    .iter()
                    .map(|n| Binding {
                        name: n.to_string(),
                        obj: objref(9),
                        load: 0,
                    })
                    .collect(),
            )
        };
        for (path, value) in [
            ("a", obj(1)),
            ("a/b", set(&["c"])),
            ("a/b/c", obj(2)),
            ("a/b/d", obj(3)),
            ("a/x", obj(4)),
        ] {
            assert!(cache.install(path, 0, value));
        }
        cache.invalidate_commit("a/b/c");
        assert_eq!(cache.lookup("a/b/c"), None, "the committed path");
        assert_eq!(cache.lookup("a/b"), None, "its parent context's list");
        assert_eq!(cache.lookup("a"), Some((0, obj(1))), "not the grandparent");
        assert_eq!(cache.lookup("a/b/d"), Some((0, obj(3))), "not a sibling");
        assert_eq!(cache.lookup("a/x"), Some((0, obj(4))));
        // The list a lookup began before the commit must not come back.
        assert!(!cache.install("a/b", 0, set(&["c"])));
        assert!(cache.install("a/b", 1, set(&["c", "e"])));
        // A top-level name has no parent to drop.
        cache.invalidate_commit("a");
        assert_eq!(cache.lookup("a"), None);
    }

    #[test]
    fn generations_are_monotone_and_per_path() {
        let cache = ResolveCache::default();
        assert_eq!(cache.invalidate("a"), 1);
        assert_eq!(cache.invalidate("a"), 2);
        assert_eq!(cache.generation("b"), 0, "paths are independent");
        assert_eq!(cache.live_entries(), 0);
    }
}
