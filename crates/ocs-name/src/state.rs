//! The pure naming state machine, shared by every replica.
//!
//! All mutation goes through [`NsState::apply`] with updates in sequence
//! order (the master serializes them, §4.6), so replicas that apply the
//! same update stream — including deterministic context-id assignment —
//! end up byte-identical. Reads ([`NsState::resolve`], [`NsState::list`])
//! never mutate and can run at any replica.

use std::collections::BTreeMap;
use std::sync::Arc;

use ocs_orb::ObjRef;
use ocs_sim::NodeId;
use ocs_vsr::Machine;
use ocs_wire::{impl_wire_enum, impl_wire_struct};

use crate::types::{split_path, Binding, NsError, NsUpdate, SelectorSpec};

/// Identifier of a context within the name service; identical across
/// replicas because ids are assigned during in-order update replay.
pub type CtxId = u64;

/// The root context's id.
pub const ROOT_CTX: CtxId = 0;

/// A directory entry.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    /// A context implemented by the name service itself.
    Ctx { id: CtxId },
    /// Any other object — including contexts implemented by *other*
    /// services (e.g. the file service), which are recognised at resolve
    /// time by their type id and forwarded to (§4.3).
    Leaf { obj: ObjRef, load: u32 },
}

impl_wire_enum!(Entry {
    0 => Ctx { id },
    1 => Leaf { obj, load },
});

/// One naming context: a set of bindings plus, for replicated contexts,
/// the selector choosing among them (§4.5).
#[derive(Clone, Debug, PartialEq)]
pub struct Context {
    /// Whether this is a `ReplicatedContext`.
    pub replicated: bool,
    /// The selector; present exactly when `replicated`.
    pub selector: Option<SelectorSpec>,
    /// Name → entry bindings, in name order.
    pub bindings: BTreeMap<String, Entry>,
}

impl Context {
    fn plain() -> Context {
        Context {
            replicated: false,
            selector: None,
            bindings: BTreeMap::new(),
        }
    }

    fn replicated(selector: SelectorSpec) -> Context {
        Context {
            replicated: true,
            selector: Some(selector),
            bindings: BTreeMap::new(),
        }
    }

    /// The bindings as `Binding` values (contexts get placeholder refs
    /// that the replica layer rewrites to point at itself).
    pub fn as_bindings(&self, ctx_ref: impl Fn(CtxId) -> ObjRef) -> Vec<Binding> {
        self.bindings
            .iter()
            .map(|(name, entry)| Binding {
                name: name.clone(),
                obj: match entry {
                    Entry::Ctx { id } => ctx_ref(*id),
                    Entry::Leaf { obj, .. } => *obj,
                },
                load: match entry {
                    Entry::Ctx { .. } => 0,
                    Entry::Leaf { load, .. } => *load,
                },
            })
            .collect()
    }
}

/// Outcome of a local resolve walk.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolveOut {
    /// The name denotes a plain object.
    Obj(ObjRef),
    /// The name denotes a context implemented by this name service.
    LocalCtx(CtxId),
    /// The walk reached a remotely implemented context; the caller must
    /// invoke `resolve(rest)` on it (§4.3's recursive case).
    Forward { ctx: ObjRef, rest: String },
}

/// Chooses among a replicated context's bindings.
///
/// The pure built-in policies live in [`crate::selector::eval_static`];
/// replicas implement this trait to add round-robin counters and remote
/// selector invocation.
pub trait SelectorEval {
    /// Returns the index of the chosen candidate, or `None` when no
    /// candidate is acceptable.
    fn select(
        &mut self,
        spec: &SelectorSpec,
        caller: NodeId,
        candidates: &[Binding],
    ) -> Option<usize>;
}

/// Snapshot of the full naming state, for replica state transfer.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Flattened contexts: `(id, replicated, selector, bindings)`.
    pub ctxs: Vec<SnapCtx>,
    /// Next context id to assign.
    pub next_ctx: u64,
    /// Sequence number of the last applied update.
    pub last_seq: u64,
}

/// One context in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapCtx {
    pub id: CtxId,
    pub replicated: bool,
    pub selector: Option<SelectorSpec>,
    pub bindings: Vec<(String, Entry)>,
}

impl_wire_struct!(SnapCtx {
    id,
    replicated,
    selector,
    bindings
});
impl_wire_struct!(Snapshot {
    ctxs,
    next_ctx,
    last_seq
});

/// The naming tree plus replication bookkeeping. The contexts sit behind
/// an `Arc`, so a reader's copy of the state is one reference count: an
/// update copies the tree only while some reader still holds the old one.
#[derive(Clone, Debug, PartialEq)]
pub struct NsState {
    ctxs: Arc<BTreeMap<CtxId, Context>>,
    next_ctx: CtxId,
    /// Sequence number of the last applied update (0 = none).
    pub last_seq: u64,
}

impl Default for NsState {
    fn default() -> NsState {
        NsState::new()
    }
}

impl NsState {
    /// An empty name space containing only the root context.
    pub fn new() -> NsState {
        let mut ctxs = BTreeMap::new();
        ctxs.insert(ROOT_CTX, Context::plain());
        NsState {
            ctxs: Arc::new(ctxs),
            next_ctx: 1,
            last_seq: 0,
        }
    }

    /// The number of contexts (including the root).
    pub fn context_count(&self) -> usize {
        self.ctxs.len()
    }

    /// Looks up a context by id.
    pub fn context(&self, id: CtxId) -> Option<&Context> {
        self.ctxs.get(&id)
    }

    /// The contexts, for a mutation: copied first if a reader shares them.
    fn ctxs_mut(&mut self) -> &mut BTreeMap<CtxId, Context> {
        Arc::make_mut(&mut self.ctxs)
    }

    /// Applies one update, advancing `last_seq`.
    ///
    /// Application is deterministic: identical update streams produce
    /// identical states on every replica.
    pub fn apply(&mut self, seq: u64, update: &NsUpdate) -> Result<(), NsError> {
        let result = self.apply_inner(update);
        // The sequence number advances even for failed updates: failures
        // are deterministic too, so replicas stay in lockstep.
        self.last_seq = seq;
        result
    }

    fn apply_inner(&mut self, update: &NsUpdate) -> Result<(), NsError> {
        match update {
            NsUpdate::Bind { path, obj } => {
                let (ctx, name) = self.walk_parent(path)?;
                // Paths arrive from remote callers: a coherence slip
                // between walk and lookup must surface as an RPC error,
                // never panic the replica.
                let Some(c) = self.ctxs_mut().get_mut(&ctx) else {
                    return Err(NsError::NotFound { name: path.clone() });
                };
                if c.bindings.contains_key(&name) {
                    return Err(NsError::AlreadyBound { name: path.clone() });
                }
                c.bindings.insert(name, Entry::Leaf { obj: *obj, load: 0 });
                Ok(())
            }
            NsUpdate::Unbind { path } => {
                let (ctx, name) = self.walk_parent(path)?;
                let Some(c) = self.ctxs_mut().get_mut(&ctx) else {
                    return Err(NsError::NotFound { name: path.clone() });
                };
                match c.bindings.remove(&name) {
                    None => Err(NsError::NotFound { name: path.clone() }),
                    Some(Entry::Ctx { id }) => {
                        self.drop_ctx_tree(id);
                        Ok(())
                    }
                    Some(Entry::Leaf { .. }) => Ok(()),
                }
            }
            NsUpdate::NewContext { path } => self.new_ctx(path, Context::plain()),
            NsUpdate::NewReplContext { path, selector } => {
                self.new_ctx(path, Context::replicated(selector.clone()))
            }
            NsUpdate::ReportLoad { path, load } => {
                let (ctx, name) = self.walk_parent(path)?;
                let Some(c) = self.ctxs_mut().get_mut(&ctx) else {
                    return Err(NsError::NotFound { name: path.clone() });
                };
                match c.bindings.get_mut(&name) {
                    Some(Entry::Leaf { load: l, .. }) => {
                        *l = *load;
                        Ok(())
                    }
                    Some(Entry::Ctx { .. }) => Err(NsError::NotAContext { name: path.clone() }),
                    None => Err(NsError::NotFound { name: path.clone() }),
                }
            }
        }
    }

    fn new_ctx(&mut self, path: &str, ctx: Context) -> Result<(), NsError> {
        let (parent, name) = self.walk_parent(path)?;
        let not_found = || NsError::NotFound {
            name: path.to_string(),
        };
        let p = self.ctxs.get(&parent).ok_or_else(not_found)?;
        if p.bindings.contains_key(&name) {
            return Err(NsError::AlreadyBound {
                name: path.to_string(),
            });
        }
        let id = self.next_ctx;
        self.next_ctx += 1;
        let ctxs = self.ctxs_mut();
        ctxs.insert(id, ctx);
        let p = ctxs.get_mut(&parent).ok_or_else(not_found)?;
        p.bindings.insert(name, Entry::Ctx { id });
        Ok(())
    }

    fn drop_ctx_tree(&mut self, id: CtxId) {
        let Some(ctx) = self.ctxs_mut().remove(&id) else {
            return;
        };
        for entry in ctx.bindings.values() {
            if let Entry::Ctx { id } = entry {
                self.drop_ctx_tree(*id);
            }
        }
    }

    /// Walks a path whose every component must name a local context.
    fn walk_ctx(&self, start: CtxId, path: &str) -> Result<CtxId, NsError> {
        let parts = split_path(path)?;
        let mut ctx = start;
        for part in parts {
            let c = self.ctxs.get(&ctx).ok_or_else(|| NsError::NotFound {
                name: path.to_string(),
            })?;
            match c.bindings.get(part) {
                Some(Entry::Ctx { id }) => ctx = *id,
                Some(Entry::Leaf { .. }) => {
                    return Err(NsError::NotAContext {
                        name: part.to_string(),
                    })
                }
                None => {
                    return Err(NsError::NotFound {
                        name: path.to_string(),
                    })
                }
            }
        }
        Ok(ctx)
    }

    /// Walks to the context containing the last path component, by
    /// literal names (no selector involvement — updates name concrete
    /// entries). Returns `(context id, final component)`.
    fn walk_parent(&self, path: &str) -> Result<(CtxId, String), NsError> {
        let parts = split_path(path)?;
        let mut ctx = ROOT_CTX;
        for part in &parts[..parts.len() - 1] {
            let c = self.ctxs.get(&ctx).ok_or_else(|| NsError::NotFound {
                name: path.to_string(),
            })?;
            match c.bindings.get(*part) {
                Some(Entry::Ctx { id }) => ctx = *id,
                Some(Entry::Leaf { .. }) => {
                    return Err(NsError::NotAContext {
                        name: (*part).to_string(),
                    })
                }
                None => {
                    return Err(NsError::NotFound {
                        name: path.to_string(),
                    })
                }
            }
        }
        Ok((ctx, parts[parts.len() - 1].to_string()))
    }

    /// Resolves `path` from a starting context, applying selectors at
    /// replicated contexts (§4.5).
    ///
    /// `ctx_ref` converts a local context id into an object reference
    /// (pointing at the serving replica); `sel` evaluates selectors.
    pub fn resolve(
        &self,
        start: CtxId,
        path: &str,
        caller: NodeId,
        ctx_ref: &impl Fn(CtxId) -> ObjRef,
        sel: &mut dyn SelectorEval,
        naming_type_id: u32,
    ) -> Result<ResolveOut, NsError> {
        let parts = split_path(path)?;
        let mut ctx = start;
        let mut i = 0;
        while i < parts.len() {
            let c = self.ctxs.get(&ctx).ok_or_else(|| NsError::NotFound {
                name: path.to_string(),
            })?;
            let entry = if c.replicated {
                // A replicated context consumes no path component itself:
                // the selector picks one of its bindings, and the walk
                // continues *inside* the chosen entry with the same
                // component (Fig. 7's `bin/vod` example).
                let candidates = c.as_bindings(ctx_ref);
                if candidates.is_empty() {
                    return Err(NsError::NoReplicaAvailable {
                        name: path.to_string(),
                    });
                }
                let spec = c
                    .selector
                    .as_ref()
                    .ok_or_else(|| NsError::NoReplicaAvailable {
                        name: path.to_string(),
                    })?;
                let idx = sel.select(spec, caller, &candidates).ok_or_else(|| {
                    NsError::NoReplicaAvailable {
                        name: path.to_string(),
                    }
                })?;
                let name = &candidates[idx].name;
                c.bindings
                    .get(name)
                    .cloned()
                    .ok_or_else(|| NsError::NotFound {
                        name: path.to_string(),
                    })?
            } else {
                let part = parts[i];
                i += 1;
                c.bindings
                    .get(part)
                    .cloned()
                    .ok_or_else(|| NsError::NotFound {
                        name: path.to_string(),
                    })?
            };
            match entry {
                Entry::Ctx { id } => {
                    if i == parts.len() {
                        // Path ended on a context: if replicated, one more
                        // selection round picks the final object.
                        let c = self.ctxs.get(&id).ok_or_else(|| NsError::NotFound {
                            name: path.to_string(),
                        })?;
                        if c.replicated {
                            return self.finish_replicated(id, path, caller, ctx_ref, sel);
                        }
                        return Ok(ResolveOut::LocalCtx(id));
                    }
                    ctx = id;
                }
                Entry::Leaf { obj, .. } => {
                    if i == parts.len() {
                        return Ok(ResolveOut::Obj(obj));
                    }
                    // More components remain: the leaf must be a remotely
                    // implemented context (e.g. the file service).
                    if obj.type_id == naming_type_id {
                        return Ok(ResolveOut::Forward {
                            ctx: obj,
                            rest: parts[i..].join("/"),
                        });
                    }
                    return Err(NsError::NotAContext {
                        name: parts[i - 1].to_string(),
                    });
                }
            }
        }
        Ok(ResolveOut::LocalCtx(ctx))
    }

    /// Final selection step when a path ends on a replicated context:
    /// the selector chooses the returned object (§4.5's `rds` example).
    fn finish_replicated(
        &self,
        id: CtxId,
        path: &str,
        caller: NodeId,
        ctx_ref: &impl Fn(CtxId) -> ObjRef,
        sel: &mut dyn SelectorEval,
    ) -> Result<ResolveOut, NsError> {
        let c = self.ctxs.get(&id).ok_or_else(|| NsError::NotFound {
            name: path.to_string(),
        })?;
        let candidates = c.as_bindings(ctx_ref);
        if candidates.is_empty() {
            return Err(NsError::NoReplicaAvailable {
                name: path.to_string(),
            });
        }
        let spec = c
            .selector
            .as_ref()
            .ok_or_else(|| NsError::NoReplicaAvailable {
                name: path.to_string(),
            })?;
        let idx =
            sel.select(spec, caller, &candidates)
                .ok_or_else(|| NsError::NoReplicaAvailable {
                    name: path.to_string(),
                })?;
        match c.bindings.get(&candidates[idx].name) {
            Some(Entry::Ctx { id }) => Ok(ResolveOut::LocalCtx(*id)),
            Some(Entry::Leaf { obj, .. }) => Ok(ResolveOut::Obj(*obj)),
            None => Err(NsError::NotFound {
                name: path.to_string(),
            }),
        }
    }

    /// Lists a context's bindings. For a replicated context this returns
    /// information about the *selected* binding only; `list_repl`
    /// (`all = true`) returns everything (§4.5).
    #[allow(clippy::too_many_arguments)] // Mirrors `resolve`'s evaluation inputs.
    pub fn list(
        &self,
        start: CtxId,
        path: &str,
        caller: NodeId,
        all: bool,
        ctx_ref: &impl Fn(CtxId) -> ObjRef,
        sel: &mut dyn SelectorEval,
        naming_type_id: u32,
    ) -> Result<Vec<Binding>, NsError> {
        let _ = naming_type_id;
        // The path names the context *literally*: selectors choose among
        // a replicated context's members on `resolve`, but `list` applies
        // to the context itself (§4.5). The empty path is `start` itself.
        let id = if path.is_empty() {
            start
        } else {
            self.walk_ctx(start, path)?
        };
        let c = self.ctxs.get(&id).ok_or_else(|| NsError::NotFound {
            name: path.to_string(),
        })?;
        let bindings = c.as_bindings(ctx_ref);
        if c.replicated && !all {
            let spec = c
                .selector
                .as_ref()
                .ok_or_else(|| NsError::NoReplicaAvailable {
                    name: path.to_string(),
                })?;
            if bindings.is_empty() {
                return Ok(Vec::new());
            }
            let idx =
                sel.select(spec, caller, &bindings)
                    .ok_or_else(|| NsError::NoReplicaAvailable {
                        name: path.to_string(),
                    })?;
            return Ok(vec![bindings[idx].clone()]);
        }
        Ok(bindings)
    }

    /// All live context ids.
    pub fn context_ids(&self) -> Vec<CtxId> {
        self.ctxs.keys().copied().collect()
    }

    /// Absolute path of a context (`""` for the root), if it is live.
    pub fn path_of_ctx(&self, id: CtxId) -> Option<String> {
        if id == ROOT_CTX {
            return Some(String::new());
        }
        self.find_ctx_path(ROOT_CTX, id, String::new())
    }

    fn find_ctx_path(&self, from: CtxId, want: CtxId, prefix: String) -> Option<String> {
        let c = self.ctxs.get(&from)?;
        for (name, entry) in &c.bindings {
            if let Entry::Ctx { id } = entry {
                let path = if prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{prefix}/{name}")
                };
                if *id == want {
                    return Some(path);
                }
                if let Some(found) = self.find_ctx_path(*id, want, path) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// The context id bound at `name` directly within `parent`, if any.
    pub fn ctx_of_name(&self, parent: CtxId, name: &str) -> Option<CtxId> {
        match self.ctxs.get(&parent)?.bindings.get(name) {
            Some(Entry::Ctx { id }) => Some(*id),
            _ => None,
        }
    }

    /// All leaf bindings in the tree as `(absolute path, object)`, for
    /// the §4.7 audit (dead-object removal).
    pub fn collect_leaves(&self) -> Vec<(String, ObjRef)> {
        let mut out = Vec::new();
        self.collect_from(ROOT_CTX, String::new(), &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn collect_from(&self, id: CtxId, prefix: String, out: &mut Vec<(String, ObjRef)>) {
        let Some(c) = self.ctxs.get(&id) else {
            return;
        };
        for (name, entry) in &c.bindings {
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            match entry {
                Entry::Ctx { id } => self.collect_from(*id, path, out),
                Entry::Leaf { obj, .. } => out.push((path, *obj)),
            }
        }
    }

    /// Serializes the full state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ctxs: self
                .ctxs
                .iter()
                .map(|(id, c)| SnapCtx {
                    id: *id,
                    replicated: c.replicated,
                    selector: c.selector.clone(),
                    bindings: c
                        .bindings
                        .iter()
                        .map(|(n, e)| (n.clone(), e.clone()))
                        .collect(),
                })
                .collect(),
            next_ctx: self.next_ctx,
            last_seq: self.last_seq,
        }
    }

    /// Replaces this state with a snapshot's contents.
    pub fn restore(&mut self, snap: Snapshot) {
        let mut ctxs: BTreeMap<CtxId, Context> = snap
            .ctxs
            .into_iter()
            .map(|sc| {
                (
                    sc.id,
                    Context {
                        replicated: sc.replicated,
                        selector: sc.selector,
                        bindings: sc.bindings.into_iter().collect(),
                    },
                )
            })
            .collect();
        ctxs.entry(ROOT_CTX).or_insert_with(Context::plain);
        self.ctxs = Arc::new(ctxs);
        self.next_ctx = snap.next_ctx;
        self.last_seq = snap.last_seq;
    }
}

/// The name service's replicated update log is the `ocs-vsr` engine
/// over this machine: majority commit, view change, state transfer and
/// recovery probation all live there.
impl Machine for NsState {
    type Op = NsUpdate;
    type Outcome = Result<(), NsError>;
    type Snap = Snapshot;

    fn apply(&mut self, seq: u64, op: &NsUpdate) -> Result<(), NsError> {
        NsState::apply(self, seq, op)
    }

    fn snapshot(&self) -> Snapshot {
        NsState::snapshot(self)
    }

    fn restore(&mut self, snap: Snapshot) {
        NsState::restore(self, snap)
    }

    fn snap_seq(snap: &Snapshot) -> u64 {
        snap.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::StaticEval;
    use ocs_sim::Addr;

    const NAMING_TYPE: u32 = 0x1111;

    fn obj(node: u32, port: u16) -> ObjRef {
        ObjRef {
            addr: Addr::new(NodeId(node), port),
            incarnation: 1,
            type_id: 0x2222,
            object_id: 0,
        }
    }

    fn ctx_obj(id: CtxId) -> ObjRef {
        ObjRef {
            addr: Addr::new(NodeId(9), 10),
            incarnation: ObjRef::STABLE,
            type_id: NAMING_TYPE,
            object_id: id + 1000,
        }
    }

    fn resolve(st: &NsState, path: &str) -> Result<ResolveOut, NsError> {
        st.resolve(
            ROOT_CTX,
            path,
            NodeId(1),
            &ctx_obj,
            &mut StaticEval::default(),
            NAMING_TYPE,
        )
    }

    fn apply_seq(st: &mut NsState, updates: &[NsUpdate]) {
        for (i, u) in updates.iter().enumerate() {
            let _ = st.apply(st.last_seq.max(i as u64) + 1, u);
        }
    }

    #[test]
    fn bind_and_resolve_flat() {
        let mut st = NsState::new();
        st.apply(
            1,
            &NsUpdate::Bind {
                path: "mms".into(),
                obj: obj(1, 22),
            },
        )
        .unwrap();
        assert_eq!(resolve(&st, "mms").unwrap(), ResolveOut::Obj(obj(1, 22)));
        assert!(matches!(
            resolve(&st, "nothing").unwrap_err(),
            NsError::NotFound { .. }
        ));
    }

    #[test]
    fn nested_contexts() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewContext { path: "svc".into() },
                NsUpdate::Bind {
                    path: "svc/mms".into(),
                    obj: obj(1, 22),
                },
            ],
        );
        assert_eq!(
            resolve(&st, "svc/mms").unwrap(),
            ResolveOut::Obj(obj(1, 22))
        );
        assert!(matches!(
            resolve(&st, "svc").unwrap(),
            ResolveOut::LocalCtx(_)
        ));
    }

    #[test]
    fn double_bind_fails() {
        let mut st = NsState::new();
        st.apply(
            1,
            &NsUpdate::Bind {
                path: "x".into(),
                obj: obj(1, 1),
            },
        )
        .unwrap();
        let err = st
            .apply(
                2,
                &NsUpdate::Bind {
                    path: "x".into(),
                    obj: obj(2, 2),
                },
            )
            .unwrap_err();
        assert!(matches!(err, NsError::AlreadyBound { .. }));
        // The original binding is untouched — this is what keeps the
        // §5.2 primary/backup scheme safe.
        assert_eq!(resolve(&st, "x").unwrap(), ResolveOut::Obj(obj(1, 1)));
    }

    #[test]
    fn unbind_then_rebind() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::Bind {
                    path: "x".into(),
                    obj: obj(1, 1),
                },
                NsUpdate::Unbind { path: "x".into() },
                NsUpdate::Bind {
                    path: "x".into(),
                    obj: obj(2, 2),
                },
            ],
        );
        assert_eq!(resolve(&st, "x").unwrap(), ResolveOut::Obj(obj(2, 2)));
    }

    #[test]
    fn unbind_context_drops_subtree() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewContext { path: "a".into() },
                NsUpdate::NewContext { path: "a/b".into() },
                NsUpdate::Bind {
                    path: "a/b/x".into(),
                    obj: obj(1, 1),
                },
            ],
        );
        assert_eq!(st.context_count(), 3);
        st.apply(4, &NsUpdate::Unbind { path: "a".into() }).unwrap();
        assert_eq!(st.context_count(), 1);
        assert!(resolve(&st, "a/b/x").is_err());
    }

    #[test]
    fn replicated_context_selects_first() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewReplContext {
                    path: "rds".into(),
                    selector: SelectorSpec::First,
                },
                NsUpdate::Bind {
                    path: "rds/1".into(),
                    obj: obj(1, 23),
                },
                NsUpdate::Bind {
                    path: "rds/2".into(),
                    obj: obj(2, 23),
                },
            ],
        );
        // Resolving the context name yields the selected *member*.
        assert_eq!(resolve(&st, "rds").unwrap(), ResolveOut::Obj(obj(1, 23)));
    }

    #[test]
    fn replicated_context_of_contexts() {
        // Fig. 7: bin/vod where bin is replicated and contains contexts.
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewReplContext {
                    path: "bin".into(),
                    selector: SelectorSpec::First,
                },
                NsUpdate::NewContext {
                    path: "bin/1".into(),
                },
                NsUpdate::NewContext {
                    path: "bin/2".into(),
                },
                NsUpdate::Bind {
                    path: "bin/1/vod".into(),
                    obj: obj(1, 30),
                },
                NsUpdate::Bind {
                    path: "bin/2/vod".into(),
                    obj: obj(2, 30),
                },
            ],
        );
        // The selector picks context "1"; the walk continues inside it.
        assert_eq!(
            resolve(&st, "bin/vod").unwrap(),
            ResolveOut::Obj(obj(1, 30))
        );
    }

    #[test]
    fn empty_replicated_context_errors() {
        let mut st = NsState::new();
        st.apply(
            1,
            &NsUpdate::NewReplContext {
                path: "rds".into(),
                selector: SelectorSpec::First,
            },
        )
        .unwrap();
        assert!(matches!(
            resolve(&st, "rds").unwrap_err(),
            NsError::NoReplicaAvailable { .. }
        ));
    }

    #[test]
    fn forward_to_remote_context() {
        let mut st = NsState::new();
        let remote_ctx = ObjRef {
            addr: Addr::new(NodeId(5), 26),
            incarnation: 3,
            type_id: NAMING_TYPE, // Implements the naming interface.
            object_id: 0,
        };
        apply_seq(
            &mut st,
            &[NsUpdate::Bind {
                path: "fs".into(),
                obj: remote_ctx,
            }],
        );
        match resolve(&st, "fs/movies/t2.mpg").unwrap() {
            ResolveOut::Forward { ctx, rest } => {
                assert_eq!(ctx, remote_ctx);
                assert_eq!(rest, "movies/t2.mpg");
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn leaf_in_middle_of_path_is_error() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[NsUpdate::Bind {
                path: "x".into(),
                obj: obj(1, 1), // Not a naming-typed object.
            }],
        );
        assert!(matches!(
            resolve(&st, "x/deeper").unwrap_err(),
            NsError::NotAContext { .. }
        ));
    }

    #[test]
    fn list_plain_and_replicated() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewReplContext {
                    path: "rds".into(),
                    selector: SelectorSpec::First,
                },
                NsUpdate::Bind {
                    path: "rds/1".into(),
                    obj: obj(1, 23),
                },
                NsUpdate::Bind {
                    path: "rds/2".into(),
                    obj: obj(2, 23),
                },
            ],
        );
        let mut sel = StaticEval::default();
        // list on a replicated context: selected binding only.
        let l = st
            .list(
                ROOT_CTX,
                "rds",
                NodeId(1),
                false,
                &ctx_obj,
                &mut sel,
                NAMING_TYPE,
            )
            .unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].name, "1");
        // list_repl: all bindings.
        let l = st
            .list(
                ROOT_CTX,
                "rds",
                NodeId(1),
                true,
                &ctx_obj,
                &mut sel,
                NAMING_TYPE,
            )
            .unwrap();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn report_load_updates_binding() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewReplContext {
                    path: "mds".into(),
                    selector: SelectorSpec::LeastLoaded,
                },
                NsUpdate::Bind {
                    path: "mds/1".into(),
                    obj: obj(1, 21),
                },
                NsUpdate::Bind {
                    path: "mds/2".into(),
                    obj: obj(2, 21),
                },
                NsUpdate::ReportLoad {
                    path: "mds/1".into(),
                    load: 90,
                },
                NsUpdate::ReportLoad {
                    path: "mds/2".into(),
                    load: 10,
                },
            ],
        );
        assert_eq!(resolve(&st, "mds").unwrap(), ResolveOut::Obj(obj(2, 21)));
    }

    #[test]
    fn collect_leaves_walks_everything() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewContext { path: "svc".into() },
                NsUpdate::Bind {
                    path: "svc/mms".into(),
                    obj: obj(1, 22),
                },
                NsUpdate::Bind {
                    path: "top".into(),
                    obj: obj(2, 9),
                },
            ],
        );
        let leaves = st.collect_leaves();
        assert_eq!(
            leaves,
            vec![
                ("svc/mms".to_string(), obj(1, 22)),
                ("top".to_string(), obj(2, 9)),
            ]
        );
    }

    #[test]
    fn snapshot_round_trips() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewContext { path: "svc".into() },
                NsUpdate::NewReplContext {
                    path: "svc/rds".into(),
                    selector: SelectorSpec::RoundRobin,
                },
                NsUpdate::Bind {
                    path: "svc/rds/1".into(),
                    obj: obj(1, 23),
                },
            ],
        );
        let snap = st.snapshot();
        let mut st2 = NsState::new();
        st2.restore(snap);
        assert_eq!(st, st2);
    }

    #[test]
    fn a_held_read_is_unchanged_by_later_updates() {
        let mut st = NsState::new();
        apply_seq(
            &mut st,
            &[
                NsUpdate::NewContext { path: "svc".into() },
                NsUpdate::Bind {
                    path: "svc/mms".into(),
                    obj: obj(1, 22),
                },
            ],
        );
        let held = st.clone();
        assert!(Arc::ptr_eq(&held.ctxs, &st.ctxs), "a read copies no context");
        let before = held.snapshot();
        let mds = NsUpdate::Bind {
            path: "svc/mds".into(),
            obj: obj(2, 23),
        };
        st.apply(3, &mds).unwrap();
        st.apply(4, &NsUpdate::Unbind { path: "svc/mms".into() }).unwrap();
        assert_eq!(held.snapshot(), before);
        assert_eq!(resolve(&held, "svc/mms").unwrap(), ResolveOut::Obj(obj(1, 22)));
        assert!(resolve(&held, "svc/mds").is_err());
        assert!(resolve(&st, "svc/mms").is_err());
        assert_eq!(resolve(&st, "svc/mds").unwrap(), ResolveOut::Obj(obj(2, 23)));
        // Once the reader lets go, an update mutates in place again.
        drop(held);
        let tree = Arc::as_ptr(&st.ctxs);
        st.apply(5, &NsUpdate::Unbind { path: "svc/mds".into() }).unwrap();
        assert_eq!(Arc::as_ptr(&st.ctxs), tree);
    }

    #[test]
    fn replay_is_deterministic() {
        let updates = [
            NsUpdate::NewContext { path: "a".into() },
            NsUpdate::NewContext { path: "b".into() },
            NsUpdate::Bind {
                path: "a/x".into(),
                obj: obj(1, 1),
            },
            NsUpdate::Unbind { path: "b".into() },
            NsUpdate::NewContext { path: "c".into() },
        ];
        let mut s1 = NsState::new();
        let mut s2 = NsState::new();
        apply_seq(&mut s1, &updates);
        apply_seq(&mut s2, &updates);
        assert_eq!(s1, s2);
    }
}
