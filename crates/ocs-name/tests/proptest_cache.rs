//! Property-based tests on the shared resolve cache: under arbitrary
//! interleavings of resolve-start / resolve-finish / invalidate,
//! generations only move forward and the cache never serves a binding
//! installed by a resolve that began before the path's last
//! invalidation — whether the answer is a `resolve`'s one reference or
//! a `list_repl`'s replica set.

use std::collections::HashMap;

use ocs_name::{Binding, Cached, ResolveCache};
use ocs_orb::ObjRef;
use ocs_sim::{Addr, NodeId};
use proptest::prelude::*;

const PATHS: &[&str] = &["svc/cmgr/0", "svc/cmgr/1", "svc/mms", "svc/mds"];

fn objref(seed: u32) -> ObjRef {
    ObjRef {
        addr: Addr::new(NodeId(seed % 7 + 1), 1),
        incarnation: u64::from(seed) | 1,
        type_id: 3,
        object_id: u64::from(seed),
    }
}

/// What the lookup `seed` stands for answered: a reference, or (every
/// fourth seed) a replica set of one to three bindings.
fn obj(seed: u32) -> Cached {
    if !seed.is_multiple_of(4) {
        return Cached::Ref(objref(seed));
    }
    Cached::Set(
        (0..seed / 4 % 3 + 1)
            .map(|i| Binding {
                name: i.to_string(),
                obj: objref(seed.wrapping_add(i)),
                load: seed % 5,
            })
            .collect(),
    )
}

/// One step of an interleaved client population. `StartResolve` models a
/// proxy reading the generation and going to the name service;
/// `FinishResolve` models that resolve returning (possibly much later,
/// after invalidations) and attempting the install.
#[derive(Clone, Debug)]
enum Op {
    StartResolve { path: usize, seed: u32 },
    FinishResolve { pending: usize },
    Invalidate { path: usize },
    Lookup { path: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PATHS.len(), any::<u32>()).prop_map(|(path, seed)| Op::StartResolve { path, seed }),
        (0usize..8).prop_map(|pending| Op::FinishResolve { pending }),
        (0..PATHS.len()).prop_map(|path| Op::Invalidate { path }),
        (0..PATHS.len()).prop_map(|path| Op::Lookup { path }),
    ]
}

fn assert_monotone(path: usize, gen: u64, max_seen: &mut HashMap<usize, u64>) {
    let prev = max_seen.entry(path).or_insert(0);
    assert!(gen >= *prev, "generation went backwards: {} < {}", gen, *prev);
    *prev = gen;
}

proptest! {
    #[test]
    fn interleavings_preserve_generation_safety(ops in prop::collection::vec(arb_op(), 1..60)) {
        let cache = ResolveCache::default();
        // In-flight resolves: (path index, generation seen at start, answer).
        let mut inflight: Vec<(usize, u64, Cached)> = Vec::new();
        // Model state per path.
        let mut last_invalidation: HashMap<usize, u64> = HashMap::new();
        let mut max_seen_gen: HashMap<usize, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::StartResolve { path, seed } => {
                    let gen = cache.generation(PATHS[path]);
                    assert_monotone(path, gen, &mut max_seen_gen);
                    inflight.push((path, gen, obj(seed)));
                }
                Op::FinishResolve { pending } => {
                    if inflight.is_empty() { continue; }
                    let (path, gen_seen, r) = inflight.remove(pending % inflight.len());
                    let landed = cache.install(PATHS[path], gen_seen, r.clone());
                    let inv = last_invalidation.get(&path).copied().unwrap_or(0);
                    if gen_seen < inv {
                        // Resolve began before the last invalidation: the
                        // binding it carries may be the dead one and must
                        // be refused.
                        prop_assert!(!landed, "stale resolve (gen {} < inv {}) installed", gen_seen, inv);
                    } else {
                        prop_assert!(landed, "current-generation install refused");
                        prop_assert_eq!(cache.lookup(PATHS[path]), Some((gen_seen, r)));
                    }
                }
                Op::Invalidate { path } => {
                    let gen = cache.invalidate(PATHS[path]);
                    assert_monotone(path, gen, &mut max_seen_gen);
                    prop_assert!(gen > 0);
                    last_invalidation.insert(path, gen);
                    prop_assert_eq!(cache.lookup(PATHS[path]), None, "invalidate clears binding");
                }
                Op::Lookup { path } => {
                    if let Some((gen, _)) = cache.lookup(PATHS[path]) {
                        assert_monotone(path, gen, &mut max_seen_gen);
                        let inv = last_invalidation.get(&path).copied().unwrap_or(0);
                        prop_assert!(
                            gen >= inv,
                            "served binding from generation {}, older than last invalidation {}",
                            gen, inv
                        );
                    }
                }
            }
        }
    }
}
