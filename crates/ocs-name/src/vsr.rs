//! The name service's replicated update log (ROADMAP item 1): the
//! reusable VSR engine from `ocs-vsr` instantiated over [`NsState`].
//!
//! The protocol itself — majority commit, sticky-primary view change,
//! two-phase `DoViewChange` release, snapshot state transfer, f+1
//! recovery probation — lives in [`ocs_vsr`]; this module only teaches
//! the engine how to drive the naming state machine ([`Machine`]), and
//! keeps the engine's unit tests that are written against naming
//! updates.

use ocs_vsr::Machine;

use crate::state::{NsState, Snapshot};
use crate::types::{NsError, NsUpdate};

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
    use std::time::Duration;

    use ocs_orb::ObjRef;
    use ocs_sim::{Addr, NodeId, SimTime};
    use ocs_vsr::{OpNum, OpOutcome, VsrEvent, VsrStatus};

    use crate::state::NsState;
    use crate::types::NsUpdate;

    type VsrCore = ocs_vsr::VsrCore<NsState>;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn obj(n: u32) -> ObjRef {
        ObjRef {
            addr: Addr::new(NodeId(n), 9),
            incarnation: 1,
            type_id: 1,
            object_id: 0,
        }
    }

    fn bind(name: &str, n: u32) -> NsUpdate {
        NsUpdate::Bind {
            path: name.to_string(),
            obj: obj(n),
        }
    }

    fn trio() -> Vec<VsrCore> {
        (0..3)
            .map(|i| {
                let mut c = VsrCore::new(i, 3, 64, Duration::from_secs(5), t(0));
                c.end_probation(t(0));
                c
            })
            .collect()
    }

    /// Drives one prepare round from primary `p` to every peer.
    fn replicate(cores: &mut [VsrCore], p: usize, update: NsUpdate) -> OpNum {
        let prep = cores[p].client_op(update).expect("is primary");
        for i in 0..cores.len() {
            if i == p {
                continue;
            }
            let ack = cores[i].on_prepare(
                prep.view,
                prep.view,
                prep.op_num,
                prep.commit_num,
                prep.update.clone(),
                t(1),
            );
            cores[p].on_ack(i as u32, &ack);
        }
        prep.op_num
    }

    #[test]
    fn cold_start_primary_is_replica_zero() {
        let cores = trio();
        assert!(cores[0].is_master());
        assert!(!cores[1].is_master());
        assert_eq!(cores[0].primary_of(0), 0);
    }

    #[test]
    fn prepare_quorum_commits_and_applies_everywhere() {
        let mut cores = trio();
        let op = replicate(&mut cores, 0, bind("a", 1));
        assert_eq!(cores[0].commit_num(), op);
        assert_eq!(cores[0].outcome_of(0, op), OpOutcome::Done(Ok(())));
        // Backups commit on the next piggybacked commit number.
        let op2 = replicate(&mut cores, 0, bind("b", 2));
        for c in &mut cores[1..] {
            assert_eq!(c.op_num(), op2);
            assert_eq!(c.commit_num(), op, "backup applied the piggybacked commit");
        }
        // An idle heartbeat carries the rest.
        for i in 1..3 {
            let commit = cores[0].commit_num();
            let ack = cores[i].on_commit_hb(0, commit, t(2));
            assert!(ack.accepted);
            assert_eq!(cores[i].commit_num(), commit);
        }
    }

    #[test]
    fn ack_at_op_k_acknowledges_the_prefix() {
        let mut cores = trio();
        // Op 1's prepare to backup 1 is lost; op 2 arrives out of order
        // and is buffered; when op 1 shows up, the single ack at op 2
        // lets the primary commit both.
        let p1 = cores[0].client_op(bind("a", 1)).unwrap();
        let p2 = cores[0].client_op(bind("b", 2)).unwrap();
        let ack = cores[1].on_prepare(0, 0, p2.op_num, p2.commit_num, p2.update.clone(), t(1));
        assert!(!ack.accepted, "gap is not acked");
        let ack = cores[1].on_prepare(0, 0, p1.op_num, p1.commit_num, p1.update.clone(), t(1));
        assert!(ack.accepted);
        assert_eq!(ack.op_num, 2, "buffered successor drained");
        cores[0].on_ack(1, &ack);
        assert_eq!(cores[0].commit_num(), 2, "one watermark committed both");
    }

    #[test]
    fn no_commit_without_majority() {
        let mut cores = trio();
        let prep = cores[0].client_op(bind("a", 1)).unwrap();
        // No backup ever acks.
        assert_eq!(cores[0].commit_num(), 0);
        assert_eq!(cores[0].outcome_of(0, prep.op_num), OpOutcome::Pending);
        // Three silent heartbeat rounds and the primary steps down.
        for _ in 0..3 {
            cores[0].note_round(0);
        }
        assert!(!cores[0].is_master(), "no updates without a quorum");
        assert!(cores[0].client_op(bind("b", 2)).is_err());
        // Contact returns: mastership resumes.
        cores[0].note_round(2);
        assert!(cores[0].is_master());
    }

    #[test]
    fn view_change_elects_next_replica_and_preserves_committed_ops() {
        let mut cores = trio();
        replicate(&mut cores, 0, bind("a", 1));
        replicate(&mut cores, 0, bind("b", 2));
        // Primary 0 dies. Backup 1 suspects and proposes view 1.
        let late = t(10_000);
        assert!(cores[1].suspects(late));
        let v = cores[1].begin_view_change(late);
        assert_eq!(v, 1);
        // Backup 2 suspects too and joins; its DVC is released only
        // once the initiator reports the join majority.
        let ack = cores[2].on_start_view_change(v, false, late);
        assert!(ack.joined);
        let dvc = cores[2].emit_dvc(v);
        // Joiner's DVC plus the initiator's own (inserted automatically)
        // complete the quorum at the new primary (replica 1 itself).
        let sv = cores[1]
            .on_do_view_change(dvc.unwrap(), late)
            .expect("majority of DVCs completes the change");
        assert!(cores[1].is_master());
        assert_eq!(cores[1].view(), 1);
        // Every committed op survived in the chosen log (op 2 committed
        // only at the dead primary, so it rides the tail and recommits
        // once the StartView ack arrives).
        assert_eq!(cores[1].op_num(), 2);
        let ack = cores[2].on_start_view(sv, late);
        assert!(ack.accepted);
        assert_eq!(cores[2].view(), 1);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 2);
        let commit = cores[1].commit_num();
        let hb = cores[2].on_commit_hb(1, commit, late);
        assert!(hb.accepted);
        assert_eq!(cores[2].commit_num(), 2);
    }

    #[test]
    fn uncommitted_tail_survives_view_change_and_commits_in_new_view() {
        let mut cores = trio();
        // Op 1 reaches backup 1 but the primary crashes before hearing
        // the ack — the op is uncommitted everywhere.
        let prep = cores[0].client_op(bind("a", 1)).unwrap();
        cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(1));
        assert_eq!(cores[1].commit_num(), 0);
        // View change to replica 1, with replica 2 joining.
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        cores[2].on_start_view_change(v, false, late);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = cores[1]
            .on_do_view_change(dvc2, late)
            .expect("change completes");
        // The tail rode along: new primary has op 1 in its log.
        assert_eq!(cores[1].op_num(), 1);
        assert_eq!(sv.tail.len(), 1);
        // The StartView ack doubles as a prepare-ok in the new view.
        let ack = cores[2].on_start_view(sv, late);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 1, "tail committed in the new view");
    }

    #[test]
    fn sticky_primary_declines_lone_suspect() {
        let mut cores = trio();
        replicate(&mut cores, 0, bind("a", 1));
        // Replica 2 was partitioned (missed the recent prepare) and
        // suspects; 1 heard the primary just now and stays loyal.
        let now = t(10_000);
        let prep = cores[0].client_op(bind("b", 2)).unwrap();
        let ack =
            cores[1].on_prepare(prep.view, prep.view, prep.op_num, prep.commit_num, prep.update, now);
        cores[0].on_ack(1, &ack);
        assert!(cores[2].suspects(now));
        let v = cores[2].begin_view_change(now);
        let ack = cores[1].on_start_view_change(v, false, now);
        assert!(!ack.joined, "healthy backup declines the usurper");
        // No quorum: the initiator reverts and rejoins the old view.
        cores[2].abort_view_change(v, now);
        assert_eq!(cores[2].view(), 0);
        assert_eq!(cores[2].status(), VsrStatus::Normal);
        assert!(cores[0].is_master(), "primary was never deposed");
    }

    #[test]
    fn state_transfer_uses_log_replay_within_retention() {
        let mut cores = trio();
        for i in 0..5 {
            replicate(&mut cores, 0, bind(&format!("k{i}"), i));
        }
        // A fresh replica 2 (restart) catches up via log replay: the
        // primary still retains everything.
        let mut fresh = VsrCore::new(2, 3, 64, Duration::from_secs(5), t(0));
        let st = cores[0].on_get_state(fresh.commit_num());
        assert!(st.snapshot.is_none(), "within retention: log replay");
        assert!(fresh.on_state_transfer(st, t(1)));
        assert_eq!(fresh.op_num(), cores[0].op_num());
        assert_eq!(fresh.commit_num(), cores[0].commit_num());
        assert!(matches!(
            fresh.take_events().last(),
            Some(VsrEvent::CaughtUp { via_snapshot: false })
        ));
    }

    #[test]
    fn state_transfer_falls_back_to_snapshot_past_retention() {
        let mut cores: Vec<VsrCore> = (0..3)
            .map(|i| {
                let mut c = VsrCore::new(i, 3, 4, Duration::from_secs(5), t(0));
                c.end_probation(t(0));
                c
            })
            .collect();
        for i in 0..20 {
            replicate(&mut cores, 0, bind(&format!("k{i}"), i));
        }
        let mut fresh = VsrCore::new(2, 3, 4, Duration::from_secs(5), t(0));
        let st = cores[0].on_get_state(fresh.commit_num());
        assert!(
            st.snapshot.is_some(),
            "compaction dropped the early log: snapshot transfer"
        );
        assert!(fresh.on_state_transfer(st, t(1)));
        assert_eq!(fresh.commit_num(), cores[0].commit_num());
        assert_eq!(fresh.state().snapshot(), cores[0].state().snapshot());
        assert!(matches!(
            fresh.take_events().last(),
            Some(VsrEvent::CaughtUp { via_snapshot: true })
        ));
    }

    #[test]
    fn recovered_former_primary_does_not_resume_primacy() {
        let mut cores = trio();
        for i in 0..3 {
            replicate(&mut cores, 0, bind(&format!("k{i}"), i));
        }
        // Replica 0 (the view-0 primary) crashes and restarts empty.
        let mut reborn = VsrCore::new(0, 3, 64, Duration::from_secs(5), t(0));
        assert!(reborn.in_probation());
        assert!(
            !reborn.is_master(),
            "an empty restart must not resume mastership before recovery"
        );
        assert_eq!(reborn.recovery_quorum(), 2, "f+1 peer answers for n=3");
        let st = cores[1].on_get_state(reborn.commit_num());
        assert!(reborn.on_state_transfer(st, t(1)));
        assert_eq!(reborn.commit_num(), cores[1].commit_num(), "log recovered");
        assert_eq!(reborn.op_num(), cores[1].op_num());
        assert_eq!(
            reborn.status(),
            VsrStatus::ViewChange,
            "must not resume primacy over a recovered log"
        );
        assert!(!reborn.is_master());
    }

    #[test]
    fn superseded_op_is_never_reported_committed() {
        // REVIEW: a deposed primary polling its op by number alone could
        // be told "committed" after a view change replaced the entry at
        // that op number. Outcomes are keyed by viewstamp instead.
        let mut cores = trio();
        // Primary 0 sequences an op that reaches nobody.
        let prep = cores[0].client_op(bind("lost", 1)).unwrap();
        assert_eq!(prep.op_num, 1);
        // Replicas 1 and 2 change views without the op...
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        cores[2].on_start_view_change(v, false, late);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = cores[1]
            .on_do_view_change(dvc2, late)
            .unwrap();
        cores[2].on_start_view(sv, late);
        // ...and the new primary commits a *different* update at op 1.
        let p2 = cores[1].client_op(bind("winner", 2)).unwrap();
        assert_eq!(p2.op_num, 1);
        let ack = cores[2].on_prepare(p2.view, p2.view, p2.op_num, p2.commit_num, p2.update, late);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 1);
        // The stale primary catches up; its own op must read as
        // superseded, never as a success.
        let st = cores[1].on_get_state(cores[0].commit_num());
        assert!(st.authoritative());
        assert!(cores[0].on_state_transfer(st, late));
        assert_eq!(cores[0].commit_num(), 1);
        assert_eq!(cores[0].outcome_of(0, 1), OpOutcome::Superseded);
        // The replacement's own viewstamp still attests normally.
        assert_eq!(cores[0].outcome_of(1, 1), OpOutcome::Done(Ok(())));
    }

    #[test]
    fn entry_view_survives_view_change_and_attests_outcome() {
        // REVIEW: re-sent entries used to be re-stamped with the
        // sender's current view, eroding the "(view, op) names one
        // update" invariant. The original prepare view now rides the
        // wire next to the sender's view.
        let mut cores = trio();
        // Op 1 is prepared in view 0 on {0, 1}; replica 2 misses it.
        let prep = cores[0].client_op(bind("a", 1)).unwrap();
        let a1 = cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(1));
        cores[0].on_ack(1, &a1);
        // View change to view 1 carries the entry in the tail.
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        cores[2].on_start_view_change(v, false, late);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = cores[1]
            .on_do_view_change(dvc2, late)
            .unwrap();
        let ack = cores[2].on_start_view(sv, late);
        cores[1].on_ack(2, &ack);
        let commit = cores[1].commit_num();
        cores[2].on_commit_hb(1, commit, late);
        // Everyone's copy still carries the original view 0 — and the
        // original sequencer's viewstamp still attests the commit.
        for c in &cores[1..] {
            assert_eq!(c.entries_from(1).unwrap()[0].view, 0);
            assert_eq!(c.outcome_of(0, 1), OpOutcome::Done(Ok(())));
        }
    }

    #[test]
    fn dvc_released_only_while_still_in_the_proposed_view() {
        // REVIEW: DoViewChange used to be emitted the moment a replica
        // joined a proposal; a stale payload could then complete a view
        // the sender had since left. Emission is now gated on the
        // initiator observing a join majority, and refused once the
        // sender moved on.
        let mut cores = trio();
        let late = t(10_000);
        let v = cores[2].begin_view_change(late);
        let v2 = cores[2].begin_view_change(t(20_000));
        assert!(v2 > v);
        assert!(cores[2].emit_dvc(v).is_none(), "old promise is off");
        assert!(cores[2].emit_dvc(v2).is_some());
    }

    #[test]
    fn emitted_dvc_blocks_revert_and_forces_readmission() {
        let mut cores = trio();
        let late = t(10_000);
        // Replica 1 proposes view 1 with a majority; DVCs are released.
        let v = cores[1].begin_view_change(late);
        assert!(cores[2].on_start_view_change(v, false, late).joined);
        assert!(cores[2].emit_dvc(v).is_some());
        // The change stalls; 2's own follow-up proposal finds no quorum.
        // It must NOT revert to Normal below its emitted DVC — that
        // payload may still complete view 1 without its newer acks.
        let v2 = cores[2].begin_view_change(t(20_000));
        cores[2].abort_view_change(v2, t(20_000));
        assert_eq!(cores[2].status(), VsrStatus::ViewChange);
        assert!(cores[2].vc_forced());
        // The initiator never emitted its own DVC, so it is free to
        // revert; it becomes a loyal Normal backup again.
        cores[1].abort_view_change(v, t(20_500));
        assert_eq!(cores[1].status(), VsrStatus::Normal);
        // A loyal backup (fresh primary contact) declines its ordinary
        // proposal but admits the forced one: re-admission only through
        // a completed view change.
        let prep = cores[0].client_op(bind("fresh", 1)).unwrap();
        let hb = cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(21_000));
        cores[0].on_ack(1, &hb);
        let v3 = cores[2].begin_view_change(t(22_000));
        assert!(!cores[1].on_start_view_change(v3, false, t(22_000)).joined);
        assert!(cores[1].on_start_view_change(v3, true, t(22_000)).joined);
    }

    #[test]
    fn recovery_counts_only_normal_or_cold_answers() {
        // REVIEW: probationary / view-changing peers used to count
        // toward the f+1 recovery quorum; only Normal replicas serve
        // authoritative state, with genuinely cold peers admitted so a
        // cold-started group can bootstrap.
        let mut cores = trio();
        replicate(&mut cores, 0, bind("a", 1));
        let st = cores[0].on_get_state(0);
        assert!(st.authoritative() && !st.is_cold());
        cores[2].begin_view_change(t(10_000));
        let st = cores[2].on_get_state(0);
        assert!(!st.authoritative() && !st.is_cold(), "view-changing peers do not count");
        let fresh = VsrCore::new(2, 3, 64, Duration::from_secs(5), t(0));
        let st = fresh.on_get_state(0);
        assert!(!st.authoritative() && st.is_cold(), "cold peers count but carry no state");
    }

    #[test]
    fn stale_view_messages_are_rejected() {
        let mut cores = trio();
        // Move 1 and 2 to view 1.
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        cores[2].on_start_view_change(v, false, late);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = cores[1]
            .on_do_view_change(dvc2, late)
            .unwrap();
        cores[2].on_start_view(sv, late);
        // The deposed view-0 primary's prepare bounces with the higher
        // view in the ack, flagging it for state transfer.
        let prep = cores[0].client_op(bind("x", 1)).unwrap();
        let ack =
            cores[1].on_prepare(prep.view, prep.view, prep.op_num, prep.commit_num, prep.update, late);
        assert!(!ack.accepted);
        assert_eq!(ack.view, 1);
        cores[0].on_ack(1, &ack);
        assert!(cores[0].needs_catchup(), "deposed primary runs state transfer");
    }
}
