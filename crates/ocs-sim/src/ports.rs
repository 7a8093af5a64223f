//! A node's port table, the one copy of the port and group rules: the
//! simulator's kernel keeps one for all its nodes, and TCP one per
//! node. A fixed port already open gives `PortInUse`; an ephemeral open
//! takes the first free port from the node's cursor, kept here too,
//! wrapping to [`EPHEMERAL_BASE`]. Every open gets a fresh id, and a handle
//! receives from, serves or closes only its own open. A group kill, a
//! crash or stop, and shutdown close their ports in port order. Beside a
//! group's ports sits its record, under the same lock: whether it was
//! killed, and its members, processes or tasks by id. A killed group takes
//! no member, and its members' opens are closed at birth. What differs
//! between the runtimes is a type parameter, `R`, where an unserved port's
//! landings wait for a receive. A closed entry is handed back, never
//! dropped here: a served port's handler may hold an endpoint whose drop
//! takes the lock the table sits under.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::kernel::IdBuild;
use crate::rt::{Addr, InlineTest, LandingHandler, NetError, NodeId, PortReq, RecvError};

/// First port number handed out for `PortReq::Ephemeral`.
pub(crate) const EPHEMERAL_BASE: u16 = 32768;

/// What landed at a port, as a receive returns it: a frame, or the bounce
/// of one sent from the port.
pub(crate) type Landing = Result<(Addr, Bytes), RecvError>;

/// A served port's handler and what it runs as.
pub(crate) struct Served {
    pub task: Arc<str>,
    pub handler: LandingHandler,
    /// Which frames run where they land; bounces always do.
    inline: InlineTest,
    /// The group the handler joins: the port's.
    pub group: Option<u64>,
}

impl Served {
    /// Whether `landing` runs where it lands rather than in a task.
    pub fn runs_inline(&self, landing: &Landing) -> bool {
        match landing {
            Ok((_, msg)) => (self.inline)(msg),
            Err(_) => true,
        }
    }

    /// The handler's task body for one landing.
    pub fn job(&self, landing: Landing) -> Box<dyn FnOnce() + Send> {
        let handler = Arc::clone(&self.handler);
        Box::new(move || handler(landing))
    }

    /// Sorts what queued before the serve: `spawn`s each landing that does
    /// not run inline, in arrival order, and returns the rest, in order,
    /// for the caller to run once its lock is released.
    pub fn split(
        &self,
        queued: impl IntoIterator<Item = Landing>,
        mut spawn: impl FnMut(Landing),
    ) -> Vec<Landing> {
        let mut here = Vec::new();
        for landing in queued {
            if self.runs_inline(&landing) {
                here.push(landing);
            } else {
                spawn(landing);
            }
        }
        here
    }
}

/// An open port. A closed one has no entry: a landing for it bounces, a
/// receive returns `Closed`, and its number is free.
pub(crate) struct Port<R> {
    /// Which open of the port this is.
    pub id: u64,
    /// The opener's group, whose kill closes the port.
    pub group: Option<u64>,
    /// Set by `serve`: landings run the handler instead of queueing.
    /// Behind a pointer, so an ordinary port does not grow.
    pub served: Option<Arc<Served>>,
    /// Where an unserved port's landings wait for a receive.
    pub rx: R,
}

/// A process group with a member: its home node, when it was killed, in
/// the runtime's own microseconds, and its members in join order.
struct Group {
    node: NodeId,
    killed: Option<u64>,
    members: Vec<u64>,
}

/// What a kill ends: the group's members, in join order, and its ports,
/// in port order.
pub(crate) type Killed<R> = (Vec<u64>, Vec<(Addr, Port<R>)>);

/// The open ports of one or more nodes, keyed by address, and the groups
/// homed there.
pub(crate) struct PortTable<R> {
    ports: HashMap<Addr, Port<R>, IdBuild>,
    groups: HashMap<u64, Group, IdBuild>,
    /// Where each node's next ephemeral scan starts.
    cursors: HashMap<NodeId, u16, IdBuild>,
    /// The id of the last open.
    last_id: u64,
}

impl<R> Default for PortTable<R> {
    fn default() -> PortTable<R> {
        PortTable {
            ports: HashMap::default(),
            groups: HashMap::default(),
            cursors: HashMap::default(),
            last_id: 0,
        }
    }
}

/// The ephemeral port after `port`, wrapping to [`EPHEMERAL_BASE`].
fn after(port: u16) -> u16 {
    port.checked_add(1).unwrap_or(EPHEMERAL_BASE)
}

impl<R> PortTable<R> {
    /// Opens a port on `node` for `group`, its landings waiting in `rx`;
    /// an ephemeral one is scanned for from the node's cursor, which is
    /// left past it. Returns the address and the open's id. If `group` has
    /// been killed the open is closed at birth: it has no entry.
    pub fn open(
        &mut self,
        node: NodeId,
        req: PortReq,
        group: Option<u64>,
        rx: R,
    ) -> Result<(Addr, u64), NetError> {
        let addr = match req {
            PortReq::Fixed(port) => {
                let addr = Addr::new(node, port);
                if self.ports.contains_key(&addr) {
                    return Err(NetError::PortInUse(port));
                }
                addr
            }
            PortReq::Ephemeral => {
                let cursor = self.cursors.entry(node).or_insert(EPHEMERAL_BASE);
                let mut addr = Addr::new(node, *cursor);
                while self.ports.contains_key(&addr) {
                    addr.port = after(addr.port);
                }
                *cursor = after(addr.port);
                addr
            }
        };
        self.last_id += 1;
        let id = self.last_id;
        if group.is_some_and(|g| self.killed(g)) {
            return Ok((addr, id));
        }
        let port = Port {
            id,
            group,
            served: None,
            rx,
        };
        self.ports.insert(addr, port);
        Ok((addr, id))
    }

    /// Whatever open holds `addr`: where a landing for it goes.
    #[inline]
    pub fn get_mut(&mut self, addr: &Addr) -> Option<&mut Port<R>> {
        self.ports.get_mut(addr)
    }

    /// Open `id` of `addr`, if it is still open.
    pub fn own(&mut self, addr: &Addr, id: u64) -> Option<&mut Port<R>> {
        self.ports.get_mut(addr).filter(|p| p.id == id)
    }

    /// Closes open `id` of `addr`, if it is still open.
    pub fn close(&mut self, addr: &Addr, id: u64) -> Option<Port<R>> {
        self.own(addr, id)?;
        self.ports.remove(addr)
    }

    /// Closes every port `pick` accepts; returns them in port order.
    pub fn close_where(
        &mut self,
        mut pick: impl FnMut(&Addr, &Port<R>) -> bool,
    ) -> Vec<(Addr, Port<R>)> {
        let mut closed: Vec<_> = self.ports.extract_if(|addr, p| pick(addr, p)).collect();
        closed.sort_unstable_by_key(|&(addr, _)| addr);
        closed
    }

    /// Counts `member` into `group`, homed on `node`; `false`, and no
    /// member, if the group has been killed.
    pub fn join(&mut self, node: NodeId, group: u64, member: u64) -> bool {
        let record = self.groups.entry(group).or_insert_with(|| Group {
            node,
            killed: None,
            members: Vec::new(),
        });
        if record.killed.is_some() {
            return false;
        }
        record.members.push(member);
        true
    }

    /// Takes `member` out of `group`. The last member out takes the
    /// record with it; if the group was killed, returns when.
    pub fn leave(&mut self, group: u64, member: u64) -> Option<u64> {
        let record = self.groups.get_mut(&group)?;
        if let Some(at) = record.members.iter().rposition(|&m| m == member) {
            record.members.remove(at);
        }
        if !record.members.is_empty() {
            return None;
        }
        self.groups.remove(&group)?.killed
    }

    /// Whether `group` is not killed and has a member (a record has one).
    pub fn alive(&self, group: u64) -> bool {
        self.groups.get(&group).is_some_and(|g| g.killed.is_none())
    }

    /// Whether `group` has been killed and has a member left.
    pub fn killed(&self, group: u64) -> bool {
        self.groups.get(&group).is_some_and(|g| g.killed.is_some())
    }

    /// Kills every group `pick` accepts by id and home node at `now`:
    /// marks it, so it takes no new member, and closes its ports. Returns
    /// the members, each group's in join order, and the ports, in port
    /// order; a group killed already gives neither.
    pub fn kill_where(&mut self, now: u64, pick: impl Fn(u64, NodeId) -> bool) -> Killed<R> {
        let mut members = Vec::new();
        for (&id, g) in &mut self.groups {
            if g.killed.is_none() && pick(id, g.node) {
                g.killed = Some(now);
                members.extend_from_slice(&g.members);
            }
        }
        let ports = self.close_where(|addr, p| p.group.is_some_and(|g| pick(g, addr.node)));
        (members, ports)
    }

    /// How many groups have a record: none once every member has left.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// The handler of `addr`'s served open, with `member` counted into
    /// its group; `None` if `addr` has no served open. The join is made
    /// in the step that finds the port open, and a kill closes the port
    /// in a step of its own, so the handler never joins a killed group,
    /// not even one that had no member left to mark. (The simulator
    /// spawns a handler in the kernel step that finds its port, which
    /// holds the same.)
    pub fn join_handler(&mut self, addr: &Addr, member: u64) -> Option<Arc<Served>> {
        let served = Arc::clone(self.ports.get(addr)?.served.as_ref()?);
        if let Some(g) = served.group {
            if !self.join(addr.node, g, member) {
                return None;
            }
        }
        Some(served)
    }

    /// Serves open `id` of `addr`: its landings run `handler` as `task`,
    /// in the port's group, from now on. Returns the served record and the
    /// port's receive side, whose queued landings the caller hands to
    /// [`Served::split`]; `None` if the open is closed.
    pub fn serve(
        &mut self,
        addr: &Addr,
        id: u64,
        task: &str,
        handler: LandingHandler,
        inline: InlineTest,
    ) -> Option<(Arc<Served>, &mut R)> {
        let port = self.own(addr, id)?;
        let served = Arc::new(Served {
            task: Arc::from(task),
            handler,
            inline,
            group: port.group,
        });
        port.served = Some(Arc::clone(&served));
        Some((served, &mut port.rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table = PortTable<()>;

    const N: NodeId = NodeId(1);

    fn open(t: &mut Table, req: PortReq, group: Option<u64>) -> (Addr, u64) {
        t.open(N, req, group, ()).unwrap()
    }

    fn kill(t: &mut Table, group: u64) -> Killed<()> {
        t.kill_where(5, |g, _| g == group)
    }

    #[test]
    fn a_fixed_port_open_twice_is_in_use() {
        let mut t = Table::default();
        open(&mut t, PortReq::Fixed(80), None);
        let again = t.open(N, PortReq::Fixed(80), None, ());
        assert_eq!(again.err(), Some(NetError::PortInUse(80)));
        // Another node's port 80 is another port.
        assert!(t.open(NodeId(2), PortReq::Fixed(80), None, ()).is_ok());
    }

    #[test]
    fn the_ephemeral_cursor_skips_open_ports_and_wraps_to_the_base() {
        let mut t = Table::default();
        // Walk the cursor up to 65534, leaving every port free again.
        for _ in EPHEMERAL_BASE..65534 {
            open(&mut t, PortReq::Ephemeral, None);
        }
        t.close_where(|_, _| true);
        open(&mut t, PortReq::Fixed(65535), None);
        open(&mut t, PortReq::Fixed(EPHEMERAL_BASE + 1), None);
        let ports: Vec<u16> = (0..4)
            .map(|_| open(&mut t, PortReq::Ephemeral, None).0.port)
            .collect();
        let base = EPHEMERAL_BASE;
        assert_eq!(ports, [65534, base, base + 2, base + 3]);
        // Another node's cursor is its own.
        assert_eq!(t.open(NodeId(2), PortReq::Ephemeral, None, ()).unwrap().0.port, base);
    }

    #[test]
    fn a_stale_open_id_neither_closes_nor_serves_the_successor() {
        let mut t = Table::default();
        let (addr, first) = open(&mut t, PortReq::Fixed(7), None);
        assert_eq!(t.close(&addr, first).map(|p| p.id), Some(first));
        let (_, second) = open(&mut t, PortReq::Fixed(7), None);
        assert!(t.close(&addr, first).is_none());
        let handler: LandingHandler = Arc::new(|_| {});
        assert!(t.serve(&addr, first, "stale", handler, Arc::new(|_| true)).is_none());
        let port = t.get_mut(&addr).expect("the successor is open");
        assert_eq!((port.id, port.served.is_none()), (second, true));
    }

    #[test]
    fn a_group_close_takes_its_ports_in_port_order_and_no_others() {
        let mut t = Table::default();
        for member in [7, 3, 9] {
            assert!(t.join(N, 1, member));
        }
        assert!(t.join(N, 2, 4));
        for (port, group) in [(9, Some(1)), (3, Some(2)), (5, Some(1)), (4, None), (1, Some(1))] {
            open(&mut t, PortReq::Fixed(port), group);
        }
        // The kill ends the members in join order and the ports in port
        // order, once.
        let (members, closed) = kill(&mut t, 1);
        let closed: Vec<u16> = closed.iter().map(|(addr, _)| addr.port).collect();
        assert_eq!((members, closed), (vec![7, 3, 9], vec![1, 5, 9]));
        let (members, closed) = kill(&mut t, 1);
        assert!(members.is_empty() && closed.is_empty(), "a second kill");
        let left: Vec<u16> = t.close_where(|_, _| true).iter().map(|(a, _)| a.port).collect();
        assert_eq!(left, [3, 4]);
    }

    #[test]
    fn a_killed_group_takes_no_member_and_its_opens_are_closed_at_birth() {
        let mut t = Table::default();
        assert!(t.join(N, 1, 10));
        kill(&mut t, 1);
        assert!(!t.join(N, 1, 11), "a join after the kill");
        let (addr, id) = open(&mut t, PortReq::Fixed(90), Some(1));
        assert!(t.own(&addr, id).is_none(), "the member's open has no entry");
        // Another group, and no group, open as before.
        let (other, id) = open(&mut t, PortReq::Fixed(91), Some(2));
        assert!(t.own(&other, id).is_some());
        assert!(
            t.open(N, PortReq::Fixed(90), None, ()).is_ok(),
            "port 90 is free"
        );
    }

    #[test]
    fn a_group_with_no_member_still_owns_its_served_port_until_a_kill() {
        let mut t = Table::default();
        assert!(t.join(N, 1, 10));
        let (addr, id) = open(&mut t, PortReq::Fixed(80), Some(1));
        let handler: LandingHandler = Arc::new(|_| {});
        assert!(t
            .serve(&addr, id, "orb", handler, Arc::new(|_| true))
            .is_some());
        t.leave(1, 10);
        assert!(t.groups() == 0 && !t.alive(1), "the opener left");
        let served = t.get_mut(&addr).and_then(|p| p.served.clone());
        assert_eq!(
            served.map(|s| s.group),
            Some(Some(1)),
            "served, in the group"
        );
        // A handler's task joins the group through the open port.
        assert!(t.join_handler(&addr, 11).is_some());
        assert!(t.alive(1), "the handler is a member");
        t.leave(1, 11);
        let (members, ports) = kill(&mut t, 1);
        assert!(members.is_empty());
        assert_eq!(ports.iter().map(|(a, _)| *a).collect::<Vec<_>>(), [addr]);
        assert!(t.get_mut(&addr).is_none());
        // The kill had no record to mark, yet no handler joins after it:
        // the port it joins through is gone.
        assert!(t.join_handler(&addr, 12).is_none());
        assert!(!t.alive(1) && t.groups() == 0, "no record after the kill");
    }

    #[test]
    fn a_group_is_alive_while_it_has_a_member_and_no_kill() {
        let mut t = Table::default();
        assert!(!t.alive(1), "no member yet");
        t.join(N, 1, 10);
        t.join(N, 1, 11);
        assert!(t.alive(1));
        t.leave(1, 10);
        assert!(t.alive(1), "one member left");
        t.leave(1, 11);
        assert!(!t.alive(1), "no member left");
        t.join(N, 1, 12);
        assert!(t.alive(1), "a member again");
        t.join(N, 1, 13);
        kill(&mut t, 1);
        assert!(
            !t.alive(1) && t.killed(1),
            "killed, its members still unwinding"
        );
        // The last member out of a killed group says when it was killed.
        assert_eq!((t.leave(1, 13), t.leave(1, 12)), (None, Some(5)));
        assert!(
            !t.alive(1) && !t.killed(1) && t.groups() == 0,
            "no record left"
        );
    }

    #[test]
    fn a_node_kill_ends_every_group_homed_there_and_only_their_ports() {
        let mut t = Table::default();
        let far = NodeId(2);
        t.join(N, 1, 10);
        t.join(N, 2, 4);
        t.join(far, 3, 5);
        open(&mut t, PortReq::Fixed(8), Some(2));
        open(&mut t, PortReq::Fixed(7), None);
        // A group with no member left, whose port it still owns.
        open(&mut t, PortReq::Fixed(6), Some(4));
        t.open(far, PortReq::Fixed(8), Some(3), ()).unwrap();
        let (mut members, ports) = t.kill_where(5, |_, node| node == N);
        let ports: Vec<Addr> = ports.iter().map(|(a, _)| *a).collect();
        members.sort_unstable();
        assert_eq!(members, [4, 10]);
        assert_eq!(ports, [Addr::new(N, 6), Addr::new(N, 8)]);
        assert!(t.killed(1) && t.killed(2) && t.alive(3));
        assert!(t.get_mut(&Addr::new(N, 7)).is_some(), "no group's port");
        let again = t.kill_where(6, |_, node| node == N);
        assert!(again.0.is_empty() && again.1.is_empty(), "killed already");
    }
}
