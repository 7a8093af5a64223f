//! A node's port table, the one copy of the port rules: the simulator
//! keeps one per shard, for the nodes it owns, and TCP one per node. A
//! fixed port already open gives `PortInUse`; an ephemeral open takes the
//! first free port from the node's cursor, kept here too, wrapping to
//! [`EPHEMERAL_BASE`]. Every open gets a fresh id, and a handle receives
//! from, serves or closes only its own open. A group kill, a crash or
//! stop, and shutdown close their ports in port order. What differs
//! between the runtimes is a type parameter each: `R`, where an unserved
//! port's landings wait for a receive, and `G`, how the port's owner group
//! is held. A closed entry is handed back, never dropped here: a served
//! port's handler may hold an endpoint whose drop takes the lock the table
//! sits under.

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

/// A port's owner group as a runtime holds it; the table asks only its id.
pub(crate) trait Owner: Clone {
    fn group_id(&self) -> Option<u64>;
}

impl Owner for Option<u64> {
    fn group_id(&self) -> Option<u64> {
        *self
    }
}

/// A served port's handler and what it runs as.
pub(crate) struct Served<G> {
    pub task: Arc<str>,
    pub handler: LandingHandler,
    /// Which frames run where they land; bounces always do.
    inline: InlineTest,
    /// The group the handler joins: the port's.
    pub group: G,
}

impl<G> Served<G> {
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
pub(crate) struct Port<R, G> {
    /// Which open of the port this is.
    pub id: u64,
    /// The opener's group, whose kill closes the port.
    pub group: G,
    /// Set by `serve`: landings run the handler instead of queueing.
    /// Behind a pointer, so an ordinary port does not grow.
    pub served: Option<Arc<Served<G>>>,
    /// Where an unserved port's landings wait for a receive.
    pub rx: R,
}

/// The open ports of one or more nodes, keyed by address.
pub(crate) struct PortTable<R, G> {
    ports: HashMap<Addr, Port<R, G>, IdBuild>,
    /// Where each node's next ephemeral scan starts.
    cursors: HashMap<NodeId, u16, IdBuild>,
    /// The id of the last open.
    last_id: u64,
}

impl<R, G> Default for PortTable<R, G> {
    fn default() -> PortTable<R, G> {
        PortTable {
            ports: HashMap::default(),
            cursors: HashMap::default(),
            last_id: 0,
        }
    }
}

/// The ephemeral port after `port`, wrapping to [`EPHEMERAL_BASE`].
fn after(port: u16) -> u16 {
    port.checked_add(1).unwrap_or(EPHEMERAL_BASE)
}

impl<R, G: Owner> PortTable<R, G> {
    /// Opens a port on `node` for `group`, its landings waiting in `rx`;
    /// an ephemeral one is scanned for from the node's cursor, which is
    /// left past it. Returns the address and the open's id.
    pub fn open(
        &mut self,
        node: NodeId,
        req: PortReq,
        group: G,
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
    pub fn get_mut(&mut self, addr: &Addr) -> Option<&mut Port<R, G>> {
        self.ports.get_mut(addr)
    }

    /// Open `id` of `addr`, if it is still open.
    pub fn own(&mut self, addr: &Addr, id: u64) -> Option<&mut Port<R, G>> {
        self.ports.get_mut(addr).filter(|p| p.id == id)
    }

    /// Closes open `id` of `addr`, if it is still open.
    pub fn close(&mut self, addr: &Addr, id: u64) -> Option<Port<R, G>> {
        self.own(addr, id)?;
        self.ports.remove(addr)
    }

    /// Closes every port `pick` accepts; returns them in port order.
    pub fn close_where(
        &mut self,
        mut pick: impl FnMut(&Addr, &Port<R, G>) -> bool,
    ) -> Vec<(Addr, Port<R, G>)> {
        let mut closed: Vec<_> = self.ports.extract_if(|addr, p| pick(addr, p)).collect();
        closed.sort_unstable_by_key(|&(addr, _)| addr);
        closed
    }

    /// Closes the ports `group` owns; returns them in port order.
    pub fn close_group(&mut self, group: u64) -> Vec<(Addr, Port<R, G>)> {
        self.close_where(|_, p| p.group.group_id() == Some(group))
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
    ) -> Option<(Arc<Served<G>>, &mut R)> {
        let port = self.own(addr, id)?;
        let served = Arc::new(Served {
            task: Arc::from(task),
            handler,
            inline,
            group: port.group.clone(),
        });
        port.served = Some(Arc::clone(&served));
        Some((served, &mut port.rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table = PortTable<(), Option<u64>>;

    const N: NodeId = NodeId(1);

    fn open(t: &mut Table, req: PortReq, group: Option<u64>) -> (Addr, u64) {
        t.open(N, req, group, ()).unwrap()
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
        for (port, group) in [(9, Some(1)), (3, Some(2)), (5, Some(1)), (4, None), (1, Some(1))] {
            open(&mut t, PortReq::Fixed(port), group);
        }
        let closed: Vec<u16> = t.close_group(1).iter().map(|(addr, _)| addr.port).collect();
        assert_eq!(closed, [1, 5, 9]);
        let left: Vec<u16> = t.close_where(|_, _| true).iter().map(|(a, _)| a.port).collect();
        assert_eq!(left, [3, 4]);
    }
}
