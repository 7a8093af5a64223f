//! The task table both runtimes keep: the simulator's kernel one for
//! every node, TCP one per node loop (`real.rs`'s `Local`). Each
//! runtime's own part of a task — a simulated process, a TCP task's
//! stack — is the table's payload; the rules for how a task waits are
//! here, once.
//!
//! A task that waits is marked blocked in a new wait, which a generation
//! names, and a timed wait's deadline goes into the timer map, keyed like
//! the runtime's clock: the simulator's `(at, src, sseq)`, drawn from the
//! source node's event stream, so that timeouts and events pop in one
//! merged order, and TCP's `(Instant, id)`, unique because a task waits
//! in one wait at a time. A wake takes a task only if it is still blocked
//! in the wait the wake names — a stale one, for a wait that already
//! ended, is ignored — and withdraws the wait's timer, so a wait that ends
//! takes its timer with it. A due timer wakes its task, which then reads
//! that it timed out. A woken task is queued to run, in wake order.

use std::collections::{BTreeMap, VecDeque};

pub(crate) type TaskId = u64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Runnable,
    Running,
    Blocked,
}

struct Entry<K, T> {
    task: T,
    state: State,
    /// Advanced as a wait begins and as it ends: a wake names the wait
    /// it is for by the generation the wait began with.
    wait_gen: u64,
    /// Whether its last wait ended at its timeout.
    timed_out: bool,
    /// The pending timeout of the timed wait the task is blocked in.
    timer: Option<K>,
}

/// Tasks by id (in id order), the queue of those to run, and the timers
/// of the waits they are blocked in.
pub(crate) struct Tasks<K, T> {
    entries: BTreeMap<TaskId, Entry<K, T>>,
    runnable: VecDeque<TaskId>,
    timers: BTreeMap<K, TaskId>,
}

impl<K, T> Default for Tasks<K, T> {
    fn default() -> Tasks<K, T> {
        Tasks {
            entries: BTreeMap::new(),
            runnable: VecDeque::new(),
            timers: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy, T> Tasks<K, T> {
    /// Adds task `id`, runnable: it runs when [`run`](Tasks::run) or,
    /// once [`queue`](Tasks::queue)d, [`next_runnable`](Tasks::next_runnable)
    /// names it.
    pub fn insert(&mut self, id: TaskId, task: T) {
        let entry = Entry {
            task,
            state: State::Runnable,
            wait_gen: 0,
            timed_out: false,
            timer: None,
        };
        self.entries.insert(id, entry);
    }

    /// Queues runnable task `id` to run.
    pub fn queue(&mut self, id: TaskId) {
        self.runnable.push_back(id);
    }

    /// Takes task `id` out of the table; it waits in nothing.
    pub fn remove(&mut self, id: TaskId) -> Option<T> {
        let entry = self.entries.remove(&id)?;
        debug_assert!(entry.timer.is_none(), "a task left with a timer");
        Some(entry.task)
    }

    pub fn get(&self, id: TaskId) -> Option<&T> {
        self.entries.get(&id).map(|e| &e.task)
    }

    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        self.entries.get_mut(&id).map(|e| &mut e.task)
    }

    /// Every task, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &T)> {
        self.entries.iter().map(|(&id, e)| (id, &e.task))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The next id off the run queue; it runs if [`run`](Tasks::run)
    /// still finds it runnable.
    pub fn pop_runnable(&mut self) -> Option<TaskId> {
        self.runnable.pop_front()
    }

    /// Marks task `id` running if it is runnable, and returns it.
    pub fn run(&mut self, id: TaskId) -> Option<&mut T> {
        let entry = (self.entries.get_mut(&id)).filter(|e| e.state == State::Runnable)?;
        entry.state = State::Running;
        Some(&mut entry.task)
    }

    /// Runs the first queued task still runnable, and returns its id and
    /// what `f` reads off it.
    pub fn next_runnable<R>(&mut self, f: impl FnOnce(&T) -> R) -> Option<(TaskId, R)> {
        while let Some(id) = self.pop_runnable() {
            if let Some(task) = self.run(id) {
                return Some((id, f(task)));
            }
        }
        None
    }

    /// Whether task `id` is running: one that switched back to its
    /// runtime still running has ended.
    pub fn running(&self, id: TaskId) -> bool {
        matches!(self.entries.get(&id), Some(e) if e.state == State::Running)
    }

    /// Blocks running task `id` in a new wait, timed out at `timer` if
    /// given, and returns the generation a wake for this wait names.
    pub fn block(&mut self, id: TaskId, timer: Option<K>) -> u64 {
        let entry = self.entries.get_mut(&id).expect("the running task");
        entry.wait_gen += 1;
        entry.state = State::Blocked;
        entry.timed_out = false;
        entry.timer = timer;
        if let Some(key) = timer {
            self.timers.insert(key, id);
        }
        entry.wait_gen
    }

    /// Makes task `id` runnable if it is blocked in the wait `gen` names
    /// (`None`: whatever wait it is blocked in), withdraws that wait's
    /// timer and queues the task. Returns whether it woke.
    pub fn wake(&mut self, id: TaskId, gen: Option<u64>) -> bool {
        let entry = match self.entries.get_mut(&id) {
            Some(e) if e.state == State::Blocked && gen.is_none_or(|g| g == e.wait_gen) => e,
            _ => return false,
        };
        entry.wait_gen += 1;
        entry.state = State::Runnable;
        if let Some(key) = entry.timer.take() {
            self.timers.remove(&key);
        }
        self.runnable.push_back(id);
        true
    }

    /// Task `id`, and whether its last wait ended at its timeout.
    pub fn woken(&self, id: TaskId) -> Option<(&T, bool)> {
        self.entries.get(&id).map(|e| (&e.task, e.timed_out))
    }

    /// The key of the first pending timeout.
    pub fn first_timer(&self) -> Option<K> {
        self.timers.first_key_value().map(|(key, _)| *key)
    }

    /// Wakes the task whose timeout is first, timed out, if `due` says it
    /// is due; returns whether one fired. A pending timeout always
    /// belongs to a task still blocked in its wait.
    pub fn time_out(&mut self, due: impl FnOnce(&K) -> bool) -> bool {
        let Some(entry) = self.timers.first_entry().filter(|e| due(e.key())) else {
            return false;
        };
        let id = entry.remove();
        if let Some(task) = self.entries.get_mut(&id) {
            debug_assert!(task.state == State::Blocked, "a timeout outlived its wait");
            (task.timer, task.timed_out) = (None, true);
        }
        self.wake(id, None)
    }

    /// Timeouts pending now.
    pub fn timers(&self) -> usize {
        self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::Tasks;

    fn blocked(timer: Option<u64>) -> Tasks<u64, &'static str> {
        let mut tasks = Tasks::default();
        tasks.insert(1, "a");
        tasks.queue(1);
        assert_eq!(tasks.next_runnable(|t| *t), Some((1, "a")));
        tasks.block(1, timer);
        tasks
    }

    #[test]
    fn a_wake_takes_only_the_wait_it_names_and_its_timer() {
        let mut tasks = blocked(Some(10));
        assert!(!tasks.wake(1, Some(0)), "a stale wake");
        assert!(tasks.wake(1, Some(1)));
        assert_eq!((tasks.timers(), tasks.woken(1)), (0, Some((&"a", false))));
        assert!(!tasks.wake(1, Some(1)), "a second wake");
        assert_eq!(tasks.next_runnable(|_| ()), Some((1, ())));
        assert_eq!(tasks.next_runnable(|_| ()), None, "queued once");
    }

    #[test]
    fn a_due_timer_wakes_its_task_timed_out() {
        let mut tasks = blocked(Some(10));
        assert!(!tasks.time_out(|&at| at <= 9));
        assert!(tasks.time_out(|&at| at <= 10));
        assert_eq!((tasks.timers(), tasks.woken(1)), (0, Some((&"a", true))));
        // A wait with no timer ends only by a wake; `None` names any.
        let gen = tasks.block(1, None);
        assert!(!tasks.time_out(|_| true));
        assert!(tasks.wake(1, None));
        assert!(!tasks.wake(1, Some(gen)));
        assert_eq!(tasks.woken(1), Some((&"a", false)));
    }
}
