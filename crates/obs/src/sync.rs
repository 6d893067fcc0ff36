//! The recover policy for a poisoned lock, written once, and the one
//! bounded queue the workspace hands work across threads with.
//!
//! A std lock is poisoned when a thread panics while holding it, and every
//! later `lock`, `read`, `write` or `Condvar` wait returns the guard inside
//! an `Err`. A lock whose callers end in [`Recover::recover`] takes the
//! guard and the data as the panicking thread left them and carries on. A
//! lock that must not carry on past a panic calls `.expect` at its sites
//! instead, so each site shows which of the two policies it follows.

use std::collections::VecDeque;
use std::sync::{Condvar, LockResult, Mutex, PoisonError};
use std::time::Instant;

/// The guard of a lock acquisition (or of a `Condvar` wait), whether or
/// not a previous holder panicked.
pub trait Recover<G> {
    /// The guard, poisoned or not.
    fn recover(self) -> G;
}

impl<G> Recover<G> for LockResult<G> {
    fn recover(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded FIFO that any number of threads push to without blocking and
/// pop from, blocking until an item, a deadline or [`Queue::close`].
///
/// Pushes never wait: a full queue hands the item back. So the only
/// waiters are poppers, and one `Condvar` serves them all. The slots are
/// reserved up front, so a push never allocates. No user code runs under
/// the lock and every update leaves the deque whole, so a poisoned lock is
/// recovered.
pub struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    cap: usize,
    closed: bool,
}

/// Why [`Queue::try_push`] refused an item; both hand it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue holds `cap` items.
    Full(T),
    /// [`Queue::close`] was called.
    Closed(T),
}

impl<T> Queue<T> {
    /// An open, empty queue of `cap` preallocated slots (`0` refuses
    /// every push).
    pub fn new(cap: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                cap,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Append `item` and wake one waiting popper, or hand it back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().recover();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() == st.cap {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest item, waiting for one while the queue is empty. `None`
    /// once the queue is closed and drained, or when `deadline` passes
    /// first (`None` waits without one).
    pub fn pop(&self, deadline: Option<Instant>) -> Option<T> {
        let mut st = self.state.lock().recover();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = match deadline {
                None => self.ready.wait(st).recover(),
                Some(at) => {
                    let left = at.checked_duration_since(Instant::now())?;
                    self.ready.wait_timeout(st, left).recover().0
                }
            };
        }
    }

    /// Items waiting to be popped.
    pub fn len(&self) -> usize {
        self.state.lock().recover().items.len()
    }

    /// No item is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuse every later push and wake every waiter; what is queued can
    /// still be popped. Idempotent.
    pub fn close(&self) {
        self.state.lock().recover().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, RwLock};
    use std::time::Duration;

    #[test]
    fn a_lock_poisoned_by_a_panic_yields_its_guard_and_data() {
        let (m, rw, cv) = (Mutex::new(1), RwLock::new(vec![1]), Condvar::new());
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let (mut a, mut b) = (m.lock().unwrap(), rw.write().unwrap());
                (*a, b[0]) = (2, 2);
                panic!("holder dies with both locks held");
            })
            .join()
        });
        assert!(died.is_err() && m.is_poisoned() && rw.is_poisoned());
        assert_eq!(*cv.wait_while(m.lock().recover(), |v| *v < 2).recover(), 2);
        rw.write().recover().push(3);
        assert_eq!(*rw.read().recover(), [2, 3]);
    }

    #[test]
    fn items_come_out_in_the_order_they_went_in() {
        let q = Queue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        let out: Vec<i32> = (0..4).map(|_| q.pop(None).unwrap()).collect();
        assert_eq!(out, [0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_full_queue_hands_the_item_back() {
        let q = Queue::new(1);
        q.try_push("a").unwrap();
        assert_eq!(q.try_push("b"), Err(PushError::Full("b")));
        assert_eq!(q.pop(None), Some("a"));
        q.try_push("b").unwrap();
        assert_eq!(Queue::new(0).try_push(1), Err(PushError::Full(1)));
    }

    #[test]
    fn close_wakes_a_blocked_pop_refuses_pushes_and_drains_what_is_queued() {
        let (q, started) = (Queue::<u32>::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                started.wait();
                q.pop(None)
            });
            // No std hook tells when a thread is parked on a condvar: the
            // pause makes it near-certain the waiter is blocked in `pop`
            // when `close` runs, and either order must give `None`.
            started.wait();
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(waiter.join().unwrap(), None);
        });
        assert_eq!(q.try_push(7), Err(PushError::Closed(7)));

        let q = Queue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(
            (q.pop(None), q.pop(None), q.pop(None)),
            (Some(1), Some(2), None)
        );
    }

    #[test]
    fn a_passed_deadline_returns_none() {
        let q = Queue::<u8>::new(1);
        assert_eq!(q.pop(Some(Instant::now())), None);
        let start = Instant::now();
        assert_eq!(q.pop(Some(start + Duration::from_millis(20))), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // An item already queued is taken even with the deadline gone.
        q.try_push(5).unwrap();
        assert_eq!(q.pop(Some(start)), Some(5));
    }

    #[test]
    fn four_producers_and_four_consumers_deliver_every_item_once() {
        const PER_PRODUCER: u32 = 2_000;
        let q = Queue::new(8);
        let delivered = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(item) = q.pop(None) {
                            got.push(item);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4u32)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut item = p * PER_PRODUCER + i;
                            while let Err(PushError::Full(back)) = q.try_push(item) {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut all: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            all
        });
        assert_eq!(delivered, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }
}
