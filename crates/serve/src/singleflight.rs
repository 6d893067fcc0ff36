//! Singleflight coalescing: concurrent misses on one key share one
//! measurement.
//!
//! A farm measurement costs minutes of (simulated) deployment wall-clock.
//! When eight clients miss on the same `(graph, platform, batch)` at once,
//! running eight measurements is pure waste — they would all return the
//! same key-seeded ground truth. The first requester becomes the flight's
//! *leader* and enqueues the measurement; everyone else becomes a
//! *follower* and parks on the flight until the leader's worker publishes
//! the shared result.
//!
//! Completion removes the flight from the table *before* publishing, so a
//! requester arriving after completion starts a fresh flight — by then the
//! result is already in the database and the hot cache, so it resolves as
//! a hit without reaching this module.

use nnlqp_obs::Recover;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight computation; followers park here.
pub struct Flight<V> {
    slot: Mutex<Option<V>>,
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Block until the leader's result is published, then share it.
    pub fn wait(&self) -> V {
        let slot = self
            .done
            .wait_while(self.slot.lock().recover(), |slot| slot.is_none())
            .recover();
        slot.clone()
            .expect("wait_while returns once the slot is filled")
    }

    fn publish(&self, value: V) {
        *self.slot.lock().recover() = Some(value);
        self.done.notify_all();
    }
}

/// The flight table.
pub struct SingleFlight<K, V> {
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

/// What `begin` made of the caller.
pub enum Role<V> {
    /// First requester for the key: must ensure the flight is eventually
    /// [`SingleFlight::complete`]d (directly or via a worker), then may
    /// [`Flight::wait`] on it like anyone else.
    Leader(Arc<Flight<V>>),
    /// The key is already in flight: wait for the shared result.
    Follower(Arc<Flight<V>>),
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    pub fn new() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Join (or open) the flight for `key`.
    pub fn begin(&self, key: &K) -> Role<V> {
        let mut flights = self.flights.lock().recover();
        match flights.entry(key.clone()) {
            Entry::Occupied(e) => Role::Follower(Arc::clone(e.get())),
            Entry::Vacant(e) => Role::Leader(Arc::clone(e.insert(Arc::new(Flight::new())))),
        }
    }

    /// Publish the result, waking every waiter; the key is free again.
    /// Harmless when the key has no flight (already completed).
    pub fn complete(&self, key: &K, value: V) {
        let flight = self.flights.lock().recover().remove(key);
        if let Some(f) = flight {
            f.publish(value);
        }
    }

    /// Keys currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().recover().len()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn second_requester_is_a_follower() {
        let sf: SingleFlight<u64, u32> = SingleFlight::new();
        let leader = match sf.begin(&1) {
            Role::Leader(f) => f,
            Role::Follower(_) => panic!("first requester must lead"),
        };
        assert!(matches!(sf.begin(&1), Role::Follower(_)));
        assert!(matches!(sf.begin(&2), Role::Leader(_)));
        assert_eq!(sf.in_flight(), 2);
        sf.complete(&1, 42);
        assert_eq!(leader.wait(), 42);
        assert_eq!(sf.in_flight(), 1);
        // Completed key restarts fresh.
        assert!(matches!(sf.begin(&1), Role::Leader(_)));
    }

    #[test]
    fn all_followers_share_one_result() {
        let sf: Arc<SingleFlight<u64, u32>> = Arc::new(SingleFlight::new());
        let computations = Arc::new(AtomicUsize::new(0));
        // The leader publishes only after every thread has joined the
        // flight, so exactly one computation is possible.
        let begun = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sf = sf.clone();
                    let computations = computations.clone();
                    let begun = begun.clone();
                    s.spawn(move || {
                        let role = sf.begin(&7);
                        begun.fetch_add(1, Ordering::SeqCst);
                        match role {
                            Role::Leader(f) => {
                                while begun.load(Ordering::SeqCst) < 8 {
                                    std::thread::yield_now();
                                }
                                computations.fetch_add(1, Ordering::SeqCst);
                                sf.complete(&7, 99);
                                f.wait()
                            }
                            Role::Follower(f) => f.wait(),
                        }
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 99);
            }
        });
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn complete_without_flight_is_a_noop() {
        let sf: SingleFlight<u64, u32> = SingleFlight::new();
        sf.complete(&5, 1);
        assert_eq!(sf.in_flight(), 0);
    }
}
