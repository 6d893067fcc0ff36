//! The recover policy for a poisoned lock, written once.
//!
//! A std lock is poisoned when a thread panics while holding it, and every
//! later `lock`, `read`, `write` or `Condvar` wait returns the guard inside
//! an `Err`. A lock whose callers end in [`Recover::recover`] takes the
//! guard and the data as the panicking thread left them and carries on. A
//! lock that must not carry on past a panic calls `.expect` at its sites
//! instead, so each site shows which of the two policies it follows.

use std::sync::{LockResult, PoisonError};

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex, RwLock};

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
}
