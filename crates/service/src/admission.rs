//! Compute admission: a counting semaphore of permits, one per request
//! allowed to parse, compute and serialize at once.
//!
//! Built on [`std::sync::Mutex`]/[`Condvar`] (the workspace's
//! `parking_lot` shim exposes no condition variables). The
//! server holds one [`Permit`] per `/analyze` from admission to its
//! response body; connection I/O never holds one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A counting semaphore of compute permits.
#[derive(Debug)]
pub struct Permits {
    free: Mutex<usize>,
    returned: Condvar,
}

/// One compute permit, given back on drop.
#[derive(Debug)]
pub struct Permit<'a>(&'a Permits);

impl Permits {
    /// A semaphore holding `count` permits.
    pub fn new(count: usize) -> Permits {
        Permits {
            free: Mutex::new(count),
            returned: Condvar::new(),
        }
    }

    /// Takes a permit unless `deadline` (`None`: no deadline) passes
    /// first; `waiting` counts the callers blocked meanwhile.
    pub fn acquire(&self, deadline: Option<Instant>, waiting: &AtomicU64) -> Option<Permit<'_>> {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        let mut queued = false;
        let permit = loop {
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                break None;
            }
            if *free > 0 {
                *free -= 1;
                break Some(Permit(self));
            }
            if !queued {
                queued = true;
                waiting.fetch_add(1, Ordering::Relaxed);
            }
            free = match deadline {
                Some(d) => {
                    self.returned
                        .wait_timeout(free, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => self.returned.wait(free).unwrap_or_else(|e| e.into_inner()),
            };
        };
        if queued {
            waiting.fetch_sub(1, Ordering::Relaxed);
        }
        if permit.is_none() && *free > 0 {
            // This caller may have consumed the wakeup of a returned
            // permit; pass it on.
            self.returned.notify_one();
        }
        permit
    }
}

impl Drop for Permit<'_> {
    // lint: allow(L009) the call graph resolves every `drop(guard)` in this crate to this fn by name; the permit mutex is a leaf lock, taken with no other lock held
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.0.returned.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn permits_admit_up_to_their_count_and_time_out_past_the_deadline() {
        let permits = Permits::new(2);
        let waiting = AtomicU64::new(0);
        let first = permits.acquire(None, &waiting).unwrap();
        let _second = permits.acquire(None, &waiting).unwrap();
        let soon = Instant::now() + Duration::from_millis(20);
        assert!(permits.acquire(Some(soon), &waiting).is_none(), "none free");
        assert_eq!(waiting.load(Ordering::Relaxed), 0, "the gauge unwinds");
        drop(first);
        let later = Instant::now() + Duration::from_secs(5);
        assert!(permits.acquire(Some(later), &waiting).is_some());
        // A deadline already past sheds even with a permit free.
        let permits = Permits::new(1);
        assert!(permits.acquire(Some(Instant::now()), &waiting).is_none());
    }

    #[test]
    fn a_returned_permit_wakes_a_blocked_waiter() {
        let permits = Arc::new(Permits::new(1));
        let waiting = Arc::new(AtomicU64::new(0));
        let held = permits.acquire(None, &waiting).unwrap();
        let waiter = {
            let (permits, waiting) = (Arc::clone(&permits), Arc::clone(&waiting));
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                permits.acquire(Some(deadline), &waiting).is_some()
            })
        };
        while waiting.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        drop(held);
        assert!(waiter.join().unwrap(), "the waiter got the returned permit");
    }
}
