//! Portable concurrency primitives — the zero-dependency substrate.
//!
//! The paper's whole argument (§4.1) is that *all* machine dependence can
//! be confined to a small layer of primitives; everything above is
//! portable.  This module is where our reproduction keeps that promise at
//! the build level: every synchronization helper the workspace needs is
//! implemented here over `std` alone, so the default build resolves no
//! external crates at all and works fully offline.
//!
//! Provided primitives:
//!
//! * [`Backoff`] — bounded exponential spin/yield backoff for busy-wait
//!   loops (the role `crossbeam::utils::Backoff` used to play).
//! * [`CachePadded`] — aligns a value to its own cache line so per-process
//!   slots never false-share (replaces `crossbeam::utils::CachePadded`).
//! * [`Mutex`] / [`Condvar`] — thin poison-transparent wrappers over
//!   `std::sync` with the guard-based API the rest of the workspace uses
//!   (replaces `parking_lot`).  A panicked critical section does not wedge
//!   the simulated machine: the lock is simply taken over, which matches
//!   the Fortran original where locks carried no poison state.
//! * [`XorShift64`] — a tiny deterministic PRNG for tests and benches
//!   (replaces the `rand` dev-dependency).

use std::cell::Cell;
use std::fmt;
use std::hint;
use std::ops::{Deref, DerefMut};
use std::thread;

/// Spin attempts double each step up to `1 << SPIN_LIMIT` before
/// [`Backoff::snooze`] switches from spinning to yielding the thread.
const SPIN_LIMIT: u32 = 6;
/// After this many total steps the backoff reports itself completed and
/// callers with a parking fallback should stop spinning altogether.
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff for spin loops.
///
/// `spin` busy-waits with a budget that doubles per call (capped);
/// `snooze` does the same but degrades to `thread::yield_now` once the
/// spin budget is exhausted, so a long wait stops burning a core.
pub struct Backoff {
    step: Cell<u32>,
}

impl Backoff {
    /// A fresh backoff at step zero.
    pub const fn new() -> Self {
        Self::starting_at(0)
    }

    /// A backoff whose first `spin` or `snooze` is the one of `step`
    /// (`1 << step` spins while `step` is within the spin limit); later
    /// calls double from there, as from step zero.
    pub const fn starting_at(step: u32) -> Self {
        Backoff {
            step: Cell::new(step),
        }
    }

    /// Reset to step zero (reusable across acquire attempts).
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Busy-spin, doubling the budget each call up to the spin limit.
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..1u32 << step {
            hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Spin while the budget lasts, then yield the processor.
    pub fn snooze(&self) {
        if self.step.get() <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step.get() {
                hint::spin_loop();
            }
        } else {
            thread::yield_now();
        }
        if self.step.get() <= YIELD_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Whether the spin budget is exhausted and the caller should park if
    /// it can (mirrors the crossbeam API contract).
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }

    /// The jittered retry delay for `attempt` (0-based): `base << attempt`
    /// capped at `base << JITTER_SHIFT_CAP`, then scaled by a uniformly
    /// random factor in `[0.5, 1.0)` drawn from `rng`.
    ///
    /// The jitter decorrelates retries from concurrent submitters that
    /// faulted at the same instant, while the seeded [`XorShift64`] keeps
    /// the whole schedule reproducible — the same seed and attempt
    /// sequence always yields the same delays.  Sleeping is left to the
    /// caller, which may have a deadline to fit the delay into.
    pub fn jittered_delay(
        base: std::time::Duration,
        attempt: u32,
        rng: &mut XorShift64,
    ) -> std::time::Duration {
        /// Exponential growth stops doubling past this attempt so a long
        /// retry chain cannot overflow or sleep unboundedly (base × 2¹⁰).
        const JITTER_SHIFT_CAP: u32 = 10;
        let shift = attempt.min(JITTER_SHIFT_CAP);
        let ceiling = base.saturating_mul(1u32 << shift);
        // Scale by 1/2 + r/2 with r uniform in [0, 1), using integer
        // nanoseconds to stay exact and platform-independent.
        let nanos = ceiling.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        let jitter = if half == 0 {
            0
        } else {
            rng.next_below(half.saturating_add(1))
        };
        std::time::Duration::from_nanos(half.saturating_add(jitter))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backoff")
            .field("step", &self.step.get())
            .finish()
    }
}

/// Pads and aligns a value to 128 bytes so adjacent values sit on
/// distinct cache lines (128 covers the pair-prefetch granularity of
/// modern x86 as well as 128-byte-line machines).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value` to its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

/// A mutual-exclusion lock whose `lock` returns the guard directly and
/// ignores poisoning: if a holder panicked, the next locker takes over.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value (poison-transparent).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; a poisoned lock is taken over.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        MutexGuard { inner: Some(guard) }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(MutexGuard {
                inner: Some(poison.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`]; unlocks on drop.
///
/// The inner `Option` exists so [`Condvar::wait`] can temporarily move
/// the `std` guard out while the thread is blocked; it is `Some` at every
/// other moment.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard vacated during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard vacated during wait")
    }
}

/// A condition variable paired with [`Mutex`], with the in-place
/// `wait(&mut guard)` API (poison-transparent like the mutex).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and block until notified; the
    /// lock is re-acquired (taking over any poison) before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard vacated during wait");
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|poison| poison.into_inner());
        guard.inner = Some(reacquired);
    }

    /// Like [`wait`](Self::wait) but with a timeout: returns `true` if the
    /// wait timed out, `false` if it was (possibly spuriously) notified.
    /// Used by one caller, `park::timer_wait`: the helper threads that
    /// sleep until a deadline (the watchdog, the deadline watcher).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let std_guard = guard.inner.take().expect("guard vacated during wait");
        let (reacquired, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(poison) => {
                let (g, r) = poison.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(reacquired);
        result.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A deterministic xorshift64* pseudo-random generator for tests and
/// benches.  Not cryptographic; its virtue is that it is seedable,
/// reproducible, and lives in-repo.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator (a zero seed is remapped to a fixed constant, as
    /// xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below needs a positive bound");
        self.next_u64() % bound
    }

    /// Uniform usize index in `0..bound`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn next_i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let v = (self.next_u64() as u128) % span;
        (lo as i128 + v as i128) as i64
    }

    /// A uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_yields_after_spin_budget() {
        let b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 1 {
            assert!(!b.is_completed(), "budget should not be spent yet");
            b.snooze();
        }
        // Past the spin limit snooze switches to yielding; past the yield
        // limit the backoff reports completion.
        for _ in 0..YIELD_LIMIT {
            b.snooze();
        }
        assert!(
            b.is_completed(),
            "snooze past the yield limit must complete"
        );
        b.reset();
        assert!(!b.is_completed());
        // A backoff started later in the sequence has that many fewer
        // steps to go.
        let late = Backoff::starting_at(4);
        for _ in 4..=YIELD_LIMIT {
            assert!(!late.is_completed());
            late.snooze();
        }
        assert!(late.is_completed());
    }

    #[test]
    fn backoff_spin_never_completes() {
        // `spin` models a pure busy-wait personality: it caps its budget
        // but never reports completion (there is nothing to park on).
        let b = Backoff::new();
        for _ in 0..100 {
            b.spin();
        }
        assert!(!b.is_completed());
    }

    #[test]
    fn cache_padded_alignment_is_at_least_128() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        // Adjacent array elements land on distinct lines.
        let arr = [CachePadded::new(0u64), CachePadded::new(1u64)];
        let a = &*arr[0] as *const u64 as usize;
        let b = &*arr[1] as *const u64 as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn cache_padded_is_transparent() {
        let mut c = CachePadded::new(41u32);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
        assert_eq!(*CachePadded::from(7i64), 7);
    }

    #[test]
    fn mutex_guards_and_try_lock() {
        let m = Mutex::new(5i32);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock must not re-enter");
        }
        assert_eq!(*m.try_lock().expect("free lock"), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn mutex_survives_a_poisoned_lock() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A std mutex would now return Err(Poisoned); the wrapper recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
        let mut m = Arc::try_unwrap(m).expect("sole owner");
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiters() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let arrived = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pair = Arc::clone(&pair);
            let arrived = Arc::clone(&arrived);
            handles.push(std::thread::spawn(move || {
                let (lock, cond) = &*pair;
                let mut ready = lock.lock();
                arrived.fetch_add(1, Ordering::SeqCst);
                while !*ready {
                    cond.wait(&mut ready);
                }
            }));
        }
        while arrived.load(Ordering::SeqCst) < 4 {
            std::thread::yield_now();
        }
        let (lock, cond) = &*pair;
        *lock.lock() = true;
        cond.notify_all();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn condvar_survives_poison_during_wait() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cond) = &*pair2;
            let mut n = lock.lock();
            while *n == 0 {
                cond.wait(&mut n);
            }
            *n
        });
        let pair3 = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let (lock, _) = &*pair3;
            let mut n = lock.lock();
            *n = 7;
            panic!("poison while holding");
        })
        .join();
        pair.1.notify_all();
        assert_eq!(waiter.join().unwrap(), 7);
    }

    #[test]
    fn jittered_delay_is_deterministic_per_seed() {
        use std::time::Duration;
        let base = Duration::from_millis(1);
        let mut a = XorShift64::new(99);
        let mut b = XorShift64::new(99);
        for attempt in 0..6 {
            assert_eq!(
                Backoff::jittered_delay(base, attempt, &mut a),
                Backoff::jittered_delay(base, attempt, &mut b),
                "same seed must reproduce the same retry schedule"
            );
        }
        // A different seed decorrelates at least one attempt.
        let mut c = XorShift64::new(100);
        let mut d = XorShift64::new(99);
        let differs = (0..6).any(|attempt| {
            Backoff::jittered_delay(base, attempt, &mut c)
                != Backoff::jittered_delay(base, attempt, &mut d)
        });
        assert!(differs, "distinct seeds should produce distinct jitter");
    }

    #[test]
    fn jittered_delay_bounds_and_growth() {
        use std::time::Duration;
        let base = Duration::from_millis(2);
        let mut rng = XorShift64::new(7);
        for attempt in 0..12 {
            let ceiling = base.saturating_mul(1u32 << attempt.min(10));
            let d = Backoff::jittered_delay(base, attempt, &mut rng);
            assert!(d >= ceiling / 2, "jitter below half the ceiling: {d:?}");
            assert!(d <= ceiling, "jitter above the ceiling: {d:?}");
        }
        // The exponential cap holds: attempt 30 is no larger than the
        // attempt-10 ceiling.
        let d = Backoff::jittered_delay(base, 30, &mut rng);
        assert!(d <= base * (1u32 << 10));
        // A zero base never sleeps.
        assert_eq!(
            Backoff::jittered_delay(Duration::ZERO, 3, &mut rng),
            Duration::ZERO
        );
    }

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut seen = std::collections::HashSet::new();
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            seen.insert(r.next_below(64));
        }
        assert!(seen.len() > 50, "values should cover most of 0..64");
        for _ in 0..1000 {
            let v = r.next_i64_in(-3, 3);
            assert!((-3..=3).contains(&v));
        }
        // Zero seed must not wedge the generator.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }
}
