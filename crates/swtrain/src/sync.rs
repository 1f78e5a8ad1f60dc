//! The hand-rolled inter-CG synchronisation of Sec. V-A: a handshake
//! (initiation-confirmation) barrier over semaphores in shared memory —
//! here, atomics — used by the four core-group threads of Algorithm 1.
//!
//! Protocol: each thread posts an *initiation* token; the last arrival
//! flips the generation word, which is the *confirmation* every waiter
//! spins on. Two generations alternate so consecutive barriers cannot
//! interfere.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Reusable N-party handshake barrier.
pub(crate) struct HandshakeBarrier {
    parties: usize,
    /// Initiation count for the current generation.
    arrived: AtomicUsize,
    /// Confirmation word: incremented once per completed barrier.
    generation: AtomicUsize,
}

impl HandshakeBarrier {
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1);
        HandshakeBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Enter the barrier; returns once all parties have arrived.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        // Initiation.
        let n = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.parties {
            // Last arrival: reset and confirm.
            self.arrived.store(0, Ordering::Release);
            self.generation.store(gen + 1, Ordering::Release);
        } else {
            // Spin (with yields) on the confirmation word.
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Simulated cost of one 4-CG handshake through shared memory
/// (a few hundred nanoseconds of semaphore traffic).
pub(crate) const HANDSHAKE_SECONDS: f64 = 5.0e-7;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronises_phases() {
        // Classic phase test: no thread may enter phase k+1 until all
        // finished phase k.
        let parties = 4;
        let barrier = HandshakeBarrier::new(parties);
        let phase_counts: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    for (phase, count) in phase_counts.iter().enumerate() {
                        count.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // After the barrier, everyone must have bumped
                        // this phase.
                        assert_eq!(
                            count.load(Ordering::SeqCst),
                            parties as u64,
                            "phase {phase} incomplete after barrier"
                        );
                    }
                });
            }
        });
        assert_eq!(barrier.generation.load(Ordering::Acquire), 16);
    }

    #[test]
    fn single_party_never_blocks() {
        let b = HandshakeBarrier::new(1);
        for _ in 0..100 {
            b.wait();
        }
        assert_eq!(b.generation.load(Ordering::Acquire), 100);
    }

    #[test]
    fn stress_many_iterations() {
        let barrier = HandshakeBarrier::new(8);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 500);
        assert_eq!(barrier.generation.load(Ordering::Acquire), 500);
    }
}
