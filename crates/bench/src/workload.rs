//! Deterministic workload generators shared by the experiment harnesses.

use netdsl_netsim::scenario::{Messages, TrafficPattern};

/// `n` messages of `size` bytes each: [`TrafficPattern::generate`]'s,
/// so harnesses and scenarios offer the same bytes.
pub fn messages(n: usize, size: usize) -> Messages {
    TrafficPattern::messages(n, size).generate()
}

/// A pseudo-random file of `len` bytes (fixed generator, no RNG state).
pub fn file(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 2654435761_usize) >> 8) as u8)
        .collect()
}

/// Loss-probability sweep used by E4: 0.0, 0.05, …, 0.5.
pub fn loss_sweep() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sized() {
        assert_eq!(messages(3, 8), messages(3, 8));
        assert_eq!(messages(3, 8).len(), 3);
        assert_eq!(messages(3, 8).get(1).len(), 8);
        assert_eq!(file(100), file(100));
        assert_eq!(file(100).len(), 100);
        assert_eq!(loss_sweep().len(), 11);
        assert_eq!(loss_sweep()[0], 0.0);
        assert_eq!(loss_sweep()[10], 0.5);
    }
}
