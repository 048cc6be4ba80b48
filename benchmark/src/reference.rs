//! A fixed piece of host work timed next to every measurement.
//!
//! A shared host's speed drifts with its other tenants by up to a tenth
//! over minutes, and every time the program takes drifts with it. The
//! reference loop is frozen in the benchmark, so it does the same work
//! whatever the program under test does; its time measures the host
//! alone. A run states its times at the reference speed: a measured time
//! scaled by [`REFERENCE_S`] over the reference's time measured next to
//! it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time, in seconds, on the host the baseline was
/// measured on (2 vCPUs of a 2.1 GHz Xeon). Scaling by it keeps times at
/// the reference speed close to that host's own.
pub const REFERENCE_S: f64 = 0.040;

/// Loop iterations: about 40 ms on the baseline host.
const ITERATIONS: u64 = 2_800_000;
/// Table keys: a working set of about a megabyte, like a simulated
/// core's structures, well past the L1.
const KEYS: u64 = 1 << 16;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Host seconds the reference loop takes now. It runs on one thread: a
/// second thread would measure how soon the host lets an idle CPU join
/// in, which varies more than its speed does.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    // A fixed hasher: the same work in every process.
    let mut table = Table::with_capacity_and_hasher(KEYS as usize, Default::default());
    black_box(churn(&mut table, ITERATIONS));
    black_box(table.len());
    start.elapsed().as_secs_f64()
}

/// Hashing, data-dependent branches and scattered table updates: the
/// kind of work an interpreter or a cycle model does.
fn churn(table: &mut Table, iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..iterations {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slot = table.entry((x >> 20) % KEYS).or_insert(0);
        if x & (1 << 40) == 0 {
            *slot = slot.wrapping_add(i);
        } else {
            *slot ^= x;
            acc = acc.wrapping_add(*slot);
        }
    }
    acc
}

/// A measured time (in any unit) at the reference speed, given the
/// reference loop's time measured next to it, in seconds.
pub fn at_reference_speed(time: f64, reference_s: f64) -> f64 {
    time * REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_reference() {
        // A host running at the reference speed changes nothing.
        assert_eq!(at_reference_speed(1500.0, REFERENCE_S), 1500.0);
        // On a host twice as slow, a time halves.
        assert_eq!(at_reference_speed(3.0, 2.0 * REFERENCE_S), 1.5);
    }

    #[test]
    fn the_reference_does_fixed_work() {
        let (mut a, mut b) = (Table::default(), Table::default());
        assert_eq!(churn(&mut a, 1000), churn(&mut b, 1000));
        assert_eq!(a, b);
    }
}
