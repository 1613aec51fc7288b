//! Open-loop schedule arithmetic. A generator on a schedule sends each
//! packet when it falls due whether or not the system keeps up, and
//! every latency is counted from the *due* time, so a stall in the
//! system or the generator shows as latency on the packets it delayed
//! instead of silently lowering the offered rate.

const NS_PER_S: u128 = 1_000_000_000;

/// When packet `i` of a run falls due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Everything is due at time zero (a backlog offered at once).
    Flood,
    /// Packet `i` is due `i / rate` seconds into the run.
    Rate {
        /// Packets per second, at least 1.
        per_s: u64,
    },
}

impl Schedule {
    /// A fixed-rate schedule (`per_s` is raised to at least 1).
    pub fn rate(per_s: u64) -> Self {
        Schedule::Rate {
            per_s: per_s.max(1),
        }
    }

    /// Nanoseconds into the run at which packet `i` (0-based) is due.
    /// Integer arithmetic, rounded down, so due times never drift.
    pub fn due_ns(self, i: u64) -> u64 {
        match self {
            Schedule::Flood => 0,
            Schedule::Rate { per_s } => {
                u64::try_from(u128::from(i) * NS_PER_S / u128::from(per_s)).unwrap_or(u64::MAX)
            }
        }
    }

    /// How many of `total` packets are due at or before `elapsed_ns`:
    /// the smallest `k` with `due_ns(k) > elapsed_ns`, capped at
    /// `total`. Packet 0 is due at once.
    pub fn due_count(self, elapsed_ns: u64, total: u64) -> u64 {
        match self {
            Schedule::Flood => total,
            Schedule::Rate { per_s } => {
                // due_ns(i) <= e  <=>  i*NS/r < e+1  <=>  i <= ((e+1)*r - 1) / NS
                let last_due = ((u128::from(elapsed_ns) + 1) * u128::from(per_s) - 1) / NS_PER_S;
                u64::try_from(last_due + 1).unwrap_or(u64::MAX).min(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_exact_multiples_of_the_period() {
        let s = Schedule::rate(2000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 500_000);
        assert_eq!(s.due_ns(2000), 1_000_000_000);
        // a rate that does not divide a second rounds down and never drifts
        let odd = Schedule::rate(3);
        assert_eq!(odd.due_ns(1), 333_333_333);
        assert_eq!(odd.due_ns(3), 1_000_000_000);
        assert_eq!(odd.due_ns(3_000_000), 1_000_000_000_000_000);
    }

    #[test]
    fn due_count_is_the_inverse_of_due_ns() {
        for per_s in [1, 3, 7, 2000, 20_000, 999_983] {
            let s = Schedule::rate(per_s);
            for i in [0u64, 1, 2, 5, 1999, 2000, 123_457] {
                let due = s.due_ns(i);
                assert_eq!(s.due_count(due, u64::MAX), i + 1, "rate {per_s} packet {i}");
                if due > 0 {
                    assert_eq!(s.due_count(due - 1, u64::MAX), i, "rate {per_s} packet {i}");
                }
            }
        }
    }

    #[test]
    fn counts_are_capped_and_include_the_packet_due_now() {
        let s = Schedule::rate(1000);
        assert_eq!(s.due_count(10_000_000_000, 50), 50);
        assert_eq!(s.due_count(0, 50), 1);
        assert_eq!(s.due_count(9_999_999, 50), 10); // packets 0..=9; packet 10 is due at 10 ms
        assert_eq!(s.due_count(10_000_000, 50), 11);
        assert_eq!(Schedule::Flood.due_count(0, 9), 9);
        assert_eq!(Schedule::Flood.due_ns(8), 0);
        assert_eq!(Schedule::rate(0), Schedule::rate(1));
    }
}
