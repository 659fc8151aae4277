//! Simulated time: `f64` seconds with helpers and a total-order wrapper used
//! by the event queue.

/// Simulated time in seconds. All engine timestamps use this alias; the
/// simulation never produces NaN (asserted at event insertion).
pub type SimTime = f64;

/// Convert microseconds to seconds.
#[inline]
pub fn us(v: f64) -> SimTime {
    v * 1e-6
}

/// Convert milliseconds to seconds.
#[inline]
pub fn ms(v: f64) -> SimTime {
    v * 1e-3
}

/// Convert a time in seconds to microseconds (for reporting).
#[inline]
pub fn secs_to_us(t: SimTime) -> f64 {
    t * 1e6
}

/// Total-order wrapper over a finite `f64` timestamp, for use as a
/// `BinaryHeap` key. Construction asserts finiteness, which makes the total
/// order legitimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdTime(pub SimTime);

impl OrdTime {
    /// Wrap a timestamp, asserting it is finite.
    #[inline]
    pub fn new(t: SimTime) -> Self {
        debug_assert!(t.is_finite(), "non-finite simulation timestamp: {t}");
        OrdTime(t)
    }
}

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite by construction, so partial_cmp never fails.
        self.0.partial_cmp(&other.0).expect("finite timestamps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert!((us(1.0) - 1e-6).abs() < 1e-18);
        assert!((ms(1.0) - 1e-3).abs() < 1e-15);
        assert!((secs_to_us(us(3.5)) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn ord_time_orders_like_f64() {
        let a = OrdTime::new(1.0);
        let b = OrdTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn ord_time_in_heap_pops_min_with_reverse() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        for t in [3.0, 1.0, 2.0] {
            h.push(Reverse(OrdTime::new(t)));
        }
        assert_eq!(h.pop().unwrap().0 .0, 1.0);
        assert_eq!(h.pop().unwrap().0 .0, 2.0);
        assert_eq!(h.pop().unwrap().0 .0, 3.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn ord_time_rejects_nan_in_debug() {
        let _ = OrdTime::new(f64::NAN);
    }
}
