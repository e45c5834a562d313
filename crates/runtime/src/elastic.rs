//! XiTAO-style elastic task placement.
//!
//! XiTAO "generalizes the concept of a task into a parallel computation
//! with arbitrary (elastic) resources. By matching task requirements with
//! hardware resources (cores, memory, etc) at runtime, XiTAO targets high
//! parallelism and provides constructive sharing and interference freedom"
//! (paper §II-C). The model here: a task declares a width range, its
//! runtime scales with width under Amdahl's law, and the pool assigns it
//! an *exclusive* set of cores (interference freedom) whose width is
//! chosen to minimize the task's finish time given current core
//! availability.
//!
//! The pool is malleable: [`ElasticPool::grow`] adds idle cores and
//! [`ElasticPool::shrink_to`] removes the soonest-free ones, and later
//! placements re-fit their widths to whatever is left. The model is
//! standalone: the engine places tasks on whole devices and never
//! consults an elastic pool, and its own malleability lives in
//! [`crate::churn`].
//!
//! Malformed inputs are [`RuntimeError::InvalidParameter`] values, not
//! panics, matching the fti and secure layers' validation convention.

use legato_core::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;

/// Execution time of a task with sequential time `seq`, parallel fraction
/// `f` and width `w` under Amdahl's law.
///
/// # Errors
///
/// [`RuntimeError::InvalidParameter`] if `w == 0`, `f` is outside
/// `[0, 1]`, or `f` is not finite.
///
/// ```
/// use legato_runtime::elastic::amdahl_time;
/// use legato_core::units::Seconds;
///
/// let t = amdahl_time(Seconds(10.0), 0.9, 4).unwrap();
/// assert!((t.0 - (1.0 + 9.0 / 4.0)).abs() < 1e-12);
/// ```
pub fn amdahl_time(
    seq: Seconds,
    parallel_fraction: f64,
    width: usize,
) -> Result<Seconds, RuntimeError> {
    if width == 0 {
        return Err(RuntimeError::invalid_parameter(
            "width",
            "must be at least 1",
        ));
    }
    if !parallel_fraction.is_finite() || !(0.0..=1.0).contains(&parallel_fraction) {
        return Err(RuntimeError::invalid_parameter(
            "parallel_fraction",
            format!("must be in [0, 1], got {parallel_fraction}"),
        ));
    }
    Ok(Seconds(
        seq.0 * ((1.0 - parallel_fraction) + parallel_fraction / width as f64),
    ))
}

/// A placement decision of the elastic pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticPlacement {
    /// Cores assigned (exclusive for the task's duration).
    pub cores: Vec<usize>,
    /// Chosen width (`cores.len()`).
    pub width: usize,
    /// Start time.
    pub start: Seconds,
    /// Finish time.
    pub finish: Seconds,
}

/// A pool of cores with per-core availability, placing elastic tasks at
/// the width that minimizes their finish time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticPool {
    busy_until: Vec<Seconds>,
}

impl ElasticPool {
    /// A pool of `cores` idle cores.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] if `cores == 0`.
    pub fn new(cores: usize) -> Result<Self, RuntimeError> {
        if cores == 0 {
            return Err(RuntimeError::invalid_parameter(
                "cores",
                "pool needs at least one core",
            ));
        }
        Ok(ElasticPool {
            busy_until: vec![Seconds::ZERO; cores],
        })
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.busy_until.len()
    }

    /// Earliest time all cores are free.
    #[must_use]
    pub fn drained_at(&self) -> Seconds {
        self.busy_until
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Add `cores` idle cores (an elastic grow: the pool's counterpart
    /// of a device arrival). Adding zero cores is a no-op, not an error.
    pub fn grow(&mut self, cores: usize) {
        self.busy_until
            .extend(std::iter::repeat_n(Seconds::ZERO, cores));
    }

    /// Shrink the pool to `cores` cores, removing the soonest-free ones
    /// (they complete their committed work first, so a planned shrink
    /// wastes no work). Returns the time the *removed* cores have all
    /// drained — the moment the shrink completes. Later placements
    /// re-fit their widths against the smaller pool automatically.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] if `cores == 0` (the pool may
    /// never empty) or `cores` exceeds the current size.
    pub fn shrink_to(&mut self, cores: usize) -> Result<Seconds, RuntimeError> {
        if cores == 0 {
            return Err(RuntimeError::invalid_parameter(
                "cores",
                "pool needs at least one core",
            ));
        }
        if cores > self.cores() {
            return Err(RuntimeError::invalid_parameter(
                "cores",
                format!("cannot shrink a {}-core pool to {cores}", self.cores()),
            ));
        }
        // Keep the busiest cores: the removed set is the least-committed
        // one, so it drains — and the shrink completes — soonest.
        let mut order: Vec<usize> = (0..self.cores()).collect();
        order.sort_by(|&a, &b| {
            self.busy_until[a]
                .partial_cmp(&self.busy_until[b])
                .expect("finite times")
                .then(a.cmp(&b))
        });
        let removed = &order[..self.cores() - cores];
        let drained = removed
            .iter()
            .map(|&c| self.busy_until[c])
            .fold(Seconds::ZERO, Seconds::max);
        let mut keep: Vec<usize> = order[self.cores() - cores..].to_vec();
        keep.sort_unstable();
        self.busy_until = keep.iter().map(|&c| self.busy_until[c]).collect();
        Ok(drained)
    }

    /// Place a task that becomes ready at `ready`, has sequential time
    /// `seq`, parallel fraction `f`, and may use `min_w..=max_w` cores.
    /// Tries every admissible width on the least-busy cores and commits
    /// the one with the earliest finish; ties break toward the *narrower*
    /// width (leaving resources for other tasks — constructive sharing).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] if `min_w == 0`, `min_w >
    /// max_w`, `min_w` exceeds the pool size, or `f` is malformed (see
    /// [`amdahl_time`]).
    pub fn place(
        &mut self,
        ready: Seconds,
        seq: Seconds,
        parallel_fraction: f64,
        min_w: usize,
        max_w: usize,
    ) -> Result<ElasticPlacement, RuntimeError> {
        if min_w == 0 || min_w > max_w {
            return Err(RuntimeError::invalid_parameter(
                "min_w",
                format!("invalid width range {min_w}..={max_w}"),
            ));
        }
        if min_w > self.cores() {
            return Err(RuntimeError::invalid_parameter(
                "min_w",
                format!("task needs {min_w} cores, pool has {}", self.cores()),
            ));
        }
        let max_w = max_w.min(self.cores());
        // Cores sorted by availability (least busy first), stable by index.
        let mut order: Vec<usize> = (0..self.cores()).collect();
        order.sort_by(|&a, &b| {
            self.busy_until[a]
                .partial_cmp(&self.busy_until[b])
                .expect("finite times")
                .then(a.cmp(&b))
        });

        let mut best: Option<ElasticPlacement> = None;
        for w in min_w..=max_w {
            let cores: Vec<usize> = order[..w].to_vec();
            let avail = cores
                .iter()
                .map(|&c| self.busy_until[c])
                .fold(Seconds::ZERO, Seconds::max);
            let start = ready.max(avail);
            let finish = start + amdahl_time(seq, parallel_fraction, w)?;
            let better = match &best {
                None => true,
                Some(b) => finish < b.finish,
            };
            if better {
                best = Some(ElasticPlacement {
                    cores,
                    width: w,
                    start,
                    finish,
                });
            }
        }
        let placement = best.expect("width range is non-empty");
        for &c in &placement.cores {
            self.busy_until[c] = placement.finish;
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        let seq = Seconds(10.0);
        assert_eq!(amdahl_time(seq, 0.0, 8).unwrap(), seq); // fully serial
        assert_eq!(amdahl_time(seq, 1.0, 10).unwrap(), Seconds(1.0)); // fully parallel

        // Monotone in width.
        let mut last = f64::INFINITY;
        for w in 1..=16 {
            let t = amdahl_time(seq, 0.9, w).unwrap().0;
            assert!(t <= last);
            last = t;
        }
    }

    #[test]
    fn amdahl_rejects_malformed_inputs() {
        for (f, w) in [(0.5, 0), (-0.1, 4), (1.5, 4), (f64::NAN, 4)] {
            assert!(
                matches!(
                    amdahl_time(Seconds(1.0), f, w),
                    Err(RuntimeError::InvalidParameter { .. })
                ),
                "f={f}, w={w} must be rejected"
            );
        }
    }

    #[test]
    fn idle_pool_gives_max_useful_width() {
        let mut pool = ElasticPool::new(8).unwrap();
        let p = pool
            .place(Seconds::ZERO, Seconds(10.0), 0.95, 1, 8)
            .unwrap();
        assert_eq!(p.width, 8, "idle pool: widest placement wins");
        assert_eq!(p.start, Seconds::ZERO);
    }

    #[test]
    fn serial_task_stays_narrow() {
        let mut pool = ElasticPool::new(8).unwrap();
        let p = pool.place(Seconds::ZERO, Seconds(10.0), 0.0, 1, 8).unwrap();
        assert_eq!(p.width, 1, "serial task gains nothing from width");
    }

    #[test]
    fn contended_pool_prefers_fewer_free_cores() {
        let mut pool = ElasticPool::new(4).unwrap();
        // Occupy 3 cores until t=100.
        for _ in 0..3 {
            pool.place(Seconds::ZERO, Seconds(100.0), 0.0, 1, 1)
                .unwrap();
        }
        // An elastic task now finishes sooner on the single free core than
        // waiting for width 4 (1 + free + 3 busy).
        let p = pool.place(Seconds::ZERO, Seconds(10.0), 0.9, 1, 4).unwrap();
        assert_eq!(p.width, 1);
        assert_eq!(p.start, Seconds::ZERO);
        assert!((p.finish.0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_cores_no_interference() {
        let mut pool = ElasticPool::new(4).unwrap();
        let a = pool.place(Seconds::ZERO, Seconds(8.0), 0.9, 2, 2).unwrap();
        let b = pool.place(Seconds::ZERO, Seconds(8.0), 0.9, 2, 2).unwrap();
        // Disjoint core sets.
        for c in &a.cores {
            assert!(!b.cores.contains(c), "cores shared between tasks");
        }
        // Both start immediately: constructive sharing of the pool.
        assert_eq!(a.start, Seconds::ZERO);
        assert_eq!(b.start, Seconds::ZERO);
    }

    #[test]
    fn placement_respects_min_width() {
        let mut pool = ElasticPool::new(8).unwrap();
        let p = pool.place(Seconds::ZERO, Seconds(5.0), 0.0, 4, 8).unwrap();
        assert!(p.width >= 4);
    }

    #[test]
    fn ready_time_respected() {
        let mut pool = ElasticPool::new(2).unwrap();
        let p = pool.place(Seconds(5.0), Seconds(1.0), 0.5, 1, 2).unwrap();
        assert_eq!(p.start, Seconds(5.0));
    }

    #[test]
    fn drained_at_tracks_latest() {
        let mut pool = ElasticPool::new(2).unwrap();
        pool.place(Seconds::ZERO, Seconds(4.0), 0.0, 1, 1).unwrap();
        pool.place(Seconds::ZERO, Seconds(7.0), 0.0, 1, 1).unwrap();
        assert_eq!(pool.drained_at(), Seconds(7.0));
    }

    #[test]
    fn empty_pool_rejected() {
        assert!(matches!(
            ElasticPool::new(0),
            Err(RuntimeError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn place_rejects_malformed_widths() {
        let mut pool = ElasticPool::new(2).unwrap();
        for (min_w, max_w) in [(0, 2), (3, 1), (4, 8)] {
            assert!(
                matches!(
                    pool.place(Seconds::ZERO, Seconds(1.0), 0.5, min_w, max_w),
                    Err(RuntimeError::InvalidParameter { .. })
                ),
                "widths {min_w}..={max_w} must be rejected"
            );
        }
    }

    #[test]
    fn width_capped_by_pool() {
        let mut pool = ElasticPool::new(2).unwrap();
        let p = pool
            .place(Seconds::ZERO, Seconds(10.0), 1.0, 1, 64)
            .unwrap();
        assert_eq!(p.width, 2);
    }

    #[test]
    fn grow_adds_idle_cores() {
        let mut pool = ElasticPool::new(2).unwrap();
        pool.place(Seconds::ZERO, Seconds(10.0), 0.0, 1, 1).unwrap();
        pool.grow(2);
        assert_eq!(pool.cores(), 4);
        // The grown cores are idle: a wide task starts immediately.
        let p = pool.place(Seconds::ZERO, Seconds(10.0), 1.0, 1, 4).unwrap();
        assert_eq!(p.start, Seconds::ZERO);
    }

    #[test]
    fn shrink_removes_soonest_free_cores() {
        let mut pool = ElasticPool::new(4).unwrap();
        pool.place(Seconds::ZERO, Seconds(100.0), 0.0, 1, 1)
            .unwrap();
        pool.place(Seconds::ZERO, Seconds(5.0), 0.0, 1, 1).unwrap();
        // Two idle cores and the t=5 core drain first.
        let drained = pool.shrink_to(1).unwrap();
        assert_eq!(drained, Seconds(5.0));
        assert_eq!(pool.cores(), 1);
        // The survivor is the busiest core: no committed work was lost.
        assert_eq!(pool.drained_at(), Seconds(100.0));
        // Widths re-fit to the shrunken pool.
        let p = pool.place(Seconds::ZERO, Seconds(10.0), 1.0, 1, 8).unwrap();
        assert_eq!(p.width, 1);
    }

    #[test]
    fn shrink_rejects_malformed_targets() {
        let mut pool = ElasticPool::new(2).unwrap();
        for target in [0, 3] {
            assert!(
                matches!(
                    pool.shrink_to(target),
                    Err(RuntimeError::InvalidParameter { .. })
                ),
                "target {target} must be rejected"
            );
        }
    }
}
