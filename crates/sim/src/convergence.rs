/// Detects when a projected system configuration has been stable for a
/// required number of consecutive observations.
///
/// Feed it one projection of the global state per step; it reports when
/// the projection has not changed for `quiet` observations in a row and
/// remembers the step of the last change — the measured stabilization
/// time.
///
/// # Examples
///
/// ```
/// use mwn_sim::StabilityTracker;
///
/// let mut t = StabilityTracker::new(2);
/// assert!(!t.observe_slice(0, &[1, 1]));
/// assert!(!t.observe_slice(1, &[1, 2])); // changed
/// assert!(!t.observe_slice(2, &[1, 2])); // stable ×1
/// assert!(t.observe_slice(3, &[1, 2]));  // stable ×2 → done
/// assert_eq!(t.last_change(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StabilityTracker<K> {
    quiet: u64,
    last: Vec<K>,
    last_change: u64,
    stable_for: u64,
    /// Whether any observation has been recorded (slice or flag).
    primed: bool,
}

impl<K: PartialEq> StabilityTracker<K> {
    /// Creates a tracker requiring `quiet` consecutive unchanged
    /// observations (at least 1).
    pub fn new(quiet: u64) -> Self {
        StabilityTracker {
            quiet: quiet.max(1),
            last: Vec::new(),
            last_change: 0,
            stable_for: 0,
            primed: false,
        }
    }

    /// Records "the projection did / did not change at `now`" without
    /// materializing the projection at all — the activity-driven
    /// driver's O(changed-nodes) path. Semantically identical to
    /// feeding [`StabilityTracker::observe_slice`] the full projection:
    /// the first observation counts as a change (there is nothing to be
    /// equal to yet), subsequent quiet observations extend the streak.
    pub fn observe_flag(&mut self, now: u64, changed: bool) -> bool {
        let first = !self.primed;
        self.primed = true;
        if first || changed {
            self.stable_for = 0;
            self.last_change = now;
        } else {
            self.stable_for += 1;
        }
        self.stable_for >= self.quiet
    }

    /// Records the projection at `now`: compares it with the previous
    /// observation, then [`StabilityTracker::observe_flag`]. The slice
    /// is only copied when it differs, so steady-state steps allocate
    /// nothing. Returns `true` once the projection has been unchanged
    /// for the required streak.
    pub fn observe_slice(&mut self, now: u64, projection: &[K]) -> bool
    where
        K: Clone,
    {
        let changed = self.last.as_slice() != projection;
        if changed {
            self.last.clear();
            self.last.extend_from_slice(projection);
        }
        self.observe_flag(now, changed)
    }

    /// The time of the most recent change (the stabilization time once
    /// [`StabilityTracker::observe_slice`] has returned `true`).
    pub fn last_change(&self) -> u64 {
        self.last_change
    }

    /// How many consecutive observations have been unchanged.
    pub fn stable_streak(&self) -> u64 {
        self.stable_for
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_stability_counts_from_first_observation() {
        let mut t = StabilityTracker::new(3);
        assert!(!t.observe_slice(0, &[7]));
        assert!(!t.observe_slice(1, &[7]));
        assert!(!t.observe_slice(2, &[7]));
        assert!(t.observe_slice(3, &[7]));
        assert_eq!(t.last_change(), 0);
    }

    #[test]
    fn change_resets_the_streak() {
        let mut t = StabilityTracker::new(2);
        t.observe_slice(0, &[1]);
        t.observe_slice(1, &[1]);
        assert_eq!(t.stable_streak(), 1);
        t.observe_slice(2, &[2]);
        assert_eq!(t.stable_streak(), 0);
        assert_eq!(t.last_change(), 2);
        assert!(!t.observe_slice(3, &[2]));
        assert!(t.observe_slice(4, &[2]));
    }

    #[test]
    fn quiet_zero_is_clamped_to_one() {
        let mut t = StabilityTracker::new(0);
        assert!(!t.observe_slice(0, &[1]));
        assert!(t.observe_slice(1, &[1]));
    }

    #[test]
    fn flag_mode_matches_snapshot_mode() {
        // The same change pattern through both APIs must produce the
        // same satisfaction step and last-change time.
        let series = [vec![1], vec![2], vec![2], vec![3], vec![3], vec![3]];
        let mut snap = StabilityTracker::new(2);
        let mut flag: StabilityTracker<i32> = StabilityTracker::new(2);
        let mut prev: Option<Vec<i32>> = None;
        for (now, s) in series.iter().enumerate() {
            let changed = prev.as_ref() != Some(s);
            prev = Some(s.clone());
            assert_eq!(
                snap.observe_slice(now as u64, s),
                flag.observe_flag(now as u64, changed),
                "diverged at {now}"
            );
            assert_eq!(snap.last_change(), flag.last_change());
            assert_eq!(snap.stable_streak(), flag.stable_streak());
        }
    }

    #[test]
    fn flag_mode_continues_a_snapshot_observation() {
        // A caller may seed the tracker with one full projection and
        // then feed flags: the streak must carry across the switch.
        let mut t = StabilityTracker::new(2);
        assert!(!t.observe_slice(5, &[7, 7]));
        assert!(!t.observe_flag(6, false));
        assert!(t.observe_flag(7, false));
        assert_eq!(t.last_change(), 5);
    }
}
