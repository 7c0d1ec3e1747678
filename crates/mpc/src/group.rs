//! Machine groups: contiguous sub-ranges of the cluster assigned to
//! one algorithm structure each.
//!
//! The paper runs its maintainers "in parallel on disjoint machine
//! groups" (rounds compose by max, communication by sum). A
//! [`MachineGroup`] makes that partition explicit, so the standing
//! state of each maintainer can be audited against *its own* slice of
//! the cluster — and a capacity overrun can name the structure that
//! caused it instead of reporting "the cluster is full".

/// A contiguous sub-range `[start, start + machines)` of the
/// cluster's machines, owned by one maintainer.
///
/// # Examples
///
/// ```
/// use mpc_sim::group::MachineGroup;
///
/// let groups = MachineGroup::partition(10, 3);
/// assert_eq!(groups.len(), 3);
/// // Groups are disjoint and cover the cluster.
/// assert_eq!(groups.iter().map(MachineGroup::machines).sum::<usize>(), 10);
/// assert_eq!(groups[0].capacity(1 << 10), 4 << 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineGroup {
    start: usize,
    machines: usize,
}

impl MachineGroup {
    /// Creates a group of `machines` machines starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0` (every group owns at least one
    /// machine).
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — partition never produces empty groups"
    )]
    pub fn new(start: usize, machines: usize) -> Self {
        assert!(machines >= 1, "a machine group cannot be empty");
        MachineGroup { start, machines }
    }

    /// First machine of the group.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of machines in the group.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Whether machine `m` belongs to this group.
    pub fn contains(&self, m: usize) -> bool {
        (self.start..self.start + self.machines).contains(&m)
    }

    /// The group's standing-state capacity at local capacity `s`
    /// words per machine.
    pub fn capacity(&self, local_capacity: u64) -> u64 {
        self.machines as u64 * local_capacity
    }

    /// Partitions `total` machines into `parts` contiguous groups, as
    /// evenly as possible (the first `total % parts` groups get one
    /// extra machine). With more parts than machines the groups wrap
    /// round-robin onto single machines — the simulation's analogue
    /// of co-scheduling structures on an under-provisioned cluster
    /// (each still audited against one machine's capacity).
    ///
    /// Returns an empty vector for `parts == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` while `parts > 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — cluster sizes are validated at config build time"
    )]
    pub fn partition(total: usize, parts: usize) -> Vec<MachineGroup> {
        if parts == 0 {
            return Vec::new();
        }
        assert!(total >= 1, "cannot partition an empty cluster");
        if parts > total {
            return (0..parts)
                .map(|i| MachineGroup::new(i % total, 1))
                .collect();
        }
        let base = total / parts;
        let extra = total % parts;
        let mut groups = Vec::with_capacity(parts);
        let mut start = 0;
        for i in 0..parts {
            let size = base + usize::from(i < extra);
            groups.push(MachineGroup::new(start, size));
            start += size;
        }
        groups
    }
}

impl std::fmt::Display for MachineGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machines {}..{}", self.start, self.start + self.machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_is_disjoint_and_total() {
        let groups = MachineGroup::partition(12, 4);
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.machines(), 3);
        }
        for m in 0..12 {
            assert_eq!(groups.iter().filter(|g| g.contains(m)).count(), 1);
        }
    }

    #[test]
    fn remainder_goes_to_leading_groups() {
        let groups = MachineGroup::partition(10, 3);
        assert_eq!(
            groups
                .iter()
                .map(MachineGroup::machines)
                .collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert_eq!(groups[1].start(), 4);
        assert_eq!(groups[2].start(), 7);
    }

    #[test]
    fn more_parts_than_machines_wraps() {
        let groups = MachineGroup::partition(2, 5);
        assert_eq!(groups.len(), 5);
        for g in &groups {
            assert_eq!(g.machines(), 1);
            assert!(g.start() < 2);
        }
    }

    #[test]
    fn zero_parts_is_empty() {
        assert!(MachineGroup::partition(8, 0).is_empty());
    }

    #[test]
    fn capacity_and_display() {
        let g = MachineGroup::new(3, 2);
        assert_eq!(g.capacity(100), 200);
        assert_eq!(g.to_string(), "machines 3..5");
        assert!(g.contains(3) && g.contains(4) && !g.contains(5));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_group_panics() {
        let _ = MachineGroup::new(0, 0);
    }
}
