//! The crowd of parked spinning warps on one SM, kept as a sorted multiset
//! of issue-slot residues (DESIGN.md §9).
//!
//! A parked warp repeats a captured loop of period `P` ticks. Left alone,
//! step `i` of its loop issues at every tick congruent to
//! `phase + offset(i)` modulo `P`, where `offset(i)` is the summed cost of
//! the steps before `i`. Those residues never change while the warp stays
//! on its lattice. They move only when the warp issues later than its
//! projection: a displaced visit shifts every later visit of the warp by
//! the same amount. So the multiset of all residues on an SM is updated
//! only on park, unpark and such off-lattice moves, never per visit.
//!
//! When every parked warp on the SM shares one period, the residues sorted
//! in ascending order list the crowd's pending visits in issue order, one
//! period at a time. The engine walks them with the cursor kept here
//! instead of a per-warp heap. Two slots with the same residue are a
//! collision: both warps want the same tick, and the one with the higher
//! id is displaced. With no collision at all, no visit is ever displaced,
//! so whole periods of the crowd can be accounted in closed form.

/// One issue slot of a parked warp: step `step` of warp `wid`'s captured
/// loop issues at every tick congruent to `res` modulo the warp's period.
/// Ordered by residue, then warp id, which is the order the scheduler runs
/// same-tick visits in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Slot {
    pub(crate) res: u64,
    pub(crate) wid: u32,
    pub(crate) step: u32,
}

/// Residue of a warp's anchor poll: the tick `next_tick` of its pending
/// step, less the cost of the steps before it (`offset < period`).
#[inline]
pub(crate) fn phase(next_tick: u64, offset: u64, period: u64) -> u64 {
    (next_tick % period + period - offset) % period
}

/// The parked warps of one SM (see the module docs).
#[derive(Default)]
pub(crate) struct Crowd {
    /// Every parked warp's slots, sorted.
    slots: Vec<Slot>,
    /// Adjacent slot pairs with equal residue: the slot count less the
    /// number of distinct residues.
    collisions: usize,
    /// Distinct loop periods of the parked warps, with their warp counts.
    periods: Vec<(u64, u32)>,
    /// Walk cursor, valid while `seeked`: the slot at `pos`, which issues
    /// at tick `base + slots[pos].res` this period.
    base: u64,
    pos: usize,
    seeked: bool,
    /// Walk cursor while not `seeked`: the next walk starts at the first
    /// slot at or after this tick.
    from: u64,
    /// Whether the SM is advanced by walking the slots (its visit heap is
    /// then not maintained) rather than by the per-visit heap path.
    pub(crate) walk: bool,
    /// The crowd's first pending visit `(tick, warp)` when known: the walk
    /// stopped in front of it and nothing on the SM changed since.
    pub(crate) next: Option<(u64, u32)>,
}

impl Crowd {
    /// Empties the crowd for a new launch, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.periods.clear();
        self.collisions = 0;
        self.seeked = false;
        self.walk = false;
        self.next = None;
    }

    /// The period every parked warp shares, if there is exactly one.
    pub(crate) fn period(&self) -> Option<u64> {
        match self.periods[..] {
            [(p, _)] => Some(p),
            _ => None,
        }
    }

    /// Whether two slots share a residue.
    pub(crate) fn collides(&self) -> bool {
        self.collisions > 0
    }

    /// Turns the seeked cursor back into a tick, so the slot vector may
    /// change under it.
    fn unseek(&mut self) {
        if self.seeked {
            self.from = self.base + self.slots[self.pos].res;
            self.seeked = false;
        }
    }

    /// Adds a warp whose slots are `new` (sorted, with distinct residues)
    /// and whose pending visit is at `next_tick`; the walk cursor moves
    /// back to that visit if it is ahead of it.
    pub(crate) fn insert(&mut self, new: &[Slot], period: u64, next_tick: u64) {
        self.unseek();
        let (old, k) = (self.slots.len(), new.len());
        self.from = if old == 0 {
            next_tick
        } else {
            self.from.min(next_tick)
        };
        self.next = None;
        self.slots.resize(old + k, Slot::default());
        // Merge from the back, in place. A new slot collides iff an old
        // slot shares its residue; that slot is then its left neighbour
        // (still at `i - 1`) or its right one (already placed at `w + 1`).
        let (mut i, mut j) = (old, k);
        while j > 0 {
            let w = i + j - 1;
            if i > 0 && self.slots[i - 1] > new[j - 1] {
                self.slots[w] = self.slots[i - 1];
                i -= 1;
            } else {
                let r = new[j - 1].res;
                if (i > 0 && self.slots[i - 1].res == r)
                    || (w + 1 < old + k && self.slots[w + 1].res == r)
                {
                    self.collisions += 1;
                }
                self.slots[w] = new[j - 1];
                j -= 1;
            }
        }
        match self.periods.iter_mut().find(|(p, _)| *p == period) {
            Some((_, n)) => *n += 1,
            None => self.periods.push((period, 1)),
        }
    }

    /// Removes a warp's slots `gone` (sorted, as inserted); its loop period
    /// is `period`.
    pub(crate) fn remove(&mut self, gone: &[Slot], period: u64) {
        self.unseek();
        self.next = None;
        // Compact in one pass from the first removed slot. Neighbours read
        // at a removed slot are still the original ones: writes trail the
        // read index by at least one by then.
        let len = self.slots.len();
        let start = self.slots.partition_point(|s| *s < gone[0]);
        let (mut w, mut g) = (start, 0);
        for r in start..len {
            let s = self.slots[r];
            if g < gone.len() && s == gone[g] {
                if (r > 0 && self.slots[r - 1].res == s.res)
                    || (r + 1 < len && self.slots[r + 1].res == s.res)
                {
                    self.collisions -= 1;
                }
                g += 1;
            } else {
                self.slots[w] = s;
                w += 1;
            }
        }
        debug_assert_eq!(g, gone.len(), "removed slots were registered");
        self.slots.truncate(w);
        let i = self
            .periods
            .iter()
            .position(|&(p, _)| p == period)
            .expect("removed warp's period is registered");
        self.periods[i].1 -= 1;
        if self.periods[i].1 == 0 {
            self.periods.swap_remove(i);
        }
    }

    /// Restarts the walk at the first slot at or after tick `t`.
    pub(crate) fn restart(&mut self, t: u64) {
        self.seeked = false;
        self.from = t;
        self.next = None;
    }

    /// The slot under the walk cursor and the tick it issues at. The crowd
    /// must be non-empty with one shared `period`.
    pub(crate) fn current(&mut self, period: u64) -> (u64, Slot) {
        if !self.seeked {
            let r = self.from % period;
            self.base = self.from - r;
            self.pos = self.slots.partition_point(|s| s.res < r);
            if self.pos == self.slots.len() {
                self.pos = 0;
                self.base += period;
            }
            self.seeked = true;
        }
        let s = self.slots[self.pos];
        (self.base + s.res, s)
    }

    /// Moves the walk cursor to the next slot (after [`Crowd::current`]).
    pub(crate) fn advance(&mut self, period: u64) {
        self.pos += 1;
        if self.pos == self.slots.len() {
            self.pos = 0;
            self.base += period;
        }
    }

    /// Debug check: the incremental multiset equals `expect`, a recount
    /// from scratch (any order), with `periods` the recounted period list.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_matches(&self, mut expect: Vec<Slot>, mut periods: Vec<(u64, u32)>) {
        expect.sort_unstable();
        assert_eq!(self.slots, expect, "crowd residues drifted from a recount");
        let collisions = expect.windows(2).filter(|w| w[0].res == w[1].res).count();
        assert_eq!(self.collisions, collisions, "crowd collision count drifted");
        let mut mine = self.periods.clone();
        mine.sort_unstable();
        periods.sort_unstable();
        assert_eq!(mine, periods, "crowd period counts drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(wid: u32, phase: u64, costs: &[u64], period: u64) -> Vec<Slot> {
        let mut off = 0;
        let mut v: Vec<Slot> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let s = Slot {
                    res: (phase + off) % period,
                    wid,
                    step: i as u32,
                };
                off += c;
                s
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_remove_track_collisions_and_periods() {
        let mut c = Crowd::default();
        c.insert(&slots(3, 0, &[2, 3], 5), 5, 10);
        assert_eq!(c.period(), Some(5));
        assert!(!c.collides());
        c.insert(&slots(1, 1, &[2, 3], 5), 5, 11);
        assert!(!c.collides());
        // Warp 4's residues {2, 4} hit warp 3's slot at 2.
        c.insert(&slots(4, 2, &[2, 3], 5), 5, 12);
        assert!(c.collides());
        c.assert_matches(
            [
                slots(3, 0, &[2, 3], 5),
                slots(1, 1, &[2, 3], 5),
                slots(4, 2, &[2, 3], 5),
            ]
            .concat(),
            vec![(5, 3)],
        );
        c.remove(&slots(4, 2, &[2, 3], 5), 5);
        assert!(!c.collides());
        c.insert(&slots(9, 0, &[7], 7), 7, 20);
        assert_eq!(c.period(), None);
        c.remove(&slots(9, 0, &[7], 7), 7);
        assert_eq!(c.period(), Some(5));
    }

    #[test]
    fn the_cursor_walks_slots_in_tick_order_across_periods() {
        let mut c = Crowd::default();
        c.insert(&slots(0, 0, &[2, 3], 5), 5, 0);
        c.insert(&slots(1, 1, &[2, 3], 5), 5, 1);
        c.restart(6);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let (t, s) = c.current(5);
            seen.push((t, s.wid));
            c.advance(5);
        }
        // Residues 0,2 (warp 0) and 1,3 (warp 1), from tick 6 on.
        assert_eq!(seen, [(6, 1), (7, 0), (8, 1), (10, 0), (11, 1), (12, 0)]);
        // A warp parked with its visit behind the cursor moves it back.
        c.insert(&slots(2, 4, &[5], 5), 5, 4);
        assert_eq!(
            c.current(5),
            (
                4,
                Slot {
                    res: 4,
                    wid: 2,
                    step: 0
                }
            )
        );
    }
}
