//! The VSIDS decision order: a binary heap of variables.

/// `pos` marker of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// A binary max-heap of variable indices ordered by (activity descending,
/// index ascending), so its top is the first variable of maximum activity —
/// exactly what a linear scan keeping the first maximum would pick.
///
/// The heap is derived state: it stores no activities of its own (callers
/// pass the solver's activity slice to every operation) and is rebuilt
/// rather than serialized.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]` is the heap slot of variable `v`, or [`ABSENT`].
    pos: Vec<u32>,
}

/// `true` when variable `a` is decided before variable `b`.
#[inline]
fn precedes(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a < b)
}

impl VarOrder {
    /// A heap holding every variable `0..activity.len()`.
    pub(crate) fn with_all(activity: &[f64]) -> Self {
        let mut order = VarOrder {
            heap: (0..activity.len() as u32).collect(),
            pos: (0..activity.len() as u32).collect(),
        };
        order.heapify(activity);
        order
    }

    /// Registers a new variable (the next index) and inserts it.
    pub(crate) fn push_new(&mut self, activity: &[f64]) {
        self.pos.push(ABSENT);
        self.insert(self.pos.len() as u32 - 1, activity);
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    /// Inserts `v` if it is not in the heap yet.
    pub(crate) fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap order after `v`'s activity grew.
    #[inline]
    pub(crate) fn increased(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, activity);
        }
    }

    /// Removes and returns the top variable.
    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establishes the heap order over the current members, for when
    /// activities changed in a way that is not a plain increase (the
    /// rescale can round distinct activities into ties).
    pub(crate) fn heapify(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !precedes(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && precedes(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !precedes(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}
