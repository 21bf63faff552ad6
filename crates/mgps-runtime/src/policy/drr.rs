//! Deficit round-robin admission: the serve plane's per-tenant job queue.
//!
//! One pure type holds the whole job-plane discipline — the per-tenant
//! FIFO lines, the activation ring of tenants with queued work, the
//! head's deficit, the weights, and the admission bound.
//! `multigrain serve` runs it under its queue lock; the checker's
//! `job-lifecycle` and `tenant-fairness` rules replay the *same* type
//! from a RunLog's job events, so the dispatcher and its judge cannot
//! drift apart.
//!
//! The ring's head dispatches one item per deficit unit. A spent head
//! deficit is refilled from the tenant's weight (the configured weight, 1
//! beyond the list) when the head next dispatches; a head whose deficit
//! runs out with work left rotates to the back; a tenant whose line
//! empties — by dispatch, shed, or removal — leaves the ring and forfeits
//! what is left of its deficit. Sheds consume no deficit. Only the head
//! ever holds deficit, so one counter carries it.

use std::collections::{BTreeMap, VecDeque};

/// A deficit-round-robin queue of `T` over tenants (see the module docs).
#[derive(Debug, Clone)]
pub struct Drr<T> {
    /// Per-tenant FIFO lines. A tenant has an entry exactly while its
    /// line is nonempty, which is exactly while it sits on the ring.
    lines: BTreeMap<usize, VecDeque<T>>,
    /// Tenants with queued work, in activation order; the front is the
    /// head.
    ring: VecDeque<usize>,
    /// Deficit left to the head; 0 means spent (refilled on its next
    /// dispatch).
    deficit: u64,
    /// Dispatch weights, indexed by tenant (1 beyond the end).
    weights: Vec<u64>,
    /// Items queued across all tenants.
    len: usize,
    /// Admission bound on `len`.
    cap: usize,
}

impl<T> Drr<T> {
    /// An empty queue dispatching under `weights`, with no admission
    /// bound (the checker's replay: the log says what was admitted).
    pub fn new(weights: Vec<u64>) -> Drr<T> {
        Drr {
            lines: BTreeMap::new(),
            ring: VecDeque::new(),
            deficit: 0,
            weights,
            len: 0,
            cap: usize::MAX,
        }
    }

    /// Bound admission ([`Drr::admits`]) to at most `cap` items in all (at
    /// least 1), whatever their tenants.
    pub fn bounded(mut self, cap: usize) -> Drr<T> {
        self.cap = cap.max(1);
        self
    }

    /// `tenant`'s dispatch weight: its configured weight, 1 beyond the
    /// list (and for a configured 0).
    fn weight(&self, tenant: usize) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }

    /// Items queued across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Nothing queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The total admission bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Items queued for `tenant`.
    #[cfg(test)]
    fn tenant_len(&self, tenant: usize) -> usize {
        self.lines.get(&tenant).map_or(0, VecDeque::len)
    }

    /// `(tenant, queued)` for every tenant with queued work, in tenant
    /// order.
    pub fn tenant_lens(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.lines.iter().map(|(&t, line)| (t, line.len()))
    }

    /// Whether one more item fits under the admission bound.
    pub fn admits(&self) -> bool {
        self.len < self.cap
    }

    /// Queue `item` at the back of `tenant`'s line — an admission, or a
    /// requeue after a failed attempt. A tenant with no queued work joins
    /// the back of the ring. Bounds are the caller's to check.
    pub fn push(&mut self, tenant: usize, item: T) {
        let line = self.lines.entry(tenant).or_default();
        if line.is_empty() {
            self.ring.push_back(tenant);
        }
        line.push_back(item);
        self.len += 1;
    }

    /// The tenant the next [`Drr::pop`] serves.
    pub fn head(&self) -> Option<usize> {
        self.ring.front().copied()
    }

    /// The item at the front of `tenant`'s line.
    pub fn front(&self, tenant: usize) -> Option<&T> {
        self.lines.get(&tenant).and_then(VecDeque::front)
    }

    /// Take the front of `tenant`'s line without dispatching it (a
    /// deadline shed): no deficit is consumed.
    pub fn shed_front(&mut self, tenant: usize) -> Option<T> {
        let line = self.lines.get_mut(&tenant)?;
        let item = line.pop_front()?;
        self.len -= 1;
        if line.is_empty() {
            self.leave(tenant);
        }
        Some(item)
    }

    /// Dispatch the front of the head's line, charging one deficit unit
    /// (refilled from the weight first if spent). The head rotates to the
    /// back when its deficit runs out with work left.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let tenant = self.head()?;
        if self.deficit == 0 {
            self.deficit = self.weight(tenant);
        }
        let line = self.lines.get_mut(&tenant)?;
        let item = line.pop_front()?;
        self.len -= 1;
        self.deficit -= 1;
        if line.is_empty() {
            self.leave(tenant);
        } else if self.deficit == 0 {
            self.ring.rotate_left(1);
        }
        Some((tenant, item))
    }

    /// Drop every copy of `item` from `tenant`'s line, wherever it stands
    /// — the checker's resync after a dispatch the discipline did not
    /// choose. No deficit is consumed.
    pub fn remove(&mut self, tenant: usize, item: &T)
    where
        T: PartialEq,
    {
        let Some(line) = self.lines.get_mut(&tenant) else { return };
        let before = line.len();
        line.retain(|queued| queued != item);
        self.len -= before - line.len();
        if line.is_empty() {
            self.leave(tenant);
        }
    }

    /// `tenant`'s line just emptied: it leaves the ring, and as the head
    /// it forfeits its deficit.
    fn leave(&mut self, tenant: usize) {
        self.lines.remove(&tenant);
        if self.head() == Some(tenant) {
            self.ring.pop_front();
            self.deficit = 0;
        } else {
            self.ring.retain(|&t| t != tenant);
        }
    }
}

/// The checker's pre-policy `tenant-fairness` replay (its second pass over
/// the log), trimmed to the replay itself: the differential oracle the
/// proptests below hold [`Drr`] to.
#[cfg(test)]
mod classic {
    use std::collections::{BTreeMap, VecDeque};

    pub struct Replay {
        weights: Vec<u64>,
        queues: BTreeMap<usize, VecDeque<u64>>,
        active: VecDeque<usize>,
        deficit: BTreeMap<usize, u64>,
    }

    impl Replay {
        pub fn new(weights: Vec<u64>) -> Replay {
            Replay {
                weights,
                queues: BTreeMap::new(),
                active: VecDeque::new(),
                deficit: BTreeMap::new(),
            }
        }

        fn weight(&self, t: usize) -> u64 {
            self.weights.get(t).copied().unwrap_or(1).max(1)
        }

        /// A `JobSubmitted` or `JobRetried`.
        pub fn push(&mut self, tenant: usize, job: u64) {
            self.queues.entry(tenant).or_default().push_back(job);
            if !self.active.contains(&tenant) {
                self.active.push_back(tenant);
            }
        }

        /// A `JobShed`; says whether it was in queue order.
        pub fn shed(&mut self, tenant: usize, job: u64) -> bool {
            let q = self.queues.entry(tenant).or_default();
            let in_order = q.front() == Some(&job);
            if in_order {
                q.pop_front();
            } else {
                q.retain(|j| *j != job);
            }
            if q.is_empty() {
                self.active.retain(|t| *t != tenant);
                self.deficit.insert(tenant, 0);
            }
            in_order
        }

        /// A `JobStarted`: `Ok` when deficit round-robin selects exactly
        /// this job, else the selection it made (after the resync).
        pub fn start(
            &mut self,
            tenant: usize,
            job: u64,
        ) -> Result<(), Option<(usize, Option<u64>)>> {
            let selected = loop {
                let Some(&t) = self.active.front() else { break None };
                if self.queues.get(&t).is_none_or(VecDeque::is_empty) {
                    self.active.pop_front();
                    self.deficit.insert(t, 0);
                    continue;
                }
                if self.deficit.get(&t).copied().unwrap_or(0) == 0 {
                    let w = self.weight(t);
                    self.deficit.insert(t, w);
                }
                break Some(t);
            };
            let Some(t) = selected else { return Err(None) };
            let expected = self.queues.get(&t).and_then(|q| q.front().copied());
            if t != tenant || expected != Some(job) {
                if let Some(q) = self.queues.get_mut(&tenant) {
                    q.retain(|j| *j != job);
                    if q.is_empty() {
                        self.active.retain(|x| *x != tenant);
                        self.deficit.insert(tenant, 0);
                    }
                }
                return Err(Some((t, expected)));
            }
            let Some(q) = self.queues.get_mut(&t) else { return Err(None) };
            q.pop_front();
            let d = self.deficit.entry(t).or_insert(1);
            *d = d.saturating_sub(1);
            let exhausted = *d == 0;
            if q.is_empty() {
                self.active.pop_front();
                self.deficit.insert(t, 0);
            } else if exhausted {
                if let Some(head) = self.active.pop_front() {
                    self.active.push_back(head);
                }
            }
            Ok(())
        }

        /// Nonempty lines in tenant order, then the ring.
        pub fn state(&self) -> (Vec<(usize, Vec<u64>)>, Vec<usize>) {
            let lines = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&t, q)| (t, q.iter().copied().collect()))
                .collect();
            (lines, self.active.iter().copied().collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn state(q: &Drr<u64>) -> (Vec<(usize, Vec<u64>)>, Vec<usize>) {
        let lines = q.lines.iter().map(|(&t, line)| (t, line.iter().copied().collect())).collect();
        (lines, q.ring.iter().copied().collect())
    }

    /// Drain `q`, returning the dispatch order.
    fn drain(q: &mut Drr<u64>) -> Vec<u64> {
        std::iter::from_fn(|| q.pop()).map(|(_, job)| job).collect()
    }

    #[test]
    fn weights_three_to_one_dispatch_three_then_one() {
        let mut q = Drr::new(vec![3, 1]);
        for job in [10, 11, 12, 13, 14] {
            q.push(0, job);
        }
        for job in [20, 21, 22] {
            q.push(1, job);
        }
        assert_eq!((q.len(), q.tenant_len(0), q.tenant_len(1)), (8, 5, 3));
        assert_eq!(drain(&mut q), [10, 11, 12, 20, 13, 14, 21, 22]);
        assert!(q.is_empty() && q.head().is_none());
    }

    #[test]
    fn a_shed_consumes_no_deficit_and_an_emptied_head_forfeits_its_own() {
        let mut q = Drr::new(vec![2]);
        q.push(0, 10);
        q.push(0, 11);
        q.push(1, 20);
        q.push(1, 21);
        // The head sheds its front: both of tenant 0's units are left.
        assert_eq!(q.shed_front(0), Some(10));
        assert_eq!(q.pop(), Some((0, 11)));
        // Tenant 0 emptied mid-quantum: tenant 1 is head with a fresh one.
        assert_eq!(q.head(), Some(1));
        q.push(0, 12);
        assert_eq!(drain(&mut q), [20, 12, 21]);
    }

    #[test]
    fn the_queue_is_unbounded_until_bounded_and_the_cap_floors_at_one_slot() {
        let q: Drr<u64> = Drr::new(vec![4, 1]);
        assert!(q.admits() && q.cap() == usize::MAX, "unbounded until bounded");
        let mut q: Drr<u64> = Drr::new(vec![]).bounded(0);
        assert_eq!(q.cap(), 1, "the cap floors at one slot");
        q.push(0, 1);
        assert!(!q.admits());
    }

    proptest! {
        /// The policy type and the checker's old replay agree on every
        /// selection and every queue state over random scripts of
        /// admissions, requeues, sheds, dispatches and wrong dispatches
        /// (which the checker resyncs with `remove`). A step is `(op,
        /// tenant, k)`, `k` picking a position among what is queued.
        #[test]
        fn drr_matches_the_classic_replay(
            tenants in 1usize..=6,
            weights in prop::collection::vec(1u64..=8, 0..=6),
            script in prop::collection::vec((0u8..6, 0usize..6, 0usize..64), 1..300),
        ) {
            let mut q = Drr::new(weights.clone());
            let mut oracle = classic::Replay::new(weights);
            let mut next_job = 0u64;
            let mut ran: Vec<(usize, u64)> = Vec::new();
            for (op, t, k) in script {
                let t = t % tenants;
                match op {
                    // Admission (twice as likely as anything else).
                    0 | 1 => {
                        q.push(t, next_job);
                        oracle.push(t, next_job);
                        next_job += 1;
                    }
                    // Requeue a dispatched job at the back of its line.
                    2 if !ran.is_empty() => {
                        let (t, job) = ran.remove(k % ran.len());
                        q.push(t, job);
                        oracle.push(t, job);
                    }
                    // Shed the front of a line (the head's, or any).
                    3 => {
                        let t = if k % 2 == 0 { q.head().unwrap_or(t) } else { t };
                        if let Some(&job) = q.front(t) {
                            prop_assert_eq!(q.shed_front(t), Some(job));
                            prop_assert!(oracle.shed(t, job), "oracle: shed out of order");
                        }
                    }
                    // A dispatch the discipline did not choose: the
                    // checker's resync path.
                    4 => {
                        let Some(&job) = q.lines.get(&t).and_then(|line| line.get(k % line.len()))
                        else { continue };
                        let chosen = q.head().map(|h| (h, q.front(h).copied()));
                        let verdict = oracle.start(t, job);
                        if chosen == Some((t, Some(job))) {
                            prop_assert!(verdict.is_ok());
                            prop_assert_eq!(q.pop(), Some((t, job)));
                            ran.push((t, job));
                        } else {
                            prop_assert_eq!(verdict, Err(chosen));
                            q.remove(t, &job);
                        }
                    }
                    // Dispatch.
                    _ => match q.pop() {
                        Some((t, job)) => {
                            prop_assert_eq!(oracle.start(t, job), Ok(()));
                            ran.push((t, job));
                        }
                        None => prop_assert_eq!(oracle.start(t, u64::MAX), Err(None)),
                    },
                }
                prop_assert_eq!(state(&q), oracle.state());
                prop_assert_eq!(q.len(), q.tenant_lens().map(|(_, n)| n).sum::<usize>());
            }
        }

        /// Over any backlog, while every tenant still has work, each
        /// tenant's dispatch count stays within one quantum (its weight)
        /// of its weight share of all dispatches so far.
        #[test]
        fn dispatch_shares_stay_within_one_quantum_of_the_weights(
            weights in prop::collection::vec(1u64..=8, 0..=6),
            backlog in prop::collection::vec(1usize..80, 1..=6),
        ) {
            let mut q = Drr::new(weights);
            for (t, &n) in backlog.iter().enumerate() {
                for i in 0..n {
                    q.push(t, i as u64);
                }
            }
            let total_weight: u64 = (0..backlog.len()).map(|t| q.weight(t)).sum();
            let mut sent = vec![0u64; backlog.len()];
            let mut pops = 0u64;
            while (0..backlog.len()).all(|t| q.tenant_len(t) > 0) {
                let Some((t, _)) = q.pop() else { break };
                sent[t] += 1;
                pops += 1;
                for (u, &d) in sent.iter().enumerate() {
                    let w = q.weight(u);
                    // |d − pops·w/W| ≤ w, scaled by W to stay in integers.
                    prop_assert!(
                        (d * total_weight).abs_diff(pops * w) <= w * total_weight,
                        "tenant {} sent {} of {} (weight {} of {})", u, d, pops, w, total_weight
                    );
                }
            }
        }
    }
}
