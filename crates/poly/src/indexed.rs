//! An incrementally indexed term store for the backward-rewriting hot loop.
//!
//! [`IndexedPolynomial`] holds the same term multiset as a [`Polynomial`]
//! but adds the structures the reduction engine needs to make each
//! substitution step proportional to the *affected* term set instead of the
//! whole polynomial:
//!
//! 1. **A ranked inverted var→term-handle index.** Every variable has a
//!    *drain rank*; rank `0` marks it untracked, and the tracked ones are
//!    the substitutable gate outputs. A live term's *top-rank variables* are
//!    the tracked variables of the highest rank it holds, and its slot
//!    handle is kept only in their lists, so
//!    [`IndexedPolynomial::drain_containing`] removes exactly the affected
//!    terms, one at a time, with no full-table scan.
//! 2. **Canonical mod-`2^k` coefficients.** With a modulus configured,
//!    coefficients are stored in `[0, 2^k)` and terms whose coefficient is
//!    congruent to zero cancel *at insertion time*, replacing the old
//!    post-step "drop multiples of `2^k`" sweep over every term.
//! 3. **A retirement accumulator.** Terms whose monomial contains no
//!    tracked variable can never be drained again; they are routed to a
//!    separate accumulator where they still merge and cancel against each
//!    other, but are never touched by the per-step index maintenance.
//! 4. **A presence log.** The store records each tracked variable whose
//!    occurrence count crosses zero, at most once between two
//!    [reads](IndexedPolynomial::read_presence_log), so a caller can keep
//!    per-variable facts about the present variables (the reduction
//!    engine's output columns) without scanning every count.
//!
//! # Reuse
//!
//! The per-variable tables are sized once, by [`IndexedPolynomial::new`].
//! [`IndexedPolynomial::take_polynomial`] empties the store into a
//! [`Polynomial`], and [`IndexedPolynomial::reset`] re-ranks it for the next
//! tail and modulus; each costs the store's terms plus its tracked
//! variables, not the table length. A reset store behaves exactly like a
//! fresh one, so the Step-2 rewriter keeps one store for a whole pass.
//!
//! # Index invariants
//!
//! * Every live term has at least one handle in the list of each of its
//!   top-rank variables. Lists may additionally contain *stale* handles
//!   (the term was cancelled or drained, and its slot may have been
//!   reused); staleness is detected at drain time by re-checking that the
//!   slot is live *and* its monomial still contains the drained variable.
//! * Occurrence counts cover every tracked variable, whatever its rank.
//!   Untracked variables hold no handles and no counts.
//! * The lookup table addresses terms by their cached monomial hash, so the
//!   monomial bytes are stored exactly once (in the slot arena).
//! * With a modulus `2^k`, a term is present iff its exact coefficient is
//!   not a multiple of `2^k`; the stored coefficient is the canonical
//!   representative in `[0, 2^k)`. Without a modulus, arithmetic is exact.
//!
//! # Drain contract
//!
//! A tracked variable `v` may be drained only while no live term holds a
//! tracked variable of a higher rank; the store checks this with a
//! `debug_assert!` on every drain. Every live term containing `v` then has
//! `v` among its top-rank variables, so `v`'s list reaches all of them.
//! While a drain of `v` is open, the terms added to the store must not
//! contain `v`, so once [`IndexedPolynomial::occurrences`] of `v` reads `0`
//! every handle left is stale and the drain ends without visiting them. The
//! reduction engine ranks each variable by its logic level plus one and
//! always drains from the highest level present, so a term is indexed only
//! under its highest-level variables; a store whose tracked variables all
//! share rank `1` indexes each term under every tracked variable it
//! contains and may drain any of them.
//!
//! A substitution step drains `v` and adds each drained term's products
//! before it draws the next one, so the products refill the slots the
//! drain frees. Its term bound is the store size less
//! [`IndexedPolynomial::occurrences`] of `v` at the step's start, plus the
//! products emitted since: the terms still to be drained are left out, as
//! a per-step copy of the drained terms would have held them. A step that
//! stops early [abandons](Drain::abandon) its drain, and the terms not yet
//! drained stay in the store, indexed.

use crate::{FastMap, Int, Monomial, Polynomial, Var};

/// Bucket marker: no entry was ever stored here (probe chains stop).
const EMPTY: u32 = u32::MAX;
/// Bucket marker: an entry was removed here (probe chains continue).
const TOMB: u32 = u32::MAX - 1;
/// The size of the lookup table of an empty store.
const MIN_BUCKETS: usize = 64;

/// A term store with a ranked inverted var→term index, optional canonical
/// mod-`2^k` coefficients, an accumulator that retires terms no longer
/// reachable by any substitution, and a log of the tracked variables whose
/// presence changed. See the module docs for the invariants and the drain
/// contract.
#[derive(Debug, Clone)]
pub struct IndexedPolynomial {
    /// Slot arena: `None` slots are free (their ids are on `free`).
    slots: Vec<Option<(Monomial, Int)>>,
    /// Free list of reusable slot ids.
    free: Vec<u32>,
    /// Open-addressing lookup table of slot ids, probed linearly by the
    /// monomial's cached hash. Only live (indexed) terms appear here.
    buckets: Vec<u32>,
    /// Live entries in `buckets`.
    items: usize,
    /// Tombstones in `buckets`.
    tombs: usize,
    /// Per-variable handle lists; non-empty only for tracked variables.
    var_index: Vec<Vec<u32>>,
    /// Drain rank per variable (`0` = untracked); indexed by `Var::index`.
    ranks: Vec<u32>,
    /// Live-term occurrence counts per variable (tracked variables only).
    counts: Vec<u32>,
    /// The variables of nonzero rank, so that emptying and re-ranking the
    /// store visit them alone.
    tracked: Vec<Var>,
    /// The tracked variables whose count crossed zero since the last read.
    presence: PresenceLog,
    /// Terms with no tracked variable: they merge and cancel against each
    /// other but are exempt from all index maintenance.
    inert: FastMap<Monomial, Int>,
    /// When `Some(k)`, coefficients are canonical mod `2^k`.
    modulus_bits: Option<u32>,
    /// Terms removed through the inverted index by a [`Drain`].
    index_hits: u64,
}

/// The tracked variables whose occurrence count crossed zero since the last
/// [`IndexedPolynomial::read_presence_log`], each logged once.
#[derive(Debug, Clone)]
struct PresenceLog {
    /// Each logged variable, with whether it occurred at the last read.
    entries: Vec<(Var, bool)>,
    /// Whether each variable is in `entries`; indexed by `Var::index`.
    logged: Vec<bool>,
}

impl PresenceLog {
    /// Logs that the count of `v` just crossed zero, leaving the side
    /// `was_present`, unless `v` is logged already: its first crossing
    /// since the last read holds its presence at that read.
    fn record(&mut self, v: Var, was_present: bool) {
        if !std::mem::replace(&mut self.logged[v.index()], true) {
            self.entries.push((v, was_present));
        }
    }
}

impl IndexedPolynomial {
    /// Creates an empty store. `ranks[v.index()]` is the drain rank of `v`
    /// (`0` = untracked; variables at or beyond `ranks.len()` are
    /// untracked), and the module docs give the drain contract it implies.
    /// With `modulus_bits = Some(k)`, coefficients are kept canonical mod
    /// `2^k` and terms cancel as soon as their coefficient is a multiple of
    /// `2^k`.
    pub fn new(ranks: Vec<u32>, modulus_bits: Option<u32>) -> IndexedPolynomial {
        let n = ranks.len();
        let tracked = (0..n)
            .filter(|&i| ranks[i] > 0)
            .map(|i| Var(i as u32))
            .collect();
        IndexedPolynomial {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![EMPTY; MIN_BUCKETS],
            items: 0,
            tombs: 0,
            var_index: vec![Vec::new(); n],
            ranks,
            counts: vec![0; n],
            tracked,
            presence: PresenceLog {
                entries: Vec::new(),
                logged: vec![false; n],
            },
            inert: FastMap::default(),
            modulus_bits,
            index_hits: 0,
        }
    }

    /// Builds the store from an existing polynomial (used once per
    /// reduction to ingest the rewritten specification).
    pub fn from_polynomial(
        p: &Polynomial,
        ranks: Vec<u32>,
        modulus_bits: Option<u32>,
    ) -> IndexedPolynomial {
        let mut ix = IndexedPolynomial::new(ranks, modulus_bits);
        for (m, c) in p.iter() {
            ix.add_term(m.clone(), c.clone());
        }
        ix
    }

    /// Empties the store and re-ranks it: afterwards it behaves exactly like
    /// `IndexedPolynomial::new(ranks, modulus_bits)` with rank `1` for every
    /// variable of `tracked` and `0` for every other, its presence log and
    /// index hits included. Costs the store's terms plus the tracked
    /// variables before and after, not the length of its tables (which
    /// grow when `tracked` names a variable beyond them).
    pub fn reset(&mut self, tracked: &[Var], modulus_bits: Option<u32>) {
        self.clear();
        self.read_presence_log(|_, _| {});
        for v in self.tracked.drain(..) {
            self.ranks[v.index()] = 0;
        }
        let n = tracked.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        if n > self.ranks.len() {
            self.ranks.resize(n, 0);
            self.counts.resize(n, 0);
            self.var_index.resize_with(n, Vec::new);
            self.presence.logged.resize(n, false);
        }
        for &v in tracked {
            self.ranks[v.index()] = 1;
        }
        self.tracked.extend_from_slice(tracked);
        self.modulus_bits = modulus_bits;
        self.index_hits = 0;
    }

    /// Number of present terms (live + retired accumulator).
    pub fn num_terms(&self) -> usize {
        self.live_terms() + self.inert.len()
    }

    /// Number of live (indexed) terms, i.e. terms still containing at
    /// least one tracked variable.
    pub fn live_terms(&self) -> usize {
        self.items
    }

    /// Number of retired terms (no tracked variable left).
    pub fn retired_terms(&self) -> usize {
        self.inert.len()
    }

    /// `true` when no term is present at all.
    pub fn is_zero(&self) -> bool {
        self.num_terms() == 0
    }

    /// Occurrence count of `v` across live terms (0 for untracked
    /// variables, whose occurrences are not maintained).
    pub fn occurrences(&self, v: Var) -> u32 {
        self.counts.get(v.index()).copied().unwrap_or(0)
    }

    /// Terms removed through the inverted index so far.
    pub fn index_hits(&self) -> u64 {
        self.index_hits
    }

    /// Reads the presence log and empties it: calls `visit(v, present)`
    /// once for every tracked variable whose presence (a nonzero
    /// [`Self::occurrences`]) differs from the previous read, where
    /// `present` is its presence now. The first read after
    /// [`Self::new`] or [`Self::reset`] compares against an empty store.
    /// Costs the variables whose count crossed zero since the previous
    /// read.
    pub fn read_presence_log(&mut self, mut visit: impl FnMut(Var, bool)) {
        for (v, was_present) in self.presence.entries.drain(..) {
            self.presence.logged[v.index()] = false;
            let present = self.counts[v.index()] > 0;
            if present != was_present {
                visit(v, present);
            }
        }
    }

    fn canon(&self, c: Int) -> Int {
        match self.modulus_bits {
            Some(k) => c.mod_pow2(k),
            None => c,
        }
    }

    fn rank(&self, v: Var) -> u32 {
        self.ranks.get(v.index()).copied().unwrap_or(0)
    }

    fn has_tracked(&self, m: &Monomial) -> bool {
        m.vars().any(|v| self.rank(v) > 0)
    }

    /// The highest rank a live term holds (`0` when no term is live).
    fn top_present_rank(&self) -> u32 {
        self.tracked
            .iter()
            .filter(|v| self.counts[v.index()] > 0)
            .map(|v| self.ranks[v.index()])
            .max()
            .unwrap_or(0)
    }

    /// Adds `coeff * monomial`, merging with an existing term and removing
    /// it when the (canonical) coefficient reaches zero.
    pub fn add_term(&mut self, monomial: Monomial, coeff: Int) {
        let coeff = self.canon(coeff);
        if coeff.is_zero() {
            return;
        }
        // Live terms (the only ones in the lookup table) are checked first;
        // a miss for a monomial with a tracked variable is a fresh insert.
        match self.find_bucket(&monomial) {
            FindResult::Found(bucket) => {
                let id = self.buckets[bucket] as usize;
                let modulus = self.modulus_bits;
                let slot = self.slots[id].as_mut().expect("bucket points at live slot");
                slot.1 += &coeff;
                if let Some(k) = modulus {
                    slot.1 = slot.1.mod_pow2(k);
                }
                let cancelled = slot.1.is_zero();
                if cancelled {
                    self.remove_bucket(bucket);
                }
            }
            FindResult::Absent(bucket) => {
                if self.has_tracked(&monomial) {
                    self.insert_live(bucket, monomial, coeff);
                } else {
                    self.add_inert(monomial, coeff);
                }
            }
        }
    }

    fn add_inert(&mut self, monomial: Monomial, coeff: Int) {
        use std::collections::hash_map::Entry;
        match self.inert.entry(monomial) {
            Entry::Occupied(mut e) => {
                let sum = match self.modulus_bits {
                    Some(k) => (e.get() + &coeff).mod_pow2(k),
                    None => e.get() + &coeff,
                };
                if sum.is_zero() {
                    e.remove();
                } else {
                    *e.get_mut() = sum;
                }
            }
            Entry::Vacant(e) => {
                e.insert(coeff);
            }
        }
    }

    /// Opens a drain of every live term containing `v`: each
    /// [`Drain::next`] removes one of them from the store and returns it.
    /// `v` must satisfy the drain contract of the module docs (a
    /// `debug_assert!` checks it). An untracked variable has no index, and
    /// its drain is empty.
    pub fn drain_containing(&mut self, v: Var) -> Drain {
        let rank = self.rank(v);
        debug_assert!(
            rank == 0 || self.top_present_rank() <= rank,
            "drain contract: {v:?} has rank {rank}, below the top present rank {}",
            self.top_present_rank()
        );
        let handles = self
            .var_index
            .get_mut(v.index())
            .map(std::mem::take)
            .unwrap_or_default();
        Drain {
            v,
            handles: handles.into_iter(),
        }
    }

    /// Removes every term (live or retired) whose monomial fails `keep`,
    /// returning how many were removed. The rewrite engine sweeps a tail's
    /// pre-existing terms against the vanishing closure once, right before
    /// the first substitution touches it.
    pub fn retain_terms<F: FnMut(&Monomial) -> bool>(&mut self, mut keep: F) -> usize {
        let mut removed = 0usize;
        for id in 0..self.slots.len() {
            let dead = matches!(&self.slots[id], Some((m, _)) if !keep(m));
            if dead {
                self.remove_slot(id as u32);
                removed += 1;
            }
        }
        let before = self.inert.len();
        self.inert.retain(|m, _| keep(m));
        removed + (before - self.inert.len())
    }

    /// Empties the store into a plain [`Polynomial`] (live terms plus the
    /// retirement accumulator; the two sets are disjoint by construction).
    /// The store keeps its ranks and modulus, and the tracked variables that
    /// occurred go on the presence log. Costs the store's terms plus its
    /// tracked variables.
    pub fn take_polynomial(&mut self) -> Polynomial {
        let inert = std::mem::take(&mut self.inert);
        let p = Polynomial::from_terms(self.slots.drain(..).flatten().chain(inert));
        self.clear();
        p
    }

    /// Removes every term and handle, logging the tracked variables that
    /// occurred. The accumulator is replaced rather than cleared: a map
    /// that kept its capacity would hand out its terms in another order
    /// than a fresh store's.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.inert = FastMap::default();
        self.buckets.clear();
        self.buckets.resize(MIN_BUCKETS, EMPTY);
        self.items = 0;
        self.tombs = 0;
        for &v in &self.tracked {
            self.var_index[v.index()].clear();
            if std::mem::take(&mut self.counts[v.index()]) > 0 {
                self.presence.record(v, true);
            }
        }
    }

    fn insert_live(&mut self, bucket: usize, monomial: Monomial, coeff: Int) {
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some((monomial, coeff));
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("term handle overflow");
                self.slots.push(Some((monomial, coeff)));
                id
            }
        };
        if self.buckets[bucket] == TOMB {
            self.tombs -= 1;
        }
        self.buckets[bucket] = id;
        self.items += 1;
        let (m, _) = self.slots[id as usize].as_ref().expect("just inserted");
        let mut top = 0;
        for v in m.vars() {
            let rank = self.rank(v);
            if rank > 0 {
                let count = &mut self.counts[v.index()];
                *count += 1;
                if *count == 1 {
                    self.presence.record(v, false);
                }
                top = top.max(rank);
            }
        }
        for v in m.vars() {
            if self.rank(v) == top {
                self.var_index[v.index()].push(id);
            }
        }
        self.maybe_grow();
    }

    /// Removes the entry at `bucket`, freeing its slot and updating counts.
    fn remove_bucket(&mut self, bucket: usize) -> (Monomial, Int) {
        let id = self.buckets[bucket];
        self.buckets[bucket] = TOMB;
        self.items -= 1;
        self.tombs += 1;
        let (m, c) = self.slots[id as usize].take().expect("live slot");
        self.free.push(id);
        for v in m.vars() {
            if self.rank(v) > 0 {
                let count = &mut self.counts[v.index()];
                *count -= 1;
                if *count == 0 {
                    self.presence.record(v, true);
                }
            }
        }
        (m, c)
    }

    /// Removes a live slot by id (the bucket is located by re-probing the
    /// cached hash; live slots are always in the table).
    fn remove_slot(&mut self, id: u32) -> (Monomial, Int) {
        let hash = self.slots[id as usize]
            .as_ref()
            .expect("live slot")
            .0
            .cached_hash();
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            if self.buckets[i] == id {
                return self.remove_bucket(i);
            }
            debug_assert_ne!(self.buckets[i], EMPTY, "live slot missing from table");
            i = (i + 1) & mask;
        }
    }

    fn find_bucket(&self, m: &Monomial) -> FindResult {
        let mask = self.buckets.len() - 1;
        let mut i = (m.cached_hash() as usize) & mask;
        let mut first_tomb = None;
        loop {
            match self.buckets[i] {
                EMPTY => return FindResult::Absent(first_tomb.unwrap_or(i)),
                TOMB => {
                    if first_tomb.is_none() {
                        first_tomb = Some(i);
                    }
                }
                id => {
                    let (sm, _) = self.slots[id as usize]
                        .as_ref()
                        .expect("bucket points at live slot");
                    if sm.cached_hash() == m.cached_hash() && sm == m {
                        return FindResult::Found(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn maybe_grow(&mut self) {
        // Keep the table at most 7/8 full counting tombstones, so probe
        // chains stay short and always terminate at an `EMPTY`.
        if (self.items + self.tombs) * 8 <= self.buckets.len() * 7 {
            return;
        }
        let new_len = (self.items * 2).next_power_of_two().max(MIN_BUCKETS);
        let mut buckets = vec![EMPTY; new_len];
        let mask = new_len - 1;
        for (id, slot) in self.slots.iter().enumerate() {
            let Some((m, _)) = slot else { continue };
            let mut i = (m.cached_hash() as usize) & mask;
            while buckets[i] != EMPTY {
                i = (i + 1) & mask;
            }
            buckets[i] = id as u32;
        }
        self.buckets = buckets;
        self.tombs = 0;
    }

    /// Checks every index invariant against a from-scratch reconstruction,
    /// panicking on any violation. Test support: quadratic in the number of
    /// terms, never call it from production code.
    pub fn assert_consistent(&self) {
        let mut live = 0usize;
        let mut counts = vec![0u32; self.counts.len()];
        for (id, slot) in self.slots.iter().enumerate() {
            let Some((m, c)) = slot else { continue };
            live += 1;
            assert!(!c.is_zero(), "stored zero coefficient");
            if let Some(k) = self.modulus_bits {
                assert_eq!(*c, c.mod_pow2(k), "non-canonical coefficient");
            }
            let top = m.vars().map(|v| self.rank(v)).max().unwrap_or(0);
            assert!(top > 0, "live slot holds a term with no tracked variable");
            for v in m.vars() {
                let rank = self.rank(v);
                if rank > 0 {
                    counts[v.index()] += 1;
                }
                if rank == top {
                    assert!(
                        self.var_index[v.index()].contains(&(id as u32)),
                        "live term missing from the index of its top-rank variable {v:?}"
                    );
                }
            }
            match self.find_bucket(m) {
                FindResult::Found(b) => assert_eq!(self.buckets[b], id as u32),
                FindResult::Absent(_) => panic!("live term unreachable through the table"),
            }
        }
        assert_eq!(live, self.items, "live-term count drifted");
        assert_eq!(counts, self.counts, "occurrence counts drifted");
        let ranked: Vec<Var> = (0..self.ranks.len())
            .filter(|&i| self.ranks[i] > 0)
            .map(|i| Var(i as u32))
            .collect();
        let mut tracked = self.tracked.clone();
        tracked.sort_unstable();
        tracked.dedup();
        assert_eq!(tracked, ranked, "tracked list drifted from the ranks");
        for (i, list) in self.var_index.iter().enumerate() {
            assert!(
                self.ranks[i] > 0 || list.is_empty(),
                "untracked variable {i} holds handles"
            );
        }
        let logged = self.presence.logged.iter().filter(|&&l| l).count();
        assert_eq!(
            logged,
            self.presence.entries.len(),
            "presence flags drifted"
        );
        for &(v, _) in &self.presence.entries {
            assert!(self.presence.logged[v.index()], "{v:?} logged unflagged");
        }
        for (m, c) in &self.inert {
            assert!(!c.is_zero(), "retired zero coefficient");
            if let Some(k) = self.modulus_bits {
                assert_eq!(*c, c.mod_pow2(k), "non-canonical retired coefficient");
            }
            assert!(
                !self.has_tracked(m),
                "retired term still contains a tracked variable"
            );
        }
    }
}

enum FindResult {
    /// The monomial is present; its bucket index.
    Found(usize),
    /// The monomial is absent; the bucket where it would be inserted.
    Absent(usize),
}

/// An open drain of the live terms containing one variable, opened by
/// [`IndexedPolynomial::drain_containing`] on the store it must be used
/// with. It owns the variable's handle list for as long as it is open, so
/// nothing is copied: [`Drain::next`] removes one term at a time, and the
/// terms added between two calls refill the slots it freed. A drain that
/// stops early must be [`abandon`](Drain::abandon)ed, or the terms it has
/// not reached yet lose their index entries.
#[derive(Debug)]
#[must_use = "a drain left unfinished must be abandoned to keep the store indexed"]
pub struct Drain {
    v: Var,
    /// The handles not yet visited.
    handles: std::vec::IntoIter<u32>,
}

impl Drain {
    /// Removes the next live term containing the drained variable from
    /// `store` and returns it, or `None` once every such term has left. It
    /// stops as soon as the variable's occurrence count reads `0`: under
    /// the drain contract every handle left is then stale.
    pub fn next(&mut self, store: &mut IndexedPolynomial) -> Option<(Monomial, Int)> {
        while store.occurrences(self.v) > 0 {
            let id = self.handles.next()?;
            // Stale handles: the slot died, or was reused by a monomial that
            // does not contain `v`. (A reused slot whose monomial *does*
            // contain `v` is a legitimate drain target — the reuse also
            // pushed a fresh handle, which will later be skipped as stale.)
            let live_with_v = matches!(
                store.slots.get(id as usize).and_then(Option::as_ref),
                Some((m, _)) if m.contains(self.v)
            );
            if live_with_v {
                store.index_hits += 1;
                return Some(store.remove_slot(id));
            }
        }
        None
    }

    /// Ends the drain early: the handles it has not visited go back to the
    /// variable's list, so the terms still to be drained stay indexed.
    pub fn abandon(self, store: &mut IndexedPolynomial) {
        if let Some(list) = store.var_index.get_mut(self.v.index()) {
            list.extend(self.handles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn mono(vars: &[u32]) -> Monomial {
        Monomial::from_vars(vars.iter().map(|&v| Var(v)))
    }

    /// Ranks `n` variables: rank 1 for `which`, untracked otherwise.
    fn tracked(n: usize, which: &[u32]) -> Vec<u32> {
        let mut ranks = vec![0; n];
        for &v in which {
            ranks[v as usize] = 1;
        }
        ranks
    }

    /// Drains every live term containing `v`.
    fn drain_all(ix: &mut IndexedPolynomial, v: Var) -> Vec<(Monomial, Int)> {
        let mut drain = ix.drain_containing(v);
        std::iter::from_fn(|| drain.next(ix)).collect()
    }

    /// The terms of `p` in its iteration order.
    fn in_order(p: Polynomial) -> Vec<(Monomial, Int)> {
        p.iter().map(|(m, c)| (m.clone(), c.clone())).collect()
    }

    /// Folds the presence log into `present`, the variables the previous
    /// reads left present: each variable read must change its membership,
    /// and afterwards `present` holds exactly the variables below `n` that
    /// occur.
    fn fold_presence(ix: &mut IndexedPolynomial, present: &mut BTreeSet<Var>, n: u32) {
        ix.read_presence_log(|v, now| {
            let changed = if now {
                present.insert(v)
            } else {
                present.remove(&v)
            };
            assert!(changed, "{v:?} read without a change (present: {now})");
        });
        let occurring: BTreeSet<Var> = (0..n).map(Var).filter(|&v| ix.occurrences(v) > 0).collect();
        assert_eq!(*present, occurring, "the folded presence log drifted");
    }

    #[test]
    fn insert_merge_cancel_roundtrip() {
        let mut ix = IndexedPolynomial::new(tracked(4, &[2, 3]), None);
        ix.add_term(mono(&[0, 2]), Int::from(3));
        ix.add_term(mono(&[0, 2]), Int::from(-1));
        ix.add_term(mono(&[0, 1]), Int::from(5)); // no tracked var → retired
        ix.add_term(mono(&[3]), Int::from(7));
        assert_eq!(ix.live_terms(), 2);
        assert_eq!(ix.retired_terms(), 1);
        assert_eq!(ix.occurrences(Var(2)), 1);
        ix.assert_consistent();
        ix.add_term(mono(&[0, 2]), Int::from(-2)); // cancels to zero
        assert_eq!(ix.num_terms(), 2);
        ix.assert_consistent();
        let p = ix.take_polynomial();
        assert_eq!(p.coeff(&mono(&[0, 1])), Int::from(5));
        assert_eq!(p.coeff(&mono(&[3])), Int::from(7));
        assert_eq!(p.num_terms(), 2);
    }

    #[test]
    fn extract_drains_exactly_the_affected_terms() {
        let mut ix = IndexedPolynomial::new(tracked(5, &[3, 4]), None);
        ix.add_term(mono(&[0, 3]), Int::from(1));
        ix.add_term(mono(&[1, 3, 4]), Int::from(2));
        ix.add_term(mono(&[4]), Int::from(3));
        let mut got = drain_all(&mut ix, Var(3));
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            got,
            vec![
                (mono(&[0, 3]), Int::from(1)),
                (mono(&[1, 3, 4]), Int::from(2)),
            ]
        );
        assert_eq!(ix.index_hits(), 2);
        assert_eq!(ix.occurrences(Var(4)), 1);
        assert_eq!(ix.num_terms(), 1);
        ix.assert_consistent();
        // The drained index stays empty until new terms arrive.
        assert!(drain_all(&mut ix, Var(3)).is_empty());
    }

    #[test]
    fn stale_handles_from_slot_reuse_are_skipped() {
        let mut ix = IndexedPolynomial::new(tracked(4, &[1, 2]), None);
        ix.add_term(mono(&[1]), Int::from(1));
        ix.add_term(mono(&[1]), Int::from(-1)); // frees the slot
                                                // Reuses the freed slot: var 1's list still holds the stale handle,
                                                // now pointing at a live slot whose monomial does not contain var 1.
        ix.add_term(mono(&[2]), Int::from(1));
        assert!(drain_all(&mut ix, Var(1)).is_empty());
        assert_eq!(ix.num_terms(), 1);
        ix.assert_consistent();
    }

    #[test]
    fn modulus_cancels_terms_at_insert() {
        let mut ix = IndexedPolynomial::new(tracked(3, &[0]), Some(3));
        ix.add_term(mono(&[0]), Int::from(5));
        ix.add_term(mono(&[0]), Int::from(3)); // 5 + 3 = 8 ≡ 0 (mod 8)
        assert!(ix.is_zero());
        ix.add_term(mono(&[0, 1]), Int::from(-1)); // canonicalized to 7
        ix.add_term(mono(&[1]), Int::from(16)); // retired path: ≡ 0, dropped
        assert_eq!(ix.num_terms(), 1);
        let p = ix.take_polynomial();
        assert_eq!(p.coeff(&mono(&[0, 1])), Int::from(7));
        // Retired-path merge to zero.
        let mut ix = IndexedPolynomial::new(tracked(3, &[0]), Some(3));
        ix.add_term(mono(&[1]), Int::from(3));
        ix.add_term(mono(&[1]), Int::from(5));
        assert!(ix.is_zero());
        ix.assert_consistent();
    }

    proptest! {
        /// The inverted index stays consistent with a from-scratch rebuild
        /// (a plain `Polynomial`) under arbitrary interleavings of
        /// `add_term`, drains, and coefficient
        /// cancellation to zero — with and without a coefficient modulus.
        #[test]
        fn index_matches_scratch_rebuild_under_interleavings(
            ops in proptest::collection::vec(
                (0u32..8, proptest::collection::vec(0u32..5, 0..4), -4i64..5),
                1..40,
            ),
            modulus_k in 0u32..4,
        ) {
            for modulus in [None, Some(modulus_k + 1)] {
                let mut ix = IndexedPolynomial::new(tracked(5, &[0, 1, 2]), modulus);
                let mut reference = Polynomial::zero();
                for (sel, vars, c) in &ops {
                    if *sel < 6 {
                        let m = Monomial::from_vars(vars.iter().map(|&v| Var(v)));
                        ix.add_term(m.clone(), Int::from(*c));
                        reference.add_term(m, Int::from(*c));
                    } else {
                        // Drains of tracked variables (all of rank 1).
                        let v = Var(vars.first().copied().unwrap_or(*sel - 6).min(2));
                        let mut got = drain_all(&mut ix, v);
                        // The reference stores exact coefficients; terms
                        // whose coefficient is a multiple of the modulus
                        // are absent from the indexed store by invariant.
                        let mut want: Vec<(Monomial, Int)> = reference
                            .extract_terms_containing(v)
                            .into_iter()
                            .filter(|(_, c)| match modulus {
                                Some(k) => !c.is_multiple_of_pow2(k),
                                None => true,
                            })
                            .collect();
                        got.sort_by(|a, b| a.0.cmp(&b.0));
                        want.sort_by(|a, b| a.0.cmp(&b.0));
                        prop_assert_eq!(got.len(), want.len());
                        for ((gm, gc), (wm, wc)) in got.iter().zip(&want) {
                            prop_assert_eq!(gm, wm);
                            match modulus {
                                Some(k) => prop_assert_eq!(gc.clone(), wc.mod_pow2(k)),
                                None => prop_assert_eq!(gc, wc),
                            }
                        }
                    }
                    ix.assert_consistent();
                }
                let canonical = match modulus {
                    Some(k) => reference.mod_coeffs_pow2(k),
                    None => reference.clone(),
                };
                prop_assert_eq!(ix.take_polynomial(), canonical);
            }
        }
    }

    #[test]
    fn untracked_variable_extracts_nothing() {
        let mut ix = IndexedPolynomial::new(tracked(2, &[0]), None);
        ix.add_term(mono(&[0, 1]), Int::from(1));
        assert!(drain_all(&mut ix, Var(1)).is_empty());
        assert!(drain_all(&mut ix, Var(7)).is_empty());
        assert_eq!(ix.num_terms(), 1);
        ix.assert_consistent();
    }

    #[test]
    fn retain_terms_sweeps_live_and_retired_sides() {
        let mut ix = IndexedPolynomial::new(tracked(3, &[0]), None);
        ix.add_term(mono(&[0, 1]), Int::from(1));
        ix.add_term(mono(&[0, 2]), Int::from(2));
        ix.add_term(mono(&[1]), Int::from(3)); // retired
        ix.add_term(mono(&[2]), Int::from(4)); // retired
        let removed = ix.retain_terms(|m| !m.contains(Var(1)));
        assert_eq!(removed, 2, "one live and one retired term contain var 1");
        assert_eq!(ix.num_terms(), 2);
        assert_eq!(ix.occurrences(Var(0)), 1);
        ix.assert_consistent();
    }

    proptest! {
        /// The rewrite-oriented ops — single-variable drains and the
        /// `retain_terms` sweep — stay consistent with a from-scratch
        /// rebuild (and with a naive scan of a plain `Polynomial`) under
        /// arbitrary interleavings with `add_term`, with and without a
        /// coefficient modulus.
        #[test]
        fn rewrite_ops_match_scratch_rebuild_under_interleavings(
            ops in proptest::collection::vec(
                (0u32..10, proptest::collection::vec(0u32..6, 0..4), -4i64..5),
                1..50,
            ),
            modulus_k in 0u32..4,
        ) {
            for modulus in [None, Some(modulus_k + 1)] {
                // Variables 0 to 2 are tracked; 3 to 5 only ever retire.
                let mut ix = IndexedPolynomial::new(tracked(6, &[0, 1, 2]), modulus);
                let mut present = BTreeSet::new();
                let mut reference = Polynomial::zero();
                for (sel, vars, c) in &ops {
                    match sel {
                        0..=5 => {
                            let m = Monomial::from_vars(vars.iter().map(|&v| Var(v)));
                            ix.add_term(m.clone(), Int::from(*c));
                            reference.add_term(m, Int::from(*c));
                        }
                        6 | 7 => {
                            // Vanishing-style sweep: drop every monomial
                            // containing a chosen variable, on both sides.
                            let r = Var(vars.first().copied().unwrap_or(*sel) % 6);
                            ix.retain_terms(|m| !m.contains(r));
                            reference.retain_terms(|m| !m.contains(r));
                        }
                        _ => {
                            // A drain of one tracked variable, against a
                            // naive scan.
                            let v = Var(vars.first().copied().unwrap_or(*sel) % 3);
                            let mut got = drain_all(&mut ix, v);
                            let mut want: Vec<(Monomial, Int)> = reference
                                .extract_terms_containing(v)
                                .into_iter()
                                .filter(|(_, c)| match modulus {
                                    Some(k) => !c.is_multiple_of_pow2(k),
                                    None => true,
                                })
                                .collect();
                            got.sort_by(|a, b| a.0.cmp(&b.0));
                            want.sort_by(|a, b| a.0.cmp(&b.0));
                            prop_assert_eq!(got.len(), want.len());
                            for ((gm, gc), (wm, wc)) in got.iter().zip(&want) {
                                prop_assert_eq!(gm, wm);
                                match modulus {
                                    Some(k) => prop_assert_eq!(gc.clone(), wc.mod_pow2(k)),
                                    None => prop_assert_eq!(gc, wc),
                                }
                            }
                        }
                    }
                    ix.assert_consistent();
                    fold_presence(&mut ix, &mut present, 6);
                }
                let canonical = match modulus {
                    Some(k) => reference.mod_coeffs_pow2(k),
                    None => reference.clone(),
                };
                prop_assert_eq!(ix.take_polynomial(), canonical);
                fold_presence(&mut ix, &mut present, 6);
            }
        }
    }

    #[test]
    fn growth_rehashes_all_live_terms() {
        let mut ix = IndexedPolynomial::new(tracked(512, &[0]), None);
        for v in 1..400u32 {
            ix.add_term(mono(&[0, v]), Int::from(v as i64));
        }
        assert_eq!(ix.live_terms(), 399);
        ix.assert_consistent();
        let got = drain_all(&mut ix, Var(0));
        assert_eq!(got.len(), 399);
        assert!(ix.is_zero());
    }

    /// A term is indexed only under its top-rank variables: a drain of the
    /// top-rank variable removes it, the lower-rank variables' lists never
    /// held it, and its products are indexed by their own top rank.
    #[test]
    fn terms_are_indexed_under_their_top_rank_variables() {
        // Ranks: var 0 untracked, var 1 rank 1, vars 2 and 3 rank 2.
        let mut ix = IndexedPolynomial::new(vec![0, 1, 2, 2], None);
        ix.add_term(mono(&[0, 1, 2]), Int::from(1));
        ix.add_term(mono(&[1, 2, 3]), Int::from(2));
        ix.add_term(mono(&[1]), Int::from(3));
        ix.assert_consistent();
        assert_eq!(ix.occurrences(Var(1)), 3, "counts cover every rank");
        assert_eq!(
            ix.var_index[1].len(),
            1,
            "only the rank-1 term sits under var 1"
        );
        let mut got = drain_all(&mut ix, Var(2));
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            got,
            vec![
                (mono(&[0, 1, 2]), Int::from(1)),
                (mono(&[1, 2, 3]), Int::from(2)),
            ]
        );
        // Var 3 no longer occurs, so rank 1 is now the top present rank.
        ix.add_term(mono(&[0, 1]), Int::from(4));
        ix.assert_consistent();
        assert_eq!(drain_all(&mut ix, Var(1)).len(), 2);
        assert_eq!(ix.num_terms(), 0);
    }

    /// A drain abandoned part-way, as a stopped substitution step leaves
    /// it, returns the handles it has not visited: the terms still to be
    /// drained stay indexed, and a later drain finds them.
    #[test]
    fn abandoned_drain_keeps_the_rest_indexed() {
        let mut ix = IndexedPolynomial::new(tracked(4, &[0, 1]), None);
        for v in 1..4u32 {
            ix.add_term(mono(&[0, v]), Int::from(v as i64));
        }
        let mut drain = ix.drain_containing(Var(0));
        let (m, c) = drain.next(&mut ix).expect("three terms contain var 0");
        // A product of the step, which refills the slot just freed.
        ix.add_term(m.without(Var(0)).mul(&mono(&[1])), c);
        drain.abandon(&mut ix);
        ix.assert_consistent();
        assert_eq!(ix.occurrences(Var(0)), 2);
        assert_eq!(drain_all(&mut ix, Var(0)).len(), 2);
        assert_eq!(ix.index_hits(), 3);
        ix.assert_consistent();
    }

    /// A drain below the highest rank present would miss the terms indexed
    /// under their higher-rank variables; debug builds reject it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "drain contract")]
    fn draining_below_the_top_present_rank_panics() {
        let mut ix = IndexedPolynomial::new(vec![1, 2], None);
        // Indexed under var 1 alone, its top-rank variable.
        ix.add_term(mono(&[0, 1]), Int::from(1));
        let _ = ix.drain_containing(Var(0));
    }

    proptest! {
        /// Ranked drains against a mirror `Polynomial`, over random ranks
        /// and with and without a coefficient modulus. Every step drains a
        /// variable of the highest rank still present. After each drawn
        /// term it adds a product that avoids the drained variable, so
        /// freed slots are refilled while stale handles to them are still
        /// pending. A small `stop_after` abandons the drain after that many
        /// terms, as a stopped step does. A completed drain returns exactly
        /// the mirror's terms containing the variable; an abandoned one
        /// returns some of them and leaves the rest in the store.
        #[test]
        fn ranked_drains_match_a_mirror_polynomial(
            ranks in proptest::collection::vec(0u32..4, 8),
            terms in proptest::collection::vec(
                (proptest::collection::vec(0u32..8, 0..5), -4i64..5),
                1..30,
            ),
            steps in proptest::collection::vec(
                (0usize..8, proptest::collection::vec(0u32..8, 0..3), 0usize..8),
                1..12,
            ),
            modulus_k in 0u32..4,
        ) {
            for modulus in [None, Some(modulus_k + 1)] {
                let canon = |c: &Int| match modulus {
                    Some(k) => c.mod_pow2(k),
                    None => c.clone(),
                };
                let mut ix = IndexedPolynomial::new(ranks.clone(), modulus);
                let mut folded = BTreeSet::new();
                let mut mirror = Polynomial::zero();
                for (vars, c) in &terms {
                    ix.add_term(mono(vars), Int::from(*c));
                    fold_presence(&mut ix, &mut folded, 8);
                    mirror.add_term(mono(vars), Int::from(*c));
                }
                ix.assert_consistent();
                for (pick, factor, stop_after) in &steps {
                    let present: Vec<Var> =
                        (0..8u32).map(Var).filter(|&v| ix.occurrences(v) > 0).collect();
                    let Some(top) = present.iter().map(|v| ranks[v.index()]).max() else {
                        break;
                    };
                    let tops: Vec<Var> =
                        present.into_iter().filter(|v| ranks[v.index()] == top).collect();
                    let v = tops[pick % tops.len()];
                    let mut want: Vec<(Monomial, Int)> = mirror
                        .extract_terms_containing(v)
                        .into_iter()
                        .map(|(m, c)| (m, canon(&c)))
                        .filter(|(_, c)| !c.is_zero())
                        .collect();
                    want.sort_by(|a, b| a.0.cmp(&b.0));
                    let factor =
                        Monomial::from_vars(factor.iter().map(|&u| Var(u)).filter(|&u| u != v));
                    let mut drain = ix.drain_containing(v);
                    let mut got = Vec::new();
                    loop {
                        if got.len() == *stop_after {
                            drain.abandon(&mut ix);
                            break;
                        }
                        let Some((m, c)) = drain.next(&mut ix) else { break };
                        let product = m.without(v).mul(&factor);
                        ix.add_term(product.clone(), c.clone());
                        mirror.add_term(product, c.clone());
                        got.push((m, c));
                        fold_presence(&mut ix, &mut folded, 8);
                    }
                    got.sort_by(|a, b| a.0.cmp(&b.0));
                    if got.len() < *stop_after {
                        prop_assert_eq!(&got, &want);
                    }
                    // The terms the drain did not reach are still in the
                    // store, so they go back into the mirror.
                    let mut reached = 0;
                    for (m, c) in &want {
                        match got.binary_search_by(|g| g.0.cmp(m)) {
                            Ok(i) => {
                                prop_assert_eq!(&got[i].1, c);
                                reached += 1;
                            }
                            Err(_) => mirror.add_term(m.clone(), c.clone()),
                        }
                    }
                    prop_assert_eq!(reached, got.len(), "drained a term the mirror lacks");
                    ix.assert_consistent();
                    fold_presence(&mut ix, &mut folded, 8);
                }
                let canonical = match modulus {
                    Some(k) => mirror.mod_coeffs_pow2(k),
                    None => mirror,
                };
                prop_assert_eq!(ix.take_polynomial(), canonical);
                fold_presence(&mut ix, &mut folded, 8);
            }
        }
    }
    /// A store that once held many retired terms hands the terms of its
    /// next tail out in a fresh store's order: the retirement accumulator
    /// does not keep the capacity of an earlier tail.
    #[test]
    fn a_reset_store_takes_terms_in_a_fresh_stores_order() {
        let few: Vec<Monomial> = (0..6u32).map(|v| mono(&[v, v + 1])).collect();
        let mut reused = IndexedPolynomial::new(vec![0; 64], None);
        for v in 0..60u32 {
            reused.add_term(mono(&[v]), Int::one());
        }
        reused.take_polynomial();
        reused.reset(&[Var(63)], None);
        let mut fresh = IndexedPolynomial::new(tracked(64, &[63]), None);
        for m in &few {
            reused.add_term(m.clone(), Int::one());
            fresh.add_term(m.clone(), Int::one());
        }
        assert_eq!(
            in_order(reused.take_polynomial()),
            in_order(fresh.take_polynomial())
        );
    }

    proptest! {
        /// One store, reset to random tracked sets and moduli between random
        /// `add_term`s, sweeps, drains, abandoned drains and
        /// `take_polynomial`s, behaves exactly like a fresh
        /// `IndexedPolynomial::new` built at each reset and fed the same
        /// operations: the same drained terms in the same order, the same
        /// counts and index hits, the same taken polynomials in the same
        /// term order, and the same presence log. Its tables start shorter
        /// than the variables it tracks.
        #[test]
        fn a_reset_store_behaves_like_a_fresh_one(
            ops in proptest::collection::vec(
                (0u32..12, proptest::collection::vec(0u32..8, 0..4), -4i64..5),
                1..60,
            ),
        ) {
            let mut reused = IndexedPolynomial::new(vec![0; 3], None);
            let mut fresh = IndexedPolynomial::new(vec![0; 3], None);
            let (mut reused_present, mut fresh_present) = (BTreeSet::new(), BTreeSet::new());
            for (sel, vars, c) in &ops {
                let v = Var(vars.first().copied().unwrap_or(*sel) % 8);
                let m = Monomial::from_vars(vars.iter().map(|&u| Var(u)));
                match sel {
                    0 | 1 => {
                        let modulus = u32::try_from(*c).ok().filter(|&k| k > 0);
                        reused.reset(&vars.iter().map(|&u| Var(u)).collect::<Vec<_>>(), modulus);
                        fresh = IndexedPolynomial::new(tracked(8, vars), modulus);
                        reused_present.clear();
                        fresh_present.clear();
                    }
                    2..=6 => {
                        reused.add_term(m.clone(), Int::from(*c));
                        fresh.add_term(m, Int::from(*c));
                    }
                    7 => {
                        prop_assert_eq!(
                            reused.retain_terms(|m| !m.contains(v)),
                            fresh.retain_terms(|m| !m.contains(v))
                        );
                    }
                    8 | 9 => prop_assert_eq!(drain_all(&mut reused, v), drain_all(&mut fresh, v)),
                    10 => {
                        // One term drained, its residual added back, then
                        // the drain abandoned.
                        for ix in [&mut reused, &mut fresh] {
                            let mut drain = ix.drain_containing(v);
                            if let Some((m, c)) = drain.next(ix) {
                                ix.add_term(m.without(v), c);
                            }
                            drain.abandon(ix);
                        }
                    }
                    _ => prop_assert_eq!(
                        in_order(reused.take_polynomial()),
                        in_order(fresh.take_polynomial())
                    ),
                }
                reused.assert_consistent();
                fresh.assert_consistent();
                prop_assert_eq!(reused.live_terms(), fresh.live_terms());
                prop_assert_eq!(reused.retired_terms(), fresh.retired_terms());
                prop_assert_eq!(reused.index_hits(), fresh.index_hits());
                for u in (0..8).map(Var) {
                    prop_assert_eq!(reused.occurrences(u), fresh.occurrences(u));
                }
                fold_presence(&mut reused, &mut reused_present, 8);
                fold_presence(&mut fresh, &mut fresh_present, 8);
            }
            prop_assert_eq!(
                in_order(reused.take_polynomial()),
                in_order(fresh.take_polynomial())
            );
        }
    }
}
