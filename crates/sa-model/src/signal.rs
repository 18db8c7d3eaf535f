//! Signals — what a node can sense about its neighborhood.
//!
//! In the SA model the signal of node `v` under configuration `C` is the binary
//! vector `S_v ∈ {0,1}^Q` with `S_v(q) = 1` iff some node in the inclusive
//! neighborhood `N⁺(v)` resides in state `q`. A node can therefore tell *which*
//! states appear around it, but not *how many* neighbors hold each state nor *which*
//! neighbor holds it.
//!
//! [`Signal`] is the abstraction handed to
//! [`Algorithm::transition`](crate::algorithm::Algorithm::transition). It has
//! three interchangeable
//! representations with identical observable behaviour:
//!
//! * **sparse** — a `BTreeSet` of the sensed states. Works for any state type,
//!   including unbounded spaces; this is the fallback and the representation
//!   produced by all the public constructors.
//! * **dense** — a bitmask over a precomputed [`StateIndex`] (the enumeration of
//!   a bounded state space `Q`, which the SA model guarantees for every
//!   algorithm of the paper). This is literally the paper's `{0,1}^Q` vector:
//!   bit `i` is set iff state `index.state(i)` is sensed. The executor keeps
//!   per-node bitmasks incrementally up to date and copies them into a reused
//!   scratch [`Signal`], making the hot step loop allocation-free.
//! * **listed** — the sorted positions of the sensed states in a
//!   [`StateIndex`] ([`Signal::listed`]). A closed neighbourhood senses at
//!   most `deg + 1` states, so over a large index (the synchronizer's
//!   simulated signal, thousands of states) a short list is far cheaper to
//!   build and scan than the mask words.
//!
//! The representations compare equal whenever they sense the same state
//! set, so algorithms and tests never need to care which one they were given.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Word-level set operations over equal-length `u64` mask slices.
///
/// These are the primitives behind [`SignalMask`] and the engine's
/// mask-compiled transition path
/// ([`MaskedTransition`](crate::algorithm::MaskedTransition)): every predicate
/// over a sensed state set reduces to whole-word AND/OR/popcount loops with no
/// per-state branching, which the compiler auto-vectorizes. The binary
/// operations require `a.len() == b.len()` — a mismatched width would
/// silently ignore trailing words and answer the predicate wrongly, so it is
/// rejected by a debug assertion (mask compilers that juggle several index
/// widths fail loudly under test instead of misfiring in production).
pub mod mask_ops {
    /// Whether the set `a` is a subset of the set `b` (`a ∧ ¬b = ∅`).
    #[inline]
    pub fn subset(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len(), "mask word widths must match");
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// Whether the sets `a` and `b` intersect (`a ∧ b ≠ ∅`).
    #[inline]
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len(), "mask word widths must match");
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    /// The size of the intersection `|a ∧ b|`.
    #[inline]
    pub fn count_and(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len(), "mask word widths must match");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// The position of the lowest set bit, if any.
    #[inline]
    pub fn first_set(words: &[u64]) -> Option<usize> {
        words
            .iter()
            .position(|w| *w != 0)
            .map(|i| i * 64 + words[i].trailing_zeros() as usize)
    }

    /// The position of the highest set bit, if any.
    #[inline]
    pub fn last_set(words: &[u64]) -> Option<usize> {
        words
            .iter()
            .rposition(|w| *w != 0)
            .map(|i| i * 64 + 63 - words[i].leading_zeros() as usize)
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(words: &mut [u64], i: usize) {
        words[i / 64] |= 1u64 << (i % 64);
    }
}

/// A pool of reusable `u64` buffers — mask words or listed positions: the
/// scratch space of compiled transitions that build derived signals (the
/// synchronizer's turn mask and simulated signal, module Restart's host
/// signal).
///
/// Each evaluation lane owns one pool, and a transition returns every
/// buffer it takes, so once each buffer has grown to its largest use the
/// warm step loop allocates nothing.
#[derive(Debug, Default)]
pub struct WordPool {
    free: Vec<Vec<u64>>,
}

impl WordPool {
    /// A zeroed buffer of `words` words (`0` for an empty list to push
    /// positions onto).
    pub fn take(&mut self, words: usize) -> Vec<u64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(words, 0);
        buf
    }

    /// Returns a buffer taken with [`WordPool::take`].
    pub fn give(&mut self, buf: Vec<u64>) {
        self.free.push(buf);
    }
}

/// An enumeration of a bounded state space `Q`, shared by all [`DenseSignal`]s
/// of an execution.
///
/// States are kept sorted and deduplicated so that bit order equals `Ord`
/// order; [`StateIndex::position`] is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateIndex<S: Ord> {
    states: Vec<S>,
}

impl<S: Ord> StateIndex<S> {
    /// Builds the index from an enumeration of `Q` (duplicates are collapsed).
    pub fn new<I: IntoIterator<Item = S>>(states: I) -> Self {
        let mut states: Vec<S> = states.into_iter().collect();
        states.sort_unstable();
        states.dedup();
        StateIndex { states }
    }

    /// Number of indexed states `|Q|`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of `u64` mask words a dense signal over this index needs.
    pub fn words(&self) -> usize {
        self.states.len().div_ceil(64)
    }

    /// The bit position of state `q`, or `None` if `q` is not in the index.
    pub fn position(&self, q: &S) -> Option<usize> {
        self.states.binary_search(q).ok()
    }

    /// The state at bit position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// All indexed states, in bit order (= ascending `Ord` order).
    pub fn states(&self) -> &[S] {
        &self.states
    }
}

/// A precompiled *set of states* over a [`StateIndex`], stored as `u64` mask
/// words — the right-hand side of the word-level signal predicates.
///
/// A `SignalMask` is what a sensing predicate compiles into: "is every sensed
/// state adjacent to mine?" becomes one [`Signal::subset_of`] test, "do I
/// sense a faulty turn?" one [`Signal::intersects`] test — whole-word AND/OR
/// loops instead of iterating sensed states through closures. Masks are
/// compiled once (per algorithm instance and state index) and reused for the
/// lifetime of an execution; see
/// [`Algorithm::compile_masked`](crate::algorithm::Algorithm::compile_masked).
///
/// Semantically a mask is the subset of the *indexed* states satisfying the
/// compiled predicate: states outside the index are never members. Dense
/// signals over the same index evaluate mask predicates on raw words; sparse
/// signals (and dense signals over a different index) fall back to per-state
/// membership tests with identical results, so [`Signal`] keeps one public
/// surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalMask<S: Ord> {
    words: Vec<u64>,
    count: usize,
    index: Arc<StateIndex<S>>,
}

impl<S: Ord> SignalMask<S> {
    /// An empty mask over `index`.
    pub fn empty(index: Arc<StateIndex<S>>) -> Self {
        SignalMask {
            words: vec![0; index.words()],
            count: 0,
            index,
        }
    }

    /// Compiles a per-state predicate into a mask: bit `i` is set iff
    /// `pred(index.state(i))`.
    pub fn compile<F: FnMut(&S) -> bool>(index: &Arc<StateIndex<S>>, mut pred: F) -> Self {
        let mut mask = SignalMask::empty(index.clone());
        for (i, state) in index.states().iter().enumerate() {
            if pred(state) {
                mask.words[i / 64] |= 1u64 << (i % 64);
                mask.count += 1;
            }
        }
        mask
    }

    /// Builds a mask from explicit member states. States outside the index
    /// are ignored (a mask can only represent indexed states).
    pub fn from_states<'a, I: IntoIterator<Item = &'a S>>(
        index: &Arc<StateIndex<S>>,
        states: I,
    ) -> Self
    where
        S: 'a,
    {
        let mut mask = SignalMask::empty(index.clone());
        for q in states {
            mask.insert(q);
        }
        mask
    }

    /// Adds a state to the mask. Returns `false` (and does nothing) if the
    /// state is not covered by the index.
    pub fn insert(&mut self, q: &S) -> bool {
        match self.index.position(q) {
            Some(i) => {
                let bit = 1u64 << (i % 64);
                if self.words[i / 64] & bit == 0 {
                    self.words[i / 64] |= bit;
                    self.count += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Whether `q` is a member of the mask.
    pub fn contains(&self, q: &S) -> bool {
        self.index
            .position(q)
            .is_some_and(|i| self.words[i / 64] & (1u64 << (i % 64)) != 0)
    }

    /// The index the mask ranges over.
    pub fn index(&self) -> &Arc<StateIndex<S>> {
        &self.index
    }

    /// The raw mask words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of member states.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the mask has no members.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates over the member states in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &S> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(self.index.state(w * 64 + bit))
            })
        })
    }

    // ---- raw-word predicates (the engine-facing hot path) -------------------

    /// Whether a signal given by raw mask words is a subset of this mask.
    /// `signal_words` must come from a dense signal over the same index.
    #[inline]
    pub fn superset_of_words(&self, signal_words: &[u64]) -> bool {
        mask_ops::subset(signal_words, &self.words)
    }

    /// Whether this mask is a subset of the signal given by raw mask words.
    #[inline]
    pub fn subset_of_words(&self, signal_words: &[u64]) -> bool {
        mask_ops::subset(&self.words, signal_words)
    }

    /// Whether the signal given by raw mask words intersects this mask.
    #[inline]
    pub fn intersects_words(&self, signal_words: &[u64]) -> bool {
        mask_ops::intersects(signal_words, &self.words)
    }

    /// How many states of the signal given by raw mask words are members.
    #[inline]
    pub fn count_in_words(&self, signal_words: &[u64]) -> usize {
        mask_ops::count_and(signal_words, &self.words)
    }
}

/// The dense representation of a signal: one bit per state of a [`StateIndex`].
#[derive(Clone)]
pub struct DenseSignal<S: Ord> {
    mask: Vec<u64>,
    index: Arc<StateIndex<S>>,
}

impl<S: Ord> DenseSignal<S> {
    /// An empty dense signal over `index`.
    pub fn empty(index: Arc<StateIndex<S>>) -> Self {
        DenseSignal {
            mask: vec![0; index.words()],
            index,
        }
    }

    /// The index this signal is defined over.
    pub fn index(&self) -> &Arc<StateIndex<S>> {
        &self.index
    }

    /// The raw mask words (bit `i` of the concatenation = state `i` sensed).
    pub fn words(&self) -> &[u64] {
        &self.mask
    }

    /// Overwrites the mask from precomputed words (the executor's per-node
    /// neighborhood masks). `words` must have exactly `index.words()` entries.
    pub fn copy_words(&mut self, words: &[u64]) {
        self.mask.copy_from_slice(words);
    }

    /// Whether bit `i` is set.
    fn bit(&self, i: usize) -> bool {
        self.mask[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub(crate) fn set_bit(&mut self, i: usize) {
        self.mask[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether `q` is sensed.
    pub fn senses(&self, q: &S) -> bool {
        self.index.position(q).is_some_and(|i| self.bit(i))
    }

    /// Number of sensed states.
    pub fn len(&self) -> usize {
        self.mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nothing is sensed.
    pub fn is_empty(&self) -> bool {
        self.mask.iter().all(|w| *w == 0)
    }

    /// Iterates over the sensed states in ascending order.
    pub fn iter(&self) -> DenseIter<'_, S> {
        DenseIter {
            signal: self,
            word: 0,
            bits: self.mask.first().copied().unwrap_or(0),
        }
    }
}

impl<S: Ord + fmt::Debug> fmt::Debug for DenseSignal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the set bits of a [`DenseSignal`], yielding states in
/// ascending order.
pub struct DenseIter<'a, S: Ord> {
    signal: &'a DenseSignal<S>,
    word: usize,
    bits: u64,
}

impl<'a, S: Ord> Iterator for DenseIter<'a, S> {
    type Item = &'a S;

    fn next(&mut self) -> Option<&'a S> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.signal.index.state(self.word * 64 + bit));
            }
            self.word += 1;
            if self.word >= self.signal.mask.len() {
                return None;
            }
            self.bits = self.signal.mask[self.word];
        }
    }
}

enum Repr<S: Ord> {
    Sparse(BTreeSet<S>),
    Dense(DenseSignal<S>),
    /// Sorted, deduplicated positions in `index`.
    Listed {
        index: Arc<StateIndex<S>>,
        positions: Vec<u64>,
    },
}

impl<S: Ord + Clone> Clone for Repr<S> {
    fn clone(&self) -> Self {
        match self {
            Repr::Sparse(set) => Repr::Sparse(set.clone()),
            Repr::Dense(dense) => Repr::Dense(dense.clone()),
            Repr::Listed { index, positions } => Repr::Listed {
                index: index.clone(),
                positions: positions.clone(),
            },
        }
    }
}

/// The set of states sensed by a node in its inclusive neighborhood.
///
/// This is the only information an [`Algorithm`](crate::algorithm::Algorithm) receives
/// about the rest of the graph; constructing it from a configuration is the
/// executor's job. See the [module docs](self) for the two representations.
pub struct Signal<S: Ord> {
    repr: Repr<S>,
}

impl<S: Ord + Clone> Clone for Signal<S> {
    fn clone(&self) -> Self {
        Signal {
            repr: self.repr.clone(),
        }
    }
}

impl<S: Ord + fmt::Debug> fmt::Debug for Signal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<S: Ord> PartialEq for Signal<S> {
    fn eq(&self, other: &Self) -> bool {
        // Both representations iterate in ascending order, so signals with the
        // same sensed set compare equal regardless of representation.
        self.iter().eq(other.iter())
    }
}

impl<S: Ord> Eq for Signal<S> {}

impl<S: Ord> Default for Signal<S> {
    fn default() -> Self {
        Signal {
            repr: Repr::Sparse(BTreeSet::new()),
        }
    }
}

impl<S: Ord> Signal<S> {
    /// Creates an empty (sparse) signal that senses nothing.
    ///
    /// An empty signal never occurs in a real execution — a node always senses at
    /// least its own state — but is convenient in tests.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates an empty dense signal over `index`.
    pub fn dense(index: Arc<StateIndex<S>>) -> Self {
        Signal {
            repr: Repr::Dense(DenseSignal::empty(index)),
        }
    }

    /// Wraps an explicit [`DenseSignal`].
    pub fn from_dense(dense: DenseSignal<S>) -> Self {
        Signal {
            repr: Repr::Dense(dense),
        }
    }

    /// Builds a (sparse) signal from the states present in a neighborhood.
    pub fn from_states<I: IntoIterator<Item = S>>(states: I) -> Self {
        Signal {
            repr: Repr::Sparse(states.into_iter().collect()),
        }
    }

    /// A listed signal sensing the states at `positions` of `index`, which
    /// must be sorted, deduplicated and in range. The buffer comes back
    /// through [`Signal::into_positions`].
    pub fn listed(index: Arc<StateIndex<S>>, positions: Vec<u64>) -> Self {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(positions.last().is_none_or(|&p| (p as usize) < index.len()));
        Signal {
            repr: Repr::Listed { index, positions },
        }
    }

    /// Whether this signal uses the dense bitmask representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// The [`StateIndex`] a dense signal ranges over, `None` for other
    /// signals. Engines use this (with [`Arc::ptr_eq`]) to check whether a
    /// reused scratch signal still matches the execution's current index.
    pub fn dense_index(&self) -> Option<&Arc<StateIndex<S>>> {
        match &self.repr {
            Repr::Dense(dense) => Some(&dense.index),
            Repr::Sparse(_) | Repr::Listed { .. } => None,
        }
    }

    /// Overwrites a dense signal's mask from precomputed words.
    ///
    /// # Panics
    ///
    /// Panics if the signal is not dense or `words` has the wrong length.
    pub fn copy_dense_words(&mut self, words: &[u64]) {
        match &mut self.repr {
            Repr::Dense(dense) => dense.copy_words(words),
            Repr::Sparse(_) => panic!("copy_dense_words on a sparse signal"),
            Repr::Listed { .. } => panic!("copy_dense_words on a listed signal"),
        }
    }

    /// Returns `true` iff state `q` is sensed (appears at least once in `N⁺(v)`).
    pub fn senses(&self, q: &S) -> bool {
        match &self.repr {
            Repr::Sparse(set) => set.contains(q),
            Repr::Dense(dense) => dense.senses(q),
            Repr::Listed { index, positions } => index
                .position(q)
                .is_some_and(|i| positions.binary_search(&(i as u64)).is_ok()),
        }
    }

    /// Returns `true` iff some sensed state satisfies `pred`.
    pub fn senses_any<F: FnMut(&S) -> bool>(&self, pred: F) -> bool {
        self.iter().any(pred)
    }

    /// Returns `true` iff every sensed state satisfies `pred`.
    pub fn all<F: FnMut(&S) -> bool>(&self, pred: F) -> bool {
        self.iter().all(pred)
    }

    /// Iterates over the sensed states in ascending order.
    #[inline]
    pub fn iter(&self) -> SignalIter<'_, S> {
        match &self.repr {
            Repr::Sparse(set) => SignalIter::Sparse(set.iter()),
            Repr::Dense(dense) => SignalIter::Dense(dense.iter()),
            Repr::Listed { index, positions } => SignalIter::Listed {
                index,
                positions: positions.iter(),
            },
        }
    }

    /// Number of distinct sensed states.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(set) => set.len(),
            Repr::Dense(dense) => dense.len(),
            Repr::Listed { positions, .. } => positions.len(),
        }
    }

    /// Whether nothing is sensed.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Sparse(set) => set.is_empty(),
            Repr::Dense(dense) => dense.is_empty(),
            Repr::Listed { positions, .. } => positions.is_empty(),
        }
    }

    /// Empties the signal, keeping its representation (and, for dense signals,
    /// the index and mask buffer).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Sparse(set) => set.clear(),
            Repr::Dense(dense) => dense.mask.fill(0),
            Repr::Listed { positions, .. } => positions.clear(),
        }
    }

    /// Sets bit `i` of a dense signal directly — the engine's fast path for
    /// states whose index position is already known.
    ///
    /// # Panics
    ///
    /// Panics if the signal is sparse (callers check `is_dense` first).
    pub(crate) fn insert_dense_bit(&mut self, i: usize) {
        match &mut self.repr {
            Repr::Dense(dense) => dense.set_bit(i),
            Repr::Sparse(_) => panic!("insert_dense_bit on a sparse signal"),
            Repr::Listed { .. } => panic!("insert_dense_bit on a listed signal"),
        }
    }

    /// Inserts a state into the signal (used by the executor and by tests).
    ///
    /// Inserting a state that a dense signal's index does not cover degrades
    /// the signal to the sparse representation (behaviour is unchanged).
    pub fn insert(&mut self, q: S)
    where
        S: Clone,
    {
        match &mut self.repr {
            Repr::Sparse(set) => {
                set.insert(q);
            }
            Repr::Dense(dense) => match dense.index.position(&q) {
                Some(i) => dense.set_bit(i),
                None => {
                    let mut set: BTreeSet<S> = dense.iter().cloned().collect();
                    set.insert(q);
                    self.repr = Repr::Sparse(set);
                }
            },
            Repr::Listed { index, positions } => match index.position(&q) {
                Some(i) => {
                    if let Err(at) = positions.binary_search(&(i as u64)) {
                        positions.insert(at, i as u64);
                    }
                }
                None => {
                    let mut set: BTreeSet<S> = self.iter().cloned().collect();
                    set.insert(q);
                    self.repr = Repr::Sparse(set);
                }
            },
        }
    }

    /// Maps every sensed state through `f`, producing the (sparse) signal of the
    /// images.
    ///
    /// This is how composed algorithms (e.g. the synchronizer of Corollary 1.2)
    /// derive the signal a *component* would have seen from the signal of the
    /// *composite* states.
    pub fn map<T: Ord, F: FnMut(&S) -> T>(&self, f: F) -> Signal<T> {
        Signal {
            repr: Repr::Sparse(self.iter().map(f).collect()),
        }
    }

    /// Keeps only the sensed states satisfying `pred` and maps them through `f`.
    pub fn filter_map<T: Ord, F: FnMut(&S) -> Option<T>>(&self, f: F) -> Signal<T> {
        Signal {
            repr: Repr::Sparse(self.iter().filter_map(f).collect()),
        }
    }

    // ---- word-level mask predicates ------------------------------------------
    //
    // Each predicate evaluates on whole mask words when the signal is dense
    // over the *same* index as the mask, and falls back to per-state
    // membership tests otherwise (sparse signals, or a dense signal over a
    // different index) — identical observable results either way.

    /// Returns the dense signal's raw mask words, `None` for sparse signals.
    pub fn dense_words(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Dense(dense) => Some(dense.words()),
            Repr::Sparse(_) | Repr::Listed { .. } => None,
        }
    }

    /// Takes back the positions buffer of a listed signal (see
    /// [`Signal::listed`]) for reuse, `None` for other signals.
    pub fn into_positions(self) -> Option<Vec<u64>> {
        match self.repr {
            Repr::Listed { positions, .. } => Some(positions),
            Repr::Sparse(_) | Repr::Dense(_) => None,
        }
    }

    /// Whether the signal's words can be compared against `mask` directly.
    fn word_comparable(&self, mask: &SignalMask<S>) -> Option<&[u64]> {
        match &self.repr {
            Repr::Dense(dense) if Arc::ptr_eq(&dense.index, mask.index()) => Some(dense.words()),
            _ => None,
        }
    }

    /// Returns `true` iff every sensed state is a member of `mask`
    /// (equivalent to `self.all(|q| mask.contains(q))`).
    #[inline]
    pub fn subset_of(&self, mask: &SignalMask<S>) -> bool {
        match self.word_comparable(mask) {
            Some(words) => mask.superset_of_words(words),
            None => self.iter().all(|q| mask.contains(q)),
        }
    }

    /// Returns `true` iff some sensed state is a member of `mask`
    /// (equivalent to `self.senses_any(|q| mask.contains(q))`).
    #[inline]
    pub fn intersects(&self, mask: &SignalMask<S>) -> bool {
        match self.word_comparable(mask) {
            Some(words) => mask.intersects_words(words),
            None => self.iter().any(|q| mask.contains(q)),
        }
    }

    /// The number of sensed states that are members of `mask`.
    #[inline]
    pub fn count_present(&self, mask: &SignalMask<S>) -> usize {
        match self.word_comparable(mask) {
            Some(words) => mask.count_in_words(words),
            None => self.iter().filter(|q| mask.contains(q)).count(),
        }
    }

    /// Returns `true` iff the sensed set equals the mask's member set exactly.
    #[inline]
    pub fn exactly(&self, mask: &SignalMask<S>) -> bool {
        match self.word_comparable(mask) {
            Some(words) => words == mask.words(),
            None => self.len() == mask.len() && self.subset_of(mask),
        }
    }

    /// Returns `true` iff *every* member of `mask` is sensed (bulk
    /// `senses`). An empty mask is vacuously satisfied.
    #[inline]
    pub fn senses_all_of(&self, mask: &SignalMask<S>) -> bool {
        match self.word_comparable(mask) {
            Some(words) => mask.subset_of_words(words),
            None => mask.iter().all(|q| self.senses(q)),
        }
    }

    /// Returns `true` iff *no* member of `mask` is sensed (bulk negative
    /// `senses`).
    #[inline]
    pub fn senses_none_of(&self, mask: &SignalMask<S>) -> bool {
        !self.intersects(mask)
    }

    /// The minimum sensed state, if any is sensed.
    ///
    /// On dense signals this is the first set mask bit (bit order equals
    /// `Ord` order) — a word scan instead of an iteration.
    pub fn min_state(&self) -> Option<&S> {
        match &self.repr {
            Repr::Sparse(set) => set.first(),
            Repr::Dense(dense) => mask_ops::first_set(dense.words()).map(|i| dense.index.state(i)),
            Repr::Listed { index, positions } => {
                positions.first().map(|&i| index.state(i as usize))
            }
        }
    }

    /// The maximum sensed state, if any is sensed (the last set mask bit on
    /// dense signals).
    pub fn max_state(&self) -> Option<&S> {
        match &self.repr {
            Repr::Sparse(set) => set.last(),
            Repr::Dense(dense) => mask_ops::last_set(dense.words()).map(|i| dense.index.state(i)),
            Repr::Listed { index, positions } => positions.last().map(|&i| index.state(i as usize)),
        }
    }

    /// Returns the minimum sensed value of `f` over all sensed states, if any state is
    /// sensed.
    pub fn min_by_key<T: Ord, F: FnMut(&S) -> T>(&self, f: F) -> Option<T> {
        self.iter().map(f).min()
    }

    /// Returns the maximum sensed value of `f` over all sensed states, if any state is
    /// sensed.
    pub fn max_by_key<T: Ord, F: FnMut(&S) -> T>(&self, f: F) -> Option<T> {
        self.iter().map(f).max()
    }
}

/// Iterator over a [`Signal`]'s sensed states, in ascending order.
pub enum SignalIter<'a, S: Ord> {
    /// Iterating a sparse signal.
    Sparse(std::collections::btree_set::Iter<'a, S>),
    /// Iterating a dense signal.
    Dense(DenseIter<'a, S>),
    /// Iterating a listed signal.
    Listed {
        /// The index the positions refer to.
        index: &'a StateIndex<S>,
        /// The remaining positions.
        positions: std::slice::Iter<'a, u64>,
    },
}

impl<'a, S: Ord> Iterator for SignalIter<'a, S> {
    type Item = &'a S;

    // Inlined into the callers' loops (`senses_any`, `filter_map`, …), so
    // the representation match is hoisted instead of paid per state.
    #[inline]
    fn next(&mut self) -> Option<&'a S> {
        match self {
            SignalIter::Sparse(iter) => iter.next(),
            SignalIter::Dense(iter) => iter.next(),
            SignalIter::Listed { index, positions } => {
                positions.next().map(|&i| index.state(i as usize))
            }
        }
    }
}

impl<S: Ord> FromIterator<S> for Signal<S> {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Signal::from_states(iter)
    }
}

impl<S: Ord + Clone> Extend<S> for Signal<S> {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for q in iter {
            self.insert(q);
        }
    }
}

impl<'a, S: Ord> IntoIterator for &'a Signal<S> {
    type Item = &'a S;
    type IntoIter = SignalIter<'a, S>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_collapsed() {
        let sig = Signal::from_states(vec![3, 3, 3, 1]);
        assert_eq!(sig.len(), 2);
        assert!(sig.senses(&3));
        assert!(sig.senses(&1));
        assert!(!sig.senses(&2));
    }

    #[test]
    fn empty_signal() {
        let sig: Signal<u8> = Signal::empty();
        assert!(sig.is_empty());
        assert!(!sig.senses(&0));
        assert_eq!(sig.min_by_key(|s| *s), None);
    }

    #[test]
    fn senses_any_and_all() {
        let sig = Signal::from_states(vec![2, 4, 6]);
        assert!(sig.senses_any(|s| *s > 5));
        assert!(!sig.senses_any(|s| *s > 6));
        assert!(sig.all(|s| s % 2 == 0));
        assert!(!sig.all(|s| *s < 6));
    }

    #[test]
    fn map_collapses_images() {
        let sig = Signal::from_states(vec![1, 2, 3, 4]);
        let parity = sig.map(|s| s % 2);
        assert_eq!(parity.len(), 2);
        assert!(parity.senses(&0));
        assert!(parity.senses(&1));
    }

    #[test]
    fn filter_map_drops_none() {
        let sig = Signal::from_states(vec![1, 2, 3, 4]);
        let evens = sig.filter_map(|s| (s % 2 == 0).then_some(*s));
        assert_eq!(evens.len(), 2);
        assert!(evens.senses(&2));
        assert!(!evens.senses(&1));
    }

    #[test]
    fn min_max_by_key() {
        let sig = Signal::from_states(vec![5, 9, 1]);
        assert_eq!(sig.min_by_key(|s| *s), Some(1));
        assert_eq!(sig.max_by_key(|s| *s), Some(9));
    }

    #[test]
    fn iteration_is_sorted() {
        let sig = Signal::from_states(vec![9, 1, 5]);
        let collected: Vec<_> = sig.iter().copied().collect();
        assert_eq!(collected, vec![1, 5, 9]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut sig: Signal<u32> = (0..3).collect();
        sig.extend(vec![10, 11]);
        assert_eq!(sig.len(), 5);
        assert!(sig.senses(&11));
    }

    // ---- dense representation -------------------------------------------------

    fn index_0_to_99() -> Arc<StateIndex<u32>> {
        Arc::new(StateIndex::new(0..100u32))
    }

    #[test]
    fn state_index_sorts_and_dedups() {
        let index = StateIndex::new(vec![5, 1, 5, 3, 1]);
        assert_eq!(index.states(), &[1, 3, 5]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.position(&3), Some(1));
        assert_eq!(index.position(&4), None);
        assert_eq!(index.words(), 1);
        assert_eq!(StateIndex::new(0..65u32).words(), 2);
    }

    #[test]
    fn dense_signal_matches_sparse_behaviour() {
        let index = index_0_to_99();
        let mut dense = Signal::dense(index);
        let mut sparse = Signal::empty();
        for q in [7u32, 93, 64, 63, 7] {
            dense.insert(q);
            sparse.insert(q);
        }
        assert_eq!(dense, sparse);
        assert_eq!(dense.len(), 4);
        assert!(dense.senses(&93));
        assert!(!dense.senses(&8));
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        let collected: Vec<u32> = dense.iter().copied().collect();
        assert_eq!(collected, vec![7, 63, 64, 93]);
        assert_eq!(dense.min_by_key(|q| *q), Some(7));
        assert_eq!(dense.max_by_key(|q| *q), Some(93));
    }

    #[test]
    fn dense_insert_outside_index_degrades_to_sparse() {
        let index = Arc::new(StateIndex::new(0..4u32));
        let mut sig = Signal::dense(index);
        sig.insert(2);
        sig.insert(1000);
        assert!(!sig.is_dense());
        assert!(sig.senses(&2));
        assert!(sig.senses(&1000));
        assert_eq!(sig.len(), 2);
    }

    #[test]
    fn copy_dense_words_overwrites_the_mask() {
        let index = index_0_to_99();
        let mut sig = Signal::dense(index.clone());
        sig.insert(3);
        let words = vec![0b101u64, 1u64 << 5];
        sig.copy_dense_words(&words);
        assert!(!sig.senses(&3), "the overwritten mask has no bit 3");
        let collected: Vec<u32> = sig.iter().copied().collect();
        assert_eq!(collected, vec![0, 2, 69]);
        assert_eq!(sig.len(), 3);
    }

    #[test]
    #[should_panic(expected = "sparse signal")]
    fn copy_dense_words_panics_on_sparse() {
        let mut sig: Signal<u32> = Signal::empty();
        sig.copy_dense_words(&[0]);
    }

    #[test]
    fn dense_and_sparse_compare_equal_cross_representation() {
        let index = index_0_to_99();
        let mut dense = Signal::dense(index);
        for q in [0u32, 64, 99] {
            dense.insert(q);
        }
        let sparse = Signal::from_states(vec![0u32, 64, 99]);
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        let other = Signal::from_states(vec![0u32, 64]);
        assert_ne!(dense, other);
    }

    #[test]
    fn dense_debug_renders_states() {
        let index = Arc::new(StateIndex::new(0..10u32));
        let mut sig = Signal::dense(index);
        sig.insert(4);
        assert_eq!(format!("{sig:?}"), "{4}");
    }

    // ---- masks ------------------------------------------------------------

    #[test]
    fn mask_compile_and_membership() {
        let index = index_0_to_99();
        let evens = SignalMask::compile(&index, |q| q % 2 == 0);
        assert_eq!(evens.len(), 50);
        assert!(evens.contains(&64));
        assert!(!evens.contains(&65));
        assert!(!evens.contains(&1000), "unindexed states are never members");
        let collected: Vec<u32> = evens.iter().copied().take(3).collect();
        assert_eq!(collected, vec![0, 2, 4]);
    }

    #[test]
    fn mask_from_states_ignores_unindexed() {
        let index = Arc::new(StateIndex::new(0..8u32));
        let mask = SignalMask::from_states(&index, [&1u32, &5, &99]);
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(&5));
        assert!(!mask.contains(&99));
        let mut mask = SignalMask::empty(index);
        assert!(mask.insert(&3));
        assert!(mask.insert(&3), "re-inserting is fine");
        assert!(!mask.insert(&99));
        assert_eq!(mask.len(), 1);
    }

    /// Every mask predicate must agree across the three evaluation routes:
    /// dense-same-index (word ops), sparse (membership tests), and
    /// dense-other-index (membership tests).
    #[test]
    fn mask_predicates_agree_across_representations() {
        let index = index_0_to_99();
        let other_index = Arc::new(StateIndex::new(0..100u32));
        let mask = SignalMask::compile(&index, |q| *q >= 60 || q % 7 == 0);
        let sensed_sets: [&[u32]; 5] = [
            &[63, 64, 70],
            &[0, 7, 14],
            &[1, 2, 3],
            &[99],
            &[7, 59, 60, 61, 62, 63, 64, 65],
        ];
        for states in sensed_sets {
            let mut dense = Signal::dense(index.clone());
            let mut cross = Signal::dense(other_index.clone());
            let mut sparse = Signal::empty();
            for &q in states {
                dense.insert(q);
                cross.insert(q);
                sparse.insert(q);
            }
            for sig in [&dense, &cross, &sparse] {
                assert_eq!(
                    sig.subset_of(&mask),
                    states.iter().all(|q| mask.contains(q)),
                    "subset_of diverged for {states:?}"
                );
                assert_eq!(
                    sig.intersects(&mask),
                    states.iter().any(|q| mask.contains(q)),
                    "intersects diverged for {states:?}"
                );
                assert_eq!(
                    sig.count_present(&mask),
                    states.iter().filter(|q| mask.contains(q)).count(),
                    "count_present diverged for {states:?}"
                );
                assert_eq!(sig.senses_none_of(&mask), !sig.intersects(&mask));
                assert_eq!(
                    sig.senses_all_of(&mask),
                    mask.iter().all(|q| states.contains(q)),
                    "senses_all_of diverged for {states:?}"
                );
            }
        }
    }

    #[test]
    fn exactly_matches_set_equality() {
        let index = index_0_to_99();
        let mask = SignalMask::from_states(&index, [&3u32, &65]);
        let mut dense = Signal::dense(index.clone());
        dense.insert(3);
        dense.insert(65);
        assert!(dense.exactly(&mask));
        let sparse = Signal::from_states(vec![3u32, 65]);
        assert!(sparse.exactly(&mask));
        dense.insert(4);
        assert!(!dense.exactly(&mask));
        let subset = Signal::from_states(vec![3u32]);
        assert!(!subset.exactly(&mask));
    }

    #[test]
    fn senses_all_of_empty_mask_is_vacuous() {
        let index = index_0_to_99();
        let empty = SignalMask::empty(index.clone());
        let sig = Signal::from_states(vec![1u32, 2]);
        assert!(sig.senses_all_of(&empty));
        assert!(sig.senses_none_of(&empty));
        assert!(!sig.subset_of(&empty));
        assert!(Signal::<u32>::empty().subset_of(&empty));
    }

    #[test]
    fn min_max_state_across_representations() {
        let index = index_0_to_99();
        let mut dense = Signal::dense(index);
        for q in [64u32, 7, 93] {
            dense.insert(q);
        }
        assert_eq!(dense.min_state(), Some(&7));
        assert_eq!(dense.max_state(), Some(&93));
        let sparse = Signal::from_states(vec![64u32, 7, 93]);
        assert_eq!(sparse.min_state(), Some(&7));
        assert_eq!(sparse.max_state(), Some(&93));
        assert_eq!(Signal::<u32>::empty().min_state(), None);
        assert_eq!(Signal::<u32>::empty().max_state(), None);
        let empty_dense = Signal::dense(index_0_to_99());
        assert_eq!(empty_dense.min_state(), None);
        assert_eq!(empty_dense.max_state(), None);
    }

    #[test]
    fn mask_ops_word_helpers() {
        use super::mask_ops;
        assert!(mask_ops::subset(&[0b0101, 0], &[0b1101, 1]));
        assert!(!mask_ops::subset(&[0b0101, 2], &[0b1101, 1]));
        assert!(mask_ops::intersects(&[0, 0b100], &[1, 0b110]));
        assert!(!mask_ops::intersects(&[0b01, 0], &[0b10, 0]));
        assert_eq!(mask_ops::count_and(&[0b111, 1], &[0b101, 3]), 3);
        assert_eq!(mask_ops::first_set(&[0, 0b1000]), Some(67));
        assert_eq!(mask_ops::last_set(&[0b1000, 0]), Some(3));
        assert_eq!(mask_ops::first_set(&[0, 0]), None);
        assert_eq!(mask_ops::last_set(&[]), None);
    }

    #[test]
    fn dense_words_accessor() {
        let index = Arc::new(StateIndex::new(0..70u32));
        let mut sig = Signal::dense(index);
        sig.insert(65);
        assert_eq!(sig.dense_words(), Some(&[0u64, 0b10][..]));
        assert_eq!(Signal::<u32>::empty().dense_words(), None);
    }

    #[test]
    fn listed_signals_behave_like_sparse_ones() {
        let index = index_0_to_99();
        let mut listed = Signal::listed(index.clone(), vec![3, 17, 64]);
        let sparse = Signal::from_states([3u32, 17, 64]);
        assert_eq!(listed, sparse);
        assert!(!listed.is_dense());
        assert_eq!(listed.dense_index(), None);
        assert_eq!(listed.dense_words(), None);
        assert_eq!(listed.len(), 3);
        assert!(listed.senses(&17) && !listed.senses(&18) && !listed.senses(&500));
        assert_eq!(
            (listed.min_state(), listed.max_state()),
            (Some(&3), Some(&64))
        );
        let mask = SignalMask::from_states(&index, [&17u32, &40]);
        assert!(listed.intersects(&mask) && !listed.subset_of(&mask));
        // Inserting an indexed state keeps the list sorted; an unindexed one
        // degrades the signal to sparse, like a dense signal.
        listed.insert(10);
        assert_eq!(listed.iter().copied().collect::<Vec<_>>(), [3, 10, 17, 64]);
        let buffer = listed.clone().into_positions();
        assert_eq!(buffer, Some(vec![3, 10, 17, 64]));
        listed.insert(500);
        assert_eq!(listed, Signal::from_states([3u32, 10, 17, 64, 500]));
        assert_eq!(listed.into_positions(), None);
    }

    #[test]
    fn word_pool_hands_out_zeroed_buffers() {
        let mut pool = WordPool::default();
        let mut buf = pool.take(3);
        buf[1] = 7;
        pool.give(buf);
        assert_eq!(pool.take(2), vec![0, 0]);
    }
}
