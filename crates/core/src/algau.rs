//! AlgAU — the thin self-stabilizing asynchronous unison algorithm (Theorem 1.1).
//!
//! AlgAU is **deterministic**, anonymous and size-uniform. For a diameter bound `D`
//! it fixes `k = 3D + 2` and uses the `4k − 2` turns of [`Turn`]: the `2k` able turns
//! (output states, identified with the clock values of the cyclic group `K` of order
//! `2k`) and the `2(k−1)` faulty turns.
//!
//! A node activated at time `t` applies the first matching rule below (Table 1 of the
//! paper); if none matches it keeps its turn.
//!
//! | type | pre-turn | post-turn | condition |
//! |------|----------|-----------|-----------|
//! | AA | `ℓ̄`, `1 ≤ \|ℓ\| ≤ k` | `φ₊₁(ℓ)‾` | `v` is *good* and `Λ ⊆ {ℓ, φ₊₁(ℓ)}` |
//! | AF | `ℓ̄`, `2 ≤ \|ℓ\| ≤ k` | `ℓ̂` | `v` is not *protected*, or `v` senses `ψ₋₁(ℓ)̂` |
//! | FA | `ℓ̂`, `2 ≤ \|ℓ\| ≤ k` | `ψ₋₁(ℓ)‾` | `v` senses no level in `Ψ>(ℓ)` |
//!
//! where, from the node's own signal, *protected* means every sensed level is adjacent
//! to the node's own level and *good* means protected and no faulty turn sensed.

use crate::level::{Level, Levels};
use crate::turn::Turn;
use rand::RngCore;
use sa_model::algorithm::{Algorithm, MaskedOutcome, MaskedTransition, StateSpace};
use sa_model::signal::{mask_ops, Signal, StateIndex, WordPool};
use std::sync::Arc;

/// Which transition rule (if any) applies at an activation. Exposed so experiment E1
/// can regenerate Table 1 and Figure 1 and so tests can assert rule-level behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// Able → able: advance the clock by one (`ℓ → φ₊₁(ℓ)`).
    AbleAble,
    /// Able → faulty: enter the faulty detour at the same level.
    AbleFaulty,
    /// Faulty → able: complete the detour one unit inwards (`ℓ̂ → ψ₋₁(ℓ)`).
    FaultyAble,
    /// No rule applies; the node keeps its turn.
    Stay,
}

/// The AlgAU algorithm for a given diameter bound `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgAu {
    levels: Levels,
    diameter_bound: usize,
}

impl AlgAu {
    /// Creates AlgAU for the class of graphs of diameter at most `diameter_bound`,
    /// fixing `k = 3·diameter_bound + 2` as in the paper.
    pub fn new(diameter_bound: usize) -> Self {
        AlgAu {
            levels: Levels::for_diameter_bound(diameter_bound),
            diameter_bound,
        }
    }

    /// Creates AlgAU with an explicit level bound `k` (mainly for unit tests of the
    /// level mechanics; the paper's guarantee needs `k = 3D + 2`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn with_level_bound(k: i32) -> Self {
        AlgAu {
            levels: Levels::new(k),
            diameter_bound: 0,
        }
    }

    /// The diameter bound `D` this instance was built for.
    pub fn diameter_bound(&self) -> usize {
        self.diameter_bound
    }

    /// The level bound `k = 3D + 2`.
    pub fn k(&self) -> i32 {
        self.levels.k()
    }

    /// The level universe.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// The order of the output clock group `K` (`2k` clock values).
    pub fn clock_size(&self) -> u32 {
        self.levels.count() as u32
    }

    /// The clock value output by an able turn at `level`.
    pub fn clock_of_level(&self, level: Level) -> u32 {
        self.levels.clock_value(level)
    }

    // ---- node-local predicates, computed from the node's own signal -------------

    /// Whether the node is *protected* according to its signal: every sensed level is
    /// adjacent to its own level. (Equivalent to "all incident edges are protected",
    /// because the signal covers exactly the inclusive neighborhood.)
    pub fn is_protected(&self, own: &Turn, signal: &Signal<Turn>) -> bool {
        let own_level = own.level();
        signal.all(|t| self.levels.adjacent(own_level, t.level()))
    }

    /// Whether the node is *good*: protected and senses no faulty turn.
    pub fn is_good(&self, own: &Turn, signal: &Signal<Turn>) -> bool {
        self.is_protected(own, signal) && !signal.senses_any(|t| t.is_faulty())
    }

    /// Determines which transition rule applies for a node in turn `own` with signal
    /// `signal`. AlgAU is deterministic, so this fully determines the next turn.
    pub fn transition_kind(&self, own: &Turn, signal: &Signal<Turn>) -> TransitionKind {
        debug_assert!(own.is_valid(&self.levels), "invalid own turn {own:?}");
        match own {
            Turn::Able(level) => {
                let next = self.levels.forward(*level);
                // AA: good, and all sensed levels are in {ℓ, φ₊₁(ℓ)}
                if self.is_good(own, signal)
                    && signal.all(|t| t.level() == *level || t.level() == next)
                {
                    return TransitionKind::AbleAble;
                }
                // AF: only for |ℓ| ≥ 2
                if level.abs() >= 2 {
                    let not_protected = !self.is_protected(own, signal);
                    let inward_faulty = self
                        .levels
                        .outwards(*level, -1)
                        .map(|inner| signal.senses(&Turn::Faulty(inner)))
                        .unwrap_or(false);
                    if not_protected || inward_faulty {
                        return TransitionKind::AbleFaulty;
                    }
                }
                TransitionKind::Stay
            }
            Turn::Faulty(level) => {
                // FA: senses no level strictly outwards of ℓ
                let senses_outwards =
                    signal.senses_any(|t| self.levels.is_strictly_outwards(*level, t.level()));
                if !senses_outwards {
                    TransitionKind::FaultyAble
                } else {
                    TransitionKind::Stay
                }
            }
        }
    }

    /// Applies the transition relation and returns the next turn.
    pub fn next_turn(&self, own: &Turn, signal: &Signal<Turn>) -> Turn {
        match self.transition_kind(own, signal) {
            TransitionKind::AbleAble => Turn::Able(self.levels.forward(own.level())),
            TransitionKind::AbleFaulty => Turn::Faulty(own.level()),
            TransitionKind::FaultyAble => Turn::Able(
                self.levels
                    .outwards(own.level(), -1)
                    .expect("faulty turns have |level| ≥ 2, so one unit inwards exists"),
            ),
            TransitionKind::Stay => *own,
        }
    }

    /// Renders the full transition table (the programmatic regeneration of the
    /// paper's Table 1): one row per turn, listing the rule that applies for each
    /// "interesting" signal shape. Used by experiment E1.
    pub fn transition_table(&self) -> Vec<TransitionTableRow> {
        let mut rows = Vec::new();
        for turn in self.states() {
            match turn {
                Turn::Able(l) => {
                    rows.push(TransitionTableRow {
                        from: turn,
                        kind: TransitionKind::AbleAble,
                        to: Turn::Able(self.levels.forward(l)),
                        condition: format!("good and Λ ⊆ {{{l}, {}}}", self.levels.forward(l)),
                    });
                    if l.abs() >= 2 {
                        rows.push(TransitionTableRow {
                            from: turn,
                            kind: TransitionKind::AbleFaulty,
                            to: Turn::Faulty(l),
                            condition: format!(
                                "not protected, or senses faulty({})",
                                self.levels.outwards(l, -1).expect("|l| >= 2")
                            ),
                        });
                    }
                }
                Turn::Faulty(l) => {
                    rows.push(TransitionTableRow {
                        from: turn,
                        kind: TransitionKind::FaultyAble,
                        to: Turn::Able(self.levels.outwards(l, -1).expect("|l| >= 2")),
                        condition: format!("senses no level in Ψ>({l})"),
                    });
                }
            }
        }
        rows
    }

    /// Renders the state diagram (the paper's Figure 1) in Graphviz DOT format:
    /// solid edges for AA transitions, dashed for AF, dotted for FA.
    pub fn state_diagram_dot(&self) -> String {
        let mut out = String::from("digraph algau {\n  rankdir=LR;\n");
        for row in self.transition_table() {
            let style = match row.kind {
                TransitionKind::AbleAble => "solid",
                TransitionKind::AbleFaulty => "dashed",
                TransitionKind::FaultyAble => "dotted",
                TransitionKind::Stay => continue,
            };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [style={style}];\n",
                row.from, row.to
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Sentinel marking "this rule does not apply to this state".
const NO_RULE: u32 = u32::MAX;

/// One turn's transition rule compiled to *member sets*: which sensed
/// turns enable/block each of Table 1's rules, plus the successor turns.
///
/// This is the single compiled encoding of the transition relation:
/// [`AlgAu::compile_masked`] maps the members to bits of its turn index,
/// and the synchronizer composite's factored path runs those same masks on
/// its turn coordinate (reading `aa_next` to recognize a clock advance) —
/// so a change to a Table-1 condition lands in exactly one place (checked
/// against [`AlgAu::next_turn`] by the exhaustive differential test below).
///
/// Rule semantics over a sensed turn set `Λ⁺` (always containing the own
/// turn):
///
/// * **AA** (able turns): applies iff `Λ⁺ ⊆ aa_allowed`; successor
///   `aa_next`.
/// * **AF** (able turns with `|ℓ| ≥ 2`, i.e. `af_next.is_some()`): applies
///   iff `Λ⁺ ⊄ protected` or `Λ⁺ ∩ af_trigger ≠ ∅`; successor `af_next`.
/// * **FA** (faulty turns, i.e. `fa_next.is_some()`): applies iff
///   `Λ⁺ ∩ fa_block = ∅`; successor `fa_next`.
/// * otherwise the turn is kept.
///
/// Member turns that are not actual states (e.g. the AF trigger
/// `Faulty(±1)`) may appear in the lists; a compiler simply finds no index
/// bit for them, exactly like `signal.senses` of a non-state is never true.
#[derive(Debug, Clone)]
pub struct TurnRule {
    /// The own turn the rule applies to.
    pub turn: Turn,
    /// AA membership set `{ℓ̄, φ₊₁(ℓ)‾}` (empty for faulty turns).
    pub aa_allowed: Vec<Turn>,
    /// AA successor (able turns only).
    pub aa_next: Option<Turn>,
    /// Protected set: turns at levels adjacent to `ℓ`.
    pub protected: Vec<Turn>,
    /// AF trigger set `{ψ₋₁(ℓ)̂}`.
    pub af_trigger: Vec<Turn>,
    /// AF successor (`Some` iff the AF rule exists: able, `|ℓ| ≥ 2`).
    pub af_next: Option<Turn>,
    /// FA blocking set: turns at levels in `Ψ>(ℓ)`.
    pub fa_block: Vec<Turn>,
    /// FA successor (`Some` iff the turn is faulty).
    pub fa_next: Option<Turn>,
}

impl AlgAu {
    /// Compiles the transition rule of one turn into member sets (see
    /// [`TurnRule`]).
    ///
    /// # Panics
    ///
    /// Panics if `turn` is not a valid turn of this instance.
    pub fn turn_rule(&self, turn: Turn) -> TurnRule {
        assert!(turn.is_valid(&self.levels), "invalid turn {turn:?}");
        let levels = &self.levels;
        let mut rule = TurnRule {
            turn,
            aa_allowed: Vec::new(),
            aa_next: None,
            protected: Vec::new(),
            af_trigger: Vec::new(),
            af_next: None,
            fa_block: Vec::new(),
            fa_next: None,
        };
        match turn {
            Turn::Able(level) => {
                let next = levels.forward(level);
                // AA: all sensed turns able with level in {ℓ, φ₊₁(ℓ)}.
                rule.aa_allowed = vec![Turn::Able(level), Turn::Able(next)];
                rule.aa_next = Some(Turn::Able(next));
                if level.abs() >= 2 {
                    rule.af_next = Some(Turn::Faulty(level));
                    // Protected: every sensed level adjacent to ℓ, i.e. in
                    // {φ₋₁(ℓ), ℓ, φ₊₁(ℓ)} (cyclic distance ≤ 1) — able or
                    // faulty.
                    for l2 in [levels.backward(level), level, next] {
                        rule.protected.push(Turn::Able(l2));
                        rule.protected.push(Turn::Faulty(l2));
                    }
                    let inner = levels.outwards(level, -1).expect("|ℓ| ≥ 2");
                    rule.af_trigger.push(Turn::Faulty(inner));
                }
            }
            Turn::Faulty(level) => {
                let inner = levels
                    .outwards(level, -1)
                    .expect("faulty turns have |ℓ| ≥ 2");
                rule.fa_next = Some(Turn::Able(inner));
                // FA blocked by any sensed level in Ψ>(ℓ).
                for l2 in levels.strictly_outwards(level) {
                    rule.fa_block.push(Turn::Able(l2));
                    rule.fa_block.push(Turn::Faulty(l2));
                }
            }
        }
        rule
    }
}

/// The mask-compiled form of AlgAU's transition relation: one set of
/// [`SignalMask`](sa_model::signal::SignalMask)-style word rows per state,
/// so every activation evaluates as two or three whole-word subset /
/// intersection tests on the node's neighborhood bitmask — no scratch
/// signal copy, no per-state iteration, no level arithmetic in the hot
/// loop (Table 1's conditions are all *per-sensed-state* predicates, so
/// they compile exactly):
///
/// * **AA** — `good ∧ Λ ⊆ {ℓ, φ₊₁(ℓ)}` ⟺ sensed ⊆ `{ℓ̄, φ₊₁(ℓ)‾}`;
/// * **AF** — `¬protected ∨ ψ₋₁(ℓ)̂ sensed` ⟺ ¬(sensed ⊆ adjacent-levels
///   mask) ∨ sensed ∩ `{ψ₋₁(ℓ)̂}` ≠ ∅ (for `|ℓ| ≥ 2`);
/// * **FA** — `Λ ∩ Ψ>(ℓ) = ∅` ⟺ sensed ∩ outward-levels mask = ∅.
///
/// Built once per execution by [`Algorithm::compile_masked`]; bit-for-bit
/// equivalent to [`AlgAu::next_turn`] (pinned by an exhaustive differential
/// test over every `(state, signal)` pair below, and by the engine
/// equivalence suite).
struct AlgAuMasks {
    words: usize,
    /// Per-state: whether the state is an able turn.
    able: Vec<bool>,
    /// Per-state `words`-wide rows, flattened (`state_idx * words ..`).
    aa_allowed: Vec<u64>,
    protected: Vec<u64>,
    af_trigger: Vec<u64>,
    fa_block: Vec<u64>,
    /// Per-state next-state positions ([`NO_RULE`] where the rule is N/A).
    aa_next: Vec<u32>,
    af_next: Vec<u32>,
    fa_next: Vec<u32>,
}

impl AlgAuMasks {
    /// Compiles the transition relation against `index`, or `None` if the
    /// index does not look like this instance's state space (defensive: the
    /// executor only ever passes the index built from
    /// [`AlgAu::dense_state_space`]).
    fn build(alg: &AlgAu, index: &Arc<StateIndex<Turn>>) -> Option<Self> {
        let q = index.len();
        let words = index.words();
        let levels = alg.levels();
        let mut masks = AlgAuMasks {
            words,
            able: vec![false; q],
            aa_allowed: vec![0; q * words],
            protected: vec![0; q * words],
            af_trigger: vec![0; q * words],
            fa_block: vec![0; q * words],
            aa_next: vec![NO_RULE; q],
            af_next: vec![NO_RULE; q],
            fa_next: vec![NO_RULE; q],
        };
        // Rows are built by setting the bits of the rule's (few) member
        // turns directly — O(members · log |Q|) per row instead of
        // evaluating a predicate against every indexed state, which keeps
        // execution construction cheap even for large level bounds. A turn
        // absent from the index contributes no bit, exactly like
        // `signal.senses` of a non-state is never true on the closure path
        // (e.g. the AF trigger `Faulty(±1)`, which is not a turn). The rule
        // encoding itself comes from [`AlgAu::turn_rule`], which the
        // synchronizer composite's factored path reads too.
        let set = |table: &mut Vec<u64>, si: usize, turn: Turn| {
            if let Some(i) = index.position(&turn) {
                table[si * words + i / 64] |= 1u64 << (i % 64);
            }
        };
        for (si, state) in index.states().iter().enumerate() {
            if !state.is_valid(levels) {
                return None;
            }
            let rule = alg.turn_rule(*state);
            masks.able[si] = state.is_able();
            if let Some(next) = rule.aa_next {
                masks.aa_next[si] = index.position(&next)? as u32;
            }
            for t in &rule.aa_allowed {
                set(&mut masks.aa_allowed, si, *t);
            }
            if let Some(next) = rule.af_next {
                masks.af_next[si] = index.position(&next)? as u32;
                for t in &rule.protected {
                    set(&mut masks.protected, si, *t);
                }
                for t in &rule.af_trigger {
                    set(&mut masks.af_trigger, si, *t);
                }
            }
            if let Some(next) = rule.fa_next {
                masks.fa_next[si] = index.position(&next)? as u32;
                for t in &rule.fa_block {
                    set(&mut masks.fa_block, si, *t);
                }
            }
        }
        Some(masks)
    }

    #[inline]
    fn row<'t>(&self, table: &'t [u64], si: usize) -> &'t [u64] {
        &table[si * self.words..(si + 1) * self.words]
    }
}

impl MaskedTransition<Turn> for AlgAuMasks {
    fn next_index(
        &self,
        state_idx: u32,
        signal_words: &[u64],
        _scratch: &mut WordPool,
        _rng: &mut dyn RngCore,
    ) -> MaskedOutcome<Turn> {
        let si = state_idx as usize;
        if self.able[si] {
            if mask_ops::subset(signal_words, self.row(&self.aa_allowed, si)) {
                return MaskedOutcome::Indexed(self.aa_next[si]);
            }
            if self.af_next[si] != NO_RULE
                && (!mask_ops::subset(signal_words, self.row(&self.protected, si))
                    || mask_ops::intersects(signal_words, self.row(&self.af_trigger, si)))
            {
                return MaskedOutcome::Indexed(self.af_next[si]);
            }
            MaskedOutcome::Indexed(state_idx)
        } else if mask_ops::intersects(signal_words, self.row(&self.fa_block, si)) {
            MaskedOutcome::Indexed(state_idx)
        } else {
            MaskedOutcome::Indexed(self.fa_next[si])
        }
    }
}

/// One row of the regenerated Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionTableRow {
    /// Pre-transition turn.
    pub from: Turn,
    /// The transition type.
    pub kind: TransitionKind,
    /// Post-transition turn.
    pub to: Turn,
    /// Human-readable rendering of the rule's condition.
    pub condition: String,
}

impl Algorithm for AlgAu {
    type State = Turn;
    type Output = u32;

    fn output(&self, state: &Turn) -> Option<u32> {
        match state {
            Turn::Able(l) => Some(self.levels.clock_value(*l)),
            Turn::Faulty(_) => None,
        }
    }

    fn transition(&self, state: &Turn, signal: &Signal<Turn>, _rng: &mut dyn RngCore) -> Turn {
        self.next_turn(state, signal)
    }

    fn dense_state_space(&self) -> Option<Vec<Turn>> {
        // AlgAU's whole point is the fixed 4k − 2 = O(D) state space, so the
        // executor can always run it on dense bitmask signals.
        Some(self.states())
    }

    fn compile_masked<'s>(
        &'s self,
        index: &Arc<StateIndex<Turn>>,
    ) -> Option<Box<dyn MaskedTransition<Turn> + 's>> {
        // Table 1's conditions are all per-sensed-state predicates, so the
        // whole transition relation compiles to word-level subset /
        // intersection tests (see `AlgAuMasks`).
        AlgAuMasks::build(self, index)
            .map(|masks| Box::new(masks) as Box<dyn MaskedTransition<Turn>>)
    }

    fn transition_is_deterministic(&self) -> bool {
        // AlgAU is deterministic (|δ(q, S)| = 1 everywhere) and never reads
        // the RNG, so the executor may memoize its transitions.
        true
    }

    fn name(&self) -> &'static str {
        "AlgAU"
    }
}

impl StateSpace for AlgAu {
    fn states(&self) -> Vec<Turn> {
        let mut states = Vec::with_capacity(2 * self.levels.count() - 2);
        for l in self.levels.iter() {
            states.push(Turn::Able(l));
        }
        for l in self.levels.iter() {
            if l.abs() >= 2 {
                states.push(Turn::Faulty(l));
            }
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::algorithm::StateSpace;

    fn sig(turns: &[Turn]) -> Signal<Turn> {
        Signal::from_states(turns.iter().copied())
    }

    fn rng() -> impl RngCore {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn state_count_is_4k_minus_2() {
        for d in 1..=8 {
            let alg = AlgAu::new(d);
            let k = 3 * d + 2;
            assert_eq!(alg.state_count(), 4 * k - 2);
            assert_eq!(alg.clock_size() as usize, 2 * k);
            // all enumerated states are valid and distinct
            let states = alg.states();
            let unique: std::collections::BTreeSet<_> = states.iter().collect();
            assert_eq!(unique.len(), states.len());
            assert!(states.iter().all(|s| s.is_valid(alg.levels())));
        }
    }

    #[test]
    fn output_states_are_exactly_the_able_turns() {
        let alg = AlgAu::new(2);
        let outputs = alg.output_states();
        assert_eq!(outputs.len(), alg.clock_size() as usize);
        assert!(outputs.iter().all(|t| t.is_able()));
        // ω is surjective onto the clock group
        let mut clocks: Vec<u32> = outputs.iter().map(|t| alg.output(t).unwrap()).collect();
        clocks.sort_unstable();
        let expected: Vec<u32> = (0..alg.clock_size()).collect();
        assert_eq!(clocks, expected);
    }

    #[test]
    fn aa_transition_when_good_and_synchronized() {
        let alg = AlgAu::new(1); // k = 5
                                 // all neighbors at the same level
        let s = sig(&[Turn::Able(3)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::AbleAble
        );
        assert_eq!(alg.next_turn(&Turn::Able(3), &s), Turn::Able(4));
        // neighbors at ℓ and φ(ℓ)
        let s = sig(&[Turn::Able(3), Turn::Able(4)]);
        assert_eq!(alg.next_turn(&Turn::Able(3), &s), Turn::Able(4));
        // wrap-around cases
        let s = sig(&[Turn::Able(-1), Turn::Able(1)]);
        assert_eq!(alg.next_turn(&Turn::Able(-1), &s), Turn::Able(1));
        let s = sig(&[Turn::Able(5), Turn::Able(-5)]);
        assert_eq!(alg.next_turn(&Turn::Able(5), &s), Turn::Able(-5));
    }

    #[test]
    fn aa_blocked_by_lagging_neighbor() {
        let alg = AlgAu::new(1);
        // neighbor one behind (ℓ−1) blocks the advance: Λ ⊄ {ℓ, φ(ℓ)}
        let s = sig(&[Turn::Able(3), Turn::Able(2)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::Stay
        );
        assert_eq!(alg.next_turn(&Turn::Able(3), &s), Turn::Able(3));
    }

    #[test]
    fn aa_blocked_by_faulty_neighbor() {
        let alg = AlgAu::new(1);
        // a faulty neighbor at the same level makes the node not good
        let s = sig(&[Turn::Able(3), Turn::Faulty(3)]);
        let kind = alg.transition_kind(&Turn::Able(3), &s);
        assert_ne!(kind, TransitionKind::AbleAble);
    }

    #[test]
    fn af_transition_when_not_protected() {
        let alg = AlgAu::new(1); // k = 5
                                 // neighbor two levels away -> clock discrepancy -> not protected
        let s = sig(&[Turn::Able(3), Turn::Able(5)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::AbleFaulty
        );
        assert_eq!(alg.next_turn(&Turn::Able(3), &s), Turn::Faulty(3));
    }

    #[test]
    fn af_transition_when_sensing_inward_faulty() {
        let alg = AlgAu::new(1);
        // sensing faulty(ψ₋₁(ℓ)) = faulty(2) drags a node at level 3 into the detour
        let s = sig(&[Turn::Able(3), Turn::Faulty(2)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::AbleFaulty
        );
        // but sensing a faulty at an unrelated level does not (as long as protected)
        let s = sig(&[Turn::Able(3), Turn::Faulty(4)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::Stay
        );
        // and sensing faulty(-2) (opposite sign) does not either
        let s = sig(&[Turn::Able(3), Turn::Faulty(-2)]);
        // note: level -2 is not adjacent to 3, so this is actually "not protected"
        assert_eq!(
            alg.transition_kind(&Turn::Able(3), &s),
            TransitionKind::AbleFaulty
        );
    }

    #[test]
    fn nodes_at_level_one_never_become_faulty() {
        let alg = AlgAu::new(1);
        // AF requires |ℓ| ≥ 2; a node at level 1 facing a discrepancy just stays
        let s = sig(&[Turn::Able(1), Turn::Able(4)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(1), &s),
            TransitionKind::Stay
        );
        let s = sig(&[Turn::Able(-1), Turn::Faulty(-3)]);
        assert_eq!(
            alg.transition_kind(&Turn::Able(-1), &s),
            TransitionKind::Stay
        );
    }

    #[test]
    fn fa_transition_moves_one_unit_inwards() {
        let alg = AlgAu::new(1); // k = 5
        let s = sig(&[Turn::Faulty(3), Turn::Able(2)]);
        assert_eq!(
            alg.transition_kind(&Turn::Faulty(3), &s),
            TransitionKind::FaultyAble
        );
        assert_eq!(alg.next_turn(&Turn::Faulty(3), &s), Turn::Able(2));
        assert_eq!(
            alg.next_turn(&Turn::Faulty(-3), &sig(&[Turn::Faulty(-3)])),
            Turn::Able(-2)
        );
        // faulty at level ±2 returns to level ±1
        assert_eq!(
            alg.next_turn(&Turn::Faulty(2), &sig(&[Turn::Faulty(2)])),
            Turn::Able(1)
        );
        assert_eq!(
            alg.next_turn(&Turn::Faulty(-2), &sig(&[Turn::Faulty(-2)])),
            Turn::Able(-1)
        );
    }

    #[test]
    fn fa_blocked_by_outward_neighbor() {
        let alg = AlgAu::new(1);
        // senses level 4 which is strictly outwards of 3 -> must wait
        let s = sig(&[Turn::Faulty(3), Turn::Able(4)]);
        assert_eq!(
            alg.transition_kind(&Turn::Faulty(3), &s),
            TransitionKind::Stay
        );
        let s = sig(&[Turn::Faulty(3), Turn::Faulty(5)]);
        assert_eq!(
            alg.transition_kind(&Turn::Faulty(3), &s),
            TransitionKind::Stay
        );
        // an outward level of the opposite sign does not block
        let s = sig(&[Turn::Faulty(3), Turn::Able(-4)]);
        assert_eq!(
            alg.transition_kind(&Turn::Faulty(3), &s),
            TransitionKind::FaultyAble
        );
    }

    #[test]
    fn faulty_at_extreme_level_always_returns_lemma_2_12_base_case() {
        let alg = AlgAu::new(1); // k = 5
                                 // Lemma 2.12 base case: a node in turn k̂ (or −k̂) has no outward levels, so it
                                 // performs FA on its next activation regardless of the signal.
        for other in alg.states() {
            let s = sig(&[Turn::Faulty(5), other]);
            assert_eq!(
                alg.transition_kind(&Turn::Faulty(5), &s),
                TransitionKind::FaultyAble,
                "signal {s:?}"
            );
            let s = sig(&[Turn::Faulty(-5), other]);
            assert_eq!(
                alg.transition_kind(&Turn::Faulty(-5), &s),
                TransitionKind::FaultyAble
            );
        }
    }

    #[test]
    fn determinism_rng_is_ignored() {
        let alg = AlgAu::new(2);
        let s = sig(&[Turn::Able(3), Turn::Able(4)]);
        let mut r = rng();
        let a = alg.transition(&Turn::Able(3), &s, &mut r);
        let b = alg.transition(&Turn::Able(3), &s, &mut r);
        assert_eq!(a, b);
    }

    #[test]
    fn transition_table_covers_all_rules() {
        let alg = AlgAu::new(1); // k = 5
        let rows = alg.transition_table();
        let k = 5usize;
        // AA rows: 2k; AF rows: 2(k-1); FA rows: 2(k-1)
        let aa = rows
            .iter()
            .filter(|r| r.kind == TransitionKind::AbleAble)
            .count();
        let af = rows
            .iter()
            .filter(|r| r.kind == TransitionKind::AbleFaulty)
            .count();
        let fa = rows
            .iter()
            .filter(|r| r.kind == TransitionKind::FaultyAble)
            .count();
        assert_eq!(aa, 2 * k);
        assert_eq!(af, 2 * (k - 1));
        assert_eq!(fa, 2 * (k - 1));
        // every row's target state is a valid state
        assert!(rows.iter().all(|r| r.to.is_valid(alg.levels())));
    }

    #[test]
    fn transition_table_is_consistent_with_next_turn() {
        // For every AA row, a node that senses only {ℓ, φ(ℓ)} (all able) indeed moves
        // to the row's target; for every FA row a node sensing nothing outwards moves
        // to the row's target.
        let alg = AlgAu::new(1);
        for row in alg.transition_table() {
            match row.kind {
                TransitionKind::AbleAble => {
                    let s = sig(&[row.from]);
                    assert_eq!(alg.next_turn(&row.from, &s), row.to);
                }
                TransitionKind::FaultyAble => {
                    let s = sig(&[row.from]);
                    assert_eq!(alg.next_turn(&row.from, &s), row.to);
                }
                TransitionKind::AbleFaulty => {
                    // trigger via a clock discrepancy two forward
                    let lvl = row.from.level();
                    let far = alg.levels().forward(alg.levels().forward(lvl));
                    let s = sig(&[row.from, Turn::Able(far)]);
                    assert_eq!(alg.next_turn(&row.from, &s), row.to);
                }
                TransitionKind::Stay => unreachable!("table has no Stay rows"),
            }
        }
    }

    /// Exhaustive differential check of the mask-compiled transition: for
    /// every own state and every signal containing the own state plus up to
    /// two other states (which covers every distinct predicate outcome —
    /// the rules are monotone in the sensed set), the masked path must
    /// return exactly `next_turn`.
    #[test]
    fn masked_transition_matches_next_turn_exhaustively() {
        for d in [1usize, 3] {
            let alg = AlgAu::new(d);
            let index = Arc::new(StateIndex::new(alg.states()));
            let masked = alg
                .compile_masked(&index)
                .expect("AlgAU always compiles masks");
            let states = alg.states();
            let mut rng = rng();
            let mut check = |own: Turn, others: &[Turn]| {
                let mut sensed = vec![own];
                sensed.extend_from_slice(others);
                // Dense signal = the word path the engine uses.
                let mut dense = Signal::dense(index.clone());
                for t in &sensed {
                    dense.insert(*t);
                }
                let expected = alg.next_turn(&own, &dense);
                let si = index.position(&own).unwrap() as u32;
                let words = dense.dense_words().expect("dense signal");
                match masked.next_index(si, words, &mut WordPool::default(), &mut rng) {
                    MaskedOutcome::Indexed(ni) => {
                        assert_eq!(
                            index.state(ni as usize),
                            &expected,
                            "own {own:?}, others {others:?}"
                        );
                    }
                    MaskedOutcome::Escaped(_) => {
                        panic!("AlgAU transitions never leave the state space")
                    }
                }
            };
            for &own in &states {
                check(own, &[]);
                for &a in &states {
                    check(own, &[a]);
                }
            }
            // Size-2 extras on the smaller instance (full cube is O(|Q|³)).
            if d == 1 {
                for &own in &states {
                    for &a in &states {
                        for &b in &states {
                            check(own, &[a, b]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_diagram_mentions_every_state() {
        let alg = AlgAu::new(1);
        let dot = alg.state_diagram_dot();
        assert!(dot.starts_with("digraph"));
        for state in alg.states() {
            assert!(dot.contains(&format!("\"{state}\"")), "missing {state}");
        }
    }
}
