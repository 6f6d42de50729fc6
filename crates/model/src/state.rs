//! Breathing states of the finite state motion model (paper Section 3.1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four states of the respiratory finite state model.
///
/// Regular breathing cycles through `Exhale -> EndOfExhale -> Inhale` in a
/// fixed order; anything that violates the automaton (or fails the
/// segmenter's sanity bounds) is labelled `Irregular`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BreathState {
    /// Motion due to lung deflation: the signal moves towards the baseline.
    Exhale,
    /// Resting phase after lung deflation: the signal dwells near the
    /// baseline.
    EndOfExhale,
    /// Motion due to lung expansion: the signal moves away from the
    /// baseline.
    Inhale,
    /// Irregular breathing: any motion that does not follow the regular
    /// cycle (coughs, breath holds, sensor dropouts, ...).
    Irregular,
}

impl BreathState {
    /// All states, in their canonical order `EX, EOE, IN, IRR`.
    ///
    /// The order matches the index `k = 0, 1, 2, 3` used by the paper's
    /// stability formula (Definition 1).
    pub const ALL: [BreathState; 4] = [
        BreathState::Exhale,
        BreathState::EndOfExhale,
        BreathState::Inhale,
        BreathState::Irregular,
    ];

    /// Number of distinct states.
    pub const COUNT: usize = 4;

    /// Canonical index of this state (`EX = 0`, `EOE = 1`, `IN = 2`,
    /// `IRR = 3`).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            BreathState::Exhale => 0,
            BreathState::EndOfExhale => 1,
            BreathState::Inhale => 2,
            BreathState::Irregular => 3,
        }
    }

    /// Inverse of [`BreathState::index`]. Returns `None` for indices `>= 4`.
    #[inline]
    pub const fn from_index(ix: usize) -> Option<BreathState> {
        match ix {
            0 => Some(BreathState::Exhale),
            1 => Some(BreathState::EndOfExhale),
            2 => Some(BreathState::Inhale),
            3 => Some(BreathState::Irregular),
            _ => None,
        }
    }

    /// The state that follows this one in a *regular* breathing cycle.
    ///
    /// `Irregular` has no regular successor; by convention re-entry into the
    /// regular cycle happens at `Exhale` (the most reliably detectable
    /// phase), so `Irregular.regular_successor() == Exhale`.
    #[inline]
    pub const fn regular_successor(self) -> BreathState {
        match self {
            BreathState::Exhale => BreathState::EndOfExhale,
            BreathState::EndOfExhale => BreathState::Inhale,
            BreathState::Inhale => BreathState::Exhale,
            BreathState::Irregular => BreathState::Exhale,
        }
    }

    /// Whether this is one of the three regular states.
    #[inline]
    pub const fn is_regular(self) -> bool {
        !matches!(self, BreathState::Irregular)
    }

    /// Short mnemonic used throughout the paper (`EX`, `EOE`, `IN`, `IRR`).
    #[inline]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BreathState::Exhale => "EX",
            BreathState::EndOfExhale => "EOE",
            BreathState::Inhale => "IN",
            BreathState::Irregular => "IRR",
        }
    }
}

impl fmt::Display for BreathState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The longest state order [`state_signature`] packs: 60 segments of 2
/// bits each, under the leading length marker, within a `u128`.
pub const MAX_SIGNATURE_LEN: usize = 60;

/// Packs a state order (a sequence of states) into a `u128` signature.
///
/// Two subsequences can only be similar if their state orders are
/// identical (Definition 2, condition 1); comparing packed signatures makes
/// that gate a single integer comparison and gives the database a hashable
/// index key. Each state takes 2 bits, so signatures are exact for
/// sequences of up to [`MAX_SIGNATURE_LEN`] segments (far beyond the query
/// lengths the paper uses — 3 to 9 breathing cycles, i.e. at most ~27
/// segments). Longer sequences return `None` and must be compared
/// element-wise.
#[allow(clippy::explicit_counter_loop)] // n also guards the length cap
pub fn state_signature(states: impl IntoIterator<Item = BreathState>) -> Option<u128> {
    let mut sig: u128 = 1; // leading 1 marks the length
    let mut n = 0usize;
    for s in states {
        if n >= MAX_SIGNATURE_LEN {
            return None;
        }
        sig = (sig << 2) | s.index() as u128;
        n += 1;
    }
    Some(sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for s in BreathState::ALL {
            assert_eq!(BreathState::from_index(s.index()), Some(s));
        }
        assert_eq!(BreathState::from_index(4), None);
    }

    #[test]
    fn regular_cycle_order() {
        use BreathState::*;
        assert_eq!(Exhale.regular_successor(), EndOfExhale);
        assert_eq!(EndOfExhale.regular_successor(), Inhale);
        assert_eq!(Inhale.regular_successor(), Exhale);
        assert_eq!(Irregular.regular_successor(), Exhale);
    }

    #[test]
    fn regularity() {
        assert!(BreathState::Exhale.is_regular());
        assert!(BreathState::EndOfExhale.is_regular());
        assert!(BreathState::Inhale.is_regular());
        assert!(!BreathState::Irregular.is_regular());
    }

    #[test]
    fn display_mnemonics() {
        assert_eq!(BreathState::Exhale.to_string(), "EX");
        assert_eq!(BreathState::EndOfExhale.to_string(), "EOE");
        assert_eq!(BreathState::Inhale.to_string(), "IN");
        assert_eq!(BreathState::Irregular.to_string(), "IRR");
    }

    #[test]
    fn signature_distinguishes_orders() {
        use BreathState::*;
        let a = state_signature([Exhale, EndOfExhale, Inhale]).unwrap();
        let b = state_signature([Inhale, EndOfExhale, Exhale]).unwrap();
        let c = state_signature([Exhale, EndOfExhale]).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Identical orders collide (that is the point).
        let a2 = state_signature([Exhale, EndOfExhale, Inhale]).unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn signature_length_sensitivity() {
        use BreathState::*;
        // EX == index 0: leading-1 marker must distinguish [EX] from [EX, EX].
        let one = state_signature([Exhale]).unwrap();
        let two = state_signature([Exhale, Exhale]).unwrap();
        assert_ne!(one, two);
    }

    #[test]
    fn signature_overflows_to_none() {
        let long = vec![BreathState::Exhale; MAX_SIGNATURE_LEN + 1];
        assert_eq!(state_signature(long), None);
        let ok = vec![BreathState::Exhale; MAX_SIGNATURE_LEN];
        assert!(state_signature(ok).is_some());
    }
}
